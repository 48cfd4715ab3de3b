"""A fixed reference loop that measures how fast the host runs right now.

On a shared virtual machine the speed of the same code drifts by tens
of percent over a minute, far more than the effects the benchmark is
meant to resolve.  Workers run this loop between calls; each call's
time is then scaled by ``REFERENCE_S`` over the loop time measured
around it, which removes the host's drift from the reported figures.
The loop mixes what galois-solve spends its time on: JSON number
parsing, per-element Python work on floats and dicts, and numpy
reductions over blocks.  It never calls galois-solve, so no change to
the program can change it.
"""

import json
import time

import numpy as np

#: Loop time on the host the reported figures are scaled to (a 2-core
#: x86-64 VM, Python 3.11, numpy 2.4, measured while otherwise idle).
REFERENCE_S = 0.09


class ReferenceLoop:
    """Inputs built once; :meth:`run` does the same work every time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._text = json.dumps(rng.normal(size=6000).tolist())
        self._block = rng.normal(size=(128, 2048))
        self._lam = rng.normal(size=2048)

    def run(self) -> float:
        """Seconds one pass takes now."""
        t0 = time.perf_counter()
        values = json.loads(self._text)
        values = values + json.loads(self._text)
        table = {}
        for k, v in enumerate(values * 16):
            table[str(k & 4095)] = float(v) * 0.5 if v > -1e300 else -float("inf")
        for _ in range(60):
            block = self._block - self._lam
            block.max(axis=1)
            block.argmax(axis=1)
        return time.perf_counter() - t0

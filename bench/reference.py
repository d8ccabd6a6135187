"""A fixed reference task that measures the machine's speed during a run.

The CPU of a shared host changes speed by up to 1.8x within a second and
drifts by 10-20% over minutes.  run.py times this task between every two
operations of a pass, so that its timings sample the machine's speed at the
same moments as the workload's, and scales the workload's times by
``REFERENCE_S`` over the task's mean time.

The task multiplies sparse polynomials held as dicts keyed by exponent
tuples, the same kind of interpreter work as the package's kernel, but it
uses nothing from tetraflows, so a change to the package cannot change it.
Its inputs are fixed; the workload seed does not touch them.
"""

from __future__ import annotations

import random

# The task's mean time between the operations of a workload on the machine
# where the baseline was taken (Intel Xeon, 2 CPUs, Python 3.11.7), rounded.
# Scaled times read as seconds on a machine that runs the task in this time.
REFERENCE_S = 0.02


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


class Reference:
    """Two products of fixed polynomials in 5 variables, about 6000 terms."""

    def __init__(self):
        rng = random.Random(7)

        def poly(n: int) -> dict:
            return {tuple(rng.randint(0, 4) for _ in range(5)): rng.randint(1, 9) for _ in range(n)}

        self.a, self.b = poly(60), poly(60)
        self.c = dict(list(self.b.items())[:2])

    def run(self) -> int:
        return len(_mul(_mul(self.a, self.b), self.c))

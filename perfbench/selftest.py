"""Self-test of the benchmark's correctness checks.

For each workload, the check must pass on the program's real outputs and
fail on one planted wrong answer:

* noether_envelope: H perturbed by 1e-6 against the closed form;
* bracket_algebra: the sign of {b, a} flipped;
* membership_points: a non-bracketable form reported as accepted.

    python3 perfbench/selftest.py

Exits with code 1 when a check misses its planted fault or rejects a real
output.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from polyfield.brackets import PointwiseXi  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def noether_envelope(w, state, items):
    item = items[0]  # carries the closed-form and central-difference checks
    H = state[item.model][1]
    out = w.run(state, item)
    return w.check(state, item, out), \
        w.check(state, item, out, h_value=lambda pt: H.value(pt) + 1e-6)


def bracket_algebra(w, state, items):
    item = items[1]  # full_chart(3, 2)
    pa, pb, ab, ba = out = w.run(state, item)
    return w.check(state, item, out), w.check(state, item, (pa, pb, ab, -ba))


def membership_points(w, state, items):
    item = next(it for it in items if not it.bracketable)
    out = w.run(state, item)
    return w.check(state, item, out), \
        w.check(state, item, PointwiseXi(item.form, 0.0, False))


PLANTED = {
    "noether_envelope": ("H + 1e-6", noether_envelope),
    "bracket_algebra": ("sign of {b,a} flipped", bracket_algebra),
    "membership_points": ("bad form accepted", membership_points),
}


def main():
    ok = True
    for name, (fault, case) in PLANTED.items():
        w = WORKLOADS[name]
        state = w.setup()
        genuine, planted = case(w, state, w.round_inputs(state, SEED, 0))
        if genuine:
            ok = False
            print(f"FAIL {name}: real output rejected: {genuine}")
        if planted:
            print(f"ok   {name}: planted fault ({fault}) caught: {planted[0]}")
        else:
            ok = False
            print(f"FAIL {name}: planted fault ({fault}) not caught")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

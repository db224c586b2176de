"""Marching pairs of the approximate solution, for the commutator check.

The separation proof starts from the approximate solution U_app, built by
modulation theory and evaluated as ``profiles.eval_uapp(s, b, Y)``.  On a
pair of U_app profiles, ``eval_uapp(s, 1/s, Y)`` at s1 and at s2 =
(1 + ds_rel/2) s1, the march's pair step, ``diagnostics.commutator_gap``
checked with b = 1/s_mid has a known answer:

- the identity closes to about 2e-5, far below the check's tolerance;
- checked at 0.975 b, the gap is the 2.5% error in b, about 0.025;
- with the static error delta Y**2 exp(-Y) added to both profiles, the gap
  exceeds the tolerance at delta = 1e-5 (0.27 to 1.2 against about 0.04).

The pairs are built on the audit's wall-unit grid at s_mid, with the audit's
``n_rescaled`` nodes and no profile span to cut it.

Run as a script, ``python tests/uapp_pairs.py`` prints the gaps and the
tolerances of the three cases at s1 = 7.2e2, 2.7e4 and 5.3e5.
"""

import numpy as np

from prandtlsep import diagnostics as dg
from prandtlsep import modulation as md
from prandtlsep import profiles as pr
from prandtlsep.cli import RunConfig
from prandtlsep.gridfields import Field
from prandtlsep.operators import OperatorContext

#: the first slow times of the three pairs: the first checked pair of a
#: default run, a middle one and the latest
S_FIRST = (7.2e2, 2.7e4, 5.3e5)

#: the factor on b of the mis-rated check, and the static error's size
B_FACTOR = 0.975
DELTA = 1e-5


def uapp_pair_gap(s1: float, b_factor: float = 1.0, delta: float = 0.0) -> dict:
    """``commutator_gap`` on the U_app pair from s1, both profiles plus
    ``delta`` Y**2 exp(-Y), checked with b = ``b_factor`` / s_mid."""
    s2 = (1.0 + 0.5 * RunConfig.ds_rel) * s1
    s_mid = 0.5 * (s1 + s2)
    grid = md.standard_rescaled_grid(s_mid, RunConfig.n_rescaled, reach=np.inf)
    Y = grid.nodes
    ctx1, ctx2 = (OperatorContext.from_profile(Field(
        grid, pr.eval_uapp(s, 1.0 / s, Y) + delta * Y**2 * np.exp(-Y)))
        for s in (s1, s2))
    return dg.commutator_gap(ctx1, ctx2, s1, s2, b_factor / s_mid)


#: the three cases as (name, keyword arguments of ``uapp_pair_gap``)
CASES = (("U_app, b = 1/s_mid", {}),
         (f"same pairs checked at {B_FACTOR}·b", {"b_factor": B_FACTOR}),
         (f"both states + {DELTA:g}·Y²·e^(−Y)", {"delta": DELTA}))


if __name__ == "__main__":
    import time

    t0 = time.perf_counter()
    rows = [(name, [uapp_pair_gap(s, **kwargs) for s in S_FIRST])
            for name, kwargs in CASES]
    elapsed = time.perf_counter() - t0
    print("| case | " + " | ".join(f"gap at s1 = {s:.1e}" for s in S_FIRST) + " |")
    print("| --- |" + " --- |" * len(S_FIRST))
    for name, checks in rows:
        print(f"| {name} | " + " | ".join(
            f"{c['relative_gap']:#.3g}" for c in checks) + " |")
    print("| tolerance | " + " | ".join(
        f"{c['tolerance']:.4f}" for c in rows[0][1]) + " |")
    print(f"\n{len(rows) * len(S_FIRST)} checks in {elapsed:.2f} s")

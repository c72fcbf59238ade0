"""Temporal cost-of-accuracy: spectral space-time vs backward Euler.

The ``stheat compare`` sweep of the cooling design problem on levels of
its own: the space-time spectral solver at a few collocation counts and
backward-Euler marching over quadrupling step counts, with the max design
change between consecutive levels.  The spectral scheme reaches changes
the marching scheme needs thousands of steps to match.
"""

from stheat.cli import compare
from stheat.config import RunConfig

cfg = RunConfig(
    nt_nodes_sweep=(9, 11, 13),
    nt_steps_sweep=(64, 256, 1024, 4096),
    repeats=1,
).validate()
cells, _, _ = compare(cfg)

print(f"{'solver':>9} {'Nt':>6} {'J':>12} {'cross-level |d rho|':>20} {'seconds':>8}")
for c in cells:
    change = "" if c["delta_rho_inf"] is None else f"{c['delta_rho_inf']:.2e}"
    print(f"{c['solver']:>9} {c['level']:>6} {c['J']:>12.6f} {change:>20} {c['wall_s']:>8.2f}")

"""Shared numeric tolerances and desk-scale limits.

Every comparison in the package funnels through a single absolute tolerance
so that callers can tighten or relax the whole stack coherently.
"""

# Absolute tolerance for feasibility, optimality and set-membership checks.
DEFAULT_TOL = 1e-9

# Merge radius of constraints.merge_rows: a vertex, or a convex-hull facet
# equation, within this sup distance of one already kept is the same row.
DEDUP_TOL = 1e-7

# Regime test of the support reduction: a full radius R within this of the
# support optimum alpha is matched (R == alpha), farther above it is a gap.
REGIME_TOL = 1e-9

# Simplex pivot guards.
PIVOT_EPS = 1e-10
LP_MAX_ITER = 50_000

# Side of the bounding box used when optimizing over an unbounded affine
# subspace, as a multiple of the data magnitude.
BOX_FACTOR = 10.0

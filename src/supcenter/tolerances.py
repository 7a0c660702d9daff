"""Numeric tolerances and desk-scale limits, named in one place.

There is one tolerance, DEFAULT_TOL, read where each comparison is made, never
passed as a parameter.  Each threshold names its scale, or says absolute.
"""

# Absolute tolerance for feasibility, optimality and set-membership checks.
DEFAULT_TOL = 1e-9

# Absolute: the gaps garkavi.half_ball_check reports pass at or below this.
SET_TOL = 1e-7

# Merge radius of constraints.merge_rows: a vertex, or a convex-hull facet
# equation, within this sup distance of one already kept is the same row.
DEDUP_TOL = 1e-7

# Regime test of the support reduction: a full radius R within this of the
# support optimum alpha is matched (R == alpha), farther above it is a gap.
REGIME_TOL = 1e-9
# Absolute: construct.admissible_slack uses the gap formula for alpha above this.
GAP_FORMULA_FLOOR = 10.0 * DEFAULT_TOL

# Simplex pivot guards.  PIVOT_EPS (absolute) is the smallest pivot-column
# entry a ratio test accepts, and the tie window of Bland's leaving rule: the
# rows whose ratio is within PIVOT_EPS of the least tie.
PIVOT_EPS = 1e-10
LP_MAX_ITER = 50_000

# Absolute: a basic artificial left after phase 1 leaves on the first core
# column whose entry in its row exceeds this in magnitude.
DRIVE_OUT_EPS = 1e-8

# Relative to the LP's rhs scale 1 + max|b|: phase 1 reports infeasible
# above DEFAULT_TOL * scale * FEAS_FACTOR.
FEAS_FACTOR = 10.0

# Relative to the LP's rhs scale: the returned point may violate a row by at
# most max(DEFAULT_TOL * scale * FEAS_FACTOR, CERTIFY_FLOOR * scale).
CERTIFY_FLOOR = 1e-7

# Relative to DEFAULT_TOL: a certificate (a center polytope holding its own
# LP minimizer, a perturbed or repaired point inside V and within its radius
# bound, a vertex candidate inside its polytope) accepts a residual of up to
# DEFAULT_TOL * CERTIFY_SLACK_FACTOR.
CERTIFY_SLACK_FACTOR = 100.0

# Vertex enumeration, relative to the rhs scale 1 + max|b| of the system: the
# base point of the equalities' chart (constraints._chart), solved from their
# independent rows, may miss the others by EQ_CONSISTENT_TOL.
EQ_CONSISTENT_TOL = 1e-7
# Absolute: a row restricted to the equalities' chart is zero below this norm.
NULL_ROW_TOL = 1e-12
# Absolute, the one zero test of the double description on its unit-norm
# rows and rays: a ray is tight on a row when their product is within it, a
# vertex when its t exceeds it, and a row adds rank when its residual does.
RAY_ZERO_TOL = 1e-10
# Relative to 1 + max|vertex|: a vertex candidate may violate its polytope by
# this, and always by DEFAULT_TOL * CERTIFY_SLACK_FACTOR.
VERTEX_FILTER_TOL = 1e-7

# Absolute: added to the certificate slack of a center_set minimizer.
CENTER_FLOOR = 1e-12
# Absolute: the gaps of the scaling and threshold identity checks pass at or
# below IDENTITY_SET_TOL, and THRESHOLD_MARGIN is the margin above tau past
# which the threshold equality is asserted.
IDENTITY_SET_TOL = 1e-6
THRESHOLD_MARGIN = 1e-6

# Relative to delta_max: the default slack of stability.p1_modulus's
# degeneracy probe, the least slack it tries before reporting a zero modulus.
MODULUS_RESOLUTION = 1e-4

# Relative to delta_max: stability.p1_modulus accepts a slack delta once a
# probe at delta + MODULUS_CONFIRM_STEP * delta_max has failed, and keeps
# every secant point at least this far inside its bracket.
MODULUS_CONFIRM_STEP = 1e-7

# Absolute count: secant steps p1_modulus may take after its two bracket
# probes before it gives up with LPNumericalError.
MODULUS_MAX_STEPS = 64

# Absolute: check-lemmas runs its perturbation step only on draws whose
# radius exceeds this.
PERTURB_RADIUS_FLOOR = 1e-6

# Renormed-ball model (garkavi), all absolute.  DEFAULT_THETA is the default
# slab shrink theta, the margin the slab keeps below the critical level alpha.
# GAUGE_CERTIFY_TOL bounds the gauge certificates: gauge(x0) may miss 1, and a
# point recovered from the gauge decomposition may leave B_gamma, by this.  B
# and B cap Y hold the origin inside only when its least facet distance
# exceeds HULL_MARGIN_FLOOR; a replay direction is null below NULL_DIRECTION_TOL.
DEFAULT_THETA = 1e-3
GAUGE_CERTIFY_TOL = 1e-7
HULL_MARGIN_FLOOR = 1e-12
NULL_DIRECTION_TOL = 1e-12

# Relative to |z|_inf: the certificate bar of a gauge decomposition of z,
# which must reassemble z, hold its parts in their scaled polytopes and sum
# its weights to the facet value, each within this.
GAUGE_SPLIT_TOL = 1e-9

# Edge graph of the renormed ball B (garkavi), whose hull points have
# |z|_inf <= 1.  EDGE_INCIDENCE_TOL is relative to a facet row's 1-norm |a|_1,
# the most a.z reaches on them: a hull point lies on the facet a.z <= 1 when
# |a.z - 1| is within it (on-facet points miss by 1e-15 at most, off-facet
# points by 1e-8 or more down to gamma = 6e-8).  SECTION_LEVEL_TOL is absolute,
# in x0-levels, where B's vertices sit at -1, 0 and 1: a vertex within it of a
# section's level c lies on the section, and an edge crosses c only when its
# ends lie past it on opposite sides, so a section vertex moves by at most
# 2 * SECTION_LEVEL_TOL (an edge rises at least 1 over a sup-length of at most 2).
EDGE_INCIDENCE_TOL = 1e-10
SECTION_LEVEL_TOL = 1e-14

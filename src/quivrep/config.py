"""Numerical policy: fixed thresholds and the one scoped tolerance."""

from contextvars import ContextVar

# Relative tolerance for invertibility tests, nonzero-scalar tests and
# subspace inclusion checks.  `quivrep --tol` sets it for one command.
TOL: ContextVar[float] = ContextVar("TOL", default=1e-9)
# Nullspace / rank cutoff: a singular value counts as zero when it is
# <= sigma_max * max(rows, cols) * SVD_FACTOR.
SVD_FACTOR = 2.0**-40
# A pivot of the Hom elimination needs sigma_min > PIVOT_TOL * max(sigma_max, the
# largest entry of the system): it then amplifies rounding error at most ~1/PIVOT_TOL.
PIVOT_TOL = 1e-3
# Searching a system for structure pays from SPLIT_MIN_COLS columns on (2-vCPU timings).
# Below it `hom.hom_basis` factors a Hom system whole, planning it only if that overflows:
# one reflect-small pass's 241 such systems took 53-59 ms whole, 95-100 ms planned, and at
# 50 columns four-subspace's took 0.51-0.56 ms whole, 0.50-0.72 ms planned.  From it on
# `linalg.nullspace_with_values` splits a system by its nonzero pattern: a 64-column
# e7tilde End took 1.1 ms whole and 0.48 ms split, a 36-column e6tilde End 0.43 ms either way.
SPLIT_MIN_COLS = 64
# Eigenvalue clusters are merged while closer than CLUSTER_GAP * spectral radius.
CLUSTER_GAP = 1e-6
# Acceptance threshold for idempotent residuals and End-membership residuals.
IDEM_TOL = 1e-8
# Random draws before the idempotent / isomorphism searches give up.
IDEM_TRIALS = 8
ISO_TRIALS = 8

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
# A system of at least SPLIT_MIN_COLS columns is factored one block of its nonzero
# pattern at a time.  Below it one SVD costs no more than finding the blocks: on a
# 2-vCPU machine a 36-column e6tilde End took 0.43 ms either way, a 64-column
# e7tilde End 1.1 ms whole and 0.48 ms split.
SPLIT_MIN_COLS = 64
# Eigenvalue clusters are merged while closer than CLUSTER_GAP * spectral radius.
CLUSTER_GAP = 1e-6
# Acceptance threshold for idempotent residuals and End-membership residuals.
IDEM_TOL = 1e-8
# Random draws before the idempotent / isomorphism searches give up.
IDEM_TRIALS = 8
ISO_TRIALS = 8

"""Deterministic dense linear algebra helpers shared by the whole package.

All basis-producing routines normalize the phase of every basis vector so
that its largest-magnitude entry is real positive; combined with LAPACK's
deterministic factorizations this makes repeated runs byte-identical.
"""

from __future__ import annotations

import numpy as np

from .config import CLUSTER_GAP, SVD_FACTOR, TOL


def read_only(a) -> np.ndarray:
    """A copy of `a` that raises ValueError on writes, for objects that cache what they derive."""
    a = np.array(a)
    a.flags.writeable = False
    return a


def phase_normalize(columns: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = np.array(columns, dtype=complex, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        z = col[k]
        if abs(z) > 0:
            out[:, j] = col * (np.conj(z) / abs(z))
    return out


def svd_cutoff(singular_values, shape, scale: float = 0.0) -> float:
    """Threshold below which a singular value counts as zero.

    It is relative to sigma_max, or to `scale` when that is larger: a known
    lower bound on the norm of a system this one was reduced from.  The
    factor max(shape) * SVD_FACTOR is formed first (exactly: SVD_FACTOR is a
    power of two), so the cutoff is finite whenever sigma_max is; a sigma_max
    that is not finite raises OverflowError.
    """
    if len(singular_values) == 0:
        return 0.0
    top = max(float(singular_values[0]), scale)
    if not np.isfinite(top):
        raise OverflowError("the largest singular value is not finite")
    return top * (max(shape) * SVD_FACTOR)


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """The real view of a complex array whose imaginary part is exactly zero.

    Rank and nullity do not depend on the scalar field, and a real-field SVD
    is several times cheaper than a complex one, so factorizations switch to
    the real path whenever nothing imaginary is present.
    """
    if np.iscomplexobj(a) and not a.imag.any():
        return a.real
    return a


def matrix_rank(a) -> int:
    a = np.asarray(a)
    s = np.linalg.svd(real_if_exact(a), compute_uv=False)
    return int(np.sum(s > svd_cutoff(s, a.shape)))


def nullspace_with_values(a, scale: float = 0.0, shape=None) -> tuple[np.ndarray, float, np.ndarray]:
    """(singular values, cutoff, orthonormal nullspace columns) from one factorization.

    The cutoff is `svd_cutoff(s, shape, scale)`, `shape` defaulting to the
    shape of `a`; a system reduced from a larger one passes that system's
    shape and a lower bound on its norm.
    """
    a = np.asarray(a, dtype=complex)
    rows, cols = a.shape
    # a tall system needs only the thin U; Vh is complete either way
    _, s, vh = np.linalg.svd(real_if_exact(a), full_matrices=rows < cols)
    cutoff = svd_cutoff(s, a.shape if shape is None else shape, scale)
    rank = int(np.sum(s > cutoff))
    return s, cutoff, phase_normalize(vh[rank:].conj().T)


def nullspace(a) -> np.ndarray:
    """Orthonormal columns spanning ker(a), deterministically normalized."""
    return nullspace_with_values(a)[2]


def orth(a) -> np.ndarray:
    """Orthonormal basis of the column space of `a` (rank-revealing)."""
    a = np.asarray(a, dtype=complex)
    u, s, _ = np.linalg.svd(real_if_exact(a), full_matrices=False)
    rank = int(np.sum(s > svd_cutoff(s, a.shape)))
    return phase_normalize(u[:, :rank])


def qr_orthonormalize(a) -> np.ndarray:
    """Orthonormalize the columns of a full-column-rank matrix (plain QR, no pivoting)."""
    a = np.asarray(a, dtype=complex)
    if a.shape[1] == 0:
        return a.copy()
    q, r = np.linalg.qr(a)
    d = np.abs(np.diagonal(r))
    if np.min(d) <= np.max(d) * TOL.get():
        raise ValueError(
            f"columns are numerically dependent (diagonal ratio {np.min(d) / max(np.max(d), 1e-300):.2e})"
        )
    return phase_normalize(q)


def is_invertible(a) -> bool:
    """Square matrix invertibility via sigma_min > TOL * sigma_max; 0x0 counts as invertible."""
    a = np.asarray(a)
    n, m = a.shape
    if n != m:
        return False
    if n == 0:
        return True
    s = np.linalg.svd(real_if_exact(a), compute_uv=False)
    if s[0] == 0.0:
        return False
    return bool(s[-1] > TOL.get() * s[0])


def connected_components(n: int, edges) -> list[list[int]]:
    """Components of the undirected graph on 0..n-1 with the given (i, j) edges.

    Each component lists its members in increasing order; components are
    ordered by their smallest member.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def cluster_eigenvalues(eigs) -> list[list[int]]:
    """Single-linkage clusters of complex eigenvalues.

    Two eigenvalues join the same cluster when their distance is at most
    CLUSTER_GAP * spectral radius.  A zero spectral radius yields one cluster.
    Clusters are returned ordered by their lexicographically smallest member
    (real part, then imaginary part); each cluster lists member indices.
    """
    eigs = np.asarray(eigs)
    m = len(eigs)
    if m == 0:
        return []
    gap = CLUSTER_GAP * float(np.max(np.abs(eigs)))

    close = np.triu(np.abs(eigs[:, None] - eigs[None, :]) <= gap, k=1)
    groups = connected_components(m, zip(*(idx.tolist() for idx in np.nonzero(close))))

    def sort_key(members):
        vals = [(eigs[i].real, eigs[i].imag) for i in members]
        return min(vals)

    return sorted(groups, key=sort_key)


def spectral_projection(a, centroids, chosen: int) -> np.ndarray:
    """Spectral projection of `a` onto its eigenvalues near `centroids[chosen]`.

    Every eigenvalue of `a` should lie near one of the centroids.  The
    Lagrange polynomial L of the centroids, 1 at the chosen one and 0 at the
    others, maps those eigenvalues near 1 and the rest near 0, so they lie on
    either side of the imaginary axis for S = 2 L(a) - I.  Newton's iteration
    S <- (S + S^-1) / 2 converges quadratically to sign(S) (Roberts, Int. J.
    Control 32, 1980; Higham, Functions of Matrices, 2008, ch. 5), and the
    projection is (I + sign(S)) / 2.  It is one holomorphic function of `a`,
    so applied to every block of an algebra element it stays in the algebra.
    The error after a step is at most about ||S_k+1 - S_k||^2 ||S_k^-1||, so
    the iteration stops once that is below n eps ||S_k+1||.  It raises
    LinAlgError on a singular iterate and ValueError when 100 steps do not get
    there: then an eigenvalue of `a` sits on or near the boundary.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    c = np.asarray(centroids, dtype=complex)
    lagrange = eye
    for z in np.delete(c, chosen):
        lagrange = lagrange @ (a - z * eye) / (c[chosen] - z)
    s = 2 * lagrange - eye
    for _ in range(100):
        inv = np.linalg.inv(s)
        nxt = (s + inv) / 2
        step, size = np.linalg.norm(nxt - s), np.linalg.norm(nxt)
        if not np.isfinite(step):
            break
        if step * step * np.linalg.norm(inv) <= n * np.finfo(float).eps * size:
            return (eye + nxt) / 2
        s = nxt
    raise ValueError("the sign iteration did not converge: an eigenvalue is near the boundary")

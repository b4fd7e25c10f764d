"""Deterministic dense linear algebra helpers shared by the whole package.

All basis-producing routines normalize the phase of every basis vector so
that its largest-magnitude entry is real positive; combined with LAPACK's
deterministic factorizations this makes repeated runs byte-identical.
"""

from __future__ import annotations

import numpy as np

from .config import CLUSTER_GAP, PIVOT_TOL, SPLIT_MIN_COLS, SVD_FACTOR, TOL


def read_only(a) -> np.ndarray:
    """A copy of `a` that raises ValueError on writes, for objects that cache what they derive."""
    a = np.array(a)
    a.flags.writeable = False
    return a


def phase_normalize(columns: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry (the first, on a tie) is real positive.

    A zero column stays as it is.
    """
    out = np.array(columns, dtype=complex, copy=True)
    if out.size == 0:
        return out
    size = np.abs(out)
    at = (size.argmax(axis=0), np.arange(out.shape[1]))
    top, size = out[at], size[at]
    live = size > 0
    out *= np.where(live, top.conj(), 1) / np.where(live, size, 1)
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
    the real path whenever nothing imaginary is present.  `hom.hom_basis`
    solves a Hom of two real representations in real arithmetic throughout;
    it returns it complex, its basis possibly rotated within the same space.
    """
    if np.iscomplexobj(a) and not a.imag.any():
        return a.real
    return a


def matrix_rank(a) -> int:
    a = np.asarray(a)
    s = np.linalg.svd(real_if_exact(a), compute_uv=False)
    return int(np.sum(s > svd_cutoff(s, a.shape)))


def _blocks(a: np.ndarray, scale: float = 0.0):
    """(rows, columns) of each connected component of the exact nonzero pattern of `a`.

    Two columns are joined when some row is nonzero in both; a row lies in
    the block of its columns, a zero column is a block with no rows, and
    blocks come in order of their smallest column.  With `scale` > 0, while a
    row has exactly one nonzero entry a_ij in the columns left and |a_ij| >
    PIVOT_TOL * max(scale, max |a|) (`hom._pivot_blocks`' rule for a 1 x 1
    block), column j is peeled: it lies in no block.  As a_ij != 0, ker A =
    ker A'' ⊕ 0 and ||A x|| = ||A'' x''|| for x = (x'', 0), A'' the columns
    left.  None when nothing was peeled and the search cannot pay: fewer than
    SPLIT_MIN_COLS columns, no nonzero entry, a row with no zero entry (it
    joins every column), or a single block.
    """
    n = a.shape[1]
    if n < SPLIT_MIN_COLS:
        return None
    nonzero, live = a != 0, np.ones(n, dtype=bool)
    if scale:
        size = np.abs(a)
        big, count = size > PIVOT_TOL * max(scale, size.max(initial=0.0)), nonzero.sum(axis=1)
        fresh = count == 1  # a row once checked as a singleton can only lose its entry later
        while (gone := (big[fresh] & live).any(axis=0)).any():
            live, drop = live & ~gone, nonzero[:, gone].sum(axis=1)
            fresh, count = (count > 1) & (count == drop + 1), count - drop
    kept = np.flatnonzero(live)
    whole, n, nonzero = len(kept) == n, len(kept), nonzero[:, kept]  # whole: nothing was peeled
    if whole and (not nonzero.any() or nonzero.all(axis=1).any()):
        return None
    r, c = np.divmod(np.flatnonzero(nonzero), n)  # row-major: the nonzero columns of a row are consecutive
    same = r[1:] == r[:-1]
    edges = np.divmod(np.unique(c[:-1][same] * n + c[1:][same]), n)  # rows of one pattern give one edge set
    columns = connected_components(n, zip(edges[0].tolist(), edges[1].tolist()))
    if whole and len(columns) == 1:
        return None
    return [(np.flatnonzero(nonzero[:, b].any(axis=1)), kept[b]) for b in columns]


def nullspace_with_values(a, scale: float = 0.0, shape=None) -> tuple[np.ndarray, float, np.ndarray]:
    """(singular values, cutoff, orthonormal nullspace columns) from one factorization.

    The cutoff is `svd_cutoff(s, shape, scale)`, `shape` defaulting to the
    shape of `a`; a system reduced from a larger one passes that system's
    shape and a lower bound on its norm.  A bound > 0 peels singleton rows
    by `_blocks`' rule: a peeled column is 0 in every null vector, and
    ||A x|| is that of the columns left.  A system that a permutation makes
    block-diagonal (End of a direct sum) is factored one block at a time,
    blocks of one shape in one stacked SVD, at cost sum n_i^3 for n^3: the
    singular values, padded with zeros, are the same multiset (a peeled
    column adds none), so the rank is too.  Its null vectors come block by
    block.  A float64 `a` is factored as it is, other arrays as complex;
    the vectors are complex.
    """
    a = real_if_exact(np.asarray(a, dtype=float if np.asarray(a).dtype == float else complex))
    rows, cols = a.shape
    shape = a.shape if shape is None else shape
    blocks = _blocks(a, scale)
    if blocks is None:
        # a tall system needs only the thin U; Vh is complete either way
        _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
        cutoff = svd_cutoff(s, shape, scale)
        return s, cutoff, phase_normalize(vh[int(np.sum(s > cutoff)):].conj().T)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, (r, c) in enumerate(blocks):
        by_shape.setdefault((len(r), len(c)), []).append(i)
    factors = [None] * len(blocks)  # (singular values, complete Vh) of each block
    for (m, n), members in by_shape.items():
        r, c = (np.array([blocks[i][k] for i in members], dtype=int) for k in (0, 1))
        _, s_stack, vh_stack = np.linalg.svd(a[r[:, :, None], c[:, None, :]], full_matrices=m < n)
        for i, s_i, vh_i in zip(members, s_stack, vh_stack):
            factors[i] = (s_i, vh_i)
    values = np.concatenate([np.zeros(0)] + [s_i for s_i, _ in factors])
    s = np.sort(np.concatenate([values, np.zeros(min(rows, cols) - len(values))]))[::-1]
    cutoff = svd_cutoff(s, shape, scale)
    null = [vh_i[int(np.sum(s_i > cutoff)):].conj().T for s_i, vh_i in factors]
    vectors = np.zeros((cols, sum(v.shape[1] for v in null)), dtype=a.dtype)
    at = 0
    for (_, c), v in zip(blocks, null):
        vectors[c, at : at + v.shape[1]] = v
        at += v.shape[1]
    return s, cutoff, phase_normalize(vectors)


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
    """Orthonormalize the columns of a full-column-rank matrix (plain QR, no pivoting).

    `a` may be a stack of such matrices; each is orthonormalized on its own,
    in one call of `np.linalg.qr`, in real arithmetic when `a` is float64.
    """
    a = np.asarray(a, dtype=float if np.asarray(a).dtype == float else complex)
    if a.shape[-1] == 0:
        return a.copy()
    q, r = np.linalg.qr(a)
    d = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    low, high = d.min(axis=-1), d.max(axis=-1)
    bad = np.flatnonzero(low <= high * TOL.get())
    if bad.size:
        ratio = low.flat[bad[0]] / max(high.flat[bad[0]], 1e-300)
        raise ValueError(f"columns are numerically dependent (diagonal ratio {ratio:.2e})")
    # phase_normalize works column by column: normalize the stack as one wide matrix
    rows = np.moveaxis(q, -2, 0)
    return np.moveaxis(phase_normalize(rows.reshape(len(rows), -1)).reshape(rows.shape), 0, -2)


def is_invertible(a) -> bool:
    """Square matrix invertibility via sigma_min > TOL * sigma_max; 0x0 counts as invertible."""
    a = np.asarray(a)
    n, m = a.shape
    if n != m:
        return False
    if n == 0:
        return True
    s = np.linalg.svd(real_if_exact(a), compute_uv=False)
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
        parent[i] = parent[parent[i]]  # parent[i] <= i, so the root of parent[i] is already in place
        groups.setdefault(parent[i], []).append(i)
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

"""Dense helpers: eigenvalue clustering, spectral projections, orthogonal complements, rank and nullspaces."""

import re
from pathlib import Path

import numpy as np
import pytest

from quivrep import linalg
from quivrep.config import CLUSTER_GAP
from quivrep.opmodels import jordan_block


def _brute_force_clusters(eigs):
    m = len(eigs)
    gap = CLUSTER_GAP * float(np.max(np.abs(eigs)))
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if abs(eigs[i] - eigs[j]) <= gap]
    groups = linalg.connected_components(m, edges)
    return sorted(groups, key=lambda g: min((eigs[i].real, eigs[i].imag) for i in g))


def test_cluster_eigenvalues_matches_the_pairwise_loop():
    rng = np.random.default_rng(8)
    for _ in range(40):
        m = int(rng.integers(1, 40))
        base = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        # near-duplicates on both sides of the gap, chained and isolated
        picks = rng.integers(0, m, size=m // 2)
        sizes = rng.choice([1e-9, 5e-7, 2e-6, 1e-3], size=len(picks))
        jitter = sizes * np.exp(2j * np.pi * rng.uniform(size=len(picks)))
        eigs = np.concatenate([base, base[picks] + jitter])
        eigs = eigs[rng.permutation(len(eigs))]
        assert linalg.cluster_eigenvalues(eigs) == _brute_force_clusters(eigs)


def test_cluster_eigenvalues_edge_cases():
    assert linalg.cluster_eigenvalues([]) == []
    assert linalg.cluster_eigenvalues([0.0, 0.0, 0.0]) == [[0, 1, 2]]
    assert linalg.cluster_eigenvalues([2.0, 1.0]) == [[1], [0]]


def test_spectral_projection_matches_the_jordan_form():
    # a = V blockdiag(J_3(l1), J_3(l2), J_2(l3)) V^-1: the projection onto l_k is V E_k V^-1
    eigs = np.array([0.3 + 0.2j, 1.5 - 0.4j, -0.7 + 0.9j])
    sizes = (3, 3, 2)
    rng = np.random.default_rng(13)
    v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    jordan = np.zeros((8, 8), dtype=complex)
    starts = np.cumsum((0,) + sizes)
    for lam, k, at in zip(eigs, sizes, starts):
        jordan[at : at + k, at : at + k] = jordan_block(k, lam)
    v_inv = np.linalg.inv(v)
    a = v @ jordan @ v_inv
    for chosen, (k, at) in enumerate(zip(sizes, starts)):
        block = np.zeros(8)
        block[at : at + k] = 1.0
        exact = v @ np.diag(block) @ v_inv
        p = linalg.spectral_projection(a, eigs, chosen)
        scale = np.linalg.norm(exact)
        assert np.linalg.norm(p - exact) <= 1e-8 * scale
        assert np.linalg.norm(p @ p - p) <= 1e-8 * scale
        assert np.linalg.norm(p @ a - a @ p) <= 1e-8 * scale * np.linalg.norm(a)


def test_spectral_projection_edge_cases():
    assert linalg.spectral_projection(np.zeros((0, 0)), [1.0, 2.0], 0).shape == (0, 0)
    a = np.array([[1.0, 5.0], [0.0, 2.0]])
    assert np.allclose(linalg.spectral_projection(a, [1.0, 2.0, 3.0], 2), 0, atol=1e-14)
    assert np.allclose(linalg.spectral_projection(a, [1.5], 0), np.eye(2), atol=1e-14)


@pytest.mark.parametrize("boundary", [0.5, 0.5 + 0.3j])
def test_spectral_projection_on_the_boundary_raises(boundary):
    # L(z) = z for centroids (0, 1): Re L = 1/2 is the imaginary axis of S = 2 L - I
    a = np.diag([0.0, boundary, 1.0])
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        linalg.spectral_projection(a, [0.0, 1.0], 1)


def test_empty_matrices_factor_like_any_other():
    assert np.array_equal(linalg.nullspace(np.zeros((0, 3))), np.eye(3))
    assert linalg.nullspace(np.zeros((3, 0))).shape == (0, 0)
    assert linalg.orth(np.zeros((2, 0))).shape == (2, 0)
    assert linalg.orth(np.zeros((0, 2))).shape == (0, 0)
    assert linalg.matrix_rank(np.zeros((0, 4))) == 0


def test_cutoff_stays_finite_at_the_top_of_the_double_range():
    big = 1e308 * np.eye(3)
    assert linalg.matrix_rank(big) == 3
    assert linalg.orth(big).shape == (3, 3)
    assert linalg.nullspace(big).shape == (3, 0)
    # the factor max(shape) * SVD_FACTOR is exact, so the cutoff has the old bits in range
    s = np.array([3.7, 1.0])
    assert linalg.svd_cutoff(s, (7, 2)) == 3.7 * 7 * 2.0**-40
    # sigma_max itself overflows: an error, not a rank of 0
    with pytest.raises(OverflowError):
        linalg.matrix_rank(np.full((2, 2), 1e308))


def test_the_package_has_one_rank_cutoff():
    # numpy's own matrix_rank cuts at sigma_max * n * 2^-52, linalg.matrix_rank at
    # svd_cutoff (2^-40): the two disagree on a singular value near 1e-12.
    src = Path(linalg.__file__).parent
    pattern = re.compile(r"\b(?:np|numpy)\.linalg\.matrix_rank\b|from\s+numpy\.linalg\s+import[^\n]*\bmatrix_rank\b")
    offenders = [p.name for p in sorted(src.glob("*.py")) if pattern.search(p.read_text())]
    assert offenders == []


def _phase_normalize_loop(columns):
    out = np.array(columns, dtype=complex, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        z = col[k]
        if abs(z) > 0:
            out[:, j] = col * (np.conj(z) / abs(z))
    return out


def test_phase_normalize_matches_the_column_loop():
    rng = np.random.default_rng(21)
    for trial in range(40):
        m, k = (int(x) for x in rng.integers(1, 12, size=2))
        x = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        if trial % 4 == 0:
            x = x.real  # real input: a negative largest entry flips the column
        zero = rng.random(k) < 0.3
        x[:, zero] = 0
        if not zero[0]:
            x[:, 0] = rng.choice([0.5, -0.5, 0.5j, -0.5j][: 2 if trial % 4 == 0 else 4], size=m)  # a tie
        got = linalg.phase_normalize(x)
        want = _phase_normalize_loop(x)
        assert got.dtype == complex and got.shape == x.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 4 * np.finfo(float).eps * np.max(np.abs(x), initial=0.0)
        assert np.array_equal(got[:, zero], want[:, zero])
        if not zero[0]:
            assert got[0, 0].imag == 0 and got[0, 0].real > 0
    assert linalg.phase_normalize(np.zeros((0, 3))).shape == (0, 3)
    assert linalg.phase_normalize(np.zeros((4, 0))).shape == (4, 0)


SPLIT_SCALES = (1e-8, 1e-4, 1.0, 1e4, 1e8)


def _orthonormal(rng, d, complex_):
    g = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if complex_ else 0)
    return np.linalg.qr(g)[0]


def _permuted_block_diagonal(rng):
    """A matrix that a row and a column permutation make block-diagonal, and its exact kernel.

    Each block is scale * U diag(sigma) V^T with orthonormal U, V, sigma in
    [1, 10] and rank at most min(rows, cols): tall, wide and square blocks,
    one block with no rows, and zero rows besides.  The scales are powers of
    1e4, so no exact singular value comes near the cutoff.
    """
    count = int(rng.integers(2, 9))
    width = -(-linalg.SPLIT_MIN_COLS // count)
    kinds = rng.permutation(["no rows", "tall", "wide"] + ["square"] * (count - 3))[:count]
    complex_ = bool(rng.integers(2))
    blocks = []
    for kind in kinds:
        n = width + int(rng.integers(0, 6))
        m = {"no rows": 0, "tall": n + 3, "wide": max(n - 3, 1), "square": n}[kind]
        rank = int(rng.integers(1, min(m, n) + 1)) if m else 0
        scale = float(rng.choice(SPLIT_SCALES))
        u, v = _orthonormal(rng, m, complex_), _orthonormal(rng, n, complex_)
        sigma = np.sort(scale * rng.uniform(1, 10, size=rank))[::-1]
        blocks.append((u[:, :rank] @ np.diag(sigma) @ v[:, :rank].conj().T, v, sigma))
    extra = int(rng.integers(0, 4))
    rows, cols = sum(b.shape[0] for b, _, _ in blocks) + extra, sum(b.shape[1] for b, _, _ in blocks)
    a = np.zeros((rows, cols), dtype=complex if complex_ else float)
    r0 = c0 = 0
    for b, _, _ in blocks:
        a[r0 : r0 + b.shape[0], c0 : c0 + b.shape[1]] = b
        r0, c0 = r0 + b.shape[0], c0 + b.shape[1]
    row_perm, col_perm = rng.permutation(rows), rng.permutation(cols)
    top = max((s.max() for _, _, s in blocks if len(s)), default=0.0)
    cutoff = top * max(rows, cols) * 2.0**-40
    kernel, c0 = [], 0
    for b, v, sigma in blocks:
        assert not np.any((sigma > cutoff / 4) & (sigma < cutoff * 4))
        kept = int(np.sum(sigma > cutoff))
        basis = np.zeros((cols, b.shape[1] - kept), dtype=complex)
        basis[c0 : c0 + b.shape[1]] = v[:, kept:]
        kernel.append(basis)
        c0 += b.shape[1]
    kernel = np.hstack(kernel)[col_perm]
    return a[row_perm][:, col_perm], kernel


def test_a_split_system_factors_like_one_dense_svd():
    rng = np.random.default_rng(34)
    eps = np.finfo(float).eps
    for _ in range(30):
        a, kernel = _permuted_block_diagonal(rng)
        assert linalg._blocks(a) is not None
        s, cutoff, vectors = linalg.nullspace_with_values(a)
        dense = np.linalg.svd(a, compute_uv=False)
        assert s.shape == dense.shape and np.all(np.diff(s) <= 0)
        assert np.max(np.abs(s - dense), initial=0.0) <= 64 * eps * dense[0]
        assert cutoff == linalg.svd_cutoff(s, a.shape)
        assert vectors.shape[1] == int(np.sum(dense <= cutoff)) + a.shape[1] - len(dense) == kernel.shape[1]
        assert np.allclose(vectors.conj().T @ vectors, np.eye(vectors.shape[1]), rtol=0, atol=1e-12)
        # the exact kernel, not the dense SVD's: that one moves by eps sigma_max / gap, up to 1e-7 here
        assert np.linalg.norm(vectors @ vectors.conj().T - kernel @ kernel.conj().T, 2) <= 1e-10
        again = linalg.nullspace_with_values(a)
        assert again[0].tobytes() == s.tobytes() and again[2].tobytes() == vectors.tobytes()


@pytest.mark.parametrize("rows", [0, 5])
def test_a_system_with_no_nonzero_entry_has_every_column_in_its_kernel(rows):
    a = np.zeros((rows, linalg.SPLIT_MIN_COLS))
    s, cutoff, vectors = linalg.nullspace_with_values(a)
    assert s.shape == (rows,) and not s.any() and cutoff == 0.0
    assert vectors.shape == (a.shape[1], a.shape[1])
    assert np.array_equal(vectors.conj().T @ vectors, np.eye(a.shape[1]))


@pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
def test_a_system_that_does_not_split_is_factored_as_it_stands(banded):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((70, 80)) + 1j * rng.standard_normal((70, 80))
    if banded:  # zeros in every row, yet one block
        a = np.triu(np.tril(a, 11), -1)
    a[:, 3] = a[:, 7]  # a nullspace of more than the wide part
    s, cutoff, vectors = linalg.nullspace_with_values(a)
    _, s_plain, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s_plain > cutoff))
    assert s.tobytes() == s_plain.tobytes()
    assert vectors.tobytes() == linalg.phase_normalize(vh[rank:].conj().T).tobytes()


def test_qr_orthonormalize_takes_a_stack_matrix_by_matrix():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
    got = linalg.qr_orthonormalize(stack)
    assert got.shape == stack.shape
    for g, a in zip(got, stack):
        assert np.array_equal(g, linalg.qr_orthonormalize(a))
    stack[2, :, 2] = stack[2, :, 0]
    with pytest.raises(ValueError, match="dependent"):
        linalg.qr_orthonormalize(stack)


def _zero_columns_are_copied():
    a = np.zeros((3, 0), dtype=complex)
    q = linalg.qr_orthonormalize(a)
    return q.shape == (3, 0) and q is not a


@pytest.mark.parametrize(
    "holds",
    [lambda: linalg.is_invertible(np.eye(2, 3)) is False, _zero_columns_are_copied],
    ids=["non-square-is-not-invertible", "zero-columns-are-copied"],
)
def test_degenerate_shapes_take_the_early_return(holds):
    assert holds()

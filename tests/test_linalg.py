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

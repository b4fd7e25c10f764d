"""Dense helpers: eigenvalue clustering, orthogonal complements, rank and nullspaces."""

import numpy as np
import pytest

from quivrep import linalg
from quivrep.config import CLUSTER_GAP


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


def test_orth_complement():
    rng = np.random.default_rng(1)
    j = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))[0]
    k = linalg.orth_complement(j)
    assert k.shape == (5, 3)
    assert np.linalg.norm(k.conj().T @ k - np.eye(3)) < 1e-12
    assert np.linalg.norm(k.conj().T @ j) < 1e-12
    # real input, real complement; trivial subspaces
    kr = linalg.orth_complement(np.eye(4, 1))
    assert not kr.imag.any() and kr.shape == (4, 3)
    assert linalg.orth_complement(np.zeros((3, 0))).shape == (3, 3)
    assert linalg.orth_complement(np.eye(3)).shape == (3, 0)


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

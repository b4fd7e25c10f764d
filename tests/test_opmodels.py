"""Tests for weight sequences, operator-pair fixtures, and subspace systems."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from quivrep import (
    OperatorPair,
    SequenceSpec,
    SubspaceSystem,
    commutant_basis,
    density_criterion,
    four_subspace_from_pair,
    hrr_system,
    is_strongly_irreducible,
    jordan_block,
    kron_pair_bilateral,
    kron_pair_shift_rank_one,
    log_mk,
    parse_sequence,
    phi_map,
    subspace_system_end,
    subspace_system_rep,
)
from quivrep import hom
from quivrep.errors import PreconditionError
from quivrep.hom import end_basis

ROOT = Path(__file__).resolve().parent.parent

# exp(-3**n) on even / odd n >= 1, else 1: the diagonal and shift weights of the bilateral pair
PARITY_WEIGHTS = tuple(SequenceSpec("exp-neg-pow", lam=3.0, parity=p) for p in ("even", "odd"))


# ---------------------------------------------------------------------------
# weight sequences


@pytest.mark.parametrize(
    "literal",
    [
        "seq:reciprocal",
        "seq:one-minus-pow:2",
        "seq:one-minus-pow:1.5",
        "seq:exp-neg-pow:3:even",
        "seq:exp-neg-pow:2.5:odd",
        "seq:hrr",
        "seq:const:1",
        "seq:const:0.25",
        "seq:list:[1,0.5,2]",
        "seq:list:[0]:reciprocal",
        "seq:list:[1,2]:const:3",
        "seq:const:1.5-2j",
        "seq:const:-0.5j",
        "seq:list:[1,2.5+1j]:one-minus-pow:3",
    ],
)
def test_sequence_literal_round_trip(literal):
    spec = parse_sequence(literal)
    # passing a spec through the parser is a no-op
    assert parse_sequence(spec) is spec


def test_sequence_values():
    rec = parse_sequence("seq:reciprocal")
    assert rec.value(1) == 1.0
    assert rec.value(4) == 0.25

    omp = parse_sequence("seq:one-minus-pow:2")
    assert omp.value(1) == 0.5
    assert omp.value(3) == 0.875

    # the parity mask: only n >= 1 of the right parity gets the tiny value
    even = parse_sequence("seq:exp-neg-pow:3:even")
    assert even.value(2) == math.exp(-9.0)
    assert even.value(1) == 1.0
    assert even.value(0) == 1.0
    assert even.value(-4) == 1.0
    odd = parse_sequence("seq:exp-neg-pow:3:odd")
    assert odd.value(3) == math.exp(-27.0)
    assert odd.value(4) == 1.0

    lst = parse_sequence("seq:list:[5,6]:reciprocal")
    assert lst.value(1) == 5.0
    assert lst.value(2) == 6.0
    assert lst.value(3) == 1.0 / 3

    const = parse_sequence("seq:const:2.5")
    assert const.value(100) == 2.5
    assert not const.has_zero()
    assert parse_sequence("seq:const:0").has_zero()
    assert parse_sequence("seq:list:[1,0,3]").has_zero()


def test_sequence_log_abs_matches_values():
    # keep n small enough for the exponential family that value(n) stays nonzero
    for literal, top in [("seq:reciprocal", 12), ("seq:one-minus-pow:2", 12), ("seq:exp-neg-pow:2:even", 9)]:
        spec = parse_sequence(literal)
        for n in range(1, top):
            assert spec.log_abs(n) == pytest.approx(math.log(abs(spec.value(n))), abs=1e-12)
    # exact zeros are flagged with -inf, never an exception here
    assert parse_sequence("seq:list:[0]:reciprocal").log_abs(1) == -math.inf


def test_sequence_errors():
    for bad in [
        "reciprocal",
        "seq:nope",
        "seq:exp-neg-pow:3",
        "seq:exp-neg-pow:3:sometimes",
        "seq:exp-neg-pow:0.5:even",
        "seq:one-minus-pow:1",
        "seq:list:1,2",
        "seq:list:[1,2",
        "seq:list:[1]junk",
    ]:
        with pytest.raises(ValueError):
            parse_sequence(bad)
    # domain errors and missing tails, raised alike by value and log_abs
    for literal, n, message in [
        ("seq:reciprocal", 0, "reciprocal is defined for n >= 1, got n = 0"),
        ("seq:one-minus-pow:2", 0, "one-minus-pow is defined for n >= 1, got n = 0"),
        ("seq:list:[1,2]", 3, "explicit list of length 2 has no entry at n = 3 and no tail"),
        ("seq:list:[1]:list:[2]", 3, "explicit list of length 1 has no entry at n = 3 and no tail"),
        ("seq:list:[2]:reciprocal", 0, "reciprocal is defined for n >= 1, got n = 0"),
    ]:
        spec = parse_sequence(literal)
        for evaluate in (spec.value, spec.log_abs):
            with pytest.raises(ValueError) as excinfo:
                evaluate(n)
            assert str(excinfo.value) == message
    with pytest.raises(ValueError):
        SequenceSpec("not-a-family")


# ---------------------------------------------------------------------------
# fixture operators


def test_fixture_matrices():
    s = jordan_block(3)
    e1 = np.eye(3, dtype=complex)[:, 0]
    assert np.array_equal(s @ e1, np.eye(3, dtype=complex)[:, 1])

    assert np.array_equal(jordan_block(2), np.array([[0, 0], [1, 0]], dtype=complex))
    j = jordan_block(3, 2.0)
    assert np.array_equal(np.diag(j), np.full(3, 2.0 + 0j))


# ---------------------------------------------------------------------------
# the shift-plus-rank-one pair


def test_shift_rank_one_structure():
    pair = kron_pair_shift_rank_one("seq:reciprocal", "seq:reciprocal", 4)
    want_a = np.array(
        [
            [1.0, 0.5, 1.0 / 3.0, 0.25],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0 / 3.0, 0.0],
        ],
        dtype=complex,
    )
    assert np.allclose(pair.a, want_a, atol=1e-15)
    assert np.array_equal(pair.b, jordan_block(4))
    assert pair.n == 4
    assert pair.tag == "shift-rank-one"

    # action form: A x = (sum_k w_k x_k, lam_1 x_1, lam_2 x_2, lam_3 x_3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    ax = pair.a @ x
    assert abs(ax[0] - np.sum([x[k] / (k + 1) for k in range(4)])) < 1e-12
    for i in range(1, 4):
        assert abs(ax[i] - x[i - 1] / i) < 1e-12


def test_shift_rank_one_is_invertible():
    pair = kron_pair_shift_rank_one("seq:reciprocal", "seq:reciprocal", 16)
    sv = np.linalg.svd(pair.a, compute_uv=False)
    assert sv[-1] > 1e-12 * sv[0]


def test_shift_rank_one_preconditions():
    with pytest.raises(PreconditionError):
        kron_pair_shift_rank_one("seq:const:1", "seq:reciprocal", 3)  # repeated diagonal
    with pytest.raises(PreconditionError):
        kron_pair_shift_rank_one("seq:reciprocal", "seq:list:[0]:reciprocal", 3)  # zero row weight
    with pytest.raises(ValueError):
        kron_pair_shift_rank_one("seq:reciprocal", "seq:reciprocal", 0)


# ---------------------------------------------------------------------------
# the bilateral parity-weighted pair


def test_bilateral_window_structure():
    a_seq, b_seq = PARITY_WEIGHTS
    pair = kron_pair_bilateral(a_seq, b_seq, 2)
    assert pair.n == 5  # offsets -2..2
    assert np.allclose(np.diag(pair.a), [1.0, 1.0, 1.0, 1.0, math.exp(-9.0)])
    sub = np.array([pair.b[i + 1, i] for i in range(4)])
    assert np.allclose(sub, [1.0, 1.0, 1.0, math.exp(-3.0)])
    assert np.count_nonzero(pair.b) == 4

    # A has no kernel; B drops exactly the top window vector
    assert np.linalg.matrix_rank(pair.a) == 5
    assert np.linalg.matrix_rank(pair.b) == 4
    kernel = np.zeros(5, dtype=complex)
    kernel[4] = 1.0
    assert np.linalg.norm(pair.b @ kernel) == 0.0


def test_bilateral_underflow_rejected():
    a_seq, b_seq = PARITY_WEIGHTS
    # B drops b(m), so m = 7 reads b only up to b(6) and never b(7) = exp(-3**7) = 0.0
    pair = kron_pair_bilateral(a_seq, b_seq, 7)
    assert np.count_nonzero(np.diagonal(pair.b, -1)) == 14 and np.count_nonzero(pair.b) == 14
    # m = 8 reads b(7); a constant diagonal leaves b(7) the only zero weight read
    with pytest.raises(PreconditionError, match=r"b\(7\) is exactly zero"):
        kron_pair_bilateral("seq:const:1", b_seq, 8)
    with pytest.raises(ValueError):
        kron_pair_bilateral(a_seq, b_seq, -1)


def test_log_mk_values():
    a_seq, b_seq = PARITY_WEIGHTS
    assert log_mk(a_seq, b_seq, 5, 5, 9) == 0.0
    assert log_mk("seq:const:2", "seq:const:2", -3, 4, 6) == 0.0
    # hand value: ratio logs are -3^j on odd j >= 1, +3^j on even j >= 1, 0 otherwise
    assert log_mk(a_seq, b_seq, -2, -1, 4) == -9.0
    # telescoping at (m, n) = (0, 1): log M_k = log w_0 - log w_k
    assert log_mk(a_seq, b_seq, 0, 1, 12) == -(3.0**12)
    assert log_mk(a_seq, b_seq, 0, 1, 11) == 3.0**11
    with pytest.raises(PreconditionError):
        log_mk("seq:list:[0]:reciprocal", b_seq, 1, 2, 1)
    with pytest.raises(ValueError, match="k >= 0"):
        log_mk(a_seq, b_seq, 0, 1, -1)


def test_parity_weights_separate_every_offset_pair():
    # the whole point of lam = 3: every m != n in a small window is separated
    # by a ratio product of magnitude far beyond any fixed threshold
    a_seq, b_seq = PARITY_WEIGHTS
    for m in range(-4, 5):
        for n in range(-4, 5):
            if m == n:
                continue
            best = max(abs(log_mk(a_seq, b_seq, m, n, k)) for k in range(1, 13))
            assert best > 1e3, f"offsets ({m}, {n}) separated only by exp({best})"


# ---------------------------------------------------------------------------
# density of the orbit construction


def test_density_poly_over_poly():
    v = density_criterion("seq:reciprocal", "seq:reciprocal")
    assert v.dense and v.ratio_l2 is False
    assert "not square-summable" in v.reason

    # w ~ 1/n against lam -> 1: the ratio is square-summable, density fails
    v = density_criterion("seq:one-minus-pow:2", "seq:reciprocal")
    assert not v.dense and v.ratio_l2 is True
    # a nonzero constant lam is the same class as lam -> 1
    v = density_criterion("seq:const:2", "seq:reciprocal")
    assert not v.dense and v.ratio_l2 is True
    # a list is classified by its declared tail: w / lam ~ 1
    v = density_criterion("seq:list:[1,2]:reciprocal", "seq:reciprocal")
    assert v.dense and v.ratio_l2 is False


def test_density_zero_lambda_blocks():
    v = density_criterion("seq:list:[0]:reciprocal", "seq:reciprocal")
    assert not v.dense and v.ratio_l2 is None
    assert "lambda" in v.reason


def test_density_matches_the_benchmarks_independent_closed_form():
    # bench/reference.py decides density from its own growth classes and imports nothing of quivrep
    spec = importlib.util.spec_from_file_location("bench_reference", ROOT / "bench" / "reference.py")
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    specs = [("reciprocal",), ("one-minus-pow", 2), ("one-minus-pow", 3)]
    specs += [("exp-neg-pow", lam, parity) for lam in (1.1, 3) for parity in ("even", "odd")]
    for lam in specs:
        for w in specs:
            v = density_criterion(ref.seq_literal(lam), ref.seq_literal(w))
            assert v.dense == ref.dense(lam, w), (lam, w)


def test_density_parity_cases():
    assert density_criterion("seq:exp-neg-pow:2:even", "seq:reciprocal").dense
    assert density_criterion("seq:reciprocal", "seq:exp-neg-pow:2:even").dense
    a_seq, b_seq = PARITY_WEIGHTS
    assert density_criterion(a_seq, b_seq).dense


def test_density_preconditions_and_heuristic():
    with pytest.raises(PreconditionError):
        density_criterion("seq:reciprocal", "seq:list:[0]:reciprocal")  # zero w
    with pytest.raises(PreconditionError):
        density_criterion("seq:list:[1,2]", "seq:reciprocal")  # undecidable tail
    v = density_criterion("seq:hrr", "seq:reciprocal")
    assert v.dense and v.ratio_l2 is False  # odd-index ratios blow up like exp(n!)
    assert v.reason == "an hrr tail makes |w/lambda| grow like exp(n!) on one parity class"
    v = density_criterion("seq:hrr", "seq:hrr")
    assert v.dense and v.ratio_l2 is False
    assert v.reason == "both tails are hrr, so |w/lambda| is eventually 1"


@pytest.mark.parametrize(
    "lam, w",
    [("seq:exp-neg-pow:3:odd", "seq:hrr"), ("seq:hrr", "seq:exp-neg-pow:3:odd")]
    + [(h, f"seq:exp-neg-pow:{big}:odd") for h in ("seq:hrr", "seq:list:[1]:hrr") for big in (64, 100, 1000)],
)
def test_density_hrr_tail_is_never_square_summable(lam, w):
    # the logs leave the double range (171! and 3**647 overflow) long before n!
    # overtakes L**n near n = e*L; the verdict reads only the tail classes
    assert parse_sequence("seq:exp-neg-pow:3:odd").log_abs(647) == -math.inf
    v = density_criterion(lam, w)
    assert v.dense and v.ratio_l2 is False


# ---------------------------------------------------------------------------
# subspace systems and their endomorphisms


def _haar_injection(rng, ambient, k):
    g = rng.standard_normal((ambient, k)) + 1j * rng.standard_normal((ambient, k))
    q, _ = np.linalg.qr(g)
    return q[:, :k]


def test_system_validation():
    bad = np.array([[1.0], [1.0]], dtype=complex)  # not unit norm
    with pytest.raises(ValueError):
        SubspaceSystem(2, [bad], ("E1",))
    with pytest.raises(ValueError):
        SubspaceSystem(3, [np.eye(2, 1, dtype=complex)], ("E1",))  # row mismatch
    with pytest.raises(ValueError):
        SubspaceSystem(2, [np.eye(2, dtype=complex)], ("E1", "E2"))


def test_four_subspace_identity_pair():
    n = 3
    pair = OperatorPair(np.eye(n, dtype=complex), np.eye(n, dtype=complex), tag="id")
    sys4 = four_subspace_from_pair(pair)
    assert sys4.sub_dims == (n, n, n, n)
    e3, e4 = sys4.injections[2], sys4.injections[3]
    p3 = e3 @ e3.conj().T
    p4 = e4 @ e4.conj().T
    assert np.linalg.norm(p3 - p4) < 1e-12  # both are the diagonal subspace


def test_four_subspace_graph_rank():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.zeros((2, 2), dtype=complex)
    sys4 = four_subspace_from_pair(OperatorPair(a, b))
    assert sys4.sub_dims == (2, 2, 1, 2)


def test_system_end_of_jordan_pair():
    # graph system of (J_2, I): endomorphisms mirror the commutant of J_2
    j = jordan_block(2)
    sys4 = four_subspace_from_pair(OperatorPair(j, np.eye(2, dtype=complex)))
    se = subspace_system_end(sys4)
    assert se.dim == 2
    assert se.max_residual < 1e-10
    rep = subspace_system_rep(sys4)
    assert end_basis(rep).dim == 2


def test_system_end_rep_route_agrees_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(12):
        ambient = int(rng.integers(2, 5))
        count = int(rng.integers(1, 4))
        injs = [_haar_injection(rng, ambient, int(rng.integers(0, ambient + 1))) for _ in range(count)]
        s = SubspaceSystem(ambient, injs, tuple(f"E{i + 1}" for i in range(count)))
        se = subspace_system_end(s)
        rep = subspace_system_rep(s)
        eb = end_basis(rep)
        assert se.dim == eb.dim
        assert se.max_residual < 1e-8
        assert eb.max_residual < 1e-8


def test_system_end_with_no_constraints_is_full():
    s = SubspaceSystem(2, [np.eye(2, dtype=complex)], ("E1",))
    assert subspace_system_end(s).dim == 4


# ---------------------------------------------------------------------------
# the doubling map


def test_phi_map_identity_pair_is_bijective():
    pair = OperatorPair(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
    rep = phi_map(pair)
    assert rep.ker_dim == 0 == rep.expected_ker_dim
    assert rep.injective and rep.surjective
    assert rep.end_dim == rep.system_end_dim
    assert rep.membership_residual < 1e-10


def test_phi_map_joint_kernel_shows_up():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.zeros((2, 2), dtype=complex)
    rep = phi_map(OperatorPair(a, b))
    assert rep.ker_dim == 2 == rep.expected_ker_dim
    assert not rep.injective
    assert rep.surjective
    assert rep.membership_residual < 1e-10


def test_four_subspace_flow_solves_each_end_once(monkeypatch):
    # the pair keeps its system and its Kronecker rep, and each rep keeps its
    # End, so the flow solves one End for the system and one for the pair
    solved = []
    original = hom.hom_basis

    def counted(r1, r2):
        solved.append(r1)
        return original(r1, r2)

    monkeypatch.setattr(hom, "hom_basis", counted)
    pair = kron_pair_shift_rank_one("seq:reciprocal", "seq:one-minus-pow:2", 4)
    system = four_subspace_from_pair(pair)
    sys_end = subspace_system_end(system)
    rep_end = end_basis(subspace_system_rep(system))
    report = phi_map(pair)
    assert four_subspace_from_pair(pair) is system
    assert len(solved) == 2
    assert solved[0] is subspace_system_rep(system) and solved[1] is pair.rep
    assert sys_end.dim == rep_end.dim == report.system_end_dim
    assert report.surjective


def test_pairs_and_systems_are_read_only():
    a, b = jordan_block(3), np.eye(3, dtype=complex)
    pair = OperatorPair(a, b)
    system = four_subspace_from_pair(pair)
    for m in (pair.a, pair.b, *system.injections):
        with pytest.raises(ValueError):
            m[0, 0] = 7.0
    a[0, 0] = b[0, 0] = 7.0
    assert np.array_equal(pair.a, jordan_block(3))
    assert np.array_equal(pair.b, np.eye(3))
    inj = np.eye(2, dtype=complex)
    s = SubspaceSystem(2, [inj], ("E1",))
    inj[0, 0] = 7.0
    assert np.array_equal(s.injections[0], np.eye(2))


def test_operator_pair_rejects_what_it_cannot_use():
    eye = np.eye(2)
    for a, b in [(np.array([[np.nan]]), np.eye(1)),  # its system's SVD would not converge
                 (eye, np.array([[0.0, np.inf], [0.0, 0.0]])),
                 (np.ones((2, 3)), np.ones((2, 3))),  # a system, but no Kronecker rep
                 (eye, np.eye(3)), (np.ones(2), np.ones(2))]:
        with pytest.raises(ValueError, match="operator pair needs"):
            OperatorPair(a, b)


def test_phi_map_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rep = phi_map(OperatorPair(a, b))
        assert rep.ker_dim == rep.expected_ker_dim == 0
        assert rep.injective and rep.surjective
        assert rep.membership_residual < 1e-8


# ---------------------------------------------------------------------------
# commutants and strong irreducibility


def test_commutant_of_jordan_block_is_its_powers():
    for k in range(1, 7):
        j = jordan_block(k)
        basis = commutant_basis(j)
        assert len(basis) == k
        for t in basis:
            assert np.linalg.norm(t @ j - j @ t) < 1e-10
        # the powers J^0..J^{k-1} commute, are independent, and lie in the span
        powers = np.array([np.linalg.matrix_power(j, p).reshape(-1) for p in range(k)])
        assert np.linalg.matrix_rank(powers) == k
        flat = np.array([t.reshape(-1) for t in basis]).T  # columns span the commutant
        for row in powers:
            coeff, _, _, _ = np.linalg.lstsq(flat, row, rcond=None)
            assert np.linalg.norm(flat @ coeff - row) < 1e-10


def test_commutant_requires_square():
    with pytest.raises(ValueError):
        commutant_basis(np.eye(2, 3))


def test_strong_irreducibility_cases():
    v = is_strongly_irreducible(jordan_block(3))
    assert v.strongly_irreducible and v.commutant_dim == 3 and v.witness is None

    v = is_strongly_irreducible(np.diag([1.0, 2.0]))
    assert not v.strongly_irreducible
    p = v.witness
    assert p is not None
    assert np.linalg.norm(p @ p - p) < 1e-8
    assert np.linalg.norm(p @ np.diag([1.0, 2.0]) - np.diag([1.0, 2.0]) @ p) < 1e-8
    assert 0.5 < np.linalg.norm(p) ** 2 < 1.5  # a rank-one projection, not 0 or 1

    assert is_strongly_irreducible(np.zeros((1, 1))).strongly_irreducible
    with pytest.raises(PreconditionError):
        is_strongly_irreducible(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        is_strongly_irreducible(np.eye(2, 3))


# ---------------------------------------------------------------------------
# factorial-alternating weights


def test_hrr_log_weights():
    spec = SequenceSpec("hrr")
    assert spec.log_abs(-3) == 0.0
    assert spec.log_abs(0) == 0.0
    assert spec.log_abs(1) == -1.0
    assert spec.log_abs(2) == 2.0
    assert spec.log_abs(3) == -6.0
    assert spec.log_abs(4) == 24.0
    # finite far beyond double overflow of the weight itself; saturates only
    # when the factorial itself leaves double range, which the direction-vector
    # construction absorbs
    assert math.isfinite(spec.log_abs(170))
    assert spec.log_abs(200) == math.inf
    assert spec.log_abs(201) == -math.inf

    window = [spec.value(n) for n in range(-2, 3)]
    assert window == pytest.approx([1.0, 1.0, 1.0, math.exp(-1.0), math.exp(2.0)])


def test_hrr_system_structure():
    s = hrr_system(5)  # offsets -2..2
    assert s.ambient == 10
    assert s.sub_dims == (5, 5, 5, 5)
    e3 = s.injections[2]
    # top window column is the bare coordinate vector
    assert e3[4, 4] == 1.0
    assert np.count_nonzero(e3[:, 4]) == 1
    # column at offset 1 has slope exp(-1)
    c, sl = e3[3, 3], e3[9, 3]
    assert abs(sl / c - math.exp(-1.0)) < 1e-12
    assert abs(abs(c) ** 2 + abs(sl) ** 2 - 1.0) < 1e-12

    se = subspace_system_end(s)
    assert se.max_residual < 1e-8

    with pytest.raises(ValueError):
        hrr_system(1)


def test_hrr_system_survives_huge_weights():
    s = hrr_system(41)  # factorials far beyond double range appear in the window
    for j in s.injections:
        assert np.all(np.isfinite(j))
    # steep columns collapse onto the shifted coordinate, flat ones stay put
    e3 = s.injections[2]
    n = 41
    idx = [i - 20 for i in range(n)]
    for i in range(n - 1):
        if idx[i] >= 4 and idx[i] % 2 == 0:  # enormous positive log-weight
            assert abs(e3[n + i + 1, i]) == 1.0
        if idx[i] >= 5 and idx[i] % 2 == 1:  # enormous negative log-weight
            assert abs(e3[i, i]) == 1.0

import copy
import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

import quivrep as qr
from quivrep import reflection, rep
from quivrep.hom import HomBasis
from quivrep.reflection import orientation_sequence_an
from conftest import random_rep


def test_sink_kernel_of_ones_row_is_frozen_vector():
    # arrival map [1 1] at the sink; its kernel is the normalized difference.
    # The phase rule makes the largest-magnitude coordinate real positive; the
    # LAPACK output for this instance puts the one-ulp-larger magnitude second,
    # so the frozen vector is (-, +).
    q = qr.new_quiver(["1", "2", "3"], [("a", "1", "3"), ("b", "2", "3")])
    r = qr.new_rep(q, {"1": 1, "2": 1, "3": 1}, {"a": [[1.0]], "b": [[1.0]]})
    res = qr.reflect_sink(r, "3")
    assert res.rep.dims["3"] == 1
    expected = np.array([[-0.7071067811865475], [0.7071067811865476]])
    assert np.array_equal(res.kernel_basis, expected)
    assert np.array_equal(res.rep.mats["a~"], [[-0.7071067811865475]])
    assert np.array_equal(res.rep.mats["b~"], [[0.7071067811865476]])
    # unit norm and actual kernel membership, independent of sign conventions
    assert abs(np.linalg.norm(res.kernel_basis) - 1.0) < 1e-15
    assert abs(res.kernel_basis[0, 0] + res.kernel_basis[1, 0]) < 1e-15


def test_reflect_sink_rejects_non_sink():
    q = qr.kronecker_quiver()
    r = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[1.0]]})
    with pytest.raises(qr.PreconditionError):
        qr.reflect_sink(r, "1")
    with pytest.raises(qr.PreconditionError):
        qr.reflect_source(r, "2")


def test_reflect_sink_reverses_and_marks_only_the_arrows_into_the_sink():
    q = qr.an_quiver(4, "><>")  # e1: 1 -> 2, e2: 3 -> 2, e3: 3 -> 4
    r = qr.new_rep(q, {"1": 1, "2": 1, "3": 1, "4": 1}, {"e1": [[1.0]], "e2": [[2.0]], "e3": [[3.0]]})
    plus = qr.reflect_sink(r, "2").rep
    assert [(a.name, a.src, a.dst) for a in plus.quiver.arrows] == [
        ("e1~", "2", "1"), ("e2~", "2", "3"), ("e3", "3", "4")]
    assert np.array_equal(plus.mats["e3"], [[3.0]])
    back = qr.reflect_source(plus, "2").rep
    assert [(a.name, a.src, a.dst) for a in back.quiver.arrows] == [
        (a.name, a.src, a.dst) for a in q.arrows]


def test_reflection_rejects_a_loop_vertex():
    r = qr.new_rep(qr.jordan_quiver(), {"1": 1}, {"a": [[1.0]]})
    with pytest.raises(qr.PreconditionError):
        qr.reflect_sink(r, "1")
    with pytest.raises(qr.PreconditionError):
        qr.reflect_source(r, "1")


@pytest.mark.parametrize("arrows, reflect", [
    ([("a", "1", "2"), ("a~", "3", "1")], qr.reflect_sink),
    ([("a", "2", "1"), ("a~", "1", "3")], qr.reflect_source),
], ids=["sink", "source"])
def test_reflect_sink_rejects_a_marked_name_already_taken(arrows, reflect):
    # reversing a at vertex 2 makes a second arrow named a~
    q = qr.new_quiver(["1", "2", "3"], arrows)
    r = qr.new_rep(q, {"1": 1, "2": 1, "3": 1}, {"a": [[0.0]], "a~": [[2.0]]})
    with pytest.raises(ValueError, match="duplicate arrow name 'a~'"):
        reflect(r, "2")


@pytest.mark.parametrize("call", [
    lambda r: qr.reflect_sink(r, "9"),
    lambda r: qr.reflect_source(r, "9"),
    lambda r: qr.is_full_at_sink(r, "9"),
    lambda r: qr.is_co_full_at_source(r, "9"),
    lambda r: qr.verify_end_isomorphism(r, "9", "plus"),
], ids=["reflect_sink", "reflect_source", "is_full_at_sink", "is_co_full_at_source",
        "verify_end_isomorphism"])
def test_unknown_vertex_is_a_value_error_that_names_it(call):
    r = qr.new_rep(qr.kronecker_quiver(), {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[0.0]]})
    with pytest.raises(ValueError, match="no vertex '9'") as excinfo:
        call(r)
    assert excinfo.type is ValueError


def test_reflected_dimension_at_sink(rng):
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 3, "2": 2}, rng)
    res = qr.reflect_sink(r, "2")
    # kernel of a full-rank 2x6 stacked map has dimension 4
    assert res.rep.dims["2"] == 4
    assert res.rep.dims["1"] == 3


def test_dual_is_an_exact_involution(rng):
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 2, "2": 3}, rng)
    back = qr.dual(qr.dual(r))
    assert back.quiver.vertices == r.quiver.vertices
    for a in ("a", "b"):
        assert np.array_equal(back.mats[a], r.mats[a])


def test_source_reflection_equals_dualized_sink_reflection(rng):
    q = qr.kronecker_quiver()
    for _ in range(20):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        r = random_rep(q, {"1": d1, "2": d2}, rng)
        direct = qr.reflect_source(r, "1").rep
        via = qr.dual(qr.reflect_sink(qr.dual(r), "1").rep)
        assert direct.dim_vector == via.dim_vector
        for a in direct.quiver.arrows:
            assert np.array_equal(direct.mats[a.name], via.mats[a.name])


def test_fullness_predicates(rng):
    q = qr.kronecker_quiver()
    full = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[0.0]]})
    assert qr.is_full_at_sink(full, "2")
    not_full = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[0.0]], "b": [[0.0]]})
    assert not qr.is_full_at_sink(not_full, "2")
    assert qr.is_co_full_at_source(full, "1")
    with pytest.raises(qr.PreconditionError):
        qr.is_full_at_sink(full, "1")
    with pytest.raises(qr.PreconditionError):
        qr.is_co_full_at_source(full, "2")


def _rank_at_most_one(r):
    mats = {}
    for a in r.quiver.arrows:
        m = r.mats[a.name]
        mats[a.name] = np.outer(m[:, 0], m[0, :]) if m.size else m
    return qr.new_rep(r.quiver, dict(r.dims), mats)


def test_end_isomorphism_hypothesis_matches_the_predicates(rng):
    # the report reads (co-)fullness off the reflected dimension; the public
    # predicates factor the combined map themselves
    star = qr.new_quiver(["1", "2", "3", "4", "5"], [(f"a{i}", str(i), "5") for i in range(1, 5)])
    seen = set()
    for q, n_vertices, sink, source in ((qr.kronecker_quiver(), 2, "2", "1"), (star, 5, "5", None)):
        for trial in range(40):
            dims = {str(i): int(rng.integers(0, 4)) for i in range(1, n_vertices + 1)}
            r = random_rep(q, dims, rng)
            if trial % 2:
                r = _rank_at_most_one(r)
            full = qr.is_full_at_sink(r, sink)
            assert qr.verify_end_isomorphism(r, sink, "plus").hypothesis_ok == full
            # the dual star has its centre as a source
            r_src, v = (r, source) if source else (qr.dual(r), sink)
            co_full = qr.is_co_full_at_source(r_src, v)
            assert qr.verify_end_isomorphism(r_src, v, "minus").hypothesis_ok == co_full
            seen.update({("plus", full), ("minus", co_full)})
    assert seen == {("plus", True), ("plus", False), ("minus", True), ("minus", False)}


def test_end_isomorphism_report_on_full_instances(rng):
    q = qr.kronecker_quiver()
    count = 0
    for _ in range(30):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 2 * d1 + 1))
        r = random_rep(q, {"1": d1, "2": d2}, rng)
        if not qr.is_full_at_sink(r, "2"):
            continue
        report = qr.verify_end_isomorphism(r, "2", "plus")
        assert report.hypothesis_ok
        assert report.end_dim == report.end_dim_reflected
        assert report.max_multiplicativity_residual <= 1e-8
        assert report.max_membership_residual <= 1e-8
        assert report.ok
        count += 1
    assert count >= 20


def test_end_isomorphism_minus_direction(rng):
    q = qr.kronecker_quiver()
    for _ in range(10):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers((d1 + 1) // 2, 4))
        r = random_rep(q, {"1": d1, "2": d2}, rng)
        if not qr.is_co_full_at_source(r, "1"):
            continue
        report = qr.verify_end_isomorphism(r, "1", "minus")
        assert report.ok


def test_end_isomorphism_computes_few_residuals_and_transports_nothing(monkeypatch, rng):
    counts = {"hom_residual": 0, "transport_hom": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(rep, "hom_residual")
    counting(reflection, "hom_residual")
    counting(reflection, "transport_hom")
    r = random_rep(qr.kronecker_quiver(), {"1": 2, "2": 3}, rng)
    report = qr.verify_end_isomorphism(qr.direct_sum(r, r), "2", "plus")
    assert report.ok and report.end_dim == 4
    # the membership residual of all images at once
    assert counts["hom_residual"] == 1
    assert counts["transport_hom"] == 0


def test_end_isomorphism_flags_a_transport_onto_the_zero_representation():
    # the simple representation at the sink has End = C; its reflection is 0,
    # and the zero map from C is not injective
    r = qr.new_rep(qr.kronecker_quiver(), {"1": 0, "2": 1})
    report = qr.verify_end_isomorphism(r, "2", "plus")
    assert (report.end_dim, report.end_dim_reflected) == (1, 0)
    assert not report.transport_full_rank
    assert not report.hypothesis_ok and not report.dims_equal and not report.ok


def _reference_multiplicativity(res, eb) -> float:
    """max over pairs of |transport(B_i B_j) - transport(B_i) transport(B_j)|, one pair at a time."""
    vertices = res.rep.quiver.vertices
    images = [qr.transport_hom(res, res, b) for b in eb.basis]
    worst = 0.0
    for bi, im_i in zip(eb.basis, images):
        for bj, im_j in zip(eb.basis, images):
            product = qr.make_hom(res.source_rep, res.source_rep, {u: bi.mats[u] @ bj.mats[u] for u in vertices})
            composed = qr.transport_hom(res, res, product)
            defect = np.sqrt(sum(np.linalg.norm(composed.mats[u] - im_i.mats[u] @ im_j.mats[u]) ** 2
                                 for u in vertices))
            worst = max(worst, float(defect))
    return worst


@pytest.mark.parametrize("isolated", [False, True])
def test_end_isomorphism_finds_a_product_defect(monkeypatch, rng, isolated):
    if isolated:
        # vertex 3 has no arrows: the transport has nothing to change
        q = qr.new_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2")])
        r = random_rep(q, {"1": 2, "2": 2, "3": 2}, rng)
        v = "3"
    else:
        r = random_rep(qr.kronecker_quiver(), {"1": 2, "2": 3}, rng)
        v = "2"
    m = 3
    # random blocks: a space that is not closed under products
    blocks = {u: rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d)) for u, d in r.dims.items()}
    fake = HomBasis(r, r, [qr.make_hom(r, r, {u: b[i] for u, b in blocks.items()}) for i in range(m)], blocks, 0.0)
    real_end_basis = reflection.end_basis
    calls = []

    def end_basis(s):
        calls.append(s)
        return fake if len(calls) == 1 else real_end_basis(s)

    monkeypatch.setattr(reflection, "end_basis", end_basis)
    report = qr.verify_end_isomorphism(r, v, "plus")
    want = _reference_multiplicativity(qr.reflect_sink(r, v), fake)
    got = report.max_multiplicativity_residual
    assert abs(got - want) <= 1e-12 * want
    if isolated:
        assert not report.hypothesis_ok and got == 0.0
    else:
        assert got > 1e-2 and not report.ok


@pytest.mark.parametrize("step", [1, 2, 3, 7])
def test_batched_multiplicativity_matches_the_pairwise_loop(monkeypatch, rng, step):
    r = random_rep(qr.kronecker_quiver(), {"1": 2, "2": 3}, rng)
    m = 7
    blocks = {u: rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d)) for u, d in r.dims.items()}
    fake = HomBasis(r, r, [qr.make_hom(r, r, {u: b[i] for u, b in blocks.items()}) for i in range(m)], blocks, 0.0)
    real_end_basis, real_carried_block = reflection.end_basis, reflection._carried_block
    calls = []

    def carried_block(*args):
        calls.append(args)
        return real_carried_block(*args)

    monkeypatch.setattr(reflection, "end_basis", lambda s: fake if s is r else real_end_basis(s))
    monkeypatch.setattr(reflection, "_carried_block", carried_block)
    # `step` basis elements per batch: m products of 2 x 2 blocks (vertex 1, the larger side) each
    monkeypatch.setattr(reflection, "MULT_BATCH_ENTRIES", step * m * 4)
    got = qr.verify_end_isomorphism(r, "2", "plus").max_multiplicativity_residual
    assert len(calls) == 1 + -(-m // step)  # the images, then one call per batch
    want = _reference_multiplicativity(qr.reflect_sink(r, "2"), fake)
    assert got > 1e-2 and abs(got - want) <= 1e-12 * want


def _two_sources(rng):
    # e1: 1 -> 2, e2: 3 -> 2; the sink 2 and the sources 1 and 3
    return random_rep(qr.an_quiver(3, "><"), {"1": 2, "2": 2, "3": 1}, rng)


def test_a_reflection_is_made_once_per_rep(monkeypatch, rng):
    r = _two_sources(rng)
    made = []
    real = reflection._reflect
    monkeypatch.setattr(reflection, "_reflect",
                        lambda s, v, d: (d == "source" and made.append(v)) or real(s, v, d))
    plus, minus = qr.reflect_sink(r, "2"), qr.reflect_source(r, "1")
    assert qr.reflect_sink(r, "2") is plus and qr.reflect_source(r, "1") is minus
    assert r._kept == {("2", "sink"): plus, ("1", "source"): minus}
    # verify_end_isomorphism reuses the reflections the caller made
    assert qr.verify_end_isomorphism(r, "2", "plus").ok
    assert qr.verify_end_isomorphism(r, "1", "minus").ok
    assert made == ["1"] and r._kept.keys() - {"end", "real"} == {("2", "sink"), ("1", "source")}
    # a different vertex is a reflection of its own
    assert qr.reflect_source(r, "3") is not minus and made == ["1", "3"]


def test_a_failing_reflection_keeps_nothing_and_raises_again():
    r = qr.new_rep(qr.kronecker_quiver(), {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[1.0]]})
    for _ in range(2):
        with pytest.raises(qr.PreconditionError):
            qr.reflect_sink(r, "1")
        with pytest.raises(qr.PreconditionError):
            qr.reflect_source(r, "2")
        for reflect in (qr.reflect_sink, qr.reflect_source):
            with pytest.raises(ValueError, match="no vertex '9'"):
                reflect(r, "9")
    assert r._kept == {}


def test_copies_of_a_rep_start_with_no_reflections(rng):
    r = _two_sources(rng)
    plus = qr.reflect_sink(r, "2")
    for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert c._kept == {}
        again = qr.reflect_sink(c, "2")
        assert again is not plus and np.array_equal(again.kernel_basis, plus.kernel_basis)


def test_a_kept_reflection_is_read_only(rng):
    r = _two_sources(rng)
    for res in (qr.reflect_sink(r, "2"), qr.reflect_source(r, "1")):
        with pytest.raises(ValueError):
            res.kernel_basis[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.kernel_basis = np.zeros_like(res.kernel_basis)


def test_a_walk_of_reflections_lives_as_long_as_its_first_rep(rng):
    r = random_rep(qr.an_quiver(4), {"1": 1, "2": 2, "3": 2, "4": 1}, rng)

    def walk(start):
        reps = [start]
        for v in orientation_sequence_an(4, "<<>"):
            reps.append(qr.reflect_source(reps[-1], v).rep)
        return [weakref.ref(s) for s in reps[1:]]

    # each kept reflection holds the next Rep, so r keeps the whole walk alive
    kept = walk(r)
    gc.collect()
    assert len(kept) == 3 and all(w() is not None for w in kept)
    # a walk from a copy is freed with the copy; dropping r frees its own walk
    from_copy = walk(copy.copy(r))
    del r
    gc.collect()
    assert all(w() is None for w in kept + from_copy)


def test_transport_of_identity_is_identity(rng):
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 2, "2": 2}, rng)
    res = qr.reflect_sink(r, "2")
    t = qr.transport_hom(res, res, qr.identity_hom(r))
    for v in ("1", "2"):
        assert np.allclose(t.mats[v], np.eye(res.rep.dims[v]), atol=1e-12)


def test_transport_matches_the_block_diagonal_product(rng):
    # K2* diag(T_u over the stacked blocks) K1, assembled by hand as the reference
    star = qr.new_quiver(["1", "2", "3"], [("a", "1", "3"), ("b", "2", "3")])
    cases = [(qr.kronecker_quiver(), {"1": 2, "2": 3}, {"1": 3, "2": 2}, "2"),
             (star, {"1": 2, "2": 1, "3": 2}, {"1": 1, "2": 3, "3": 1}, "3")]
    for q, dims1, dims2, v in cases:
        r1, r2 = random_rep(q, dims1, rng), random_rep(q, dims2, rng)
        res1, res2 = qr.reflect_sink(r1, v), qr.reflect_sink(r2, v)
        mats = {u: rng.standard_normal((dims2[u], dims1[u])) for u in q.vertices}
        t = qr.transport_hom(res1, res2, qr.make_hom(r1, r2, mats))
        parts = [mats[u] for u in res1.block_vertices]
        big = np.zeros((sum(p.shape[0] for p in parts), sum(p.shape[1] for p in parts)))
        row = col = 0
        for p in parts:
            big[row : row + p.shape[0], col : col + p.shape[1]] = p
            row, col = row + p.shape[0], col + p.shape[1]
        want = res2.kernel_basis.conj().T @ big @ res1.kernel_basis
        assert np.allclose(t.mats[v], want, rtol=0, atol=1e-12)
        assert all(np.array_equal(t.mats[u], mats[u]) for u in q.vertices if u != v)


def test_plus_minus_round_trip_on_indecomposable(rng):
    q = qr.kronecker_quiver()
    # preprojective-shaped dims, generically indecomposable and co-full at 1
    r = random_rep(q, {"1": 2, "2": 3}, rng)
    assert qr.is_indecomposable(r, seed=0).indecomposable
    minus = qr.reflect_source(r, "1")
    back = qr.reflect_sink(minus.rep, "1")
    iso = qr.find_isomorphism(r, back.rep, seed=0)
    assert iso is not None and qr.is_invertible_hom(iso)


def test_minus_of_simple_at_source_vanishes():
    q = qr.kronecker_quiver()
    simple = qr.new_rep(q, {"1": 1, "2": 0})
    res = qr.reflect_source(simple, "1")
    assert res.rep.is_zero


# ------------------------------------------------------ orientation walks


def test_orientation_sequence_identity_is_empty():
    assert orientation_sequence_an(4, ">>>") == []


def test_orientation_sequence_single_flip():
    assert orientation_sequence_an(2, "<") == ["1"]


def test_orientation_sequences_exhaustive():
    for n in range(2, 6):
        for bits in range(2 ** (n - 1)):
            target = [(bits >> i) & 1 == 1 for i in range(n - 1)]
            r = qr.zero_rep(qr.an_quiver(n))
            for v in orientation_sequence_an(n, target):
                assert v != str(n)
                r = qr.reflect_source(r, v).rep  # PreconditionError unless v is a source now
            want = qr.an_quiver(n, target)
            assert [(a.src, a.dst) for a in r.quiver.arrows] == [(a.src, a.dst) for a in want.arrows]


def _transport_across_directions():
    r = qr.new_rep(qr.kronecker_quiver(), {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[2.0]]})
    reflection.transport_hom(qr.reflect_sink(r, "2"), qr.reflect_source(r, "1"), rep.identity_hom(r))


@pytest.mark.parametrize(
    "call, exc, match",
    [
        (_transport_across_directions, ValueError, "same vertex and direction"),
        (lambda: reflection.verify_end_isomorphism(qr.zero_rep(qr.kronecker_quiver()), "2", "up"),
         ValueError, "'plus' or 'minus'"),
        (lambda: orientation_sequence_an(0, ""), qr.PreconditionError, "n >= 1"),
    ],
    ids=["transport-mismatched-reflections", "bad-direction", "empty-path"],
)
def test_reflection_rejects_malformed_input(call, exc, match):
    with pytest.raises(exc, match=match):
        call()

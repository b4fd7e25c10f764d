"""Seeded self-check suites behind the `verify` CLI subcommand.

Every suite is deterministic in (seed, trials, tol): the checks draw from one
np.random.default_rng in a fixed order and every reported number is formatted
the same way on every run, so two runs with equal inputs emit equal bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import builders, cyclic, hom, linalg, opmodels, reflection, rep
from .errors import PreconditionError
from .quiver import kronecker_quiver, new_quiver
from .rep import new_rep
from .textio import fmt_real


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _random_rep(q, dims, rng):
    shapes = {a.name: (dims[a.dst], dims[a.src]) for a in q.arrows}
    return new_rep(q, dims, {name: rng.standard_normal(s) + 1j * rng.standard_normal(s) for name, s in shapes.items()})


# ---------------------------------------------------------------- reflection


def _kronecker_reps(rng, trials, d2_range):
    """`trials` random Kronecker reps: d1 drawn from 1..3, then d2 from `d2_range(d1)`."""
    kq = kronecker_quiver()
    for _ in range(trials):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(*d2_range(d1)))
        yield _random_rep(kq, {"1": d1, "2": d2}, rng)


def _star_reps(rng, trials):
    """Random reps of the four-leaf star 1..4 -> 5: leaves drawn from 0..2, then a
    nonzero centre of at most the leaves' sum (a draw with no leaf is skipped)."""
    star = new_quiver(["1", "2", "3", "4", "5"], [(f"a{i}", str(i), "5") for i in range(1, 5)], name="D4star")
    for _ in range(trials):
        leaves = [int(rng.integers(0, 3)) for _ in range(4)]
        if sum(leaves) == 0:
            continue
        d5 = int(rng.integers(1, min(4, sum(leaves)) + 1))
        yield _random_rep(star, dict(zip(star.vertices, leaves + [d5])), rng)


def _sink_end_iso(reps, v):
    """Run `verify_end_isomorphism` at the sink v on each rep full there: (all ok, worst residual, count)."""
    ok, worst, used = True, 0.0, 0
    for r in reps:
        if not reflection.is_full_at_sink(r, v):
            continue
        used += 1
        rep_report = reflection.verify_end_isomorphism(r, v, "plus")
        worst = max(worst, rep_report.max_multiplicativity_residual, rep_report.max_membership_residual)
        ok = ok and rep_report.ok
    return ok, worst, used


def suite_reflection(trials: int, seed: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = []

    def sink_d2(d1):
        return 1, min(3, 2 * d1) + 1

    ok, worst, _ = _sink_end_iso(_kronecker_reps(rng, trials, sink_d2), "2")
    checks.append(Check("kronecker sink reflection preserves End", ok,
                        f"trials={trials} max_residual={fmt_real(worst)}"))

    ok, worst, used = _sink_end_iso(_star_reps(rng, trials), "5")
    checks.append(Check("four-leaf star sink reflection preserves End", ok and used > 0,
                        f"instances={used} max_residual={fmt_real(worst)}"))

    ok = True
    good = 0
    for r in _kronecker_reps(rng, trials, lambda d1: (max(1, (d1 + 1) // 2), 4)):
        if not reflection.is_co_full_at_source(r, "1"):
            continue
        minus = reflection.reflect_source(r, "1")
        back = reflection.reflect_sink(minus.rep, "1")
        iso = hom.find_isomorphism(r, back.rep, seed=int(rng.integers(0, 2**32)))
        good += iso is not None
        ok = ok and iso is not None
    checks.append(Check("minus then plus returns an isomorphic copy", ok and good > 0,
                        f"isomorphic={good}"))

    ok = True
    for r in _kronecker_reps(rng, trials, lambda d1: (1, 4)):
        direct = reflection.reflect_source(r, "1")
        via = reflection.dual(reflection.reflect_sink(reflection.dual(r), "1").rep)
        same_mats = direct.rep.dims == via.dims and all(
            np.array_equal(direct.rep.mats[a.name], via.mats[a.name])
            for a in via.quiver.arrows
        )
        ok = ok and same_mats
    checks.append(Check("minus equals adjoint-plus-adjoint exactly", ok, f"trials={trials}"))

    ok = True
    worst = 0.0
    for r in _kronecker_reps(rng, trials, sink_d2):
        res = reflection.reflect_sink(r, "2")
        t = reflection.transport_hom(res, res, rep.identity_hom(r))
        for v in res.rep.quiver.vertices:
            worst = max(worst, float(np.linalg.norm(t.mats[v] - np.eye(res.rep.dims[v]))))
        ok = ok and worst <= 1e-10
    checks.append(Check("transport carries identity to identity", ok,
                        f"max_defect={fmt_real(worst)}"))
    return checks


# ------------------------------------------------------------------- cyclic


def _exhaustive_cycle(n: int):
    """Distinct 0/1 instances: scalars enumerated only on arrows with live ends."""
    total = 0
    agree = 0
    transitive = 0
    for dim_bits in range(2**n):
        dims = [(dim_bits >> i) & 1 for i in range(n)]
        live = [i for i in range(n) if dims[i] and dims[(i + 1) % n]]
        for arr_bits in range(2 ** len(live)):
            scalars = [0.0] * n
            for j, i in enumerate(live):
                scalars[i] = float((arr_bits >> j) & 1)
            r = cyclic.cycle_rep(dims, scalars)
            crit = cyclic.cn_transitive_criterion(r)
            eb = hom.end_basis(r)
            direct = eb.dim == 1
            total += 1
            agree += crit == direct
            transitive += direct
    return total, agree, transitive


def suite_cyclic(trials: int, seed: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = []
    expected = {2: 5, 3: 10}
    for n in (2, 3, 4):
        total, agree, transitive = _exhaustive_cycle(n)
        ok = agree == total and (n not in expected or transitive == expected[n])
        checks.append(Check(f"C{n} criterion matches direct End on all 0/1 instances", ok,
                            f"instances={total} agree={agree} transitive={transitive}"))

    bad = 0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(0, 3)) for _ in range(n)]
        dims[int(rng.integers(0, n))] = int(rng.integers(2, 4))
        mats = []
        for i in range(n):
            shape = (dims[(i + 1) % n], dims[i])
            mats.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        r = cyclic.cycle_rep(dims, mats)
        eb = hom.end_basis(r)
        bad += eb.dim == 1
    checks.append(Check("no transitive instance once some dim exceeds 1", bad == 0,
                        f"trials={trials} transitive_found={bad}"))

    ok = True
    tested = 0
    for _ in range(trials):
        n = int(rng.integers(3, 6))
        dims = [int(rng.integers(0, 2)) for _ in range(n)]
        if all(d == 0 for d in dims) or all(d == 1 for d in dims):
            dims[int(rng.integers(0, n))] = 0
        scalars = [complex(rng.standard_normal() + 1j * rng.standard_normal()) for _ in range(n)]
        r = cyclic.cycle_rep(dims, scalars)
        before = hom.end_basis(r).dim
        for k in range(1, n + 1):
            if dims[k - 1] == 0:
                tested += 1
                smaller = cyclic.reduce_zero_vertex(r, k)
                ok = ok and hom.end_basis(smaller).dim == before
    checks.append(Check("deleting a zero vertex preserves End dimension", ok and tested > 0,
                        f"reductions={tested}"))
    return checks


# ----------------------------------------------------------------- operator


def suite_operator(trials: int, seed: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = []

    ok = True
    dims_sys = []
    for k in range(2, 6):
        j = opmodels.jordan_block(k)
        cdim = len(opmodels.commutant_basis(j))
        graph_pair = opmodels.OperatorPair(np.eye(k, dtype=complex), j, tag="graph")
        system = opmodels.four_subspace_from_pair(graph_pair)
        sysb = opmodels.subspace_system_end(system)
        ok = ok and cdim == k and sysb.dim == k
        dims_sys.append(f"{k}:{cdim}/{sysb.dim}")
    checks.append(Check("Jordan block commutant equals four-subspace End", ok,
                        " ".join(dims_sys)))

    a = np.diag([1.0, 0.0]).astype(complex)
    report = opmodels.phi_map(opmodels.OperatorPair(a, a, tag="diag(1,0)"))
    ok = report.ker_dim == 2 and report.ker_dim == report.expected_ker_dim and report.surjective
    checks.append(Check("pair map kernel matches the engineered example", ok,
                        f"ker_dim={report.ker_dim} surjective={str(report.surjective).lower()}"))

    ok = True
    inj = 0
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        report = opmodels.phi_map(opmodels.OperatorPair(a, b, tag="random"))
        inj += report.injective
        ok = ok and report.injective and report.surjective
    checks.append(Check("pair map injective when the kernels meet trivially", ok,
                        f"injective={inj}/{trials}"))

    lam = opmodels.parse_sequence("seq:reciprocal")
    w = opmodels.parse_sequence("seq:reciprocal")
    v1 = opmodels.density_criterion(lam, w)
    v2 = opmodels.density_criterion(opmodels.parse_sequence("seq:list:[0]:reciprocal"), w)
    v3 = opmodels.density_criterion(opmodels.parse_sequence("seq:one-minus-pow:2"), w)
    ok = v1.dense and not v2.dense and not v3.dense
    checks.append(Check("density criterion reproduces the three model verdicts", ok,
                        f"{str(v1.dense).lower()}/{str(v2.dense).lower()}/{str(v3.dense).lower()}"))

    pair = opmodels.kron_pair_shift_rank_one(lam, w, 16)
    s = np.linalg.svd(pair.a, compute_uv=False)
    ok = bool(s[-1] > linalg.svd_cutoff(s, pair.a.shape))
    checks.append(Check("shift-plus-rank-one operator has trivial kernel", ok,
                        f"sigma_min={fmt_real(float(s[-1]))}"))

    si = opmodels.is_strongly_irreducible(opmodels.jordan_block(3), seed=seed)
    sr = opmodels.is_strongly_irreducible(np.diag([1.0, 2.0]), seed=seed)
    ok = si.strongly_irreducible and not sr.strongly_irreducible
    checks.append(Check("strong irreducibility verdicts for the two stock operators", ok,
                        f"jordan3={str(si.strongly_irreducible).lower()} "
                        f"diag12={str(sr.strongly_irreducible).lower()}"))

    hs = opmodels.hrr_system(9)
    basis = opmodels.subspace_system_end(hs)
    ok = basis.dim >= 1 and basis.max_residual <= 1e-8
    checks.append(Check("factorial-weight system End computes cleanly", ok,
                        f"dim={basis.dim} residual={fmt_real(float(basis.max_residual))}"))
    return checks


# ----------------------------------------------------------------- builders


def suite_builders(trials: int, seed: int) -> list[Check]:
    del trials
    checks = []
    families = ["d4tilde", "e6tilde", "e7tilde", "e8tilde"]
    for fam in families:
        ok = True
        dims_out = []
        for k in (1, 2):
            s = opmodels.jordan_block(k)
            r = builders.build_extended_dynkin(fam, s)
            verdict = hom.is_indecomposable(r, seed=seed)
            ok = ok and verdict.end_dim == k and verdict.indecomposable
            dims_out.append(f"k={k}:end={verdict.end_dim}")
        checks.append(Check(f"{fam} with a nilpotent Jordan parameter is indecomposable",
                            ok, " ".join(dims_out)))

    r = builders.build_extended_dynkin("d4tilde", np.diag([1.0, 2.0]))
    verdict = hom.is_indecomposable(r, seed=seed)
    split_ok = verdict.kind == "decomposable" and verdict.witness is not None
    if split_ok:
        dec = rep.decompose_with(r, verdict.witness)
        split_ok = rep.is_invertible_hom(dec.witness)
    checks.append(Check("a two-eigenvalue parameter splits the two-fork family", split_ok,
                        f"kind={verdict.kind}"))

    built = builders.build_an_tilde_noncyclic(
        kronecker_quiver(), np.eye(2, dtype=complex), opmodels.jordan_block(2))
    eb = hom.end_basis(built.rep)
    ok = eb.dim == 2 and built.arrow_a != built.arrow_b
    checks.append(Check("two-vertex cycle with identity and Jordan arrows has End dim 2",
                        ok, f"end={eb.dim} a={built.arrow_a} b={built.arrow_b}"))

    try:
        builders.build_an_tilde_noncyclic(cyclic.cycle_quiver(3),
                                          np.eye(1, dtype=complex), np.eye(1, dtype=complex))
        cycle_rejected = False
    except PreconditionError:
        cycle_rejected = True
    checks.append(Check("a one-way cycle orientation is rejected", cycle_rejected, ""))

    r = builders.build_extended_dynkin("e8tilde", np.zeros((1, 1), dtype=complex))
    want = {"0": 6, "1": 5, "2": 4, "3": 3, "4": 2, "5": 1, "1'": 4, "2'": 2, "1''": 3}
    ok = r.dims == want and hom.end_basis(r).dim == 1
    checks.append(Check("smallest eight-arm instance has the published dimension vector",
                        ok, "dims=" + ",".join(str(d) for d in r.dims.values())))
    return checks


SUITES = {
    "reflection": suite_reflection,
    "cyclic": suite_cyclic,
    "operator": suite_operator,
    "builders": suite_builders,
}


def run_suites(names: list[str], trials: int, seed: int) -> dict[str, list[Check]]:
    out = {}
    for name in names:
        out[name] = SUITES[name](trials, seed)
    return out

"""Reference computations for the benchmark's checks, written apart from quivrep.

Nothing here imports quivrep.  Representations are plain data: a list of
vertices, a dict of dimensions and a dict ``arrow name -> (src, dst, matrix)``.
Intertwiner systems use column-major vectorisation (quivrep uses row-major),
exact ranks use sympy, and the Jordan-structure and connectivity answers are
closed forms, so a check agrees with the program only when two separate
computations agree.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# A residual at or below this counts as zero (the program's own acceptance
# threshold for idempotents and End membership is 1e-8 as well).
RESIDUAL_TOL = 1e-8


def numeric_rank(a: np.ndarray, rel: float = 1e-9) -> int:
    """Rank with singular values above rel * sigma_max counted as nonzero."""
    a = np.asarray(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rel * s[0]))


def end_dim(vertices, dims, arrows) -> int:
    """dim End of a representation: the nullity of T_dst F = F T_src over all arrows.

    vec is column-major: vec(T F) = (F^T kron I) vec(T), vec(F T) = (I kron F) vec(T).
    """
    offsets, pos = {}, 0
    for v in vertices:
        offsets[v] = pos
        pos += dims[v] * dims[v]
    if pos == 0:
        return 0
    rows = []
    for src, dst, f in arrows.values():
        ds, dd = dims[src], dims[dst]
        if ds == 0 or dd == 0:
            continue
        block = np.zeros((dd * ds, pos), dtype=complex)
        block[:, offsets[dst] : offsets[dst] + dd * dd] += np.kron(f.T, np.eye(dd))
        block[:, offsets[src] : offsets[src] + ds * ds] -= np.kron(np.eye(ds), f)
        rows.append(block)
    if not rows:
        return pos
    return pos - numeric_rank(np.vstack(rows))


def intertwining_residual(arrows, source_mats, target_mats, blocks) -> float:
    """max over arrows of |T_dst F - G T_src| / (1 + |F||T_dst| + |G||T_src|)."""
    worst = 0.0
    for name, (src, dst, _) in arrows.items():
        f, g = source_mats[name], target_mats[name]
        td, ts = blocks[dst], blocks[src]
        if f.size == 0 and g.size == 0:
            continue
        defect = np.linalg.norm(td @ f - g @ ts)
        scale = 1.0 + np.linalg.norm(f) * np.linalg.norm(td) + np.linalg.norm(g) * np.linalg.norm(ts)
        worst = max(worst, float(defect / scale))
    return worst


def idempotent_defect(blocks) -> float:
    return max((float(np.linalg.norm(e @ e - e)) for e in blocks.values() if e.size), default=0.0)


def is_invertible_family(blocks, rel: float = 1e-9) -> bool:
    for m in blocks.values():
        if m.shape[0] != m.shape[1]:
            return False
        if m.size and numeric_rank(m, rel) != m.shape[0]:
            return False
    return True


# ---------------------------------------------------------------- operators


def jordan(k: int, lam: complex = 0.0) -> np.ndarray:
    """Lower Jordan block: lam on the diagonal, ones just below it."""
    return lam * np.eye(k, dtype=complex) + np.eye(k, k=-1, dtype=complex)


def block_diag(blocks) -> np.ndarray:
    k = sum(b.shape[0] for b in blocks)
    out = np.zeros((k, k), dtype=complex)
    pos = 0
    for b in blocks:
        n = b.shape[0]
        out[pos : pos + n, pos : pos + n] = b
        pos += n
    return out


def commutant_dim(jordan_structure) -> int:
    """dim of the commutant from the Jordan structure {eigenvalue: [block sizes]}:
    sum over eigenvalues of sum_{i,j} min(p_i, p_j)."""
    return sum(min(p, q) for sizes in jordan_structure.values() for p in sizes for q in sizes)


def is_single_block(jordan_structure) -> bool:
    return sum(len(sizes) for sizes in jordan_structure.values()) == 1


# ---------------------------------------------------------------- cycles


def cycle_components(dims, scalars, tol: float = 1e-9) -> list[set[int]]:
    """Components of the live positions of a one-way cycle with dims 0/1.

    Positions i and i+1 (mod n) are joined when both are live and the arrow
    between them carries a scalar of modulus above tol.
    """
    n = len(dims)
    live = [i for i in range(n) if dims[i] == 1]
    seen: set[int] = set()
    comps = []
    for start in live:
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            i = stack.pop()
            if i in comp:
                continue
            comp.add(i)
            for j, arrow in (((i + 1) % n, i), ((i - 1) % n, (i - 1) % n)):
                if dims[j] == 1 and abs(scalars[arrow]) > tol:
                    stack.append(j)
        seen |= comp
        comps.append(comp)
    return comps


def cycle_transitive(dims, scalars) -> bool:
    """Transitive exactly when every dim is at most 1 and the live positions form one component."""
    if any(d > 1 for d in dims) or not any(dims):
        return False
    return len(cycle_components(dims, scalars)) == 1


# ---------------------------------------------------------------- weight sequences
#
# A spec is a tuple: ("reciprocal",), ("one-minus-pow", b) or ("exp-neg-pow", lam, parity).
# Values follow the table in the project README.


def seq_value(spec, n: int) -> float:
    kind = spec[0]
    if kind == "reciprocal":
        return 1.0 / n
    if kind == "one-minus-pow":
        return 1.0 - spec[1] ** (-n)
    if kind == "exp-neg-pow":
        on = n >= 1 and n % 2 == (0 if spec[2] == "even" else 1)
        return math.exp(-(spec[1] ** n)) if on else 1.0
    raise ValueError(f"no reference value for {spec!r}")


def seq_exact(spec, n: int) -> Fraction:
    """Exact rational value for the rational families."""
    if spec[0] == "reciprocal":
        return Fraction(1, n)
    if spec[0] == "one-minus-pow":
        return 1 - Fraction(1, int(spec[1]) ** n)
    raise ValueError(f"{spec!r} has no exact rational values")


def seq_literal(spec) -> str:
    kind = spec[0]
    if kind == "reciprocal":
        return "seq:reciprocal"
    if kind == "one-minus-pow":
        return f"seq:one-minus-pow:{spec[1]}"
    return f"seq:exp-neg-pow:{spec[1]}:{spec[2]}"


def _growth(spec):
    """('poly', p) when |value(n)| ~ n**p, or ('parity', parity) for exp(-lam**n) on one parity."""
    if spec[0] == "reciprocal":
        return ("poly", -1)
    if spec[0] == "one-minus-pow":
        return ("poly", 0)
    return ("parity", spec[2])


def dense(lam, w) -> bool:
    """The orbit construction is dense exactly when sum |w_n / lam_n|^2 diverges
    (all lam_n nonzero).  Closed form per growth class of the two sequences."""
    gl, gw = _growth(lam), _growth(w)
    if gl[0] == "parity":
        # off both parity classes, or on a shared one, |w_n / lam_n| >= 1
        return True
    if gw[0] == "parity":
        # off w's parity class w_n = 1, so the terms are |1/lam_n|^2 ~ n^(-2p)
        return -2 * gl[1] >= -1
    return 2 * (gw[1] - gl[1]) >= -1


def shift_rank_one(lam_vals, w_vals) -> tuple[np.ndarray, np.ndarray]:
    """A x = (sum_k w_k x_k, lam_1 x_1, ..., lam_{n-1} x_{n-1}) and the plain shift B."""
    n = len(lam_vals)
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    a[0, :] = w_vals
    for i in range(n - 1):
        a[i + 1, i] = lam_vals[i]
        b[i + 1, i] = 1.0
    return a, b


def bilateral(a_vals, b_vals) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal A and weighted shift B (e_k -> b_k e_{k+1}, top vector dropped)."""
    size = len(a_vals)
    b = np.zeros((size, size), dtype=complex)
    for i in range(size - 1):
        b[i + 1, i] = b_vals[i]
    return np.diag(np.asarray(a_vals, dtype=complex)), b


def four_subspace_projectors(a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Orthogonal projectors of E1 = H+0, E2 = 0+H, E3 = range [A; B], E4 = diagonal."""
    n = a.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    stacked = np.vstack([a, b])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    r = int(np.sum(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0
    injections = [
        np.vstack([eye, zero]),
        np.vstack([zero, eye]),
        u[:, :r],
        np.vstack([eye, eye]) / math.sqrt(2.0),
    ]
    return [j @ j.conj().T for j in injections]


def membership_residual(t: np.ndarray, projectors) -> float:
    eye = np.eye(t.shape[0])
    return max(float(np.linalg.norm((eye - p) @ t @ p)) for p in projectors)


def joint_kernel_dim(a: np.ndarray, b: np.ndarray) -> int:
    return a.shape[1] - numeric_rank(np.vstack([a, b]))


def shift_rank_one_end_dims_exact(lam_vals, w_vals) -> tuple[int, int]:
    """(dim End of the shift-rank-one pair, dim End of its four-subspace system), exactly.

    `lam_vals` and `w_vals` are Fractions.  End of a pair (A, B) is
    {(S, T) : T A = A S, T B = B S}; the system's End is its image T, whose
    kernel is the pairs (S, 0) with A S = B S = 0.
    """
    import sympy

    n = len(lam_vals)
    a = sympy.zeros(n, n)
    b = sympy.zeros(n, n)
    for j, w in enumerate(w_vals):
        a[0, j] = sympy.Rational(w.numerator, w.denominator)
    for i in range(n - 1):
        a[i + 1, i] = sympy.Rational(lam_vals[i].numerator, lam_vals[i].denominator)
        b[i + 1, i] = 1
    eye = sympy.eye(n)
    # unknowns: vec S then vec T (column-major); T M - M S = 0 for M in (A, B)
    system = sympy.Matrix.vstack(*[
        sympy.Matrix.hstack(-sympy.kronecker_product(eye, m), sympy.kronecker_product(m.T, eye))
        for m in (a, b)
    ])
    pair_dim = 2 * n * n - system.rank()
    kernel = n - sympy.Matrix.vstack(a, b).rank()
    return pair_dim, pair_dim - n * kernel

"""Operator pairs on truncated sequence spaces and their subspace systems.

Covers: named weight sequences with log-domain evaluation, the
shift-plus-rank-one / diagonal pair on l2(N), the bilateral weighted pair on a
finite window of Z, the density criterion for the rank-one construction, the
four-subspace system of a pair, endomorphisms of subspace systems, the
doubling map into a four-subspace system, strong irreducibility, and the
factorial-weight four-subspace family.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import PreconditionError
from .hom import HomBasis, end_basis, is_indecomposable
from .quiver import jordan_quiver, kronecker_quiver, new_quiver
from .rep import Rep, new_rep

# ---------------------------------------------------------------------------
# weight sequences


@dataclass(frozen=True)
class SequenceSpec:
    """A weight sequence: an explicit 1-based prefix `values`, then a named family's rule.

    Families, each with exact log-magnitude evaluation:
      reciprocal          1/n                      (n >= 1)
      one-minus-pow       1 - base**(-n)           (n >= 1, base > 1)
      exp-neg-pow         exp(-lam**n) when n >= 1 and n has the given
                          parity, else 1           (lam > 1)
      hrr                 1 for n <= 0, exp((-1)^n n!) for n >= 1
      const               the constant c
      None                no tail: the prefix is the whole sequence
    """

    family: str | None
    base: float = 2.0
    lam: float = 2.0
    parity: str = "even"
    const: complex = 1.0
    values: tuple = ()

    def __post_init__(self):
        if self.family not in ("reciprocal", "one-minus-pow", "exp-neg-pow", "hrr", "const", None):
            raise ValueError(f"unknown sequence family {self.family!r}")
        if self.family == "one-minus-pow" and not self.base > 1:
            raise ValueError(f"one-minus-pow needs base > 1, got {self.base}")
        if self.family == "exp-neg-pow":
            if not self.lam > 1:
                raise ValueError(f"exp-neg-pow needs lam > 1, got {self.lam}")
            if self.parity not in ("even", "odd"):
                raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")

    # -- evaluation

    def _masked(self, n: int) -> bool:
        want = 0 if self.parity == "even" else 1
        return n >= 1 and n % 2 == want

    def _in_prefix(self, n: int) -> bool:
        """Whether the prefix holds entry n; otherwise raise unless the family's rule covers n."""
        if 1 <= n <= len(self.values):
            return True
        if self.family is None:
            raise ValueError(f"explicit list of length {len(self.values)} has no entry at n = {n} and no tail")
        if self.family in ("reciprocal", "one-minus-pow") and n < 1:
            raise ValueError(f"{self.family} is defined for n >= 1, got n = {n}")
        return False

    def value(self, n: int) -> complex:
        if self._in_prefix(n):
            return complex(self.values[n - 1])
        if self.family == "reciprocal":
            return 1.0 / n
        if self.family == "one-minus-pow":
            return 1.0 - self.base ** (-n)
        if self.family == "exp-neg-pow":
            return math.exp(-(self.lam**n)) if self._masked(n) else 1.0
        if self.family == "hrr":
            return math.exp(self.log_abs(n))
        return self.const

    def log_abs(self, n: int) -> float:
        """log |value(n)|; -inf marks a zero.  Never overflows.

        Where the log itself leaves the double range it saturates: hrr to
        +-inf once n! does, exp-neg-pow to -inf once lam**n does.
        """
        if self._in_prefix(n) or self.family == "const":
            a = abs(self.value(n))
            return math.log(a) if a > 0 else -math.inf
        if self.family == "reciprocal":
            return -math.log(n)
        if self.family == "one-minus-pow":
            return math.log1p(-(self.base ** (-n)))
        if self.family == "exp-neg-pow":
            if not self._masked(n):
                return 0.0
            try:
                return -(float(self.lam) ** n)
            except OverflowError:
                return -math.inf
        if n <= 0:  # hrr
            return 0.0
        try:
            f = float(math.factorial(n))
        except OverflowError:
            f = math.inf
        return f if n % 2 == 0 else -f

    # -- structural queries used by the density analysis

    def has_zero(self) -> bool:
        return any(complex(v) == 0 for v in self.values) or (self.family == "const" and self.const == 0)


def parse_sequence(literal) -> SequenceSpec:
    """Parse 'seq:[list:[...]:]...<family>[:params]' literals (see SequenceSpec families).

    Each `list:[...]` extends the prefix past the entries already read, so an inner list's first entries are
    shadowed; a literal that ends in a list has no tail.  Every number in the literal must be finite.
    """
    if isinstance(literal, SequenceSpec):
        return literal

    def finite(x):
        if not cmath.isfinite(x):
            raise ValueError(f"non-finite number {x} in sequence literal {literal!r}")
        return x

    text = literal.strip()
    if not text.startswith("seq:"):
        raise ValueError(f"sequence literal must start with 'seq:', got {literal!r}")
    body, values = text[len("seq:") :], ()
    while body.startswith("list:"):
        rest = body[len("list:") :]
        if not rest.startswith("["):
            raise ValueError(f"list literal needs 'seq:list:[...]', got {literal!r}")
        close = rest.find("]")
        if close < 0:
            raise ValueError(f"unterminated list in {literal!r}")
        entries = tuple(finite(complex(x.strip())) for x in rest[1:close].split(",") if x.strip() != "")
        values += entries[len(values) :]
        body = rest[close + 1 :]
        if not body:
            return SequenceSpec(None, values=values)
        if not body.startswith(":"):
            raise ValueError(f"unexpected trailing text {body!r} in {literal!r}")
        body = body[1:]
    if body in ("reciprocal", "hrr"):
        return SequenceSpec(body, values=values)
    parts = body.split(":")
    if parts[0] == "one-minus-pow" and len(parts) <= 2:
        base = finite(float(parts[1])) if len(parts) == 2 else 2.0
        return SequenceSpec("one-minus-pow", base=base, values=values)
    if parts[0] == "exp-neg-pow":
        if len(parts) != 3:
            raise ValueError(f"exp-neg-pow literal needs 'seq:exp-neg-pow:<lam>:<even|odd>', got {literal!r}")
        return SequenceSpec("exp-neg-pow", lam=finite(float(parts[1])), parity=parts[2], values=values)
    if body.startswith("const:"):
        return SequenceSpec("const", const=finite(complex(body[len("const:") :])), values=values)
    raise ValueError(f"unknown sequence literal {literal!r}")


# ---------------------------------------------------------------------------
# fixture operators


def jordan_block(n: int, lam: complex = 0.0) -> np.ndarray:
    """lam I + S on C^n, S the shift e_i -> e_{i+1} with the last basis vector mapped out of the window."""
    return lam * np.eye(n, dtype=complex) + np.eye(n, k=-1, dtype=complex)


# ---------------------------------------------------------------------------
# operator pairs


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Two finite square operators on C^n, kept as read-only copies, so what is derived from them is built once."""

    a: np.ndarray
    b: np.ndarray
    tag: str = ""

    def __post_init__(self):
        a, b = linalg.read_only(self.a), linalg.read_only(self.b)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
            raise ValueError(f"an operator pair needs two square matrices of one size, got {a.shape} and {b.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("an operator pair needs finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def system(self) -> SubspaceSystem:
        """The four-subspace system, with E3 the column space of [A; B]."""
        return _four_subspaces(self.n, linalg.orth(np.vstack([self.a, self.b])))

    @cached_property
    def rep(self) -> Rep:
        """The Kronecker representation a, b : 1 -> 2; its End is the pair's intertwiners (S, T)."""
        return new_rep(kronecker_quiver(), {"1": self.n, "2": self.n}, {"a": self.a, "b": self.b})


def kron_pair_shift_rank_one(lam, w, n: int) -> OperatorPair:
    """A = (shift)(diag of lam) + rank-one row of w, B = shift, on C^n.

    Hypotheses: the lam values are pairwise distinct on 1..n and every w value
    is nonzero.  A x = (sum_k x_k w_k, lam_1 x_1, ..., lam_{n-1} x_{n-1}).
    """
    lam = parse_sequence(lam)
    w = parse_sequence(w)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lam_vals = np.array([complex(lam.value(i)) for i in range(1, n + 1)])
    w_vals = np.array([complex(w.value(i)) for i in range(1, n + 1)])
    if len(set(lam_vals.tolist())) != n:
        raise PreconditionError(
            "the diagonal weights must be pairwise distinct on the window; a repeated value breaks the construction"
        )
    if np.any(w_vals == 0):
        raise PreconditionError("every w_n must be nonzero; a zero row weight breaks the construction")
    b = jordan_block(n)
    a = b @ np.diag(lam_vals) + np.outer(np.eye(n, dtype=complex)[0], w_vals)
    return OperatorPair(a, b, tag="shift-rank-one")


def kron_pair_bilateral(a_seq, b_seq, m: int) -> OperatorPair:
    """Diagonal A and weighted-shift B over the window -m..m of Z (no wrap).

    A e_k = a(k) e_k and B e_k = b(k) e_{k+1}; the image of the top window
    vector leaves the window and is dropped, so a is read on -m..m and b on
    -m..m-1 only.  Any weight read that evaluates to exact zero (for instance
    by underflow of exp(-lam**n)) is an error.
    """
    a_seq = parse_sequence(a_seq)
    b_seq = parse_sequence(b_seq)
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    offsets = range(-m, m + 1)
    a_vals = [complex(a_seq.value(k)) for k in offsets]
    b_vals = [complex(b_seq.value(k)) for k in offsets[:-1]]
    for name, vals in (("a", a_vals), ("b", b_vals)):
        for k, v in zip(offsets, vals):
            if v == 0:
                raise PreconditionError(
                    f"{name}({k}) is exactly zero in the window (underflow?); the weights must be nonzero"
                )
    a = np.diag(a_vals).astype(complex)
    b = np.diag(np.array(b_vals, dtype=complex), -1)
    return OperatorPair(a, b, tag="bilateral")


def log_mk(a_seq, b_seq, m: int, n: int, k: int) -> float:
    """log of the weight-ratio product M_k(m, n) = prod_{j<k} w_{m+j} / w_{n+j},
    where w = b/a, evaluated entirely in the log domain."""
    a_seq = parse_sequence(a_seq)
    b_seq = parse_sequence(b_seq)
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    total = 0.0
    for j in range(k):
        for i in (m + j, n + j):
            la, lb = a_seq.log_abs(i), b_seq.log_abs(i)
            if math.isinf(la) or math.isinf(lb):
                raise PreconditionError(f"zero weight at index {i}; the ratio products need nonzero weights")
        total += (b_seq.log_abs(m + j) - a_seq.log_abs(m + j)) - (
            b_seq.log_abs(n + j) - a_seq.log_abs(n + j)
        )
    return total


# ---------------------------------------------------------------------------
# density of the rank-one orbit construction


@dataclass(frozen=True)
class DensityVerdict:
    dense: bool
    ratio_l2: bool | None
    reason: str


def _classify(spec: SequenceSpec):
    """The tail class of |value|: ('poly', p) when it is ~ n**p eventually;
    ('parity-exp', lam, parity); or ('hrr',).  A zero const never gets here:
    `has_zero` catches it first."""
    if spec.family == "reciprocal":
        return ("poly", -1)
    if spec.family in ("one-minus-pow", "const"):
        return ("poly", 0)
    if spec.family == "exp-neg-pow":
        return ("parity-exp", spec.lam, spec.parity)
    if spec.family is None:
        raise PreconditionError(
            "an explicit list without a declared tail has undecidable tail behavior; declare a tail family"
        )
    return ("hrr",)


def density_criterion(lam, w) -> DensityVerdict:
    """Decide density of the orbit construction from the weight sequences.

    Dense exactly when every lam_k is nonzero and (w_k / lam_k) is not
    square-summable.  Every family is decided in closed form from the tail
    classes.  An hrr tail never gives a square-summable ratio: two hrr tails
    make it eventually 1; an hrr lam has |lam_n| = exp(-n!) on odd n, which
    falls faster than any other family's exp(-L**n); an hrr w has
    |w_n| = exp(n!) on even n against a bounded lam.
    """
    lam = parse_sequence(lam)
    w = parse_sequence(w)
    if w.has_zero():
        raise PreconditionError("w_n = 0 violates the construction hypothesis (all w_n must be nonzero)")
    if lam.has_zero():
        return DensityVerdict(False, None, "some lambda_k = 0, so the orbit misses a coordinate")

    cw, cl = _classify(w), _classify(lam)
    if cw == cl == ("hrr",):
        l2, reason = False, "both tails are hrr, so |w/lambda| is eventually 1"
    elif "hrr" in (cw[0], cl[0]):
        l2, reason = False, "an hrr tail makes |w/lambda| grow like exp(n!) on one parity class"
    elif cw[0] == "poly" and cl[0] == "poly":
        delta = cw[1] - cl[1]
        l2 = 2 * delta < -1
        reason = f"|w/lambda| ~ n^{delta}: " + ("square-summable" if l2 else "not square-summable")
    elif cw[0] == "parity-exp" and cl[0] == "poly":
        l2 = 2 * cl[1] > 1
        reason = "off-parity ratio ~ n^%d is %s" % (-cl[1], "square-summable" if l2 else "not square-summable")
    elif cw[0] == "poly" and cl[0] == "parity-exp":
        l2 = False
        reason = "on-parity ratio grows like exp(+lam**n); not square-summable"
    else:  # both parity-exp
        l2 = False
        reason = "parity weight ratios keep unit or growing magnitude on some parity class; not square-summable"
    return DensityVerdict(not l2, l2, reason)


# ---------------------------------------------------------------------------
# subspace systems


@dataclass(frozen=True, eq=False)
class SubspaceSystem:
    """Finitely many labelled subspaces of C^ambient, each given by an orthonormal injection.

    The operator-pair systems and the extended-Dynkin builders share this type.
    The injections are kept as read-only copies, so `rep` is built once.
    """

    ambient: int
    injections: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "injections", tuple(linalg.read_only(j) for j in self.injections))
        if len(self.labels) != len(self.injections):
            raise ValueError("one label per subspace")
        for lbl, j in zip(self.labels, self.injections):
            if j.shape[0] != self.ambient:
                raise ValueError(f"{lbl}: injection has {j.shape[0]} rows, ambient is {self.ambient}")
            defect = np.linalg.norm(j.conj().T @ j - np.eye(j.shape[1]))
            if defect > 1e-8:
                raise ValueError(f"{lbl}: columns are not orthonormal (defect {defect:.2e})")

    @property
    def sub_dims(self) -> tuple[int, ...]:
        return tuple(j.shape[1] for j in self.injections)

    @cached_property
    def rep(self) -> Rep:
        """The inclusion-quiver representation: subspace k at vertex k, arrow a_k : k -> n+1 its injection.

        T -> T_{n+1} identifies End of this representation with End of the system.
        """
        arms = [str(i) for i in range(1, len(self.injections) + 1)]
        center = str(len(arms) + 1)
        q = new_quiver(arms + [center], [(f"a{v}", v, center) for v in arms], name=f"R{len(arms)}")
        dims = {v: j.shape[1] for v, j in zip(arms, self.injections)} | {center: self.ambient}
        return new_rep(q, dims, {f"a{v}": j for v, j in zip(arms, self.injections)})


def _four_subspaces(n: int, e3: np.ndarray) -> SubspaceSystem:
    """E1 = H+0, E2 = 0+H, the given E3 and E4 = diagonal, in C^{2n}."""
    eye, zero = np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)
    e1, e2, e4 = np.vstack([eye, zero]), np.vstack([zero, eye]), np.vstack([eye, eye]) / np.sqrt(2.0)
    return SubspaceSystem(2 * n, [e1, e2, e3, e4], ("E1", "E2", "E3", "E4"))


def four_subspace_from_pair(p: OperatorPair) -> SubspaceSystem:
    """The four-subspace system of a pair (`p.system`, built once per pair)."""
    return p.system


@dataclass(frozen=True, eq=False)
class SystemEndBasis:
    """Orthonormal basis of {T : T E_i <= E_i for all i}, restricted from `end`, End of the system's rep.

    The solve and the residual, computed when first read, are `end`'s; a real system's is solved in real
    arithmetic and returned complex, its basis possibly rotated within the same space (see `hom.hom_basis`).
    """

    basis: list[np.ndarray]
    end: HomBasis

    dim = property(lambda self: len(self.basis))
    tol_used = property(lambda self: self.end.tol_used)
    system_shape = property(lambda self: self.end.system_shape)
    max_residual = property(lambda self: self.end.max_residual)


def subspace_system_end(s: SubspaceSystem) -> SystemEndBasis:
    """End of `subspace_system_rep(s)`, restricted to the ambient vertex and re-orthonormalized.

    Restriction is injective because every arm is an injection.  Arms that fill
    C^d (E1 = H + 0 and E2 = 0 + H of a four-subspace system) determine T; each
    other arm leaves K_i* T J_i = 0, K_i spanning range(J_i)^perp.  In a
    four-subspace system in C^d, E4's rows then determine one diagonal block of
    T from the other, and E3's rows are factored: d^2/4 x d^2/4.
    """
    d = s.ambient
    eb = end_basis(subspace_system_rep(s))
    center = str(len(s.injections) + 1)
    q = linalg.qr_orthonormalize(linalg.real_if_exact(eb.blocks[center].reshape(eb.dim, d * d)).T)
    return SystemEndBasis([q[:, j].reshape(d, d) for j in range(eb.dim)], eb)


def subspace_system_rep(s: SubspaceSystem) -> Rep:
    """The inclusion-quiver representation of a subspace system (`s.rep`, built once per system)."""
    return s.rep


# ---------------------------------------------------------------------------
# the doubling map into the four-subspace system


@dataclass
class PhiMapReport:
    end_dim: int
    system_end_dim: int
    ker_dim: int
    expected_ker_dim: int
    injective: bool
    surjective: bool
    membership_residual: float


def phi_map(pair: OperatorPair) -> PhiMapReport:
    """Send an intertwiner (S, T) of the pair to T + T on the four-subspace system.

    The kernel consists of the pairs (S, 0), so its dimension is
    n * dim(ker A ∩ ker B); the map always lands in End of the system and is
    onto it, which the report checks by dimension count.  Both Ends are read
    from the representations the pair keeps, so each is solved once per pair.
    """
    n = pair.n
    eb = end_basis(pair.rep)
    system = four_subspace_from_pair(pair)
    system_end_dim = end_basis(subspace_system_rep(system)).dim

    images = np.zeros((eb.dim, 2 * n, 2 * n), dtype=complex)
    images[:, :n, :n] = images[:, n:, n:] = eb.blocks["2"]
    eye2n = np.eye(2 * n, dtype=complex)
    projs = [j @ j.conj().T for j in system.injections]
    defects = [np.linalg.norm((eye2n - p) @ images @ p, axis=(-2, -1)) for p in projs]
    memb = float(np.max(defects, initial=0.0))
    ker_dim = eb.dim - linalg.matrix_rank(images.reshape(eb.dim, 4 * n * n))
    joint_kernel = linalg.nullspace(np.vstack([pair.a, pair.b])).shape[1]
    return PhiMapReport(
        end_dim=eb.dim,
        system_end_dim=system_end_dim,
        ker_dim=ker_dim,
        expected_ker_dim=n * joint_kernel,
        injective=ker_dim == 0,
        surjective=system_end_dim == eb.dim - ker_dim,
        membership_residual=memb,
    )


# ---------------------------------------------------------------------------
# strong irreducibility


@dataclass
class StrongIrreducibilityVerdict:
    strongly_irreducible: bool
    commutant_dim: int
    witness: np.ndarray | None = None


def _loop_rep(a) -> Rep:
    """The one-loop representation with matrix `a`; its End is the commutant of `a`."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    return new_rep(jordan_quiver(), {"1": a.shape[0]}, {"a": a})


def commutant_basis(a) -> list[np.ndarray]:
    """Orthonormal (flattened) basis of {T : TA = AT}."""
    return list(end_basis(_loop_rep(a)).blocks["1"])


def is_strongly_irreducible(a, seed: int = 0) -> StrongIrreducibilityVerdict:
    """No nontrivial idempotent commutes with `a`.

    Delegates to the indecomposability of the one-loop representation with
    matrix `a`, whose endomorphisms are exactly the commutant.
    """
    r = _loop_rep(a)
    if r.is_zero:
        raise PreconditionError("strong irreducibility is about operators on a nonzero space")
    verdict = is_indecomposable(r, seed=seed)
    witness = verdict.witness.mats["1"] if verdict.witness is not None else None
    return StrongIrreducibilityVerdict(verdict.kind == "indecomposable", verdict.end_dim, witness)


# ---------------------------------------------------------------------------
# factorial-weight four-subspace family


def hrr_system(n: int) -> SubspaceSystem:
    """Four-subspace system of the truncated factorial-weight shift on C^{2n}.

    The window covers offsets centered at 0; the graph subspace is assembled
    from per-column normalized direction vectors computed in the log domain,
    so no weight is ever materialized outside double range.
    """
    if n < 2:
        raise ValueError(f"need a window of at least 2 points, got {n}")
    lo = -((n - 1) // 2)
    e3 = np.zeros((2 * n, n), dtype=complex)
    for i in range(n - 1):
        logw = SequenceSpec("hrr").log_abs(lo + i)
        if logw <= 0:
            t = math.exp(logw)
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
        else:
            u = math.exp(-logw)
            s = 1.0 / math.sqrt(1.0 + u * u)
            c = u * s
        e3[i, i] = c
        e3[n + i + 1, i] = s
    e3[n - 1, n - 1] = 1.0  # top window vector: the shift image leaves the window
    return _four_subspaces(n, e3)

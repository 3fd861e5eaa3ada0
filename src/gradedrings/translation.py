"""Translation rings: X-by-X matrices over a coefficient ring with finite
propagation, represented as finite sums of (shift, diagonal-function) terms.

A term (g, f) stands for the matrix with entry f(x) at (x, g^-1 x) and 0
elsewhere; coefficient functions are constants with finitely many overrides,
so infinite index sets stay finitely describable.  The module also provides
the finite-group matrix-ring isomorphism, the rank-collapse matrices built
from a two-to-one injection witness, certificate compression along a Folner
set, and right translation rings, whose terms propagate on the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .amenability import InjectionWitness, SubsetPredicate, verify_injection_witness
from .groups import Group
from .report import Report
from .rings import (RankCertificate, Ring, RingMatrix, SparseRing, _add_term,
                    _checked, support_eq, support_mul)


class CoeffFn:
    """A function X -> R given by a constant value plus finite overrides."""

    __slots__ = ("const", "overrides")

    def __init__(self, ring: Ring, const, overrides: Optional[dict] = None):
        self.const = const
        self.overrides = {}
        for x, v in (overrides or {}).items():
            if not ring.eq(v, const):
                self.overrides[x] = v

    def __call__(self, x):
        if x in self.overrides:
            return self.overrides[x]
        return self.const

    def __repr__(self):
        return f"CoeffFn({self.const!r}, {self.overrides!r})"


class FunctionRing(Ring):
    """Functions X -> R that are constant off a finite set, as CoeffFn
    values, with pointwise operations.  Equality compares the constant and
    the overrides, so on an infinite X it is equality of functions."""

    def __init__(self, base: Ring):
        self.base = base
        self.key = (base,)
        self.name = f"Fun({base.name})"

    def zero(self):
        return CoeffFn(self.base, self.base.zero())

    def one(self):
        return CoeffFn(self.base, self.base.one())

    def from_int(self, n):
        return CoeffFn(self.base, self.base.from_int(n))

    def _pointwise(self, op, f: CoeffFn, h: CoeffFn) -> CoeffFn:
        keys = f.overrides.keys() | h.overrides.keys()
        return CoeffFn(self.base, op(f.const, h.const),
                       {x: op(f(x), h(x)) for x in keys})

    def add(self, f, h):
        return self._pointwise(self.base.add, f, h)

    def mul(self, f, h):
        return self._pointwise(self.base.mul, f, h)

    def neg(self, f):
        S = self.base
        return CoeffFn(S, S.neg(f.const),
                       {x: S.neg(v) for x, v in f.overrides.items()})

    def eq(self, f, h):
        S = self.base
        return (S.eq(f.const, h.const) and f.overrides.keys() == h.overrides.keys()
                and all(S.eq(v, h.overrides[x]) for x, v in f.overrides.items()))

    def moved(self, f: CoeffFn, move) -> CoeffFn:
        """The function whose value at move(x) is f(x): overrides relabelled."""
        return CoeffFn(self.base, f.const,
                       {move(x): v for x, v in f.overrides.items()})


class TranslationRing(SparseRing):
    """T_G(X, R) as the skew group ring of G over FunctionRing(R): term
    sums {shift g: CoeffFn}, with the entry ring R as base.base.

    The term algebra multiplies by (g, f)(k, h) = (gk, x -> f(x) h(g^-1 x)),
    which matches the matrix product whenever X is invariant under the
    shifts involved (in particular when X is the whole group); the entrywise
    convolution oracle tr_mul_oracle_entry checks this on samples.
    """

    def __init__(self, group: Group, X: SubsetPredicate, base: Ring):
        self.group = group
        self.X = X
        self.base = FunctionRing(base)
        self.unit_key = group.identity()
        self.key = (group, X, self.base)
        self.name = f"T({group.name}|{X.name}; {base.name})"
        try:  # the elements of X, when the group is finite
            self._points = [x for x in group.elements() if x in X]
        except ValueError:
            self._points = None

    # construction ----------------------------------------------------------

    def fn(self, const, overrides: Optional[dict] = None) -> CoeffFn:
        return CoeffFn(self.base.base, const, overrides)

    def diag(self, f: CoeffFn) -> dict:
        return self.scalar(f)

    def diag_const(self, r) -> dict:
        return self.diag(self.fn(r))

    def shift(self, g) -> dict:
        self.group.check_element(g)
        return {g: self.base.one()}

    def term(self, g, f: CoeffFn) -> dict:
        self.group.check_element(g)
        return {} if self.base.is_zero(f) else {g: f}

    def _column(self, g, x):
        """The column of the entry that a term at shift g puts in row x."""
        return self.group.mul(self.group.inv(g), x)

    # ring interface --------------------------------------------------------

    is_zero = Ring.is_zero  # eq below is not structural, so not SparseRing's

    def eq(self, a, b):
        """On a finite group, equality of the entries over X x X.  On an
        infinite group, structural equality of the terms: that is equality
        of matrices when X is the whole group, but on a proper X two term
        sums can agree at every entry over X x X and still compare unequal."""
        if self._points is None:
            return super().eq(a, b)
        S, zero = self.base.base, self.base.zero()
        return all(S.eq(a.get(g, zero)(x), b.get(g, zero)(x))
                   for g in a.keys() | b.keys() for x in self._points
                   if self._column(g, x) in self.X)

    def mul(self, a, b):
        G, F = self.group, self.base
        out = {}
        for g, f in a.items():
            for k, h in b.items():
                _add_term(out, G.mul(g, k),
                          F.mul(f, F.moved(h, lambda x: G.mul(g, x))), F)
        return out

    def element_to_str(self, a):
        if not a:
            return "0"
        G, S = self.group, self.base.base
        parts = []
        for g in sorted(a, key=G.element_key):
            f = a[g]
            ov = ", ".join(
                f"{G.element_to_str(x)}: {S.element_to_str(f.overrides[x])}"
                for x in sorted(f.overrides, key=G.element_key))
            desc = S.element_to_str(f.const) + (f" [{ov}]" if ov else "")
            parts.append(f"({G.element_to_str(g)} | {desc})")
        return " + ".join(parts)


def tr_entry(tring: TranslationRing, M: dict, x, y):
    """Matrix entry M(x, y): the term rule f(x) when y = g^-1 x."""
    G = tring.group
    if x not in tring.X or y not in tring.X:
        raise ValueError("entry indices must lie in X")
    g = G.mul(x, G.inv(y))
    f = M.get(g)
    return f(x) if f is not None else tring.base.base.zero()


def tr_transpose(tring: TranslationRing, M: dict) -> dict:
    """Entry swap: the term (g, f) becomes (g^-1, x -> f(gx))."""
    G, F = tring.group, tring.base
    out = {}
    for g, f in M.items():
        ginv = G.inv(g)
        out[ginv] = F.moved(f, lambda x: G.mul(ginv, x))
    return out


def tr_mul_oracle_entry(tring: TranslationRing, M: dict, N: dict, x, y):
    """(MN)(x,y) by the defining convolution, summed over the propagation set."""
    G, S = tring.group, tring.base.base
    acc = S.zero()
    for g in M:
        z = G.mul(G.inv(g), x)
        if z in tring.X:
            acc = S.add(acc, S.mul(tr_entry(tring, M, x, z),
                                   tr_entry(tring, N, z, y)))
    return acc


# ---------------------------------------------------------------------------
# finite groups: T(G, R) is the |G| x |G| matrix ring, skew-group-ring style


@dataclass
class FiniteGroupIsoReport(Report):
    group_name: str
    ring_name: str
    shift_mult_ok: bool       # A_g A_h = A_{gh}
    diag_mult_ok: bool        # D_f D_f' = D_{ff'}
    action_ok: bool           # A_g D_f A_{g^-1} = D_{g.f}
    unital_ok: bool
    bijective_ok: bool        # {D_{delta_x} A_g} hits every matrix unit once

    CHECKS = (("shift_mult_ok", "shift multiplicativity"),
              ("diag_mult_ok", "diagonal multiplicativity"),
              ("action_ok", "conjugation action law"),
              ("unital_ok", "unitality"),
              ("bijective_ok", "bijectivity (matrix-unit count)"))


FINITE_ISO_MAX_ORDER = 12


def finite_group_iso(group: Group, ring: Ring) -> FiniteGroupIsoReport:
    """Verify the skew-group-ring description of T(G, R) for finite G.

    Sends a function f: G -> R to the diagonal matrix D_f and a group
    element g to the 0/1 matrix A_g with entry 1 at (x, g^-1 x); checks the
    multiplication laws on all generator pairs, the conjugation action
    A_g D_f A_g^-1 = D_{g.f} with (g.f)(x) = f(g^-1 x), unitality, and that
    the products D_{delta_x} A_g enumerate every matrix unit exactly once.
    Every matrix is built once, in support form, and every product is a
    rings.support_mul, so a law costs the pairs it meets, not N^3.
    """
    elems = group.elements()
    N = len(elems)
    if N > FINITE_ISO_MAX_ORDER:
        raise ValueError(f"group order {N} exceeds bound {FINITE_ISO_MAX_ORDER}")
    idx = {x: i for i, x in enumerate(elems)}
    R = ring
    one = R.one()
    rep = FiniteGroupIsoReport(group.name, ring.name, True, True, True, True, True)

    # every matrix below is in support form (RingMatrix.support)
    def D(f: dict) -> list:
        return [{i: f[x]} for i, x in enumerate(elems)]

    def A(g) -> list:
        ginv = group.inv(g)
        return [{idx[group.mul(ginv, x)]: one} for x in elems]

    A_of = {g: A(g) for g in elems}

    def A_cached(g) -> list:
        # a faulty group may return a product or inverse outside elems
        return A_of[g] if g in A_of else A(g)

    # sample coefficient functions: all-ones, a delta, and a counting table
    samples = [
        {x: one for x in elems},
        {x: (one if x == elems[0] else R.zero()) for x in elems},
        {x: R.from_int(i + 1) for i, x in enumerate(elems)},
    ]
    D_of = [D(f) for f in samples]

    for g in elems:
        for h in elems:
            if not support_eq(R, support_mul(R, A_of[g], A_of[h]),
                              A_cached(group.mul(g, h))):
                rep.shift_mult_ok = False
                rep.failures.append(f"A_g A_h != A_gh at ({g}, {h})")
    for f1, D1 in zip(samples, D_of):
        for f2, D2 in zip(samples, D_of):
            prod = {x: R.mul(f1[x], f2[x]) for x in elems}
            if not support_eq(R, support_mul(R, D1, D2), D(prod)):
                rep.diag_mult_ok = False
    for g in elems:
        ginv = group.inv(g)
        for f, Df in zip(samples, D_of):
            moved = {x: f[group.mul(ginv, x)] for x in elems}
            got = support_mul(R, support_mul(R, A_of[g], Df), A_cached(ginv))
            if not support_eq(R, got, D(moved)):
                rep.action_ok = False
                rep.failures.append(f"conjugation law fails at g = {g}")
    identity = [{i: one} for i in range(N)]
    rep.unital_ok = (support_eq(R, A_cached(group.identity()), identity)
                     and support_eq(R, D_of[0], identity))
    units = set()
    for x in elems:
        delta = [{}] * N
        delta[idx[x]] = {idx[x]: one}
        for g in elems:
            nonzero = [((i, j), m) for i, row in enumerate(support_mul(R, delta, A_of[g]))
                       for j, m in row.items() if not R.is_zero(m)]
            if len(nonzero) != 1 or not R.eq(nonzero[0][1], one):
                rep.bijective_ok = False
            else:
                units.add(nonzero[0][0])
    if len(units) != N * N:
        rep.bijective_ok = False
    return rep


# ---------------------------------------------------------------------------
# rank collapse from a two-to-one injection witness


@dataclass
class CollapseResult(Report):
    M: RingMatrix
    N: RingMatrix
    mmt_ok: bool
    nnt_ok: bool
    mnt_ok: bool
    nmt_ok: bool
    projection_ok: bool
    uncovered: list  # elements of W outside Im alpha union Im beta

    CHECKS = (("mmt_ok", "M M^t = I"), ("nnt_ok", "N N^t = I"),
              ("mnt_ok", "M N^t = 0"), ("nmt_ok", "N M^t = 0"),
              ("projection_ok", "M^t M + N^t N = projection onto the images"))

    def _extra(self):
        return [(f"uncovered targets: {len(self.uncovered)}", None)]

    def to_json(self):
        return {**super().to_json(), "uncovered": len(self.uncovered)}


def collapse_matrices(group: Group, w: InjectionWitness, ring: Ring) -> CollapseResult:
    """Build the 0/1 slices M(x,y) = [y = alpha(x)], N(x,y) = [y = beta(x)]
    on V x W and verify the truncated collapse identities exactly.

    The last identity holds only as a projection onto Im alpha union Im beta
    on a truncation; the uncovered right-hand elements are reported.  The
    identities are checked in support form (rings.support_mul), where each
    slice has one entry per row, so no |W| x |W| matrix is built.
    """
    ok, msg = verify_injection_witness(group, w)
    if not ok:
        raise ValueError(f"invalid witness: {msg}")
    V, W = list(w.V), list(w.W)
    R = ring
    widx = {x: i for i, x in enumerate(W)}

    if not V:
        empty = RingMatrix.zero(R, 1, max(len(W), 1))
        return CollapseResult(empty, empty, True, True, True, True, True, list(W))

    def slice_of(mapping) -> RingMatrix:
        return RingMatrix.from_support_rows(R, len(W), [{widx[mapping[x]]: R.one()}
                                                        for x in V])

    M, N = slice_of(w.alpha), slice_of(w.beta)
    Ms, Ns, Mt, Nt = M.support, N.support, M.transpose().support, N.transpose().support
    I_V = [{i: R.one()} for i in range(len(V))]
    Z_V = [{} for _ in V]
    covered = {widx[w.alpha[x]] for x in V} | {widx[w.beta[x]] for x in V}
    proj = [{j: R.one()} if j in covered else {} for j in range(len(W))]
    # M^t M + N^t N is the block row (M^t N^t) times the block column (M; N)
    stacked = [{**mt, **{len(V) + i: x for i, x in nt.items()}}
               for mt, nt in zip(Mt, Nt)]
    return CollapseResult(
        M, N,
        mmt_ok=support_eq(R, support_mul(R, Ms, Mt), I_V),
        nnt_ok=support_eq(R, support_mul(R, Ns, Nt), I_V),
        mnt_ok=support_eq(R, support_mul(R, Ms, Nt), Z_V),
        nmt_ok=support_eq(R, support_mul(R, Ns, Mt), Z_V),
        projection_ok=support_eq(R, support_mul(R, stacked, Ms + Ns), proj),
        uncovered=[W[i] for i in range(len(W)) if i not in covered],
    )


# ---------------------------------------------------------------------------
# certificate compression along a Folner set


@dataclass
class CompressionInput:
    tring: TranslationRing
    cert: RankCertificate   # over tring
    K: list                 # symmetric, contains identity, dominates entries
    F: list                 # distinct points

    def __post_init__(self):
        if len(set(self.F)) != len(self.F):
            raise ValueError("F repeats a point")


class FolnerInequalityError(ValueError):
    """n|KF cap X| < m|F cap X| fails: unlike compress_certificate's other
    ValueErrors, a verified refusal of well-formed input."""


@dataclass
class CompressionResult:
    certificate: RankCertificate  # over the coefficient ring
    U: list
    F_X: list
    counts: tuple  # (n |U|, m |F_X|)


def _restrict(tring: TranslationRing, M: RingMatrix, P: list, Q: list) -> RingMatrix:
    """The matrix over the entry ring with entry M_ij(p, q) at row (i, p) and
    column (j, q), for p in P and q in Q, rows and columns ordered block by
    block.  Each term (g, f) of M_ij is the entry f(p) at (p, g^-1 p)."""
    qpos = {q: t for t, q in enumerate(Q)}
    out = [{} for _ in range(M.rows * len(P))]
    for i, row in enumerate(M.support):
        for j, x in row.items():
            for g, f in x.items():
                for s, p in enumerate(P):
                    t = qpos.get(tring._column(g, p))
                    if t is not None:
                        out[i * len(P) + s][j * len(Q) + t] = f(p)
    return RingMatrix.from_support_rows(tring.base.base, M.cols * len(Q), out)


def compress_certificate(ci: CompressionInput) -> CompressionResult:
    """Compress a translation-ring certificate to one over the coefficient
    ring using a Folner set F for the propagation set K.

    With U = KF cap X and F_X = F cap X, the compressed matrices are
    A*((i,f),(j,u)) = A_ij(f,u) and B*((j,u),(i,f)) = B_ji(u,f); the
    strict inequality n|U| < m|F_X| makes the output a BGN certificate.
    Malformed input raises ValueError; an F too small for that inequality
    raises its subclass FolnerInequalityError.
    """
    tring, cert = ci.tring, ci.cert
    if cert.ring != tring:
        raise ValueError("certificate is not over the given translation ring")
    G, X, S = tring.group, tring.X, tring.base.base
    K = list(ci.K)
    Kset = set(K)
    if G.identity() not in Kset:
        raise ValueError("K must contain the identity")
    if any(G.inv(k) not in Kset for k in K):
        raise ValueError("K must be symmetric")
    shifts_A = {g for row in cert.A.support for x in row.values() for g in x}
    shifts_B = {g for row in cert.B.support for x in row.values() for g in x}
    if not shifts_A | shifts_B <= Kset:
        raise ValueError("K does not dominate all entry shifts")

    U = sorted({G.mul(k, f) for k in K for f in ci.F if G.mul(k, f) in X},
               key=G.element_key)
    # entrywise check that AB = I over the translation ring on the window
    # U x U, which holds F_X x F_X since K contains the identity.  By the
    # shift rule of tr_entry, A_ij B_ji2 can be nonzero at (x, y) only when
    # y = (gh)^-1 x for a shift g of A and a shift h of B; every other y
    # with y != x is 0 on both sides, so only these y and x are summed, in
    # U order, which keeps the first failure of the full U x U scan
    upos = {u: t for t, u in enumerate(U)}
    back = {G.identity()} | {G.inv(G.mul(g, h)) for g in shifts_A for h in shifts_B}
    for x in U:
        ys = sorted({upos[y] for y in (G.mul(q, x) for q in back) if y in upos})
        for y, (i, i2) in product([U[t] for t in ys], product(range(cert.m), repeat=2)):
            acc = S.zero()
            for j in range(cert.n):
                acc = S.add(acc, tr_mul_oracle_entry(
                    tring, cert.A[i, j], cert.B[j, i2], x, y))
            want = S.one() if (i == i2 and x == y) else S.zero()
            if not S.eq(acc, want):
                raise ValueError(
                    f"window verification failed at blocks ({i+1},{i2+1}), "
                    f"indices ({G.element_to_str(x)}, {G.element_to_str(y)})")

    F_X = [f for f in ci.F if f in X]
    n, m = cert.n, cert.m
    if not n * len(U) < m * len(F_X):
        raise FolnerInequalityError(
            f"Folner inequality fails: n|U| = {n * len(U)} is not "
            f"less than m|F_X| = {m * len(F_X)}")

    A_star = _restrict(tring, cert.A, F_X, U)
    B_star = _restrict(tring, cert.B, U, F_X)
    out = _checked(RankCertificate(S, n * len(U), m * len(F_X), A_star, B_star),
                   "compressed certificate failed re-verification", need_bgn=True)
    return CompressionResult(certificate=out, U=U, F_X=F_X,
                             counts=(n * len(U), m * len(F_X)))


# ---------------------------------------------------------------------------
# right translation rings


class RightTranslationRing(TranslationRing):
    """Same term data, but (g, f) has entry f(x) at (x, xg): propagation on
    the right.  Multiplication: (g, f)(h, u) = (gh, x -> f(x) u(xg))."""

    def __init__(self, group: Group, X: SubsetPredicate, base: Ring):
        super().__init__(group, X, base)
        self.name = f"Tr({group.name}|{X.name}; {base.name})"

    def _column(self, g, x):
        return self.group.mul(x, g)

    def mul(self, a, b):
        G, F = self.group, self.base
        out = {}
        for g, f in a.items():
            ginv = G.inv(g)
            for k, h in b.items():
                _add_term(out, G.mul(g, k),
                          F.mul(f, F.moved(h, lambda x: G.mul(x, ginv))), F)
        return out

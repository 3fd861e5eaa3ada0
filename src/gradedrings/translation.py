"""Translation rings: X-by-X matrices over a coefficient ring with finite
propagation, represented as finite sums of (shift, diagonal-function) terms.

A term (g, f) is the matrix with f(x) at (x, _column(g, x)), g^-1 x on the
left and x g on the right, and 0 elsewhere; every term operation derives from
that one rule.  Coefficient functions are constants with finitely many
overrides, so infinite index sets stay finitely describable.  The module also
provides the finite-group matrix-ring isomorphism, the rank-collapse matrices
built from a two-to-one injection witness, and Folner compression.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .amenability import (InjectionWitness, SubsetPredicate, verify_injection_witness,
                          whole_group)
from .groups import Group
from .report import Report, check
from .rings import (RankCertificate, Ring, RingMatrix, SparseRing, _add_term,
                    _checked, first_difference, support_mul)


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


class TranslationRing(SparseRing):
    """T_G(X, R) as the skew group ring of G over FunctionRing(R): term
    sums {shift g: CoeffFn}, with the entry ring R as base.base.

    The term algebra multiplies by (g, f)(k, h) = (gk, f . moved(h, g)),
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

    def diag_const(self, r) -> dict:
        return self.scalar(self.fn(r))

    def term(self, g, f: CoeffFn) -> dict:
        self.group.check_element(g)
        return {} if self.base.is_zero(f) else {g: f}

    def _column(self, g, x):
        """The column where a term at shift g puts row x's value.  Columns
        compose, _column(h, _column(g, x)) = _column(gh, x), so the row whose
        column under g is y is _column(g^-1, y)."""
        return self.group.mul(self.group.inv(g), x)

    def moved(self, f: CoeffFn, g) -> CoeffFn:
        """f moved along the shift g: x -> f(_column(g, x))."""
        ginv = self.group.inv(g)
        return CoeffFn(self.base.base, f.const,
                       {self._column(ginv, y): v for y, v in f.overrides.items()})

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
                _add_term(out, G.mul(g, k), F.mul(f, self.moved(h, g)), F)
        return out


def tr_entry(tring: TranslationRing, M: dict, x, y):
    """Matrix entry M(x, y): f(x) for the term (g, f) whose column at row x
    is y, if any (distinct shifts put row x in distinct columns)."""
    if x not in tring.X or y not in tring.X:
        raise ValueError("entry indices must lie in X")
    for g, f in M.items():
        if tring._column(g, x) == y:
            return f(x)
    return tring.base.base.zero()


def tr_transpose(tring: TranslationRing, M: dict) -> dict:
    """Entry swap: the term (g, f) becomes (g^-1, f moved along g^-1)."""
    G = tring.group
    return {G.inv(g): tring.moved(f, G.inv(g)) for g, f in M.items()}


def tr_mul_oracle_entry(tring: TranslationRing, M: dict, N: dict, x, y):
    """(MN)(x,y) by the defining convolution, summed over the propagation set."""
    S = tring.base.base
    acc = S.zero()
    for g in M:
        z = tring._column(g, x)
        if z in tring.X:
            acc = S.add(acc, S.mul(tr_entry(tring, M, x, z),
                                   tr_entry(tring, N, z, y)))
    return acc


# ---------------------------------------------------------------------------
# finite groups: T(G, R) is the |G| x |G| matrix ring, skew-group-ring style


@dataclass
class FiniteGroupIsoReport(Report):
    shift_mult_ok: bool = check("shift multiplicativity")  # A_g A_h = A_gh, G closed
    diag_mult_ok: bool = check("diagonal multiplicativity")  # D_f D_f' = D_ff'
    # None when G is not closed, so A_g is not defined
    action_ok: Optional[bool] = check("conjugation action law")  # A_g D_f A_g^-1 = D_g.f
    unital_ok: Optional[bool] = check("unitality")
    # {D_{delta_x} A_g} hits every matrix unit once
    bijective_ok: Optional[bool] = check("bijectivity (matrix-unit count)")


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

    The identity, every inverse and every product must lie in G.  Each one
    that leaves G is a failure; the shift law then fails, and the laws
    built on A_g are not evaluated (None).
    """
    elems = group.elements()
    N = len(elems)
    if N > FINITE_ISO_MAX_ORDER:
        raise ValueError(f"group order {N} exceeds bound {FINITE_ISO_MAX_ORDER}")
    idx = {x: i for i, x in enumerate(elems)}
    R = ring
    one = R.one()
    rep = FiniteGroupIsoReport()

    # every matrix below is in support form (RingMatrix.support)
    def D(f: dict) -> list:
        return [{i: f[x]} for i, x in enumerate(elems)]

    # sample coefficient functions: all-ones, a delta, and a counting table
    samples = [
        {x: one for x in elems},
        {x: (one if x == elems[0] else R.zero()) for x in elems},
        {x: R.from_int(i + 1) for i, x in enumerate(elems)},
    ]
    D_of = [D(f) for f in samples]
    for a, (f1, D1) in enumerate(zip(samples, D_of)):
        for b, (f2, D2) in enumerate(zip(samples, D_of)):
            prod = {x: R.mul(f1[x], f2[x]) for x in elems}
            if first_difference(R, support_mul(R, D1, D2), D(prod)) is not None:
                rep.fail("diag_mult_ok", f"D_f D_f' != D_ff' at samples ({a}, {b})")

    e = group.identity()
    inverse = {g: group.inv(g) for g in elems}
    table = {(g, h): group.mul(g, h) for g in elems for h in elems}
    outside = ([f"identity {e} is not in G"] if e not in idx else []) + [
        f"inverse of {g} is not in G: {ginv}"
        for g, ginv in inverse.items() if ginv not in idx] + [
        f"product of ({g}, {h}) is not in G: {gh}"
        for (g, h), gh in table.items() if gh not in idx]
    if outside:
        for line in outside:
            rep.fail("shift_mult_ok", line)
        rep.action_ok = rep.unital_ok = rep.bijective_ok = None
        return rep

    # G is closed, so every column g^-1 x lies in G: row i of A_g has its
    # one at column cols[g][i], and (g.f)(x_i) = f(cols[g][i])
    col = TranslationRing(group, whole_group(group), ring)._column
    cols = {g: [col(g, x) for x in elems] for g in elems}
    A_of = {g: [{idx[y]: one} for y in cols[g]] for g in elems}

    for (g, h), gh in table.items():
        if first_difference(R, support_mul(R, A_of[g], A_of[h]), A_of[gh]) is not None:
            rep.fail("shift_mult_ok", f"A_g A_h != A_gh at ({g}, {h})")
    for g in elems:
        for a, (f, Df) in enumerate(zip(samples, D_of)):
            got = support_mul(R, support_mul(R, A_of[g], Df), A_of[inverse[g]])
            want = [{i: f[y]} for i, y in enumerate(cols[g])]
            if first_difference(R, got, want) is not None:
                rep.fail("action_ok", f"conjugation law fails at g = {g} on sample {a}")
    identity = [{i: one} for i in range(N)]
    for name, M in ((f"A_{e}", A_of[e]), ("D_f of sample 0", D_of[0])):
        if (at := first_difference(R, M, identity)) is not None:
            rep.fail("unital_ok", f"{name} != I at ({at[0] + 1}, {at[1] + 1})")
    # D_{delta_x} has the one row {i: one} at i = idx[x] and no other entry,
    # so D_{delta_x} A_g is that row times A_g, in row i
    units = set()
    for i in range(N):
        for g in elems:
            (row,) = support_mul(R, [{i: one}], A_of[g])
            nonzero = [(j, m) for j, m in row.items() if not R.is_zero(m)]
            if len(nonzero) != 1 or not R.eq(nonzero[0][1], one):
                rep.fail("bijective_ok", f"D_delta_x A_g is not a matrix unit "
                                         f"at (x, g) = ({elems[i]}, {g})")
            else:
                units.add((i, nonzero[0][0]))
    if len(units) != N * N:
        rep.fail("bijective_ok", f"the products D_delta_x A_g hit {len(units)} "
                                 f"of the {N * N} matrix units")
    return rep


# ---------------------------------------------------------------------------
# rank collapse from a two-to-one injection witness


@dataclass
class CollapseResult(Report):
    M: RingMatrix
    N: RingMatrix
    uncovered: list  # elements of W outside Im alpha union Im beta
    mmt_ok: bool = check("M M^t = I")
    nnt_ok: bool = check("N N^t = I")
    mnt_ok: bool = check("M N^t = 0")
    nmt_ok: bool = check("N M^t = 0")
    projection_ok: bool = check("M^t M + N^t N = projection onto the images")

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
        return CollapseResult(empty, empty, list(W))

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
    rep = CollapseResult(M, N, [W[i] for i in range(len(W)) if i not in covered])
    products = ((Ms, Mt, I_V), (Ns, Nt, I_V), (Ms, Nt, Z_V), (Ns, Mt, Z_V),
                (stacked, Ms + Ns, proj))
    for (name, label), (P, Q, want) in zip(CollapseResult.check_fields(), products):
        if (at := first_difference(R, support_mul(R, P, Q), want)) is not None:
            rep.fail(name, f"{label} fails at entry ({at[0] + 1}, {at[1] + 1})")
    return rep


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
    block.  Each term (g, f) of M_ij is the entry f(p) at (p, _column(g, p))."""
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

    With U = {_column(k, f)} cap X (KF, or FK on the right) and F_X = F cap
    X, the compressed matrices are A*((i,f),(j,u)) = A_ij(f,u) and
    B*((j,u),(i,f)) = B_ji(u,f); n|U| < m|F_X| makes it a BGN certificate.
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

    U = sorted({u for k in K for f in ci.F if (u := tring._column(k, f)) in X},
               key=G.element_key)
    # entrywise check that AB = I over the translation ring on the window
    # U x U, which holds F_X x F_X since K contains the identity.  Columns
    # compose, so A_ij B_ji2 can be nonzero at (x, y) only when
    # y = _column(gh, x) for a shift g of A and a shift h of B; every other
    # y with y != x is 0 on both sides, so only these y and x are summed, in
    # U order, which keeps the first failure of the full U x U scan
    upos = {u: t for t, u in enumerate(U)}
    reach = {G.identity()} | {G.mul(g, h) for g in shifts_A for h in shifts_B}
    for x in U:
        cols = {tring._column(q, x) for q in reach}
        ys = sorted(upos[y] for y in cols if y in upos)
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
    the right.  Every term operation follows from _column."""

    def __init__(self, group: Group, X: SubsetPredicate, base: Ring):
        super().__init__(group, X, base)
        self.name = f"Tr({group.name}|{X.name}; {base.name})"

    def _column(self, g, x):
        return self.group.mul(x, g)

    mul = TranslationRing.mul  # in the class dict, where the bench tracer wraps it

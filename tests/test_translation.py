from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gradedrings.amenability import (InjectionWitness,
                                     find_two_to_one_injection, finite_subset,
                                     whole_group)
from gradedrings.groups import Cyclic, DirectProduct, FreeAbelian, FreeGroup
from gradedrings import translation
from gradedrings.rings import (IntegerModRing, IntegerRing, RankCertificate,
                               RingMatrix, verify_certificate)
from gradedrings.special_algebras import LeavittRing
from gradedrings.translation import (CoeffFn, CollapseResult, CompressionInput,
                                     FiniteGroupIsoReport, FolnerInequalityError,
                                     RightTranslationRing, TranslationRing,
                                     collapse_matrices, compress_certificate,
                                     finite_group_iso, tr_entry,
                                     tr_mul_oracle_entry, tr_transpose)
from test_rings import _mat_mul_reference

Z = IntegerRing()


def _zring():
    G = FreeAbelian(1)
    return G, TranslationRing(G, whole_group(G), Z)


def test_shift_composition():
    G, T = _zring()
    one = T.base.one()
    s1 = T.term((1,), one)
    s2 = T.term((2,), one)
    assert T.eq(T.mul(s1, s2), T.term((3,), one))
    assert T.eq(T.mul(s1, T.term((-1,), one)), T.one())


def test_entry_rule():
    G, T = _zring()
    M = T.term((1,), T.fn(2, {(0,): 5}))
    assert tr_entry(T, M, (0,), (-1,)) == 5
    assert tr_entry(T, M, (3,), (2,)) == 2
    assert tr_entry(T, M, (3,), (1,)) == 0


def test_mul_matches_convolution_oracle():
    G, T = _zring()
    M = T.add(T.term((1,), T.fn(1, {(0,): 3})), T.scalar(T.fn(2)))
    N = T.add(T.term((-1,), T.fn(4)), T.term((2,), T.fn(1, {(1,): -2})))
    P = T.mul(M, N)
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert tr_entry(T, P, (x,), (y,)) == \
                tr_mul_oracle_entry(T, M, N, (x,), (y,))


F2 = FreeGroup(2)
_F2_NEAR = F2.ball(1)
_F2_WINDOW = F2.ball(2)
_terms = st.lists(st.tuples(
    st.sampled_from(_F2_NEAR), st.integers(-2, 2),
    st.dictionaries(st.sampled_from(_F2_NEAR), st.integers(-2, 2), max_size=2)),
    max_size=3)


def _term_sum(T, terms):
    out = T.zero()
    for g, const, overrides in terms:
        out = T.add(out, T.term(g, T.fn(const, overrides)))
    return out


@settings(max_examples=40, deadline=None)
@given(_terms, _terms)
def test_mul_matches_convolution_on_random_term_sums(ms, ns):
    """On either side, tr_entry reads the product as the convolution oracle
    sums it, and tr_transpose swaps entries."""
    for cls in (TranslationRing, RightTranslationRing):
        T = cls(F2, whole_group(F2), Z)
        M, N = _term_sum(T, ms), _term_sum(T, ns)
        P, Mt = T.mul(M, N), tr_transpose(T, M)
        for x, y in product(_F2_WINDOW, repeat=2):
            assert tr_entry(T, P, x, y) == tr_mul_oracle_entry(T, M, N, x, y)
            assert tr_entry(T, Mt, x, y) == tr_entry(T, M, y, x)


def _right_entry(M, x, y):
    """Entry rule of the right ring: (g, f) puts f(x) at (x, x g)."""
    f = M.get(F2.mul(F2.inv(x), y))
    return f(x) if f is not None else 0


@settings(max_examples=40, deadline=None)
@given(_terms, _terms)
def test_right_mul_matches_convolution_on_random_term_sums(ms, ns):
    R = RightTranslationRing(F2, whole_group(F2), Z)
    M, N = _term_sum(R, ms), _term_sum(R, ns)
    P = R.mul(M, N)
    for x in _F2_WINDOW:
        for y in _F2_WINDOW:
            want = sum(_right_entry(M, x, F2.mul(x, g))
                       * _right_entry(N, F2.mul(x, g), y) for g in M)
            assert _right_entry(P, x, y) == want


def test_right_entry_rule():
    R = RightTranslationRing(F2, whole_group(F2), Z)
    M = R.term((1,), R.fn(2, {(2,): 5}))
    assert tr_entry(R, M, (2,), (2, 1)) == 5      # (b, b a)
    assert tr_entry(R, M, (), (1,)) == 2
    assert tr_entry(R, M, (), (-1,)) == 0


def test_ring_equality_follows_the_subset_not_its_name():
    G = FreeAbelian(1)
    T01 = TranslationRing(G, finite_subset(G, [(0,), (1,)]), Z)
    T56 = TranslationRing(G, finite_subset(G, [(5,), (6,)]), Z)
    T10 = TranslationRing(G, finite_subset(G, [(1,), (0,)]), Z)
    assert T01.X.name == T56.X.name == "finite(2)"
    assert T01 != T56 and len({T01, T56}) == 2
    assert T01 == T10 and hash(T01) == hash(T10)
    assert TranslationRing(G, whole_group(G), Z) == _zring()[1]


def test_transpose_is_entry_swap():
    G, T = _zring()
    M = T.add(T.term((2,), T.fn(1, {(0,): 7})), T.scalar(T.fn(0, {(1,): 1})))
    Mt = tr_transpose(T, M)
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert tr_entry(T, Mt, (x,), (y,)) == tr_entry(T, M, (y,), (x,))


def test_coeff_fn_canonicalizes():
    f = CoeffFn(Z, 2, {(0,): 2, (1,): 3})
    assert (0,) not in f.overrides      # equal to the constant, dropped
    assert f((1,)) == 3 and f((5,)) == 2


@pytest.mark.parametrize("group", [Cyclic(1), Cyclic(2), Cyclic(5),
                                   DirectProduct([Cyclic(2), Cyclic(2)])])
@pytest.mark.parametrize("ring", [IntegerRing(), IntegerModRing(5)])
def test_finite_group_iso(group, ring):
    rep = finite_group_iso(group, ring)
    assert rep.ok, rep.lines()


class _BadInv(Cyclic):
    def inv(self, x):
        return x


class _BadMul(Cyclic):
    """Addition clamped at m - 1: 0 stays the identity, products stay in
    the group, and some A_g is no longer a permutation matrix."""

    def mul(self, x, y):
        return min(x + y, self.m - 1)


@pytest.mark.parametrize("group, failing, failures", [
    (_BadInv(3), {"action_ok"}, 6),
    (_BadMul(3), {"shift_mult_ok", "action_ok", "bijective_ok"}, 9),
    (_BadMul(4), {"shift_mult_ok", "action_ok", "bijective_ok"}, 16),
], ids=["bad-inv-3", "bad-mul-3", "bad-mul-4"])
def test_finite_group_iso_reports_faulty_groups(group, failing, failures):
    rep = finite_group_iso(group, Z)
    assert not rep.ok
    assert {name for name, _ in rep.check_fields() if not getattr(rep, name)} == failing
    assert len(rep.failures) == failures


class _DoubledMul(IntegerRing):
    """Integers with a doubled product, so one * one = 2 is not one."""

    def mul(self, a, b):
        return 2 * a * b


def test_finite_group_iso_needs_each_unit_to_be_one():
    """Every D_{delta_x} A_g hits a distinct position, but under a doubled
    product its entry is 2: the unit check refuses bijectivity, with one
    line per (x, g) and one for the matrix-unit count."""
    rep = finite_group_iso(Cyclic(3), _DoubledMul())
    assert not rep.bijective_ok
    assert [f for f in rep.failures if "D_delta_x A_g" in f] == [
        f"D_delta_x A_g is not a matrix unit at (x, g) = ({x}, {g})"
        for x in range(3) for g in range(3)] + [
        "the products D_delta_x A_g hit 0 of the 9 matrix units"]
    assert rep == _finite_group_iso_reference(Cyclic(3), _DoubledMul())


def _dense_first_difference(P, Q):
    """The first row-major (i, j), 1-based, at which two dense matrices
    differ entrywise, read with P[i, j] and the ring's eq; None if none."""
    R = P.ring
    for i in range(P.rows):
        for j in range(P.cols):
            if not R.eq(P[i, j], Q[i, j]):
                return i + 1, j + 1
    return None


def _finite_group_iso_reference(group, ring):
    """finite_group_iso as dense products: every A_g and D_f an N x N
    RingMatrix, every law a dense triple-loop product compared with
    RingMatrix.eq.  An identity, inverse or product outside G is a failure
    and leaves the laws built on A_g unevaluated.  Each failing law adds
    the lines the library is meant to write, built here from the dense
    products."""
    mul = _mat_mul_reference
    elems = group.elements()
    N, R = len(elems), ring
    idx = {x: i for i, x in enumerate(elems)}
    rep = FiniteGroupIsoReport()

    def D(f):
        return RingMatrix.from_support_rows(R, N, [{i: f[x]} for x, i in idx.items()])

    samples = [
        {x: R.one() for x in elems},
        {x: (R.one() if x == elems[0] else R.zero()) for x in elems},
        {x: R.from_int(i + 1) for i, x in enumerate(elems)},
    ]
    for a, f1 in enumerate(samples):
        for b, f2 in enumerate(samples):
            prod = {x: R.mul(f1[x], f2[x]) for x in elems}
            if not mul(D(f1), D(f2)).eq(D(prod)):
                rep.diag_mult_ok = False
                rep.failures.append(f"D_f D_f' != D_ff' at samples ({a}, {b})")
    e = group.identity()
    outside = []
    if e not in idx:
        outside.append(f"identity {e} is not in G")
    for g in elems:
        if group.inv(g) not in idx:
            outside.append(f"inverse of {g} is not in G: {group.inv(g)}")
    for g in elems:
        for h in elems:
            if group.mul(g, h) not in idx:
                outside.append(f"product of ({g}, {h}) is not in G: {group.mul(g, h)}")

    def A(g):
        ginv = group.inv(g)
        return RingMatrix.from_support_rows(
            R, N, [{idx[group.mul(ginv, x)]: R.one()} for x in elems])

    if outside:
        rep.failures += outside
        rep.shift_mult_ok = False
        rep.action_ok = rep.unital_ok = rep.bijective_ok = None
        return rep
    for g in elems:
        for h in elems:
            if not mul(A(g), A(h)).eq(A(group.mul(g, h))):
                rep.shift_mult_ok = False
                rep.failures.append(f"A_g A_h != A_gh at ({g}, {h})")
    for g in elems:
        ginv = group.inv(g)
        for a, f in enumerate(samples):
            moved = {x: f[group.mul(ginv, x)] for x in elems}
            if not mul(mul(A(g), D(f)), A(ginv)).eq(D(moved)):
                rep.action_ok = False
                rep.failures.append(f"conjugation law fails at g = {g} on sample {a}")
    I = RingMatrix.identity(R, N)
    for name, M in ((f"A_{e}", A(e)), ("D_f of sample 0", D(samples[0]))):
        at = _dense_first_difference(M, I)
        if at is not None:
            rep.unital_ok = False
            rep.failures.append(f"{name} != I at {at}")
    units = set()
    for x in elems:
        delta = RingMatrix.from_support_rows(
            R, N, [{i: R.one()} if i == idx[x] else {} for i in range(N)])
        for g in elems:
            M = mul(delta, A(g))
            support = [(i, j) for i in range(N) for j in range(N)
                       if not R.is_zero(M[i, j])]
            if len(support) != 1 or not R.eq(M[support[0]], R.one()):
                rep.bijective_ok = False
                rep.failures.append(
                    f"D_delta_x A_g is not a matrix unit at (x, g) = ({x}, {g})")
            else:
                units.add(support[0])
    if len(units) != N * N:
        rep.bijective_ok = False
        rep.failures.append(f"the products D_delta_x A_g hit {len(units)} "
                            f"of the {N * N} matrix units")
    return rep


class _UnreducedMul(Cyclic):
    """Addition without the reduction mod m: some products leave G."""

    def mul(self, x, y):
        return x + y


def test_finite_group_iso_reports_products_outside_the_group():
    rep = finite_group_iso(_UnreducedMul(3), Z)
    assert not rep.ok
    assert (rep.shift_mult_ok, rep.diag_mult_ok) == (False, True)
    assert rep.action_ok is rep.unital_ok is rep.bijective_ok is None
    assert rep.failures == ["product of (1, 2) is not in G: 3",
                            "product of (2, 1) is not in G: 3",
                            "product of (2, 2) is not in G: 4"]


def test_finite_group_iso_refuses_order_above_the_bound():
    with pytest.raises(ValueError, match="exceeds bound"):
        finite_group_iso(Cyclic(translation.FINITE_ISO_MAX_ORDER + 1), Z)


_ISO_GROUPS = ([Cyclic(m) for m in range(1, 9)]
               + [DirectProduct([Cyclic(2), Cyclic(2)]),
                  DirectProduct([Cyclic(2), Cyclic(4)]),
                  DirectProduct([Cyclic(2), Cyclic(2), Cyclic(2)]),
                  _BadInv(3), _BadMul(3), _BadMul(4), _UnreducedMul(3)])
# orders up to the bound, as the bench runs them; over Z/5 only, since the
# dense reference costs N^3 ring products per law
_ISO_LARGE_GROUPS = [Cyclic(9), Cyclic(12), DirectProduct([Cyclic(3), Cyclic(3)]),
                     DirectProduct([Cyclic(2), Cyclic(6)]), _BadMul(12)]
_ISO_CASES = ([("Z", Z, G) for G in _ISO_GROUPS]
              + [("Z5", IntegerModRing(5), G) for G in _ISO_GROUPS + _ISO_LARGE_GROUPS])


@pytest.mark.parametrize("ring, group", [(R, G) for _, R, G in _ISO_CASES],
                         ids=[f"{r}-{type(G).__name__}-{G.name}" for r, _, G in _ISO_CASES])
def test_finite_group_iso_agrees_with_the_dense_products(group, ring):
    """Every report field and every failures entry, in order, is the dense
    reference's: the groups of acceptance check 7, the larger orders the
    bench runs, and five faulty ones."""
    assert finite_group_iso(group, ring) == _finite_group_iso_reference(group, ring)


def _collapse_reference(w, ring):
    """collapse_matrices after its witness check, as dense triple-loop
    products."""
    mul = _mat_mul_reference
    V, W, R = list(w.V), list(w.W), ring
    widx = {x: i for i, x in enumerate(W)}

    def slice_of(mapping):
        return RingMatrix.from_support_rows(R, len(W), [{widx[mapping[x]]: R.one()}
                                                        for x in V])

    M, N = slice_of(w.alpha), slice_of(w.beta)
    I_V = RingMatrix.identity(R, len(V))
    Z_V = RingMatrix.zero(R, len(V), len(V))
    covered = {widx[w.alpha[x]] for x in V} | {widx[w.beta[x]] for x in V}
    proj = RingMatrix.from_support_rows(
        R, len(W), [{i: R.one()} if i in covered else {} for i in range(len(W))])
    rep = CollapseResult(M, N, [W[i] for i in range(len(W)) if i not in covered])
    for check, label, got, want in [
            ("mmt_ok", "M M^t = I", mul(M, M.transpose()), I_V),
            ("nnt_ok", "N N^t = I", mul(N, N.transpose()), I_V),
            ("mnt_ok", "M N^t = 0", mul(M, N.transpose()), Z_V),
            ("nmt_ok", "N M^t = 0", mul(N, M.transpose()), Z_V),
            ("projection_ok", "M^t M + N^t N = projection onto the images",
             mul(M.transpose(), M).add(mul(N.transpose(), N)), proj)]:
        at = _dense_first_difference(got, want)
        if at is not None:
            setattr(rep, check, False)
            rep.failures.append(f"{label} fails at entry {at}")
    return rep


def _same_collapse(got, want):
    for M, M0 in ((got.M, want.M), (got.N, want.N)):
        assert (M.rows, M.cols) == (M0.rows, M0.cols) and M.eq(M0)
    for name, _ in CollapseResult.check_fields():
        assert getattr(got, name) == getattr(want, name), name
    assert got.uncovered == want.uncovered
    assert got.failures == want.failures
    assert got.rows() == want.rows()


def _unchecked_witness(alpha, beta, V, W):
    return InjectionWitness(V, W, [], dict(zip(V, alpha)), dict(zip(V, beta)))


_V1 = [(0,), (1,), (2,)]
_W1 = [(y,) for y in range(-2, 6)]


@pytest.mark.parametrize("alpha, beta, failing", [
    ([(0,), (2,), (4,)], [(1,), (3,), (5,)], set()),
    ([(0,), (0,), (4,)], [(1,), (3,), (5,)], {"mmt_ok", "projection_ok"}),
    ([(0,), (2,), (4,)], [(1,), (3,), (3,)], {"nnt_ok", "projection_ok"}),
    ([(0,), (2,), (4,)], [(1,), (0,), (5,)], {"mnt_ok", "nmt_ok", "projection_ok"}),
], ids=["valid", "alpha-not-injective", "beta-not-injective", "images-overlap"])
@pytest.mark.parametrize("ring", [Z, IntegerModRing(2)], ids=["Z", "Z2"])
def test_collapse_identities_fail_where_the_dense_products_fail(
        monkeypatch, alpha, beta, failing, ring):
    """With the witness check switched off, a non-injective alpha or beta,
    or overlapping images, fails exactly the identities the dense products
    fail."""
    monkeypatch.setattr(translation, "verify_injection_witness",
                        lambda group, w: (True, "ok"))
    w = _unchecked_witness(alpha, beta, _V1, _W1)
    got = collapse_matrices(FreeAbelian(1), w, ring)
    _same_collapse(got, _collapse_reference(w, ring))
    checks = CollapseResult.check_fields()
    assert {name for name, _ in checks if not getattr(got, name)} == failing


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_collapse_agrees_with_the_dense_products_on_any_maps(data):
    """Any maps alpha, beta: V -> W, checked by the support form and by the
    dense products, give the same report."""
    nv, nw = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    V, W = [(x,) for x in range(nv)], [(y,) for y in range(nw)]
    maps = st.lists(st.sampled_from(W), min_size=nv, max_size=nv)
    w = _unchecked_witness(data.draw(maps), data.draw(maps), V, W)
    ring = data.draw(st.sampled_from([Z, IntegerModRing(2), IntegerModRing(5)]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(translation, "verify_injection_witness", lambda group, w: (True, "ok"))
        got = collapse_matrices(FreeAbelian(1), w, ring)
    _same_collapse(got, _collapse_reference(w, ring))


def test_collapse_matrices_identities():
    F2 = FreeGroup(2)
    w = find_two_to_one_injection(F2, F2.ball(1), F2.ball(2), F2.ball(1))
    assert isinstance(w, InjectionWitness)
    res = collapse_matrices(F2, w, Z)
    assert res.ok, res.lines()
    # the unreached part of W stays uncovered by the projection
    assert len(res.uncovered) == len(w.W) - 2 * len(w.V)
    _same_collapse(res, _collapse_reference(w, Z))


def _leavitt_tcert():
    G = FreeAbelian(1)
    L = LeavittRing(2)
    T = TranslationRing(G, whole_group(G), L)
    A = RingMatrix(T, 2, 1, [T.diag_const(L.gen_star(1)),
                             T.diag_const(L.gen_star(2))])
    B = RingMatrix(T, 1, 2, [T.diag_const(L.gen(1)), T.diag_const(L.gen(2))])
    return T, RankCertificate(T, 1, 2, A, B)


def test_compress_diagonal_certificate():
    T, cert = _leavitt_tcert()
    res = compress_certificate(CompressionInput(T, cert, [(0,)], [(0,), (1,)]))
    out = res.certificate
    assert (out.n, out.m) == (2, 4)
    v = verify_certificate(out)
    assert v and v.bgn


def test_compress_enforces_folner_inequality():
    T, cert = _leavitt_tcert()
    with pytest.raises(ValueError, match="Folner"):
        compress_certificate(CompressionInput(
            T, cert, [(-1,), (0,), (1,)], [(0,), (1,)]))


def test_compress_requires_symmetric_k_with_identity():
    T, cert = _leavitt_tcert()
    with pytest.raises(ValueError):
        compress_certificate(CompressionInput(T, cert, [(1,)], [(0,)]))
    with pytest.raises(ValueError):
        compress_certificate(CompressionInput(T, cert, [(-1,), (1,)], [(0,)]))


def test_compress_shifted_certificate():
    """A certificate whose entries move along the group needs K to dominate
    the shifts."""
    G = FreeAbelian(1)
    L = LeavittRing(2)
    T = TranslationRing(G, whole_group(G), L)
    one = T.base.one()
    A = RingMatrix(T, 2, 1, [T.mul(T.term((1,), one), T.diag_const(L.gen_star(1))),
                             T.diag_const(L.gen_star(2))])
    B = RingMatrix(T, 1, 2, [T.mul(T.diag_const(L.gen(1)), T.term((-1,), one)),
                             T.diag_const(L.gen(2))])
    cert = RankCertificate(T, 1, 2, A, B)
    with pytest.raises(ValueError, match="dominate"):
        compress_certificate(CompressionInput(T, cert, [(0,)], [(0,)]))
    K = [(-1,), (0,), (1,)]
    F = [(v,) for v in range(9)]
    res = compress_certificate(CompressionInput(T, cert, K, F))
    assert verify_certificate(res.certificate)


def _leavitt_shifted_tcert(G, n, shifts, flip, cls=TranslationRing):
    """The L(1,n) certificate A_i = s_i e_i*, B_i = e_i s_i^-1 over T(G),
    with both first entries negated at the point flip (when given)."""
    L = LeavittRing(n)
    T = cls(G, whole_group(G), L)
    A, B = [], []
    for i, s in enumerate(shifts, 1):
        pts = [flip] if flip is not None and i == 1 else []
        fa = T.fn(L.gen_star(i), {x: L.neg(L.gen_star(i)) for x in pts})
        fb = T.fn(L.gen(i), {x: L.neg(L.gen(i)) for x in pts})
        A.append(T.mul(T.term(s, T.base.one()), T.scalar(fa)))
        B.append(T.mul(T.scalar(fb), T.term(G.inv(s), T.base.one())))
    return T, RankCertificate(T, 1, n, RingMatrix(T, n, 1, A), RingMatrix(T, 1, n, B))


_Z1 = FreeAbelian(1)
_KZ = [(-1,), (0,), (1,)]
_E, _B, _BI = (), (2,), (-2,)
_BA_GRID = [(2,) * j + (1,) * i for j in range(5) for i in range(3)]  # b^j a^i
_AB_GRID = [(1,) * i + (2,) * j for i in range(3) for j in range(5)]  # a^i b^j
_COMPRESSIONS = [
    (_Z1, 2, [(0,), (0,)], None, [(0,)], [(0,), (1,)]),
    (_Z1, 2, [(1,), (0,)], (2,), _KZ, [(v,) for v in range(-2, 7)]),
    (_Z1, 3, [(1,), (-1,), (0,)], (3,), _KZ, [(v,) for v in range(9)]),
    (F2, 3, [_E, _E, _E], None, [_E], [_E]),
    (F2, 2, [_B, _E], (1, 2), [_E, _B, _BI], _BA_GRID),
    (F2, 3, [_B, _BI, _E], (1, 1, 2), [_E, _B, _BI], _BA_GRID),
]


def _assert_entries_follow_tr_entry(T, cert, res):
    L, U, F_X = T.base.base, res.U, res.F_X
    A_star, B_star = res.certificate.A, res.certificate.B
    for (i, (s, f)), (j, (t, u)) in product(product(range(cert.m), enumerate(F_X)),
                                            product(range(cert.n), enumerate(U))):
        row, col = i * len(F_X) + s, j * len(U) + t
        assert L.eq(A_star[row, col], tr_entry(T, cert.A[i, j], f, u))
        assert L.eq(B_star[col, row], tr_entry(T, cert.B[j, i], u, f))


@pytest.mark.parametrize("G,n,shifts,flip,K,F", _COMPRESSIONS)
def test_compressed_entries_follow_tr_entry(G, n, shifts, flip, K, F):
    T, cert = _leavitt_shifted_tcert(G, n, shifts, flip)
    res = compress_certificate(CompressionInput(T, cert, K, F))
    _assert_entries_follow_tr_entry(T, cert, res)


@pytest.mark.parametrize("cls, F, counts", [
    (TranslationRing, _BA_GRID, (21, 30)),
    (TranslationRing, _AB_GRID, None),
    (RightTranslationRing, _AB_GRID, (21, 30)),
    (RightTranslationRing, _BA_GRID, None),
], ids=["left-ba", "left-ab", "right-ab", "right-ba"])
def test_compression_window_is_on_the_ring_side(cls, F, counts):
    """The window is KF in the left ring and FK in the right one.  With
    K = {e, b, b^-1}, b^j a^i absorbs K on the left and a^i b^j on the
    right (21 < 2 x 15 points); on the other side the window has 37."""
    T, cert = _leavitt_shifted_tcert(F2, 2, [_B, _BI], None, cls)
    ci = CompressionInput(T, cert, [_E, _B, _BI], F)
    if counts is None:
        with pytest.raises(FolnerInequalityError, match=r"n\|U\| = 37 "):
            compress_certificate(ci)
        return
    res = compress_certificate(ci)
    assert res.counts == counts
    assert (res.certificate.n, res.certificate.m) == counts
    _assert_entries_follow_tr_entry(T, cert, res)


def _dense_window_failure(T, cert, K, F):
    """The window check over all of U x U, as compress_certificate made it
    before it summed only the reachable entries: its first failure message,
    or None."""
    G, S = T.group, T.base.base
    U = sorted({G.mul(k, f) for k in K for f in F if G.mul(k, f) in T.X},
               key=G.element_key)
    for x, y, i, i2 in product(U, U, range(cert.m), range(cert.m)):
        acc = S.zero()
        for j in range(cert.n):
            acc = S.add(acc, tr_mul_oracle_entry(T, cert.A[i, j], cert.B[j, i2], x, y))
        want = S.one() if (i == i2 and x == y) else S.zero()
        if not S.eq(acc, want):
            return (f"window verification failed at blocks ({i+1},{i2+1}), "
                    f"indices ({G.element_to_str(x)}, {G.element_to_str(y)})")
    return None


def _window_failure(T, cert, K, F):
    try:
        compress_certificate(CompressionInput(T, cert, K, F))
    except ValueError as exc:
        if str(exc).startswith("window verification failed"):
            return str(exc)
    return None


def _swap_b(T, cert, K, F):
    B = cert.B.entries
    return RankCertificate(T, cert.n, cert.m, cert.A,
                           RingMatrix(T, cert.n, cert.m, [B[1], B[0]] + B[2:]))


def _flip_b_at_one_point(T, cert, K, F):
    """Negate B_11 at one point of F only, so that A and B disagree there."""
    L, p = T.base.base, F[len(F) // 2]
    ((g, f),) = cert.B[0, 0].items()
    flipped = T.term(g, T.fn(f.const, {**f.overrides, p: L.neg(f(p))}))
    return RankCertificate(T, cert.n, cert.m, cert.A,
                           RingMatrix(T, cert.n, cert.m, [flipped] + cert.B.entries[1:]))


def _extra_shift_in_a(T, cert, K, F):
    """Add to A_11 a term e2* at one point p of F for each shift in K: row p
    of block (1,2) then fails at one column per shift, and p is not the
    identity, so on F2 the column (k h)^-1 p differs from p (k h)^-1."""
    L, p = T.base.base, F[len(F) // 2]
    extra = T.zero()
    for k in K:
        extra = T.add(extra, T.term(k, T.fn(L.zero(), {p: L.gen_star(2)})))
    A = RingMatrix(T, cert.m, cert.n, [T.add(cert.A[0, 0], extra)] + cert.A.entries[1:])
    return RankCertificate(T, cert.n, cert.m, A, cert.B)


@pytest.mark.parametrize("G,n,shifts,flip,K,F", _COMPRESSIONS)
def test_window_check_agrees_with_the_dense_scan(G, n, shifts, flip, K, F):
    T, cert = _leavitt_shifted_tcert(G, n, shifts, flip)
    assert _window_failure(T, cert, K, F) is None
    assert _dense_window_failure(T, cert, K, F) is None
    for mutate in (_swap_b, _flip_b_at_one_point, _extra_shift_in_a):
        bad = mutate(T, cert, K, F)
        want = _dense_window_failure(T, bad, K, F)
        assert want is not None, mutate.__name__
        assert _window_failure(T, bad, K, F) == want, mutate.__name__


def test_window_check_sums_the_diagonal_no_shift_reaches():
    """With B_i = e_i s instead of e_i s^-1, every A_i B_j is the shift s^2:
    no product of shifts reaches the diagonal, where AB is 0, not 1, and
    (x, x) for the first x of U is the first failure."""
    T, cert = _leavitt_shifted_tcert(_Z1, 2, [(1,), (1,)], None)
    L = T.base.base
    s = T.term((1,), T.base.one())
    B = RingMatrix(T, 1, 2, [T.mul(T.diag_const(L.gen(i)), s) for i in (1, 2)])
    bad = RankCertificate(T, 1, 2, cert.A, B)
    F = [(v,) for v in range(9)]
    want = "window verification failed at blocks (1,1), indices (0, 0)"
    assert _dense_window_failure(T, bad, _KZ, F) == want
    assert _window_failure(T, bad, _KZ, F) == want


@pytest.mark.parametrize("shifts", [[(0,), (0,)], [(1,), (0,)]],
                         ids=["diagonal", "shifted"])
def test_window_check_calls_grow_with_the_support(shifts, monkeypatch):
    """At |F| = 48 the full scan makes m^2 |U|^2 = 10,000 oracle calls; the
    reachable entries are at most |K|^2 + 1 per row x."""
    import gradedrings.translation as translation
    calls = []

    def counted(*args):
        calls.append(args)
        return tr_mul_oracle_entry(*args)

    monkeypatch.setattr(translation, "tr_mul_oracle_entry", counted)
    T, cert = _leavitt_shifted_tcert(_Z1, 2, shifts, None)
    res = compress_certificate(CompressionInput(T, cert, _KZ, [(v,) for v in range(48)]))
    assert len(res.U) == 50
    assert 0 < len(calls) <= cert.m ** 2 * len(res.U) * (len(_KZ) ** 2 + 1)


def test_finite_group_eq_compares_entries():
    G = Cyclic(2)
    T = TranslationRing(G, whole_group(G), Z)
    assert T.eq(T.scalar(T.fn(0, {0: 1, 1: 1})), T.one())
    assert not T.eq(T.scalar(T.fn(0, {0: 1})), T.one())


@pytest.mark.parametrize("G", [Cyclic(3), DirectProduct([Cyclic(2), Cyclic(2)])],
                         ids=["C(3)", "C(2)xC(2)"])
@pytest.mark.parametrize("cls", [TranslationRing, RightTranslationRing])
@pytest.mark.parametrize("proper", [False, True], ids=["all", "proper"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_finite_group_eq_is_entrywise_equality(G, cls, proper, data):
    """b has a's values at every point but its own constants, and one value
    changed when drawn so."""
    elems = G.elements()
    X = finite_subset(G, elems[:2]) if proper else whole_group(G)
    T = cls(G, X, Z)
    values = st.lists(st.integers(-1, 1), min_size=len(elems), max_size=len(elems))
    a, b = T.zero(), T.zero()
    for g in data.draw(st.lists(st.sampled_from(elems), unique=True)):
        table = dict(zip(elems, data.draw(values)))
        a = T.add(a, T.term(g, T.fn(data.draw(st.integers(-1, 1)), table)))
        if data.draw(st.booleans()):
            table[data.draw(st.sampled_from(elems))] += 1
        b = T.add(b, T.term(g, T.fn(data.draw(st.integers(-1, 1)), table)))
    pts = [x for x in elems if x in X]
    same = all(tr_entry(T, a, x, y) == tr_entry(T, b, x, y) for x in pts for y in pts)
    assert T.eq(a, b) == same

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedrings.amenability import whole_group
from gradedrings.checks import _stack_twice
from gradedrings.graded import CrossedProductRing, CrossedSystem, group_ring
from gradedrings.groups import (BaumslagSolitar, Cyclic, DirectProduct,
                                FreeAbelian, FreeGroup)
from gradedrings.rings import (IntegerModRing, IntegerRing, Invalid,
                               MatrixRing, ProductRing, RankCertificate,
                               RationalRing, RingMatrix, block_down_certificate,
                               block_up_certificate, extend_certificate,
                               hom_certificate, mat_mul, opposite_certificate,
                               first_difference, product_certificate, support_mul,
                               truncate_certificate, verify_certificate)
from gradedrings.special_algebras import (LeavittRing, WeylRing,
                                          leavitt_rank_certificate)
from gradedrings.translation import (FunctionRing, RightTranslationRing,
                                     TranslationRing)

Z = IntegerRing()


def test_base_ring_arithmetic():
    assert Z.add(Z.from_int(5), Z.neg(Z.from_int(3))) == 2
    Q = RationalRing()
    assert Q.eq(Q.add(Fraction(1, 2), Fraction(1, 3)), Fraction(5, 6))
    Z5 = IntegerModRing(5)
    assert Z5.eq(Z5.mul(3, 4), 2)
    assert Z5.from_int(-1) == 4


def test_product_ring_componentwise():
    P = ProductRing([Z, IntegerModRing(3)])
    x = (2, 2)
    y = (3, 2)
    assert P.eq(P.mul(x, y), (6, 1))
    assert P.eq(P.one(), (1, 1))


def test_nested_product_ring_str_round_trip():
    P = ProductRing([Z, ProductRing([Z, IntegerModRing(3)])])
    a = (1, (2, 1))
    assert P.element_to_str(a) == "(1; (2; 1))"
    assert P.element_from_str(P.element_to_str(a)) == a


def test_matrix_ring_identity_and_mul():
    M2 = MatrixRing(Z, 2)
    a = RingMatrix.from_rows(Z, [[1, 2], [3, 4]])
    b = RingMatrix.from_rows(Z, [[0, 1], [1, 0]])
    assert M2.eq(M2.mul(a, b), RingMatrix.from_rows(Z, [[2, 1], [4, 3]]))
    assert M2.eq(M2.mul(a, M2.one()), a)


def test_verify_certificate_detects_failure():
    A = RingMatrix.from_rows(Z, [[1, 0], [0, 2]])
    B = RingMatrix.from_rows(Z, [[1, 0], [0, 1]])
    cert = RankCertificate(Z, 2, 2, A, B)
    v = verify_certificate(cert)
    assert not v
    assert v.position == (2, 2)


def test_certificate_shape_checked():
    A = RingMatrix.from_rows(Z, [[1, 0]])
    B = RingMatrix.from_rows(Z, [[1], [0]])
    with pytest.raises(ValueError):
        RankCertificate(Z, 1, 2, A, B)


def test_extend_chain():
    """Extending a (1,2) Leavitt certificate reaches every m up to 6."""
    base = leavitt_rank_certificate(2)
    for target in range(2, 7):
        ext = extend_certificate(base, target)
        v = verify_certificate(ext)
        assert v and v.bgn
        assert (ext.n, ext.m) == (1, target)


def test_truncate_certificate():
    cert = truncate_certificate(leavitt_rank_certificate(3))
    assert (cert.n, cert.m) == (1, 2)
    assert verify_certificate(cert)
    # an (n, n+1) input is returned as it is, not verified a second time
    base = leavitt_rank_certificate(2)
    assert truncate_certificate(base) is base


def _invalid_l3():
    """L(1,3) with its last B entry zeroed: AB fails first at (3, 3)."""
    cert = leavitt_rank_certificate(3)
    L = cert.ring
    B = RingMatrix(L, 1, 3, [L.gen(1), L.gen(2), L.zero()])
    return RankCertificate(L, 1, 3, cert.A, B)


@pytest.mark.parametrize("transform", [
    lambda c: extend_certificate(c, 5),
    truncate_certificate,
    opposite_certificate,
    lambda c: block_up_certificate(c, 1),
    block_down_certificate,
    lambda c: product_certificate([leavitt_rank_certificate(2), c]),
    lambda c: hom_certificate(c, lambda x: x, c.ring),
], ids=["extend", "truncate", "opposite", "block_up", "block_down",
        "product", "hom"])
def test_transforms_refuse_invalid_input(transform):
    """A bad input is the caller's fault (ValueError), never a failed
    re-verification of the output (VerificationError)."""
    with pytest.raises(ValueError, match=r"input certificate invalid at \(3, 3\)"):
        transform(_invalid_l3())


def test_extend_and_product_refuse_non_bgn_input():
    ident = RankCertificate(Z, 2, 2, RingMatrix.identity(Z, 2),
                            RingMatrix.identity(Z, 2))
    for transform in (lambda c: extend_certificate(c, 3),
                      lambda c: product_certificate([c])):
        with pytest.raises(ValueError, match="not BGN"):
            transform(ident)


@pytest.mark.parametrize("base", [None, IntegerModRing(5)], ids=["Z", "Z/5"])
def test_extend_cuts_a_wide_certificate_first(base):
    """Extending L(1,3) equals extending its (1, 2) leading block, which
    the test cuts by hand: the first two rows of A and columns of B."""
    cert = leavitt_rank_certificate(3, base)
    L = cert.ring
    cut = RankCertificate(L, 1, 2, RingMatrix(L, 2, 1, [cert.A[0, 0], cert.A[1, 0]]),
                          RingMatrix(L, 1, 2, [cert.B[0, 0], cert.B[0, 1]]))
    for target in range(2, 7):
        ext, ref = extend_certificate(cert, target), extend_certificate(cut, target)
        assert (ext.n, ext.m) == (ref.n, ref.m) == (1, target)
        for X, Y in ((ext.A, ref.A), (ext.B, ref.B)):
            assert all(L.eq(X[i, j], Y[i, j])
                       for i in range(X.rows) for j in range(X.cols))


def test_opposite_is_involution():
    base = leavitt_rank_certificate(2)
    op = opposite_certificate(base)
    assert verify_certificate(op)
    back = opposite_certificate(op)
    assert back.A.eq(base.A.reinterpret(back.ring))
    assert back.B.eq(base.B.reinterpret(back.ring))


def test_block_round_trip():
    ident = RankCertificate(Z, 4, 4, RingMatrix.identity(Z, 4),
                            RingMatrix.identity(Z, 4))
    up = block_up_certificate(ident, 2)
    assert up.ring == MatrixRing(Z, 2)
    assert verify_certificate(up)
    down = block_down_certificate(up)
    assert down.A.eq(ident.A) and down.B.eq(ident.B)


def test_block_up_needs_divisibility():
    ident = RankCertificate(Z, 3, 3, RingMatrix.identity(Z, 3),
                            RingMatrix.identity(Z, 3))
    with pytest.raises(ValueError):
        block_up_certificate(ident, 2)


def test_product_certificate():
    prod = product_certificate([leavitt_rank_certificate(2),
                                leavitt_rank_certificate(3)])
    assert (prod.n, prod.m) == (1, 2)
    v = verify_certificate(prod)
    assert v and v.bgn
    assert isinstance(prod.ring, ProductRing)


def test_product_pads_factors_with_smaller_n():
    """A (2, 4) factor sets b = 2; the (1, 3) and (1, 2) factors are
    extended to (1, 3) and padded with a zero domain column to (2, 3)."""
    prod = product_certificate([_stack_twice(leavitt_rank_certificate(2)),
                                leavitt_rank_certificate(3),
                                leavitt_rank_certificate(2)])
    assert (prod.n, prod.m) == (2, 3)
    v = verify_certificate(prod)
    assert v and v.bgn


def test_hom_certificate_mod_m():
    A = RingMatrix.from_rows(Z, [[1, 5], [0, 1]])
    B = RingMatrix.from_rows(Z, [[1, -5], [0, 1]])
    cert = RankCertificate(Z, 2, 2, A, B)
    assert verify_certificate(cert)
    Z5 = IntegerModRing(5)
    pushed = hom_certificate(cert, Z5.from_int, Z5)
    assert verify_certificate(pushed)
    assert pushed.A[0, 1] == 0
    assert pushed.A.support[0] == {0: 1}  # 5 maps to 0, which is not stored


def test_hom_certificate_rejects_broken_map():
    """A non-homomorphism can break AB = I; the push must re-verify."""
    cert = leavitt_rank_certificate(2)
    with pytest.raises((AssertionError, ValueError)):
        hom_certificate(cert, lambda e: Z.zero(), Z)


def test_hom_certificate_refuses_a_map_that_moves_zero():
    """Only the stored entries are mapped, so phi(0) != 0 is refused, even
    for a unital map that sends every nonzero entry to its residue."""
    A = RingMatrix.from_rows(Z, [[1, 5], [0, 1]])
    B = RingMatrix.from_rows(Z, [[1, -5], [0, 1]])
    Z5 = IntegerModRing(5)
    with pytest.raises(ValueError, match=r"phi\(0\) != 0"):
        hom_certificate(RankCertificate(Z, 2, 2, A, B),
                        lambda x: Z5.from_int(x) if x else Z5.one(), Z5)


def _stored_zeros(M):
    return [(i, j) for i, row in enumerate(M.support)
            for j, x in row.items() if M.ring.is_zero(x)]


@pytest.mark.parametrize("R", [Z, MatrixRing(Z, 2)], ids=["Z", "M2(Z)"])
def test_a_cancelling_product_stores_no_zero(R):
    """[[x, x]] [[x], [-x]] = [[x^2 - x^2]] = 0 (x = 1, or I_2 over M2(Z)):
    support_mul keeps the zero sum, and the matrix must not store it."""
    x = R.one()
    P = mat_mul(RingMatrix.from_rows(R, [[x, x]]),
                RingMatrix.from_rows(R, [[x], [R.neg(x)]]))
    assert MatrixRing(R, 1).is_zero(P)
    assert P.support == [{}]
    S = RingMatrix.from_rows(R, [[x, R.neg(x)]])
    assert MatrixRing(R, 1).is_zero(S.add(S.neg()))


def test_mat_mul_shapes():
    a = RingMatrix.from_rows(Z, [[1, 2, 3]])
    b = RingMatrix.from_rows(Z, [[1], [1], [1]])
    assert mat_mul(a, b)[0, 0] == 6
    with pytest.raises(ValueError):
        mat_mul(a, a)


def _mat_mul_reference(A, B):
    """The dense triple loop: every product a_ik * b_kj, zeros included."""
    R = A.ring
    out = []
    for i in range(A.rows):
        for j in range(B.cols):
            acc = R.zero()
            for k in range(A.cols):
                acc = R.add(acc, R.mul(A[i, k], B[k, j]))
            out.append(acc)
    return RingMatrix(R, A.rows, B.cols, out)


def _leavitt_elements(L):
    """Sums of up to two words of length <= 3 in e1, e2, e1*, e2*."""
    gens = [L.gen(1), L.gen(2), L.gen_star(1), L.gen_star(2)]

    def word(c, letters):
        x = L.from_int(c)
        for i in letters:
            x = L.mul(x, gens[i])
        return x

    term = st.builds(word, st.integers(-2, 2), st.lists(st.integers(0, 3), max_size=3))
    return st.lists(term, max_size=2).map(lambda ts: functools.reduce(L.add, ts, L.zero()))


_L2 = LeavittRing(2)
_MAT_MUL_RINGS = [
    (IntegerModRing(5), st.integers(0, 4)),
    (RationalRing(), st.fractions(min_value=-2, max_value=2, max_denominator=3)),
    (_L2, _leavitt_elements(_L2)),
    (_L2.opposite(), _leavitt_elements(_L2)),
]


@st.composite
def _mat_mul_pair(draw, ring, elements):
    """A (rows x inner) and B (inner x cols) with random zero entries, and
    zeroed rows of A, columns of A and columns of B."""
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    entry = st.one_of(st.just(ring.zero()), elements)
    A = draw(st.lists(entry, min_size=rows * inner, max_size=rows * inner))
    B = draw(st.lists(entry, min_size=inner * cols, max_size=inner * cols))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_inner = draw(st.sets(st.integers(0, inner - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    A = [ring.zero() if (t // inner in zero_rows or t % inner in zero_inner) else x
         for t, x in enumerate(A)]
    B = [ring.zero() if t % cols in zero_cols else x for t, x in enumerate(B)]
    return (RingMatrix(ring, rows, inner, A), RingMatrix(ring, inner, cols, B))


@pytest.mark.parametrize("ring,elements", _MAT_MUL_RINGS,
                         ids=[r.name for r, _ in _MAT_MUL_RINGS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mat_mul_agrees_with_the_dense_triple_loop(ring, elements, data):
    A, B = data.draw(_mat_mul_pair(ring, elements))
    got, want = mat_mul(A, B), _mat_mul_reference(A, B)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.eq(want)
    C = data.draw(_mat_mul_pair(ring, elements))[0]
    sums = [A.add(A), A.add(A.neg()), got.add(got), got.add(want.neg())]
    if (C.rows, C.cols) == (A.rows, A.cols):
        sums.append(A.add(C))
    assert not any(_stored_zeros(M) for M in [got, *sums])


def test_mat_mul_keeps_the_order_of_each_product():
    """Over L(1,2), (e1, 0, e2)(e1*, e1, e2*)^t = e1 e1* + e2 e2* = 1, while
    the products taken as b*a (the same matrices over the opposite ring)
    sum to e1* e1 + e2* e2 = 2.  The same holds in support form."""
    L = _L2
    A = RingMatrix(L, 1, 3, [L.gen(1), L.zero(), L.gen(2)])
    B = RingMatrix(L, 3, 1, [L.gen_star(1), L.gen(1), L.gen_star(2)])
    assert L.eq(mat_mul(A, B)[0, 0], L.one())
    op = L.opposite()
    assert L.eq(mat_mul(A.reinterpret(op), B.reinterpret(op))[0, 0], L.from_int(2))
    P, Q = A.support, B.support
    assert first_difference(L, support_mul(L, P, Q), [{0: L.one()}]) is None
    assert first_difference(op, support_mul(op, P, Q), [{0: L.from_int(2)}]) is None


def _verify_reference(cert):
    """The dense check as (valid, bgn, position): the triple-loop product,
    then all m x m entries against the identity in row-major order."""
    R, prod = cert.ring, _mat_mul_reference(cert.A, cert.B)
    for i in range(cert.m):
        for j in range(cert.m):
            if not R.eq(prod[i, j], R.one() if i == j else R.zero()):
                return False, None, (i + 1, j + 1)
    return True, cert.n < cert.m, None


def _verdict(v):
    return bool(v), getattr(v, "bgn", None), getattr(v, "position", None)


def _leavitt_code(m):
    """Rows of A = (e_w*) and B = (e_w) over L(1,2) for the prefix code
    w = 1, 21, ..., 2^(m-2)1, 2^(m-1): e_v* e_w = delta_vw, so AB = I_m."""
    L = _L2
    words = [(2,) * k + (1,) for k in range(m - 1)] + [(2,) * (m - 1)]
    b = [functools.reduce(L.mul, map(L.gen, w), L.one()) for w in words]
    a = [functools.reduce(L.mul, map(L.gen_star, reversed(w)), L.one()) for w in words]
    return [[x] for x in a], [b]


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _rows(M):
    """M as dense rows, read entry by entry."""
    return [[M[i, j] for j in range(M.cols)] for i in range(M.rows)]


def _elementary(R, size, s, t, x):
    """I + x e_st for s != t."""
    return RingMatrix.from_support_rows(
        R, size, [{i: R.one(), **({t: x} if i == s else {})} for i in range(size)])


_CERT_RINGS = [
    (Z, st.integers(-3, 3)),
    (IntegerModRing(5), st.integers(0, 4)),
    (_L2, _leavitt_elements(_L2)),
    (_L2.opposite(), _leavitt_elements(_L2)),  # is_zero through eq
]


@st.composite
def _certificate(draw, ring, elements):
    """A valid (n, m) certificate, m <= 4, moved by elementary row and
    column operations, then kept, changed at one entry of A or B, given a
    zero row of A, or replaced by random entries.  Over Z and Z/5 it starts
    from [I | 0] and [I; C], so n >= m; over L(1,2) it may start from the
    (1, m) prefix-code certificate instead, so n < m too."""
    R = ring
    entry = st.one_of(st.just(R.zero()), elements)
    one, zero = R.one(), R.zero()
    m = draw(st.integers(1, 4))
    if R in (_L2, _L2.opposite()) and draw(st.booleans()):
        a, b = _leavitt_code(m)  # over the opposite ring: A = B^t, B = A^t
        A, B = (a, b) if R == _L2 else (_transpose(b), _transpose(a))
    else:
        A = [[one if i == j else zero for j in range(m)] for i in range(m)]
        B = [row[:] for row in A]
    n = len(B) + draw(st.integers(0, 2))
    A = [row + [zero] * (n - len(B)) for row in A]
    B += [[draw(entry) for _ in range(m)] for _ in range(n - len(B))]
    A, B = RingMatrix.from_rows(R, A), RingMatrix.from_rows(R, B)
    for _ in range(draw(st.integers(0, 4))):
        # A -> EA and B -> BE^-1 (rows), or A -> AE and B -> E^-1 B (columns)
        size = draw(st.sampled_from([m, n]))
        s, t = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if s == t:
            continue
        c = draw(elements)
        E, E_inv = (_elementary(R, size, s, t, x) for x in (c, R.neg(c)))
        if size == m:
            A, B = _mat_mul_reference(E, A), _mat_mul_reference(B, E_inv)
        else:
            A, B = _mat_mul_reference(A, E), _mat_mul_reference(E_inv, B)
    change = draw(st.sampled_from(["none", "A", "B", "zero row", "random"]))
    if change in ("A", "B"):
        rows = _rows(A if change == "A" else B)
        t = draw(st.integers(0, len(rows) * len(rows[0]) - 1))
        rows[t // len(rows[0])][t % len(rows[0])] = draw(entry)
        if change == "A":
            A = RingMatrix.from_rows(R, rows)
        else:
            B = RingMatrix.from_rows(R, rows)
    elif change == "zero row":
        rows = _rows(A)
        rows[draw(st.integers(0, m - 1))] = [zero] * n
        A = RingMatrix.from_rows(R, rows)
    elif change == "random":
        A, B = (RingMatrix.from_rows(R, [[draw(entry) for _ in range(M.cols)]
                                         for _ in range(M.rows)]) for M in (A, B))
    return RankCertificate(R, n, m, A, B)


@pytest.mark.parametrize("ring,elements", _CERT_RINGS,
                         ids=[r.name for r, _ in _CERT_RINGS])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_verify_certificate_agrees_with_the_dense_scan(ring, elements, data):
    """Summing over the support of A and B only gives the dense scan's
    verdict, bgn flag and first failing position."""
    cert = data.draw(_certificate(ring, elements))
    assert _verdict(verify_certificate(cert)) == _verify_reference(cert)


@pytest.mark.parametrize("A,position", [
    ([[1, 0], [0, 0]], (2, 2)),  # row 2 of A is zero: (2, 2) is never reached
    ([[1, 0], [3, 1]], (2, 1)),  # a reached nonzero entry left of the diagonal
], ids=["unreached-diagonal", "left-of-diagonal"])
def test_verify_certificate_reports_the_first_row_major_failure(A, position):
    cert = RankCertificate(Z, 2, 2, RingMatrix.from_rows(Z, A),
                           RingMatrix.identity(Z, 2))
    assert verify_certificate(cert) == Invalid(position=position)
    assert _verify_reference(cert) == (False, None, position)


def _dense_block_diag(M, pad):
    """diag(M, I_pad) as a dense matrix."""
    R = M.ring
    zero = R.zero()
    rows = [row + [zero] * pad for row in _rows(M)]
    rows += [[zero] * M.cols + [R.one() if s == t else zero for s in range(pad)]
             for t in range(pad)]
    return RingMatrix.from_rows(R, rows)


def _extend_reference(cert, target_m):
    """(A, B) of extend_certificate as the dense chain: the cut to
    (n, n+1), then A <- diag(A_cut, I) A and B <- B diag(B_cut, I), each a
    dense triple-loop product."""
    R, n = cert.ring, cert.n
    A_cut = RingMatrix.from_rows(R, _rows(cert.A)[:n + 1])
    B_cut = RingMatrix.from_rows(R, [row[:n + 1] for row in _rows(cert.B)])
    A, B = A_cut, B_cut
    for pad in range(1, target_m - n):
        A = _mat_mul_reference(_dense_block_diag(A_cut, pad), A)
        B = _mat_mul_reference(B, _dense_block_diag(B_cut, pad))
    return _rows(A), _rows(B)


def _product_reference(certs):
    """(A, B) of product_certificate as rows: each factor's dense chain to
    b+1, with zero columns appended to A and zero rows to B up to n = b,
    then merged componentwise (a single factor stays over its ring)."""
    b = max(c.n for c in certs)
    parts = []
    for c in certs:
        A, B = _extend_reference(c, b + 1)
        zero = c.ring.zero()
        parts.append(([row + [zero] * (b - c.n) for row in A],
                      B + [[zero] * (b + 1) for _ in range(b - c.n)]))
    if len(parts) == 1:
        return parts[0]
    return tuple([[tuple(xs) for xs in zip(*rows)] for rows in zip(*Ms)]
                 for Ms in zip(*parts))


def _same_entries(R, M, rows):
    return ((M.rows, M.cols) == (len(rows), len(rows[0]))
            and all(R.eq(M[i, j], x) for i, row in enumerate(rows)
                    for j, x in enumerate(row)))


@st.composite
def _bgn_certificate(draw):
    """A valid BGN certificate over L(1,k) (k = 2, 3, 4; base Z or Z/5) or
    over op(L(1,2)): the (1, k) one, for k = 2 possibly stacked to (2, 4),
    so m > n+1 occurs, then moved by up to two elementary row and column
    operations (A -> EA and B -> BE^-1, or A -> AE and B -> E^-1 B)."""
    k = draw(st.sampled_from([2, 3, 4]))
    cert = leavitt_rank_certificate(k, draw(st.sampled_from([None, IntegerModRing(5)])))
    L = cert.ring
    if k == 2 and draw(st.booleans()):
        cert = _stack_twice(cert)
    if k == 2 and draw(st.booleans()):
        cert = opposite_certificate(cert)
    R, n, m, A, B = cert.ring, cert.n, cert.m, cert.A, cert.B
    for _ in range(draw(st.integers(0, 2))):
        size = draw(st.sampled_from([m, n]))
        s, t = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if s == t:
            continue
        c = draw(_leavitt_elements(L))
        E, E_inv = (_elementary(R, size, s, t, x) for x in (c, R.neg(c)))
        if size == m:
            A, B = _mat_mul_reference(E, A), _mat_mul_reference(B, E_inv)
        else:
            A, B = _mat_mul_reference(A, E), _mat_mul_reference(E_inv, B)
    return RankCertificate(R, n, m, A, B)


@settings(max_examples=40, deadline=None)
@given(_bgn_certificate())
def test_extend_agrees_with_the_dense_block_chain(cert):
    """The support-form chain has, at every target up to n+6, the entries of
    the dense diag(A, I) chain after the cut to (n, n+1)."""
    for target in range(cert.n + 1, cert.n + 7):
        ext = extend_certificate(cert, target)
        A, B = _extend_reference(cert, target)
        assert (ext.n, ext.m) == (cert.n, target)
        assert not _stored_zeros(ext.A) and not _stored_zeros(ext.B)
        assert _same_entries(cert.ring, ext.A, A) and _same_entries(cert.ring, ext.B, B)


@settings(max_examples=30, deadline=None)
@given(st.lists(_bgn_certificate(), min_size=1, max_size=3))
def test_product_agrees_with_the_dense_padding(certs):
    """Each factor is the dense chain to b+1 with zero padding to n = b."""
    prod = product_certificate(certs)
    A, B = _product_reference(certs)
    b = max(c.n for c in certs)
    assert (prod.n, prod.m) == (b, b + 1)
    assert _same_entries(prod.ring, prod.A, A) and _same_entries(prod.ring, prod.B, B)


_SUPPORT_RINGS = [
    (Z, st.integers(-3, 3)),
    (IntegerModRing(5), st.integers(0, 4)),
    (_L2, _leavitt_elements(_L2)),
    (_L2.opposite(), _leavitt_elements(_L2)),
]


def test_support_rows_keeps_the_nonzero_entries_in_column_order():
    M = RingMatrix.from_rows(Z, [[0, 2, 0, -1], [0, 0, 0, 0], [5, 0, 0, 0]])
    rows = M.support
    assert rows == [{1: 2, 3: -1}, {}, {0: 5}]
    assert [list(row) for row in rows] == [[1, 3], [], [0]]


@st.composite
def _with_stored_zeros(draw, M):
    """Copies of the support rows of M, with an explicit zero stored at some
    of the positions where M is zero."""
    rows = [dict(row) for row in M.support]
    zeros = [(i, j) for i in range(M.rows) for j in range(M.cols)
             if j not in rows[i]]
    for i, j in draw(st.lists(st.sampled_from(zeros), unique=True) if zeros
                     else st.just([])):
        rows[i][j] = M.ring.zero()
    return rows


@st.composite
def _candidate(draw, ring, elements, P):
    """A matrix of P's shape: P itself, P with one entry redrawn (possibly
    to zero, possibly to the same value), or a fresh draw."""
    entry = st.one_of(st.just(ring.zero()), elements)
    kind = draw(st.sampled_from(["same", "one-entry", "fresh"]))
    entries = list(P.entries)
    if kind == "one-entry":
        entries[draw(st.integers(0, len(entries) - 1))] = draw(entry)
    elif kind == "fresh":
        entries = draw(st.lists(entry, min_size=len(entries), max_size=len(entries)))
    return RingMatrix(ring, P.rows, P.cols, entries)


@pytest.mark.parametrize("ring,elements", _SUPPORT_RINGS,
                         ids=[r.name for r, _ in _SUPPORT_RINGS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_support_mul_and_eq_agree_with_mat_mul(ring, elements, data):
    """Over rectangular shapes, zero rows, zero columns and stored zeros,
    the support-form product has the entries of the dense triple loop
    (mat_mul's reference), and first_difference finds none exactly when
    RingMatrix.eq holds."""
    A, B = data.draw(_mat_mul_pair(ring, elements))
    P, Q = data.draw(_with_stored_zeros(A)), data.draw(_with_stored_zeros(B))
    dense = _mat_mul_reference(A, B)
    got = support_mul(ring, P, Q)
    assert len(got) == A.rows
    assert all(0 <= j < B.cols for row in got for j in row)
    assert RingMatrix.from_support_rows(ring, B.cols, got).eq(dense)
    C = data.draw(_candidate(ring, elements, dense))
    want = dense.eq(C)
    assert (first_difference(ring, got, data.draw(_with_stored_zeros(C))) is None) == want
    assert (first_difference(ring, data.draw(_with_stored_zeros(C)), got) is None) == want


def test_support_eq_refuses_a_row_count_mismatch():
    with pytest.raises(ValueError, match="row count mismatch"):
        first_difference(Z, [{}], [{}, {}])


def test_support_eq_reads_rows_that_are_not_equal_dicts_with_ring_eq():
    """Rows that compare == are skipped; any other pair goes through R.eq,
    so residues 8 and 1 mod 7 agree although the dicts differ."""
    Z7 = IntegerModRing(7)
    assert [{0: 8}] != [{0: 1}]
    assert first_difference(Z7, [{0: 8}], [{0: 1}]) is None
    assert first_difference(Z7, [{0: 8}], [{0: 2}]) == (0, 0)


def test_first_difference_after_shared_rows_is_row_major():
    Z7 = IntegerModRing(7)
    shared = {0: 1, 2: 3}
    P = [shared, shared, {0: 8, 1: 2, 3: 5}, {0: 1}]
    Q = [shared, shared, {0: 1, 1: 2, 2: 0, 3: 4}, {0: 2}]
    assert first_difference(Z7, P, Q) == (2, 3)
    assert first_difference(Z7, Q, P) == (2, 3)
    assert first_difference(Z7, P[:2], Q[:2]) is None


def test_verify_certificate_after_identity_rows_keeps_the_failing_position():
    """AB's leading rows are identity rows ({0: 8} reads as 1 mod 7), and
    the first wrong entry is (3, 2)."""
    Z7 = IntegerModRing(7)
    A = RingMatrix.from_rows(Z7, [[8, 0, 0], [0, 1, 0], [0, 5, 1]])
    cert = RankCertificate(Z7, 3, 3, A, RingMatrix.identity(Z7, 3))
    assert verify_certificate(cert) == Invalid(position=(3, 2))
    assert _verify_reference(cert) == (False, None, (3, 2))


@pytest.mark.parametrize("index", [(0, 3), (1, 3), (0, -1), (1, -1)])
def test_from_support_rejects_an_index_outside_the_shape(index):
    """from_support_rows refuses a column outside the shape, zero or not;
    its rows are the list it is given."""
    i, j = index
    for x in (1, 0):
        rows = [{}, {}]
        rows[i] = {0: 1, j: x}
        with pytest.raises(ValueError, match=f"row {i} has a column outside a 2x3 matrix"):
            RingMatrix.from_support_rows(Z, 3, rows)


@pytest.mark.parametrize("index", [(2, 0), (0, 3), (-1, 0), (0, -1)])
def test_getitem_rejects_an_index_outside_the_shape(index):
    with pytest.raises(IndexError, match="outside a 2x3 matrix"):
        RingMatrix.zero(Z, 2, 3)[index]


@pytest.mark.parametrize("rows", [[], [[1, 2], [3]]], ids=["empty", "ragged"])
def test_from_rows_rejects_no_rows_and_ragged_rows(rows):
    with pytest.raises(ValueError, match="no rows, or ragged rows"):
        RingMatrix.from_rows(Z, rows)


@st.composite
def _shape_and_support(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return rows, cols, draw(st.dictionaries(cells, st.integers(-3, 3)))


@settings(max_examples=60, deadline=None)
@given(_shape_and_support())
def test_from_support_agrees_with_from_rows(shape):
    """from_support_rows and from_rows store the same rows, with no zero
    (the support may hold zeros), and the dense view is the input."""
    rows, cols, support = shape
    dense = [[support.get((i, j), 0) for j in range(cols)] for i in range(rows)]
    M = RingMatrix.from_support_rows(Z, cols, [
        {j: x for (i2, j), x in support.items() if i2 == i} for i in range(rows)])
    assert (M.rows, M.cols) == (rows, cols)
    assert M.support == RingMatrix.from_rows(Z, dense).support
    assert all(x != 0 for row in M.support for x in row.values())
    assert M.entries == [x for row in dense for x in row]


def _sparse_rings():
    """(ring, generators) for every SparseRing kind, with bases that have
    zero divisors where the ring allows them, so that sums and products
    cancel."""
    Z4 = IntegerModRing(4)
    F2 = FreeGroup(2)
    T = TranslationRing(F2, whole_group(F2), Z4)
    a, b = F2.generators()
    omega = {(g, h): (-1 if g + h >= 4 else 1)
             for g in range(4) for h in range(4)}
    out = []
    for L in (LeavittRing(2), LeavittRing(3, Z4)):
        out.append((L, [L.gen(i) for i in range(1, L.n + 1)]
                    + [L.gen_star(i) for i in range(1, L.n + 1)]))
    for W in (WeylRing([1], [1]), WeylRing([1, -1], [1, 0])):
        out.append((W, [W.x(i) for i in range(1, W.n + 1)] + [W.y()]))
    RG = group_ring(Cyclic(4), Z4)
    tw = CrossedProductRing(CrossedSystem(Cyclic(4), Z, omega=omega, omega_inv=dict(omega)))
    for C in (RG, tw):
        out.append((C, [C.term(C.base.one(), g) for g in range(4)]))
    one = T.base.one()
    out.append((T, [T.term(a, one), T.term(F2.inv(b), one), T.scalar(T.fn(0, {a: 2})),
                    T.scalar(T.fn(2, {(): 1}))]))
    return out


_SPARSE = _sparse_rings()


@pytest.mark.parametrize("ring,gens", _SPARSE, ids=[r.name for r, _ in _SPARSE])
def test_sparse_ring_results_are_canonical(ring, gens):
    """add, neg and mul never store a zero coefficient, and Leavitt results
    have no monomial with alpha and beta both ending in e_n: the
    structural SparseRing.eq relies on both."""
    rng = random.Random(7)

    def rand():
        out = ring.zero()
        for _ in range(rng.randint(1, 3)):
            term = ring.from_int(rng.choice([-2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, 3)):
                term = ring.mul(term, rng.choice(gens))
            out = ring.add(out, term)
        return out

    def check(x):
        assert all(not ring.base.is_zero(c) for c in x.values())
        if isinstance(ring, LeavittRing):
            assert not any(al and be and al[-1] == be[-1] == ring.n
                           for al, be in x)

    for _ in range(60):
        u, v = rand(), rand()
        for x in (ring.add(u, v), ring.add(u, ring.neg(u)), ring.neg(u),
                  ring.mul(u, v), ring.mul(ring.from_int(2), ring.from_int(2))):
            check(x)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
@pytest.mark.parametrize("ring,gens", _SPARSE, ids=[r.name for r, _ in _SPARSE])
def test_sparse_eq_is_keywise_base_eq(ring, gens, rnd):
    """SparseRing.eq agrees with equal key sets and base.eq on every
    coefficient, on equal pairs (the same dict, a copy, and a value rebuilt
    from other objects), same-key pairs and different-key pairs."""

    def rand():
        out = ring.zero()
        for _ in range(rnd.randint(1, 3)):
            term = ring.from_int(rnd.choice([-2, -1, 1, 2, 3]))
            for _ in range(rnd.randint(0, 3)):
                term = ring.mul(term, rnd.choice(gens))
            out = ring.add(out, term)
        return out

    u, v = rand(), rand()
    rebuilt = ring.add(ring.add(u, v), ring.neg(v))
    for a, b in [(u, u), (u, dict(u)), (u, rebuilt), (u, ring.neg(u)),
                 (u, ring.mul(ring.from_int(3), u)), (u, v), (u, ring.zero())]:
        want = (a.keys() == b.keys()
                and all(ring.base.eq(a[k], b[k]) for k in a))
        assert ring.eq(a, b) == want
        assert ring.eq(b, a) == want
    assert ring.eq(u, rebuilt)


def _identity_cases():
    """Zero-argument builders of distinct groups and rings; each call builds
    its object from scratch."""
    return [
        lambda: FreeGroup(2), lambda: FreeGroup(3), lambda: FreeAbelian(1), lambda: FreeAbelian(2),
        lambda: BaumslagSolitar(2), lambda: BaumslagSolitar(3),
        lambda: Cyclic(4), lambda: DirectProduct([Cyclic(2), Cyclic(2)]),
        IntegerRing, RationalRing, lambda: IntegerModRing(4),
        lambda: IntegerModRing(5), lambda: ProductRing([Z, IntegerModRing(3)]),
        lambda: LeavittRing(2).opposite(), lambda: FunctionRing(Z),
        lambda: MatrixRing(IntegerRing(), 2), lambda: MatrixRing(IntegerRing(), 3),
        lambda: LeavittRing(2), lambda: LeavittRing(2, IntegerModRing(4)),
        lambda: WeylRing([1], [1]), lambda: WeylRing([1], [2]),
        lambda: TranslationRing(FreeGroup(2), whole_group(FreeGroup(2)), Z),
        lambda: RightTranslationRing(FreeGroup(2), whole_group(FreeGroup(2)), Z),
        lambda: group_ring(Cyclic(4), IntegerRing()),
    ]


def test_identity_is_class_and_key():
    """Every group and ring equals its twin built from scratch, with an
    equal hash, and differs from every other entry: left and right
    translation rings over the same data included."""
    cases = _identity_cases()
    objs = [build() for build in cases]
    twins = [build() for build in cases]
    for i, (x, twin) in enumerate(zip(objs, twins)):
        assert x is not twin and x == twin and hash(x) == hash(twin), x.name
        for j, y in enumerate(objs):
            if j != i:
                assert x != y, (x.name, y.name)


def test_twisted_rings_compare_by_system():
    """A twisted ring carries its system's tables, so rings from separately
    built systems differ even when the tables agree."""
    def build():
        omega = {(g, h): (-1 if g + h >= 4 else 1)
                 for g in range(4) for h in range(4)}
        return CrossedProductRing(CrossedSystem(Cyclic(4), Z, omega=omega,
                                                omega_inv=dict(omega)))

    a, b = build(), build()
    assert a == a and a != b
    assert a != group_ring(Cyclic(4), Z)
    assert CrossedProductRing(a.cs) == a

import random

import pytest
from hypothesis import given, settings, strategies as st

from gradedrings import special_algebras
from gradedrings.rings import IntegerModRing, RankCertificate, verify_certificate
from gradedrings.special_algebras import (LeavittRing, WeylRing,
                                          leavitt_matrix_units,
                                          leavitt_rank_certificate,
                                          weyl_component_basis,
                                          weyl_coordinates, weyl_phi0,
                                          weyl_phi0_multiplicative)


# Leavitt ----------------------------------------------------------------------


def test_leavitt_defining_relations():
    L = LeavittRing(2)
    for i in (1, 2):
        for j in (1, 2):
            want = L.one() if i == j else L.zero()
            assert L.eq(L.mul(L.gen_star(i), L.gen(j)), want)
    acc = L.zero()
    for i in (1, 2):
        acc = L.add(acc, L.mul(L.gen(i), L.gen_star(i)))
    assert L.eq(acc, L.one())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_leavitt_certificate(n):
    cert = leavitt_rank_certificate(n)
    assert (cert.n, cert.m) == (1, n)
    # BA = 1: (B, A) is an (n, 1) certificate
    assert verify_certificate(RankCertificate(cert.ring, n, 1, cert.B, cert.A))


def test_leavitt_normal_form_idempotent():
    L = LeavittRing(2)
    # e2 e2' = 1 - e1 e1' after rewriting
    x = L.monomial((2,), (2,))
    y = L.add(L.one(), L.neg(L.monomial((1,), (1,))))
    assert L.eq(x, y)


def test_leavitt_over_z5():
    L = LeavittRing(2, IntegerModRing(5))
    cert = leavitt_rank_certificate(2, IntegerModRing(5))
    assert verify_certificate(RankCertificate(L, 2, 1, cert.B, cert.A))
    assert L.eq(L.from_int(7), L.from_int(2))


word = st.lists(st.sampled_from([1, 2]), max_size=3).map(tuple)


@given(word, word, word, word)
def test_leavitt_degree_additive(a1, b1, a2, b2):
    L = LeavittRing(2)
    x = L.monomial(a1, b1)
    y = L.monomial(a2, b2)
    d = (len(a1) - len(b1)) + (len(a2) - len(b2))
    assert L.is_homogeneous(L.mul(x, y), d)


def test_leavitt_parser_round_trip():
    L = LeavittRing(2)
    for s in ["e1", "e2'", "e1 e2'", "2 e1 e1' + -3", "0"]:
        x = L.element_from_str(s)
        assert L.eq(L.element_from_str(L.element_to_str(x)), x)


@pytest.mark.parametrize("n, l", [(2, 1), (2, 2), (3, 1)])
def test_matrix_units(n, l):
    eps, rep = leavitt_matrix_units(n, l)
    assert rep.ok, rep.lines()
    assert len(eps) == n ** l


def test_matrix_units_bad_sigma_rejected():
    """sigma must list every word of length l exactly once; anything else is
    an input error, not a failed report."""
    for l, sigma in [(1, [(1,), (1,)]), (1, [(1,), (2, 1)]), (1, [(1,), (3,)]),
                     (1, [(1,)]), (2, [(1, 1), (1, 2), (2, 1), (2,)])]:
        with pytest.raises(ValueError, match="bijection"):
            leavitt_matrix_units(2, l, sigma=sigma)


def test_matrix_units_refuse_a_large_tower_before_listing_words(monkeypatch):
    """n^l above the bound is refused before the n^l words are built."""
    def no_words(n, l):
        raise AssertionError(f"listed the words of length {l}")

    monkeypatch.setattr(special_algebras, "_words", no_words)
    with pytest.raises(ValueError, match="exceeds bound"):
        leavitt_matrix_units(2, 40)


@pytest.mark.parametrize("i, j, k, m", [(1, 2, 2, 3), (2, 4, 1, 1), (4, 4, 4, 4)])
def test_matrix_units_name_a_wrong_product(monkeypatch, i, j, k, m):
    """One wrong unit product, equal or zero in truth, fails the product law
    and is the only failure named."""
    L = LeavittRing(2)
    words = [(1, 1), (1, 2), (2, 1), (2, 2)]
    left = L.monomial(words[i - 1], words[j - 1])
    right = L.monomial(words[k - 1], words[m - 1])
    true_mul = LeavittRing.mul

    def one_wrong(self, a, b):
        got = true_mul(self, a, b)
        return self.add(got, self.one()) if (a, b) == (left, right) else got

    monkeypatch.setattr(LeavittRing, "mul", one_wrong)
    _, rep = leavitt_matrix_units(2, 2)
    assert not rep.product_law_ok
    assert rep.sum_identity_ok and rep.degrees_ok and rep.chain_ok
    assert rep.failures == [f"eps[{i}][{j}] eps[{k}][{m}] wrong"]


@pytest.mark.parametrize("alpha, beta", [((1, 2), (2, 1)), ((2, 1), (1, 1)),
                                         ((2, 2), (1, 2))])
def test_matrix_units_chain_checks_every_pair(monkeypatch, alpha, beta):
    """A wrong level-(l+1) monomial under any pair of length-l words,
    first and last word or not, fails the chain row."""
    true_monomial = LeavittRing.monomial

    def one_wrong(self, a, b, coeff=None):
        if (tuple(a), tuple(b)) == (alpha + (1,), beta + (1,)):
            return self.zero()
        return true_monomial(self, a, b, coeff)

    monkeypatch.setattr(LeavittRing, "monomial", one_wrong)
    _, rep = leavitt_matrix_units(2, 2)
    assert not rep.chain_ok
    assert rep.product_law_ok and rep.sum_identity_ok and rep.degrees_ok
    assert rep.failures == [f"chain: alpha={alpha} beta={beta}: alpha "
                            "beta* != sum_i (alpha e_i)(beta e_i)*"]


def _reference_leavitt_mul(L, a, b):
    """Leavitt product that forms every term pair's coefficient product and
    always normalizes the whole sum."""
    S = L.base
    out = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            c = S.mul(c1, c2)
            if len(b1) <= len(a2):
                if a2[:len(b1)] == b1:
                    key = (a1 + a2[len(b1):], b2)
                    out[key] = S.add(out.get(key, S.zero()), c)
            elif b1[:len(a2)] == a2:
                key = (a1, b2 + b1[len(a2):])
                out[key] = S.add(out.get(key, S.zero()), c)
    return L.normalize(out)


_BASES = {"Z": (None, st.integers(-3, 3)),
          "Z/4": (IntegerModRing(4), st.integers(0, 3)),
          "Z/5": (IntegerModRing(5), st.integers(0, 4))}


@st.composite
def _leavitt_pair(draw):
    """A Leavitt ring over Z, Z/4 or Z/5 and two sums of one to three
    monomials whose words have length at most 3, many ending in e_n."""
    base, coeffs = _BASES[draw(st.sampled_from(sorted(_BASES)))]
    L = LeavittRing(draw(st.sampled_from([2, 3])), base)
    letters = st.integers(1, L.n)
    words = st.one_of(st.lists(letters, max_size=3).map(tuple),
                      st.lists(letters, max_size=2).map(lambda w: (*w, L.n)))

    def element():
        out = L.zero()
        for _ in range(draw(st.integers(1, 3))):
            c = L.base.from_int(draw(coeffs))
            out = L.add(out, L.monomial(draw(words), draw(words), c))
        return out

    return L, element(), element()


@settings(max_examples=300, deadline=None)
@given(_leavitt_pair())
def test_leavitt_mul_matches_the_reference_product(case):
    L, a, b = case
    assert L.mul(a, b) == _reference_leavitt_mul(L, a, b)


# generalized Weyl -------------------------------------------------------------


def test_weyl_defining_relation():
    """y x_i = a_i x_i y + b_i."""
    W = WeylRing([1, 1], [1, 0])
    for i, b in [(1, 1), (2, 0)]:
        lhs = W.mul(W.y(), W.x(i))
        rhs = W.add(W.mul(W.x(i), W.y()), W.from_int(b))
        assert W.eq(lhs, rhs)


def test_weyl_associativity_sampled():
    W = WeylRing([1], [1])
    rng = random.Random(7)
    gens = [W.x(1), W.y(), W.from_int(2), W.one()]
    for _ in range(100):
        u, v, w = (_word(W, gens, rng) for _ in range(3))
        assert W.eq(W.mul(W.mul(u, v), w), W.mul(u, W.mul(v, w)))


def _word(W, gens, rng):
    out = W.one()
    for _ in range(rng.randint(0, 6)):
        out = W.mul(out, rng.choice(gens))
    return out


def _y_times_word_recursive(W, w):
    """y x_w by recursion on the first letter: y x_i rest = a_i x_i (y rest)
    + b_i rest (the form WeylRing used before its loop)."""
    if not w:
        return {((), 1): 1}
    i = w[0]
    out = {}
    for (wr, lr), c in _y_times_word_recursive(W, w[1:]).items():
        key = ((i,) + wr, lr)
        out[key] = out.get(key, 0) + W.a[i - 1] * c
    key = (w[1:], 0)
    out[key] = out.get(key, 0) + W.b[i - 1]
    return {key: c for key, c in out.items() if c}


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3), st.data())
def test_weyl_y_times_word_matches_the_recursive_form(a, data):
    b = data.draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a)))
    W = WeylRing(a, b)
    w = tuple(data.draw(st.lists(st.integers(1, len(a)), max_size=10)))
    assert W._y_times_word(w) == _y_times_word_recursive(W, w)
    assert W.eq(W.mul(W.y(), {(w, 0): 1}), _y_times_word_recursive(W, w))


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3), st.data())
def test_weyl_y_word_table_matches_repeated_y_times(a, data):
    """On a ring whose table earlier products filled, y^l x_w equals l
    applications of _y_times to x_w on a fresh ring."""
    b = data.draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a)))
    word = st.lists(st.integers(1, len(a)), max_size=5).map(tuple)
    warm = WeylRing(a, b)
    for _ in range(data.draw(st.integers(0, 3))):
        warm.mul({((), data.draw(st.integers(0, 5))): 1}, {(data.draw(word), 0): 1})
    l, w = data.draw(st.integers(0, 5)), data.draw(word)
    fresh = WeylRing(a, b)
    want = {(w, 0): 1}
    for _ in range(l):
        want = fresh._y_times(want)
    assert warm._y_pow_times_word(l, w) == want


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3), st.data())
def test_weyl_product_does_not_share_the_table(a, data):
    """Mutating a product that mul returned leaves the same product, computed
    again, as it was."""
    b = data.draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a)))
    W = WeylRing(a, b)
    u, v = ({(tuple(data.draw(st.lists(st.integers(1, len(a)), max_size=4))),
              data.draw(st.integers(0, 3))): 1} for _ in range(2))
    first = W.mul(u, v)
    want = dict(first)
    first.clear()
    assert W.mul(u, v) == want


def test_weyl_long_word_does_not_recurse():
    """y x^5000 = 5000 x^4999 + x^5000 y when a = b = 1; with a = -1 the
    5000 constant terms cancel in pairs."""
    word = (1,) * 5000
    W = WeylRing([1], [1])
    assert W.mul(W.y(), {(word, 0): 1}) == {(word[1:], 0): 5000, (word, 1): 1}
    W = WeylRing([-1], [1])
    assert W.mul(W.y(), {(word, 0): 1}) == {(word, 1): 1}


def test_weyl_nontrivial_unit_needs_inverse():
    with pytest.raises(ValueError):
        WeylRing([2], [1])
    W = WeylRing([-1], [1])        # -1 is self-inverse, no a_inv needed
    assert W.eq(W.mul(W.y(), W.x(1)),
                W.add(W.neg(W.mul(W.x(1), W.y())), W.one()))


def test_weyl_phi0():
    W = WeylRing([1], [1])
    r = W.add(W.from_int(3), W.mul(W.x(1), W.y()))
    assert weyl_phi0(W, r) == 3
    with pytest.raises(ValueError):
        weyl_phi0(W, W.x(1))
    pairs = [(r, r), (W.one(), r), (W.mul(W.x(1), W.y()), W.mul(W.x(1), W.y()))]
    assert weyl_phi0_multiplicative(W, pairs)


def test_weyl_component_basis():
    W = WeylRing([1, 1], [1, 0])
    assert weyl_component_basis(W, 2) == [
        ((1, 1), 0), ((1, 2), 0), ((2, 1), 0), ((2, 2), 0)]
    assert weyl_component_basis(W, -3) == [((), 3)]
    assert weyl_component_basis(W, 0) == [((), 0)]   # rank 1: the basis {1}


def test_weyl_coordinates_reconstruct():
    """The coordinate splits carry their own reconstruction asserts; exercise
    them on positive, negative, and zero degrees."""
    W = WeylRing([1], [1])
    x, y = W.x(1), W.y()
    elem = W.add(W.mul(W.mul(x, x), W.mul(x, y)), W.mul(W.from_int(2), W.mul(x, x)))
    coords = weyl_coordinates(W, elem, 2)
    assert len(coords) == 1
    y2 = W.mul(y, y)
    coords = weyl_coordinates(W, W.mul(W.from_int(3), y2), -2)
    assert len(coords) == 1
    assert W.eq(W.mul(y2, coords[0]), W.mul(W.from_int(3), y2))
    [c0] = weyl_coordinates(W, W.mul(x, y), 0)
    assert W.eq(c0, W.mul(x, y))


def test_weyl_parser():
    W = WeylRing([1], [1])
    assert W.eq(W.element_from_str("x y"), W.mul(W.x(1), W.y()))
    assert W.eq(W.element_from_str("y x"),
                W.add(W.mul(W.x(1), W.y()), W.one()))

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gradedrings.cli import main
from gradedrings.groups import (BaumslagSolitar, Cyclic, DirectProduct,
                                FreeAbelian, FreeGroup, group_from_spec,
                                set_product)


def test_free_group_reduction():
    F2 = FreeGroup(2)
    a, b = F2.generators()
    w = F2.mul(a, F2.mul(b, F2.inv(b)))
    assert w == a
    assert F2.mul(F2.inv(a), a) == F2.identity()


letters = st.sampled_from([1, -1, 2, -2])


@given(st.lists(letters, max_size=8), st.lists(letters, max_size=8),
       st.lists(letters, max_size=8))
def test_free_group_associative(u, v, w):
    F2 = FreeGroup(2)
    x = _from_letters(F2, u)
    y = _from_letters(F2, v)
    z = _from_letters(F2, w)
    assert F2.mul(F2.mul(x, y), z) == F2.mul(x, F2.mul(y, z))


def _from_letters(F2, letters_list):
    x = F2.identity()
    for s in letters_list:
        g = (s,)
        x = F2.mul(x, g)
    return x


@pytest.mark.parametrize("r, size", [(0, 1), (1, 5), (2, 17), (3, 53)])
def test_free_group_ball_sizes(r, size):
    assert len(FreeGroup(2).ball(r)) == size


@pytest.mark.parametrize("r, size", [(0, 1), (1, 3), (2, 5)])
def test_z_ball_sizes(r, size):
    assert len(FreeAbelian(1).ball(r)) == size


def test_z2_ball_is_l1_ball():
    Z2 = FreeAbelian(2)
    B2 = Z2.ball(2)
    assert set(B2) == {(i, j) for i in range(-2, 3) for j in range(-2, 3)
                       if abs(i) + abs(j) <= 2}


def test_ball_deterministic_order():
    F2 = FreeGroup(2)
    assert F2.ball(2) == F2.ball(2)
    # ordered by (word length, lexicographic key)
    lengths = [len(w) for w in F2.ball(2)]
    assert lengths == sorted(lengths)


@pytest.mark.parametrize("G", [FreeGroup(2), FreeAbelian(2), BaumslagSolitar(2),
                               DirectProduct([Cyclic(2), Cyclic(3)])])
def test_balls_come_from_one_walk(G):
    balls = list(G.balls(4))
    assert len(balls) == 5
    for r, b in enumerate(balls):
        assert b == G.ball(r)
        assert b == balls[-1][:len(b)]
    assert balls[-1] == G.ball(4)
    with pytest.raises(ValueError):
        G.ball(3, max_radius=2)


def test_bs_relation():
    """b a b^-1 = a^k in BS(1,k)."""
    for k in (2, 3):
        G = BaumslagSolitar(k)
        a, b = G.generators()
        lhs = G.mul(G.mul(b, a), G.inv(b))
        ak = G.identity()
        for _ in range(k):
            ak = G.mul(ak, a)
        assert lhs == ak


def test_bs_normal_form_and_inverse():
    G = BaumslagSolitar(2)
    a, b = G.generators()
    x = G.mul(G.inv(b), a)          # t picks up a fractional part
    assert x == (Fraction(1, 2), -1)
    assert G.mul(x, G.inv(x)) == G.identity()
    G.check_element(x)
    with pytest.raises(ValueError):
        G.check_element((Fraction(1, 3), 0))


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_cyclic_and_product(x, y):
    G = DirectProduct([Cyclic(4), Cyclic(6)])
    g = (x % 4, y % 6)
    assert G.mul(g, G.inv(g)) == G.identity()
    assert len(G.elements()) == 24


def test_nested_finite_product_lists_its_elements():
    G = DirectProduct([Cyclic(2), DirectProduct([Cyclic(2), Cyclic(3)])])
    elems = G.elements()
    assert len(elems) == len(set(elems)) == 12
    assert set(elems) == set(G.ball(3))
    with pytest.raises(ValueError):
        DirectProduct([Cyclic(2), FreeAbelian(1)]).elements()
    with pytest.raises(ValueError):
        FreeGroup(2).elements()


def test_element_str_round_trip():
    for G in (FreeGroup(2), FreeAbelian(2), BaumslagSolitar(2), Cyclic(5),
              DirectProduct([Cyclic(2), FreeAbelian(1)]),
              DirectProduct([Cyclic(2), DirectProduct([Cyclic(2), Cyclic(3)])])):
        for g in G.ball(2):
            assert G.element_from_str(G.element_to_str(g)) == g


def test_group_from_spec():
    assert group_from_spec("F2") == FreeGroup(2)
    assert group_from_spec("Z") == FreeAbelian(1)
    assert group_from_spec("Z^3") == FreeAbelian(3)
    assert group_from_spec("BS(1,2)") == BaumslagSolitar(2)
    assert group_from_spec("C2xC2") == DirectProduct([Cyclic(2), Cyclic(2)])
    with pytest.raises(ValueError):
        group_from_spec("E8")


def test_free_group_rank_is_bounded_by_the_letters():
    """Only a-z name free generators: F26 prints its last generator, and
    F27 is refused when it is made, not when an element is printed."""
    F26 = FreeGroup(26)
    assert F26.element_to_str((26, -1)) == "z A"
    for make in (lambda: FreeGroup(27), lambda: group_from_spec("F27")):
        with pytest.raises(ValueError, match="only the letters a-z"):
            make()


def test_set_operations():
    Z = FreeAbelian(1)
    A = [(0,), (1,)]
    assert set_product(Z, [(2,)], A) == {(2,), (3,)}
    assert set_product(Z, [(-1,), (1,)], A) == {(-1,), (0,), (1,), (2,)}


# the group kernels against references kept here ----------------------------


def _reduce_reference(letters_list):
    """Free reduction of a letter list, one letter at a time."""
    word = []
    for a in letters_list:
        if word and word[-1] == -a:
            word.pop()
        else:
            word.append(a)
    return tuple(word)


def _parse_word_reference(G, s):
    """FreeGroup.element_from_str as it was before the letter tables."""
    s = s.strip()
    if s in ("", "1"):
        return ()
    word = []
    for tok in s.split():
        for ch in tok:
            idx = "abcdefghijklmnopqrstuvwxyz".index(ch.lower()) + 1
            if idx > G.rank:
                raise ValueError(f"generator {ch!r} out of range for {G.name}")
            word.append(-idx if ch.isupper() else idx)
    return _reduce_reference(word)


@st.composite
def free_words(draw, rank, count):
    """count reduced words of F_rank, from random unreduced letter lists."""
    letter = st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)])
    return [_reduce_reference(draw(st.lists(letter, max_size=12)))
            for _ in range(count)]


@given(st.data())
def test_free_group_mul_matches_letter_by_letter_reduction(data):
    rank = data.draw(st.integers(1, 3))
    G = FreeGroup(rank)
    x, y, z = data.draw(free_words(rank, 3))
    for w in (x, y, z):
        G.check_element(w)
    xy = G.mul(x, y)
    assert type(xy) is tuple and xy == _reduce_reference(x + y)
    G.check_element(xy)
    assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))
    tail = _reduce_reference(G.inv(x[len(x) // 2:]) + y)   # cancels half of x
    assert G.mul(x, tail) == _reduce_reference(x + tail)
    assert G.inv(x) == tuple(-a for a in reversed(x))
    assert G.mul(x, G.inv(x)) == G.mul(G.inv(x), x) == G.identity()
    assert G.inv(G.mul(x, y)) == G.mul(G.inv(y), G.inv(x))


@st.composite
def bs_elements(draw, k):
    t = Fraction(draw(st.integers(-40, 40)), k ** draw(st.integers(0, 6)))
    return (t, draw(st.integers(-6, 6)))


@pytest.mark.parametrize("k", [2, 3])
@given(data=st.data())
def test_bs_mul_and_inv_match_the_fraction_power_formula(k, data):
    G = BaumslagSolitar(k)
    x, y = data.draw(bs_elements(k)), data.draw(bs_elements(k))
    (t, m), (s, n) = x, y
    xy, xi = G.mul(x, y), G.inv(x)
    assert xy == (t + Fraction(k) ** m * s, m + n)
    assert xi == (-(Fraction(k) ** (-m)) * t, -m)
    for g in (xy, xi):
        assert type(g[0]) is Fraction and type(g[1]) is int
        G.check_element(g)
    assert G.mul(x, xi) == G.mul(xi, x) == G.identity()


@given(st.data())
def test_print_parse_round_trip(data):
    rank = data.draw(st.integers(1, 3))
    F = FreeGroup(rank)
    for w in data.draw(free_words(rank, 2)):
        assert F.element_from_str(F.element_to_str(w)) == w
    d = data.draw(st.integers(1, 3))
    Zd = FreeAbelian(d)
    v = tuple(data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                 min_size=d, max_size=d)))
    assert Zd.element_from_str(Zd.element_to_str(v)) == v
    for k in (2, 3):
        B = BaumslagSolitar(k)
        g = data.draw(bs_elements(k))
        back = B.element_from_str(B.element_to_str(g))
        assert back == g and type(back[0]) is Fraction


word_text = st.text(alphabet="abcABC1 \t\n\r\x0b\x0c  ", max_size=16)


@pytest.mark.parametrize("rank", [1, 2, 3])
@given(s=word_text)
def test_parser_agrees_with_the_old_parser(rank, s):
    G = FreeGroup(rank)
    try:
        want = _parse_word_reference(G, s)
    except ValueError:
        with pytest.raises(ValueError):
            G.element_from_str(s)
        return
    assert G.element_from_str(s) == want


@pytest.mark.parametrize("text, word", [
    ("a\tA b", (2,)), (" a  b ", (1, 2)), ("aA", ()), ("  1 ", ()),
    ("ab\nBA", ()), ("a b", (1, 2)), ("", ()), ("bA aB", ()),
])
def test_parser_whitespace_and_unreduced_input(text, word):
    G = FreeGroup(2)
    assert G.element_from_str(text) == _parse_word_reference(G, text) == word


MALFORMED_WORDS = ["2", "a-b", "a,b", "c", "a 1", "1 1", "(a)", "a^-1", "1a"]


@pytest.mark.parametrize("text", MALFORMED_WORDS)
def test_malformed_word_names_the_character_and_the_group(text, capsys):
    G = FreeGroup(2)
    with pytest.raises(ValueError) as exc:
        G.element_from_str(text)
    bad = next(ch for ch in text if ch not in "abAB \t")
    assert repr(bad) in str(exc.value) and "F2" in str(exc.value)
    assert main(["paradox", "--group", "F2", "--v", text, "--w", "ball:2",
                 "--k", "ball:1"]) == 2
    assert "F2" in capsys.readouterr().err

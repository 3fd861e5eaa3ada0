from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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


def test_set_operations():
    Z = FreeAbelian(1)
    A = [(0,), (1,)]
    assert set_product(Z, [(2,)], A) == {(2,), (3,)}
    assert set_product(Z, [(-1,), (1,)], A) == {(-1,), (0,), (1,), (2,)}

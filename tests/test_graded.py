import pytest

from gradedrings import graded
from gradedrings.graded import (CrossedProductRing, CrossedSystem,
                                augmentation_is_multiplicative,
                                endo_graded_construction, group_ring,
                                group_ring_augmentation, group_ring_system,
                                psi_embedding_check, skew_system,
                                strong_grading_check, twisted_system,
                                verify_crossed_system)
from gradedrings.groups import Cyclic, DirectProduct
from gradedrings.rings import IntegerModRing, IntegerRing, ProductRing
from gradedrings.special_algebras import LeavittRing, WeylRing

Z = IntegerRing()


def test_group_ring_system_verifies():
    rep = verify_crossed_system(group_ring_system(Cyclic(3), Z))
    assert rep.ok


def test_twisted_c2xc2():
    """The sign twist omega((i,j),(k,l)) = (-1)^(jk) on C2 x C2."""
    G = DirectProduct([Cyclic(2), Cyclic(2)])
    omega = {(g, h): Z.from_int((-1) ** (g[1] * h[0]))
             for g in G.elements() for h in G.elements()}
    cs = twisted_system(G, Z, omega, omega)
    rep = verify_crossed_system(cs)
    assert rep.ok, rep.lines()
    R = CrossedProductRing(cs)
    x = R.term(Z.one(), (0, 1))
    y = R.term(Z.one(), (1, 0))
    assert R.eq(R.mul(x, y), R.term(Z.from_int(-1), (1, 1)))
    assert R.eq(R.mul(y, x), R.term(Z.one(), (1, 1)))


def test_bad_omega_rejected():
    G = Cyclic(2)
    omega = {(g, h): Z.from_int(-1) for g in G.elements() for h in G.elements()}
    cs = CrossedSystem(G, Z, omega=omega, omega_inv=omega)
    rep = verify_crossed_system(cs)
    assert not rep.ok          # fails normalization omega(g, 1) = 1
    with pytest.raises(ValueError):
        CrossedProductRing(cs)


def test_skew_system_with_product_swap():
    P = ProductRing([Z, Z])
    G = Cyclic(2)
    swap = lambda r: (r[1], r[0])
    sigma = {0: (lambda r: r, lambda r: r), 1: (swap, swap)}
    cs = skew_system(G, P, sigma)
    rep = verify_crossed_system(cs, samples=[(1, 0), (0, 1), (2, -3)])
    assert rep.ok, rep.lines()
    R = CrossedProductRing(cs)
    t = R.term((1, 0), 1)
    assert R.eq(R.mul(t, t), R.term((0, 0), 0))   # (1,0)*swap(1,0) = 0


def test_group_ring_element_parser():
    R = group_ring(Cyclic(3), Z)
    x = R.element_from_str("2*[1] + -1*[2]")
    assert R.element_to_str(x) == "2*[1] + -1*[2]"


def test_augmentation():
    R = group_ring(Cyclic(2), Z)
    x = R.add(R.term(Z.one(), 0), R.term(Z.one(), 1))   # 1 + g
    assert group_ring_augmentation(R, R.mul(x, x)) == 4
    pairs = [(x, x), (R.one(), x), (x, R.neg(x))]
    assert augmentation_is_multiplicative(R, pairs)


def test_augmentation_needs_group_ring():
    G = Cyclic(2)
    omega = {(g, h): Z.from_int((-1) ** (g * h)) for g in G.elements()
             for h in G.elements()}
    R = CrossedProductRing(twisted_system(G, Z, omega, omega))
    with pytest.raises(ValueError):
        group_ring_augmentation(R, R.one())


def test_strong_grading_leavitt_degrees():
    L = LeavittRing(2)
    components = {
        0: [L.one()],
        1: [L.gen(1), L.gen(2)],
        -1: [L.gen_star(1), L.gen_star(2)],
    }
    verdicts = strong_grading_check(L, components, lambda d: -d, [0, 1, -1])
    assert all(v.found for v in verdicts)
    by_g = {v.g: v for v in verdicts}
    assert "a[0] b[0]" in by_g[1].witness     # 1 = e1 e1' + e2 e2'


@pytest.mark.parametrize("group, n, l, S", [
    (Cyclic(2), 2, 1, IntegerModRing(5)),
    (Cyclic(3), 2, 2, IntegerRing()),
])
def test_endo_graded(group, n, l, S):
    ring, rep = endo_graded_construction(S, group, n, l)
    assert rep.ok, rep.lines()
    assert ring.p == n * l - len(group.elements()) + 1


def test_endo_graded_needs_enough_rank():
    with pytest.raises(ValueError):
        endo_graded_construction(Z, Cyclic(3), 1, 2)   # nl = k - 1


def test_psi_embedding_window():
    W = WeylRing([1], [1])
    samples = [W.one(), W.x(1), W.y(), W.mul(W.x(1), W.y()), W.from_int(2)]
    rep = psi_embedding_check(W, samples, window=4)
    assert rep.ok, rep.lines()
    assert rep.pairs_checked == len(samples) ** 2


def test_psi_embedding_two_generators():
    W = WeylRing([1, 1], [1, 0])
    samples = [W.one(), W.x(1), W.x(2), W.y()]
    rep = psi_embedding_check(W, samples, window=3, component_window=2)
    assert rep.ok, rep.lines()


def _faulty_blocks(monkeypatch, target, fault):
    """Make graded._block_matrix apply fault(ring, M) to block target."""
    build = graded._block_matrix

    def block_matrix(ring, part, d, x, y):
        M = build(ring, part, d, x, y)
        return fault(ring, M) if (x, y) == target else M

    monkeypatch.setattr(graded, "_block_matrix", block_matrix)


def _bump_corner(ring, M):
    return [[ring.add(v, ring.one()) if (a, b) == (0, 0) else v
             for b, v in enumerate(row)] for a, row in enumerate(M)]


def _negate(ring, M):
    return [[ring.neg(v) for v in row] for row in M]


# flags, failure-message count and pairs checked, measured on the per-entry
# evaluator that the row-wise check replaced
@pytest.mark.parametrize("target, fault, flags, messages", [
    ((1, 0), _bump_corner, (True, False, False), 108),
    ((2, 1), _negate, (True, True, False), 81),
])
def test_psi_check_detects_corrupted_blocks(monkeypatch, target, fault, flags,
                                            messages):
    W = WeylRing([1], [2])
    samples = [W.element_from_str(t)
               for t in ("x1", "y", "x1 y + 2", "x1 x1", "3 y y")]
    _faulty_blocks(monkeypatch, target, fault)
    rep = psi_embedding_check(W, samples, window=4)
    assert (rep.unital_ok, rep.additive_ok, rep.multiplicative_ok) == flags
    assert len(rep.failures) == messages
    assert rep.pairs_checked == 25
    assert not rep.ok

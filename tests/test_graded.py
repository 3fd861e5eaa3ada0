import pytest

from gradedrings import graded, rings
from gradedrings.graded import (CrossedProductRing, CrossedSystem,
                                endo_graded_construction, group_ring,
                                group_ring_augmentation, psi_embedding_check,
                                strong_grading_check, twisted_system,
                                verify_crossed_system)
from gradedrings.groups import Cyclic, DirectProduct
from gradedrings.rings import IntegerModRing, IntegerRing, ProductRing, RingMatrix
from gradedrings.special_algebras import LeavittRing, WeylRing

Z = IntegerRing()


def test_group_ring_system_verifies():
    rep = verify_crossed_system(CrossedSystem(Cyclic(3), Z))
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
    cs = CrossedSystem(G, P, sigma=sigma)
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
    for a, b in [(x, x), (R.one(), x), (x, R.neg(x))]:
        assert group_ring_augmentation(R, R.mul(a, b)) == Z.mul(
            group_ring_augmentation(R, a), group_ring_augmentation(R, b))


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
    (Cyclic(4), 3, 2, IntegerRing()),
])
def test_endo_graded(group, n, l, S):
    ring, rep = endo_graded_construction(S, group, n, l)
    assert rep.ok, rep.lines()
    assert ring.p == n * l - len(group.elements()) + 1


class _WrongInverseC4(Cyclic):
    """C(4) whose inv sends 2 to 1 and 3 to 2: still a bijection, so the
    components still partition the matrix units, but they are labelled
    by the wrong elements."""

    def inv(self, g):
        return {2: 1, 3: 2}.get(g, super().inv(g))


class _WrongProductC3(Cyclic):
    """C(3) whose product of 1 and 1 is 0 instead of 2."""

    def mul(self, g, h):
        return 0 if (g, h) == (1, 1) else super().mul(g, h)


class _TransposedUnits(RingMatrix):
    """Builds every matrix with its support transposed, so each matrix unit
    has its 1 at (j, i) instead of (i, j)."""

    @classmethod
    def from_support_rows(cls, ring, cols, rows):
        return RingMatrix.from_support_rows(ring, cols, rows).transpose()


def test_endo_graded_closure_detects_a_wrong_group():
    """Closure is decided from the labels: the wrong inverse and the wrong
    product both leave a product of units outside T_gh.  The dense closure
    loop that the label check replaced gave the same 82 messages for the
    wrong inverse and raised KeyError on the wrong product."""
    _, rep = endo_graded_construction(Z, _WrongInverseC4(4), 3, 2)
    assert (rep.partition_ok, rep.closure_ok) == (True, False)
    assert len(rep.failures) == 82
    assert all(" units left T_" in f for f in rep.failures)
    _, rep = endo_graded_construction(Z, _WrongProductC3(3), 2, 2)
    assert not rep.closure_ok and not rep.ok
    assert any(" units left T_" in f for f in rep.failures)


@pytest.mark.parametrize("attr, fault, message", [
    ("RingMatrix", _TransposedUnits, " is not that unit"),
    ("mat_mul", lambda A, B: rings.mat_mul(B, A), " is not the unit their labels name"),
], ids=["transposed-units", "reversed-products"])
def test_endo_graded_closure_detects_misplaced_units(monkeypatch, attr, fault,
                                                     message):
    """Each component matrix is read at its label's position, and one dense
    product per pair (g, h) is checked against the unit its labels name."""
    monkeypatch.setattr(graded, attr, fault)
    _, rep = endo_graded_construction(Z, Cyclic(3), 2, 2)
    assert not rep.closure_ok
    assert any(message in f for f in rep.failures)


@pytest.mark.parametrize("group, n, l", [
    (Cyclic(2), 2, 1), (Cyclic(2), 1, 2), (Cyclic(3), 3, 1), (Cyclic(3), 2, 2),
    (Cyclic(4), 2, 2), (Cyclic(4), 3, 2), (Cyclic(3), 3, 3),
    (DirectProduct([Cyclic(2), Cyclic(2)]), 2, 2),
])
def test_endo_graded_strong_verdicts_match_the_dense_search(group, n, l):
    """The strong-grading search runs on unit labels; the same generic
    search over the dense matrix units is the reference."""
    S = IntegerModRing(5) if n * l < 6 else Z
    ring, rep = endo_graded_construction(S, group, n, l)
    dense = strong_grading_check(ring.matrix_ring, ring.components, group.inv,
                                 group.elements())
    assert ([(v.g, v.found, v.witness, v.terms) for v in rep.strong]
            == [(v.g, v.found, v.witness, v.terms) for v in dense])
    assert all(v.found for v in rep.strong)


@pytest.mark.parametrize("group, n, l", [(Cyclic(3), 2, 2), (Cyclic(4), 3, 2)])
def test_endo_graded_strong_rows_fail_on_a_wrong_product(monkeypatch, group, n, l):
    """Every label witness is summed from the matrices with mat_mul; when
    mat_mul is wrong, no strong row passes."""
    monkeypatch.setattr(graded, "mat_mul",
                        lambda A, B: RingMatrix.zero(A.ring, A.rows, B.cols))
    _, rep = endo_graded_construction(Z, group, n, l)
    assert len(rep.strong) == len(group.elements())
    assert not any(v.found for v in rep.strong)
    assert not rep.ok
    strong_rows = [s for s in rep.lines() if s.startswith("strong grading at")]
    assert len(strong_rows) == len(rep.strong)
    assert all(s.endswith(": FAIL") for s in strong_rows)
    assert sum("does not sum to the identity" in f for f in rep.failures) == len(rep.strong)


def test_endo_graded_needs_enough_rank():
    with pytest.raises(ValueError):
        endo_graded_construction(Z, Cyclic(3), 1, 2)   # nl = k - 1


def test_psi_embedding_window():
    W = WeylRing([1], [1])
    samples = [W.one(), W.x(1), W.y(), W.mul(W.x(1), W.y()), W.from_int(2)]
    rep = psi_embedding_check(W, samples, window=4)
    assert rep.ok, rep.lines()
    assert rep.pairs_checked == len(samples) ** 2


@pytest.mark.parametrize("window, component_window", [(-1, None), (2, -3)])
def test_psi_embedding_refuses_a_negative_window(window, component_window):
    W = WeylRing([1], [1])
    with pytest.raises(ValueError, match="must be non-negative"):
        psi_embedding_check(W, [W.x(1)], window=window,
                            component_window=component_window)


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

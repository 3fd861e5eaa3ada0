import pytest

from gradedrings import graded, rings
from gradedrings.graded import (CrossedProductRing, CrossedSystem,
                                endo_graded_construction, group_ring,
                                group_ring_augmentation, psi_embedding_check,
                                strong_grading_check, verify_crossed_system)
from gradedrings.groups import Cyclic, DirectProduct
from gradedrings.rings import (IntegerModRing, IntegerRing, MatrixRing, ProductRing,
                               RingMatrix)
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
    cs = CrossedSystem(G, Z, omega=omega, omega_inv=omega)
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
    sigma = {0: lambda r: r, 1: swap}
    cs = CrossedSystem(G, P, sigma=sigma)
    rep = verify_crossed_system(cs, samples=[(1, 0), (0, 1), (2, -3)])
    assert rep.ok, rep.lines()
    R = CrossedProductRing(cs)
    t = R.term((1, 0), 1)
    assert R.eq(R.mul(t, t), R.term((0, 0), 0))   # (1,0)*swap(1,0) = 0


def test_sigma_that_is_no_ring_map_is_refused():
    """sigma_1 swaps 2 and 3 and fixes every other integer: a bijection of Z
    that meets conditions (i)-(iii), under which the crossed product is not
    associative: with x = 1*[1] and y = 2*[0], (xy)y = 9*[1] but
    x(yy) = 4*[1]."""
    sw = lambda r: {2: 3, 3: 2}.get(r, r)
    cs = CrossedSystem(Cyclic(2), Z, sigma={0: lambda r: r, 1: sw})
    rep = verify_crossed_system(cs)
    assert not rep.ok and rep.sigma_hom_ok is False
    assert (rep.cond1_ok, rep.cond2_ok, rep.cond3_ok, rep.units_ok) == (True,) * 4
    assert "sigma_g unital, additive and multiplicative (sampled): FAIL" in rep.lines()
    assert "sigma_1 is not a ring homomorphism at (1, 1)" in rep.failures
    assert not any(f.startswith("sigma_0") for f in rep.failures)
    with pytest.raises(ValueError, match="sigma_1 is not a ring homomorphism"):
        CrossedProductRing(cs)


def test_sigma_that_moves_one_is_refused():
    neg = lambda r: -r
    cs = CrossedSystem(Cyclic(2), Z, sigma={0: lambda r: r, 1: neg})
    rep = verify_crossed_system(cs)
    assert rep.sigma_hom_ok is False and "sigma_1 does not fix 1" in rep.failures


def test_sigma_row_only_for_skew_systems():
    assert verify_crossed_system(CrossedSystem(Cyclic(2), Z)).sigma_hom_ok is None
    cs = CrossedSystem(Cyclic(2), Z, sigma={g: lambda r: r for g in (0, 1)})
    rep = verify_crossed_system(cs)
    assert rep.ok and rep.sigma_hom_ok is True and rep.central_ok is None


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
    R = CrossedProductRing(CrossedSystem(G, Z, omega=omega, omega_inv=omega))
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
    assert [(v.g, v.found, v.witness, v.terms) for v in verdicts] == [
        (0, True, "1 = a[0] b[0]", [(0, 0)]),                     # 1 = 1 1
        (1, True, "1 = a[0] b[0] + a[1] b[1]", [(0, 0), (1, 1)]),  # e1 e1* + e2 e2*
        (-1, True, "1 = a[0] b[0]", [(0, 0)]),                    # e1* e1
    ]


def test_strong_grading_group_ring():
    """In ZG each g g^-1 = 1 is an idempotent, so the greedy finds every g."""
    G = Cyclic(3)
    R = group_ring(G, Z)
    components = {g: [R.term(Z.one(), g)] for g in G.elements()}
    verdicts = strong_grading_check(R, components, G.inv, G.elements())
    assert [(v.g, v.found, v.witness, v.terms) for v in verdicts] == [
        (g, True, "1 = a[0] b[0]", [(0, 0)]) for g in G.elements()]


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
    wrong inverse and raised KeyError on the wrong product.  The wrong
    inverse also leaves no strong-grading witness at 1 and 3, and each of
    those FAIL rows has its own line."""
    _, rep = endo_graded_construction(Z, _WrongInverseC4(4), 3, 2)
    assert (rep.partition_ok, rep.closure_ok) == (True, False)
    closure = [f for f in rep.failures if " units left T_" in f]
    assert len(closure) == 82
    assert [f for f in rep.failures if f not in closure] == [
        "no strong-grading witness found at 1", "no strong-grading witness found at 3"]
    assert [v.g for v in rep.strong if not v.found] == [1, 3]
    _, rep = endo_graded_construction(Z, _WrongProductC3(3), 2, 2)
    assert not rep.closure_ok and not rep.ok
    assert any(" units left T_" in f for f in rep.failures)


@pytest.mark.parametrize("attr, fault, message", [
    ("RingMatrix", _TransposedUnits, " is not the unit their labels name"),
    ("mat_mul", lambda A, B: rings.mat_mul(B, A), " is not the unit their labels name"),
], ids=["transposed-units", "reversed-products"])
def test_endo_graded_closure_detects_misplaced_units(monkeypatch, attr, fault,
                                                     message):
    """One dense product per pair (g, h), of the units two labels name, must
    be the unit their product's label names."""
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
    search over the dense matrix units is the reference.  Each witness sums
    N = n*l products e_ab e_ba, one for each row label a."""
    S = IntegerModRing(5) if n * l < 6 else Z
    ring, rep = endo_graded_construction(S, group, n, l)
    N, pos = n * l, {lab: t for t, lab in enumerate(ring.index)}
    units = {g: [RingMatrix.from_support_rows(
                 S, N, [{pos[b]: S.one()} if t == pos[a] else {} for t in range(N)])
                 for a, b in labs]
             for g, labs in ring.unit_positions.items()}
    dense = strong_grading_check(MatrixRing(S, N), units, group.inv, group.elements())
    assert ([(v.g, v.found, v.witness, v.terms) for v in rep.strong]
            == [(v.g, v.found, v.witness, v.terms) for v in dense])
    assert all(v.found for v in rep.strong)
    for v in rep.strong:
        rows = {ring.unit_positions[v.g][ia][0] for ia, _ in v.terms}
        assert len(v.terms) == len(rows) == n * l


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


def test_empty_sample_lists_are_refused():
    """An empty sample list would pass the sampled checks with nothing
    checked; None still means the default samples."""
    W = WeylRing([1], [1])
    with pytest.raises(ValueError, match="samples is empty"):
        psi_embedding_check(W, [])
    cs = CrossedSystem(Cyclic(2), Z)
    with pytest.raises(ValueError, match="samples is empty"):
        verify_crossed_system(cs, samples=[])
    assert verify_crossed_system(cs).ok


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


def test_psi_check_builds_each_sample_image_once(monkeypatch):
    """Each sample's blocks are built once for all the pairs it is in; only
    the sum and product images are per pair."""
    W = WeylRing([1], [2])
    samples = [W.element_from_str(t)
               for t in ("x1", "y", "x1 y + 2", "x1 x1", "3 y y")]
    built = []
    build = graded._block_matrix

    def block_matrix(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(graded, "_block_matrix", block_matrix)
    rep = psi_embedding_check(W, samples, window=4)
    assert rep.ok, rep.lines()
    assert (rep.pairs_checked, len(built)) == (25, 552)


def _bump_corner(ring, M):
    return [[ring.add(v, ring.one()) if (a, b) == (0, 0) else v
             for b, v in enumerate(row)] for a, row in enumerate(M)]


def _negate(ring, M):
    return [[ring.neg(v) for v in row] for row in M]


# flags, failure-message count and pairs checked: the per-entry evaluator
# that the row-wise check replaced gave 108 and 81 multiplicativity lines;
# the first fault adds one additivity line per failing row and pair (9)
@pytest.mark.parametrize("target, fault, flags, messages", [
    ((1, 0), _bump_corner, (True, False, False), 117),
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
    assert len(rep.failures) == len(set(rep.failures)) == messages
    assert rep.pairs_checked == 25
    assert not rep.ok

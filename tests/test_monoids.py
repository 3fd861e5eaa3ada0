import functools

import pytest
from hypothesis import given, settings, strategies as st

from gradedrings import checks, monoids
from gradedrings.monoids import (MnklParams, cnk_generating_number, cnk_leq,
                                 cnk_leq_canonical, cnk_normalize, cnk_reach_oracle,
                                 mnkl_homomorphisms_well_defined, mnkl_leq,
                                 mnkl_phi, mnkl_psi, mnkl_vector)
from gradedrings.report import VerificationError

small = st.integers(1, 6)


def cnk_normalize_oracle(n: int, k: int, lam: int, bound: int = 200) -> int:
    """Independent check: breadth-first closure of (n+k)a <-> na up to bound,
    returning the smallest congruent coefficient."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for v in frontier:
            for w in (v + k, v - k):
                # the rewrite (n+k)a <-> na fires iff min(v, w) >= n
                if min(v, w) >= n and w <= bound and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return min(seen)


@given(small, small, st.integers(0, 60))
def test_cnk_normalize_matches_bfs_oracle(n, k, lam):
    assert cnk_normalize(n, k, lam) == cnk_normalize_oracle(n, k, lam, bound=200)


@functools.lru_cache(maxsize=None)
def _reach(n, k):
    return cnk_reach_oracle(n, k, 40)


@given(small, small, st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=200)
def test_cnk_leq_matches_scan_oracle(n, k, lam, mu):
    """cnk_leq against the breadth-first reach oracle, which never calls
    the closed form cnk_normalize."""
    canon, reach = _reach(n, k)
    assert cnk_leq(n, k, lam, mu) == (canon[mu] in reach[lam])


def test_cnk_reach_oracle_consistent():
    for n, k in [(1, 1), (2, 3), (3, 2)]:
        canon, reach = cnk_reach_oracle(n, k, 30)
        for lam in range(31):
            for mu in range(31):
                assert cnk_leq(n, k, lam, mu) == (canon[mu] in reach[lam])


def test_cnk_reach_oracle_matches_the_per_value_oracle():
    """The class walk labels every value with what a breadth-first walk
    from that value alone finds, for n, k <= 10 up to bound 100."""
    for n in range(1, 11):
        for k in range(1, 11):
            canon, reach = cnk_reach_oracle(n, k, 100)
            hi = 100 + n + 2 * k + 1
            ref = [cnk_normalize_oracle(n, k, v, bound=hi + k) for v in range(hi + 1)]
            assert canon == ref, (n, k)
            assert reach == [{ref[lam + z] for z in range(n + 2 * k + 1)}
                             for lam in range(101)], (n, k)


def test_cnk_leq_is_the_canonical_form_on_normalized_coefficients():
    for n in range(1, 11):
        for k in range(1, 11):
            norm = [cnk_normalize(n, k, v) for v in range(101)]
            for lam in range(101):
                for mu in range(101):
                    assert cnk_leq(n, k, lam, mu) == cnk_leq_canonical(
                        n, norm[lam], norm[mu]), (n, k, lam, mu)


def _per_pair_mismatches():
    """The monoid-gn count as one cnk_leq call per (lam, mu) pair."""
    mismatches = 0
    for n in range(1, 11):
        for k in range(1, 11):
            canon, reach = cnk_reach_oracle(n, k, 100)
            for lam in range(101):
                for mu in range(101):
                    if cnk_leq(n, k, lam, mu) != (canon[mu] in reach[lam]):
                        mismatches += 1
    return mismatches


def _gn_mismatch_line(count):
    return (f"closed form vs closure oracle: {count} mismatches "
            "(lam,mu <= 100, n,k <= 10)")


@pytest.mark.parametrize("faulty, expected", [
    (lambda n, lam, mu: mu > lam or mu >= n, 550),
    (lambda n, lam, mu: mu >= lam or mu > n, 128024),
], ids=["strict", "tail"])
def test_monoid_gn_counts_closed_form_faults_per_pair(monkeypatch, faulty,
                                                      expected):
    """The class-weighted sum in check_monoid_gn counts exactly what the
    per-pair loop counts for a faulty closed form."""
    monkeypatch.setattr(monoids, "cnk_leq_canonical", faulty)
    assert _per_pair_mismatches() == expected
    monkeypatch.setattr(checks, "cnk_leq_canonical", faulty)
    res = checks.check_monoid_gn()
    assert not res.ok
    assert res.lines()[-1] == _gn_mismatch_line(expected)


def test_monoid_gn_catches_a_normal_form_that_never_folds(monkeypatch):
    monkeypatch.setattr(checks, "cnk_normalize", lambda n, k, lam: lam)
    res = checks.check_monoid_gn()
    assert not res.ok
    assert res.lines()[-1] == _gn_mismatch_line(9000)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("k", [1, 2, 5])
def test_generating_number_is_n(n, k):
    assert cnk_generating_number(n, k) == n


def test_cnk_rejects_negative():
    with pytest.raises(ValueError):
        cnk_normalize(2, 1, -1)


@pytest.mark.parametrize("n, k", [(2, 0), (0, 1)])
def test_cnk_needs_positive_parameters(n, k):
    with pytest.raises(ValueError, match="n, k must be positive"):
        cnk_normalize(n, k, 2)


# M(n,k,l) ---------------------------------------------------------------------


def test_vector_builder():
    p = MnklParams(2, 1, 2)
    assert mnkl_vector(p, u=3, x={1: 1}, y={2: 4}) == (3, 1, 0, 0, 4)
    with pytest.raises(ValueError):
        mnkl_vector(p, x={1: -1})


@pytest.mark.parametrize("n, k, l", [(n, k, l) for n in (1, 2, 3)
                                     for k in (1, 2) for l in (1, 2)])
def test_homomorphisms_well_defined(n, k, l):
    assert mnkl_homomorphisms_well_defined(MnklParams(n, k, l))


def test_phi_and_psi_values():
    p = MnklParams(2, 1, 1)
    v = mnkl_vector(p, u=1, x={1: 2}, y={1: 1})
    assert mnkl_phi(p, v) == 2            # 1 + 1 = 2, canonical
    assert mnkl_psi(p, v, 1) == -1 + 2 - 2


def test_yes_with_chain():
    """u <= u + 2 x_1 + y_1 via x_1 + y_1 = u, with a reproducible chain."""
    p = MnklParams(2, 1, 1)
    s = mnkl_vector(p, u=1)
    t = mnkl_vector(p, u=1, x={1: 2}, y={1: 1})
    res = mnkl_leq(p, s, t)
    assert res.verdict == "yes"
    # replay the rewrite chain: every step must be a valid relation firing
    cur = t
    for parent, _, child in res.chain:
        assert parent == cur
        cur = child
    assert all(z >= 0 for z in res.z)


@pytest.mark.parametrize("s, t, closure", [
    # the step from u to x_1 + y_1 is relation 1, not relation 0
    ((0, 1, 0), (1, 0, 0), {(1, 0, 0): None, (0, 1, 1): ((1, 0, 0), "relation 0")}),
    # no relation takes u to 2 x_1 + y_1
    ((0, 1, 0), (1, 0, 0), {(1, 0, 0): None, (0, 2, 1): ((1, 0, 0), "relation 1")}),
    # 3u + 3x_1 -> 2u + 2x_1 fired on 2u + 2x_1, which does not hold 3u + 3x_1
    ((1, 1, 0), (2, 2, 0), {(2, 2, 0): None, (1, 1, 0): ((2, 2, 0), "relation 0")}),
    # a chain whose first step does not start at t
    ((0, 1, 0), (1, 0, 0), {(0, 0, 0): None, (0, 1, 1): ((0, 0, 0), "relation 1")}),
], ids=["wrong-relation", "no-relation", "goes-negative", "wrong-start"])
def test_a_yes_is_replayed_before_it_is_returned(monkeypatch, s, t, closure):
    """mnkl_leq replays the chain from t to s + z step by step; a corrupted
    closure raises VerificationError instead of returning Yes."""
    monkeypatch.setattr(monoids, "mnkl_closure", lambda params, vec, depth: closure)
    with pytest.raises(VerificationError, match="chain step"):
        mnkl_leq(MnklParams(2, 1, 1), s, t)


def _count_closures(monkeypatch) -> list:
    """Record every mnkl_closure call that mnkl_leq makes."""
    calls = []
    closure = monoids.mnkl_closure

    def counted(*args, **kwargs):
        calls.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(monoids, "mnkl_closure", counted)
    return calls


def test_no_via_phi(monkeypatch):
    """A phi refutation is found without building the closure."""
    calls = _count_closures(monkeypatch)
    p = MnklParams(2, 1, 1)
    s = mnkl_vector(p, u=1)
    t = mnkl_vector(p, u=0)
    res = mnkl_leq(p, s, t)
    assert res.verdict == "no"
    assert res.separator == "phi"
    assert calls == []


@pytest.mark.parametrize("lam, mu", [(1, 0), (3, 2), (5, 1)])
def test_no_via_psi(monkeypatch, lam, mu):
    """lam x_j <= mu x_j fails for lam > mu; phi cannot see it, psi_j can,
    without building the closure."""
    calls = _count_closures(monkeypatch)
    p = MnklParams(2, 2, 2)
    for j in (1, 2):
        res = mnkl_leq(p, mnkl_vector(p, x={j: lam}), mnkl_vector(p, x={j: mu}))
        assert res.verdict == "no"
        assert res.separator == f"psi_{j}"
    assert calls == []


def test_unknown_is_inconclusive_not_no():
    """With depth 0 the closure is just {t}, so an inequality that needs one
    rewrite comes back unknown rather than no."""
    p = MnklParams(2, 1, 1)
    s = mnkl_vector(p, u=2)
    t = mnkl_vector(p, u=1, x={1: 1}, y={1: 1})
    res = mnkl_leq(p, s, t, depth=0)
    assert res.verdict == "unknown"
    assert mnkl_leq(p, s, t).verdict == "yes"


def test_soundness_cross_check():
    """Whenever the decision procedure answers no, a brute-force witness scan
    over small z finds nothing; every yes replays through the closure."""
    from gradedrings.monoids import mnkl_closure
    p = MnklParams(1, 1, 1)
    vecs = [(u, x, y) for u in range(3) for x in range(3) for y in range(2)]
    for s in vecs:
        for t in vecs:
            res = mnkl_leq(p, s, t)
            if res.verdict == "yes":
                sz = tuple(a + b for a, b in zip(s, res.z))
                assert t in mnkl_closure(p, sz, 10)
            elif res.verdict == "no":
                assert not _brute_leq(p, s, t)


def _brute_leq(p, s, t, cap=4):
    from gradedrings.monoids import mnkl_closure
    for u in range(cap):
        for x in range(cap):
            for y in range(cap):
                z = (u, x, y)
                sz = tuple(a + b for a, b in zip(s, z))
                if t in mnkl_closure(p, sz, 6):
                    return True
    return False

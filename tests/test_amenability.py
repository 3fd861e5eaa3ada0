import itertools
import json
import math
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gradedrings
from gradedrings import amenability
from gradedrings.amenability import (FolnerFailure, FolnerWitness, Infeasible,
                                     InjectionWitness, bs_X, bs_X0,
                                     bs_example_check,
                                     find_two_to_one_injection, finite_subset,
                                     folner_search, rosenblatt_find,
                                     verify_hall_violation,
                                     verify_injection_witness, whole_group)
from gradedrings.cli import main
from gradedrings.groups import (BaumslagSolitar, Cyclic, DirectProduct,
                                FreeAbelian, FreeGroup, set_product)


def test_folner_witness_in_z():
    Z = FreeAbelian(1)
    w = folner_search(Z, whole_group(Z), Z.ball(1), Fraction(1, 2), 8)
    assert isinstance(w, FolnerWitness)
    assert w.holds()
    assert w.kf_count == len(w.F) + 2    # an interval grows by its two ends


def test_folner_witness_in_z2_small_eps():
    Z2 = FreeAbelian(2)
    w = folner_search(Z2, whole_group(Z2), Z2.ball(1), Fraction(1, 10), 25)
    assert isinstance(w, FolnerWitness)


def test_no_folner_set_in_f2():
    F2 = FreeGroup(2)
    res = folner_search(F2, whole_group(F2), F2.ball(1), Fraction(1), 5)
    assert isinstance(res, FolnerFailure)
    assert res.best_ratio > 2
    assert all(r > 2 for _, _, _, r in res.ratios)


def test_folner_input_validation():
    Z = FreeAbelian(1)
    with pytest.raises(ValueError):
        folner_search(Z, whole_group(Z), [], Fraction(1), 3)
    with pytest.raises(ValueError):
        folner_search(Z, whole_group(Z), Z.ball(1), Fraction(0), 3)
    with pytest.raises(ValueError, match="r_max must be non-negative"):
        folner_search(Z, whole_group(Z), Z.ball(1), Fraction(1), -1)


# ---------------------------------------------------------------------------
# sphere-by-sphere counting against full counts and the Z^d closed form


def _zd_ball_size(d, r):
    """|B_r| in Z^d over the standard generators: sum_i 2^i C(d,i) C(r,i)."""
    return sum(2 ** i * math.comb(d, i) * math.comb(r, i) for i in range(d + 1))


def _ratio_cases():
    Z, Z2, Z3, F2, BS = (FreeAbelian(1), FreeAbelian(2), FreeAbelian(3),
                         FreeGroup(2), BaumslagSolitar(2))
    return [
        pytest.param(Z, whole_group(Z), 8, id="Z"),
        pytest.param(Z2, whole_group(Z2), 8, id="Z^2"),
        pytest.param(Z3, whole_group(Z3), 6, id="Z^3"),
        pytest.param(F2, whole_group(F2), 6, id="F2"),
        pytest.param(BS, bs_X(BS), 7, id="BS(1,2)-AB"),
        pytest.param(BS, bs_X0(BS), 7, id="BS(1,2)-X0"),
    ]


@pytest.mark.parametrize("group, X, r_max", _ratio_cases())
def test_sphere_counts_match_full_counts(group, X, r_max):
    K, eps = group.ball(1), Fraction(1, 20)
    res = folner_search(group, X, K, eps, r_max)
    assert isinstance(res, FolnerFailure)
    full = []
    for r in range(r_max + 1):
        F = group.ball(r, max_radius=r)
        kf = sum(1 for g in set_product(group, K, F) if g in X)
        f = sum(1 for x in F if x in X)
        full.append((r, kf, f, Fraction(kf, f) if f else None))
    assert res.ratios == full


@pytest.mark.parametrize("d, r_max", [(1, 8), (2, 8), (3, 6)])
def test_zd_rows_are_consecutive_ball_sizes(d, r_max):
    G = FreeAbelian(d)
    res = folner_search(G, whole_group(G), G.ball(1), Fraction(1, 20), r_max)
    assert [(kf, f) for _, kf, f, _ in res.ratios] == [
        (_zd_ball_size(d, r + 1), _zd_ball_size(d, r)) for r in range(r_max + 1)]


def test_folner_search_walks_each_radius_once(monkeypatch):
    """With K = B_1 a failing search multiplies each element of B_r by each
    generator once, to walk on to radius r + 1, and multiplies nothing by
    K; a second search on the same group object reuses the walk and makes
    no group product at all."""
    G, r_max = FreeAbelian(2), 20
    K = G.ball(1)
    calls = [0]
    true_mul = FreeAbelian.mul

    def counting_mul(self, x, y):
        calls[0] += 1
        return true_mul(self, x, y)

    monkeypatch.setattr(FreeAbelian, "mul", counting_mul)
    for bound in (len(G.symmetric_generators()) * _zd_ball_size(2, r_max), 0):
        calls[0] = 0
        res = folner_search(G, whole_group(G), K, Fraction(1, 100), r_max)
        assert isinstance(res, FolnerFailure)
        assert calls[0] <= bound


# ---------------------------------------------------------------------------
# K = B_R: the counts read B_{r+R} off the walk, since B_R B_r = B_{r+R}


def _lemma_cases():
    BS2, BS3 = BaumslagSolitar(2), BaumslagSolitar(3)
    groups = [(FreeAbelian(1), 8), (FreeAbelian(3), 4), (FreeGroup(2), 4),
              (FreeGroup(3), 3), (Cyclic(7), 5),
              (DirectProduct([Cyclic(3), FreeGroup(2)]), 3),
              (DirectProduct([FreeAbelian(1), BaumslagSolitar(2)]), 3)]
    cases = [pytest.param(G, whole_group(G), r_max, id=G.name)
             for G, r_max in groups]
    for BS in (BS2, BS3):
        for X in (whole_group(BS), bs_X(BS), bs_X0(BS)):
            cases.append(pytest.param(BS, X, 4, id=f"{BS.name}-{X.name}"))
    return cases


@pytest.mark.parametrize("R", [0, 1, 2])
@pytest.mark.parametrize("group, X, r_max", _lemma_cases())
def test_shifted_counts_match_the_product_counts(group, X, r_max, R):
    K = group.ball(R, max_radius=R)
    assert amenability._ball_radius(group, K) == R
    balls = [group.ball(q, max_radius=q) for q in range(r_max + R + 1)]
    got = list(amenability._shifted_counts(X, R, iter(balls)))
    want = []
    for r in range(r_max + 1):
        F = group.ball(r, max_radius=r)
        want.append((F, sum(1 for g in set_product(group, K, F) if g in X),
                     sum(1 for f in F if f in X)))
    assert got == want


def _non_ball_cases():
    Z, F2 = FreeAbelian(1), FreeGroup(2)
    return [pytest.param(F2, [(), (1,), (2,)], 4, id="F2-e-a-b"),
            pytest.param(F2, [(1,), (-1,), (2,), (-2,)], 4, id="F2-a-A-b-B"),
            pytest.param(Z, [(0,), (1,)], 4, id="Z-0-1")]


@pytest.mark.parametrize("group, K, r_max", _non_ball_cases())
def test_a_k_that_is_not_a_ball_multiplies_by_each_sphere(monkeypatch, group, K,
                                                          r_max):
    assert amenability._ball_radius(group, K) is None

    def no_shift(*args):
        raise AssertionError("a K that is not a ball read the walk shifted")

    monkeypatch.setattr(amenability, "_shifted_counts", no_shift)
    X = whole_group(group)
    res = folner_search(group, X, K, Fraction(1, 100), r_max)
    want = []
    for r in range(r_max + 1):
        F = group.ball(r, max_radius=r)
        kf = len(set_product(group, K, F))
        want.append((r, kf, len(F), Fraction(kf, len(F))))
    assert res.ratios == want


def test_ball_radius_refuses_without_walking_forever():
    """K larger than a finite group, or K without the identity, is not a
    ball; the search for R stops (here in a child process with a timeout)."""
    script = textwrap.dedent("""
        from gradedrings.amenability import _ball_radius
        from gradedrings.groups import Cyclic, FreeGroup
        C3, F2 = Cyclic(3), FreeGroup(2)
        print(_ball_radius(C3, [0, 1, 2, 7]), _ball_radius(C3, [1, 2]),
              _ball_radius(F2, F2.ball(2)[1:]), _ball_radius(C3, [0, 1, 2]))
    """)
    src = str(Path(gradedrings.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "None None None 1\n", "")


def test_z3_witness_radius_follows_the_closed_form():
    G, eps = FreeAbelian(3), Fraction(1, 4)
    r = next(r for r in itertools.count()
             if _zd_ball_size(3, r + 1) < (1 + eps) * _zd_ball_size(3, r))
    w = folner_search(G, whole_group(G), G.ball(1), eps, r + 5)
    assert isinstance(w, FolnerWitness)
    assert w.F == G.ball(r, max_radius=r)
    assert (w.kf_count, w.f_count) == (_zd_ball_size(3, r + 1),
                                       _zd_ball_size(3, r))


def test_injection_witness_in_free_group():
    F2 = FreeGroup(2)
    res = find_two_to_one_injection(F2, F2.ball(2), F2.ball(3), F2.ball(1))
    assert isinstance(res, InjectionWitness)
    ok, msg = verify_injection_witness(F2, res)
    assert ok, msg


def test_injection_infeasible_in_z():
    Z = FreeAbelian(1)
    K = [(-1,), (0,), (1,)]
    V = [(i,) for i in range(6)]
    W = sorted(set_product(Z, K, V), key=Z.element_key)
    res = find_two_to_one_injection(Z, V, W, K)
    assert isinstance(res, Infeasible)
    A = res.violating_set
    assert verify_hall_violation(Z, V, W, K, A)
    assert len(res.neighborhood) < 2 * len(A)


def test_hall_violation_rejects_bogus_set():
    F2 = FreeGroup(2)
    assert not verify_hall_violation(F2, F2.ball(1), F2.ball(2), F2.ball(1),
                                     [F2.identity()])


def test_bs_subsets():
    G = BaumslagSolitar(2)
    X, X0 = bs_X(G), bs_X0(G)
    assert (Fraction(3), 5) in X
    assert (Fraction(1, 2), 0) not in X
    assert (Fraction(4), 0) in X0
    assert (Fraction(3), 0) not in X0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("r", [0, 2, 4])
def test_bs_example_check(k, r):
    rep = bs_example_check(k, r)
    assert rep.ok, rep.lines()


def test_rosenblatt_separating_translate():
    G = BaumslagSolitar(2)
    a, b = G.generators()
    u = (G.identity(),)
    v = (G.identity(), a, G.mul(b, a))
    res = rosenblatt_find(2, u, v)
    assert res.u_count < res.v_count


def test_rosenblatt_requires_smaller_u():
    G = BaumslagSolitar(2)
    with pytest.raises(ValueError):
        rosenblatt_find(2, (G.identity(),), (G.identity(),))


def test_folner_recount_mismatch_raises_under_optimize():
    """The recount that guards a Folner witness is not an assert, so it
    still runs under python -O."""
    script = textwrap.dedent("""
        from fractions import Fraction
        from gradedrings import amenability
        from gradedrings.groups import FreeAbelian
        from gradedrings.report import VerificationError
        assert not __debug__
        amenability._recount = lambda group, X, w: (-1, -1)
        Z = FreeAbelian(1)
        try:
            amenability.folner_search(Z, amenability.whole_group(Z), Z.ball(1),
                                      Fraction(1, 2), 8)
        except VerificationError:
            print("raised")
        else:
            print("returned")
    """)
    src = str(Path(gradedrings.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "raised", proc.stderr


def test_finite_subset_predicate():
    Z = FreeAbelian(1)
    X = finite_subset(Z, [(0,), (2,)])
    assert (0,) in X and (1,) not in X


# ---------------------------------------------------------------------------
# the matching against brute force


_MATCH_GROUPS = [FreeGroup(2), FreeAbelian(2),
                 DirectProduct([Cyclic(3), Cyclic(4)])]


def _neighbours(group, W, K, A):
    """{w in W : w x^-1 in K for some x in A}, straight from the definition."""
    K = set(K)
    return {w for w in W for x in A if group.mul(w, group.inv(x)) in K}


def _hall_holds(group, V, W, K):
    """|N(A)| >= 2|A| for every subset A of V."""
    return all(len(_neighbours(group, W, K, A)) >= 2 * len(A)
               for n in range(len(V) + 1)
               for A in itertools.combinations(V, n))


@st.composite
def _matching_inputs(draw):
    group = draw(st.sampled_from(_MATCH_GROUPS))
    B = group.ball(3)
    V = draw(st.lists(st.sampled_from(B), max_size=7, unique=True))
    W = draw(st.lists(st.sampled_from(B), max_size=len(B), unique=True))
    A = draw(st.lists(st.sampled_from(V + B[:2]), max_size=4, unique=True))
    return group, V, W, group.ball(1), A


@settings(max_examples=150, deadline=None)
@given(_matching_inputs())
def test_matching_agrees_with_brute_force_hall(case):
    group, V, W, K, _ = case
    res = find_two_to_one_injection(group, V, W, K)
    assert isinstance(res, InjectionWitness) == _hall_holds(group, V, W, K)
    if isinstance(res, InjectionWitness):
        assert verify_injection_witness(group, res) == (True, "ok")
    else:
        A = res.violating_set
        assert verify_hall_violation(group, V, W, K, A)
        assert set(res.neighborhood) == _neighbours(group, W, K, A)
    again = find_two_to_one_injection(group, V, W, K)
    assert again == res


@settings(max_examples=150, deadline=None)
@given(_matching_inputs())
def test_hall_recount_agrees_with_definition(case):
    group, V, W, K, A = case
    want = (bool(A) and set(A) <= set(V)
            and len(_neighbours(group, W, K, A)) < 2 * len(A))
    assert verify_hall_violation(group, V, W, K, A) == want


def test_hall_recount_needs_distinct_elements_of_v():
    Z = FreeAbelian(1)
    K = [(-1,), (0,), (1,)]
    V = [(i,) for i in range(3)]
    W = [(i,) for i in range(-1, 4)]
    assert verify_hall_violation(Z, V, W, K, V)
    assert not verify_hall_violation(Z, V, W, K, [(0,)] * 3)
    assert not verify_hall_violation(Z, V, W, K, [(100,)])


# ---------------------------------------------------------------------------
# long intervals: no recursion


def _interval(L):
    return [(i,) for i in range(L + 1)], [(i,) for i in range(-1, L + 2)]


def _set_arg(flag, S):
    return f"--{flag}={{{'; '.join(str(x[0]) for x in S)}}}"


def test_paradox_on_a_long_interval_is_a_verdict(capsys):
    V, W = _interval(10 ** 4)
    argv = ["paradox", "--group", "Z", _set_arg("v", V), _set_arg("w", W),
            "--k=-1;0;1", "--format", "json"]
    assert main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "infeasible"
    assert len(out["violating_set"]) == 10 ** 4 + 1


def test_matching_needs_no_recursion_depth():
    Z = FreeAbelian(1)
    V, W = _interval(2000)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        res = find_two_to_one_injection(Z, V, W, [(-1,), (0,), (1,)])
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(res, Infeasible) and res.violating_set == V

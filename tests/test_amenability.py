import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import gradedrings

from gradedrings.amenability import (FolnerFailure, FolnerWitness, Infeasible,
                                     InjectionWitness, bs_X, bs_X0,
                                     bs_example_check, expansion_profile,
                                     find_two_to_one_injection, finite_subset,
                                     folner_search, rosenblatt_find,
                                     verify_hall_violation,
                                     verify_injection_witness, whole_group)
from gradedrings.groups import (BaumslagSolitar, FreeAbelian, FreeGroup,
                                set_product)


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
    profile = expansion_profile(F2, whole_group(F2), F2.ball(1), 5)
    assert all(r > 2 for r in profile)


def test_folner_input_validation():
    Z = FreeAbelian(1)
    with pytest.raises(ValueError):
        folner_search(Z, whole_group(Z), [], Fraction(1), 3)
    with pytest.raises(ValueError):
        folner_search(Z, whole_group(Z), Z.ball(1), Fraction(0), 3)


def test_folner_with_explicit_candidates():
    Z = FreeAbelian(1)
    cand = [[(i,) for i in range(10)]]
    w = folner_search(Z, whole_group(Z), Z.ball(1), Fraction(1, 4), 0,
                      candidates=cand)
    assert isinstance(w, FolnerWitness)
    assert w.f_count == 10 and w.kf_count == 12


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

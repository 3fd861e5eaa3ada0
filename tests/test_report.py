"""The one verdict type: a Report derives `ok` from its rows, and a broken
sub-result of an acceptance check turns its criterion, its `repro` line,
its exit code and its JSON verdict to fail together."""

import json

import pytest

from gradedrings import amenability, checks, translation
from gradedrings.amenability import (BSCheckReport, InjectionWitness, SubsetPredicate,
                                     bs_example_check)
from gradedrings.cli import main
from gradedrings.graded import (CrossedSystem, CrossedSystemReport, EndoGradedReport,
                                PsiReport, endo_graded_construction,
                                psi_embedding_check, verify_crossed_system)
from gradedrings.groups import Cyclic, FreeAbelian
from gradedrings.report import Report
from gradedrings.rings import IntegerRing, Invalid
from gradedrings.special_algebras import (LeavittRing, MatrixUnitReport, WeylRing,
                                          leavitt_matrix_units)
from gradedrings.translation import (CollapseResult, FiniteGroupIsoReport,
                                     FolnerInequalityError, collapse_matrices,
                                     finite_group_iso)
from test_graded import _WrongInverseC4, _WrongProductC3, _bump_corner, _faulty_blocks
from test_translation import _BadMul, _DoubledMul

Z = IntegerRing()


def test_to_json_of_a_passing_and_a_failing_report():
    rep = checks.check_compression()
    assert rep.to_json() == {
        "verdict": "pass", "failures": [], "number": 3,
        "name": "certificate compression",
        "details": ["K={0}, F={0}: shape (1,2) True",
                    "K={0}, F={0,1}: shape (2,4) True",
                    "padded K rejected (Folner inequality enforced)"]}
    bad = checks.CriterionResult(99, "made up", [("a count", None),
                                                 ("a broken row", False)],
                                 failures=["why it broke"])
    assert not bad.ok
    assert bad.line == "criterion 99 (made up): FAIL"
    assert bad.to_json() == {
        "verdict": "fail", "failures": ["why it broke"], "number": 99,
        "name": "made up",
        "details": ["a count", "a broken row", "why it broke"]}


def test_rows_that_only_count_never_fail():
    rep = checks.CriterionResult(99, "counts", [("seen 3", None)])
    assert rep.ok and rep.line == "criterion 99 (counts): pass"


def _lenient_compress(monkeypatch):
    real = checks.compress_certificate

    def lenient(ci):
        try:
            return real(ci)
        except FolnerInequalityError:
            return None
    monkeypatch.setattr(checks, "compress_certificate", lenient)


def _broken_finite_iso(monkeypatch):
    real = checks.finite_group_iso

    def broken(G, R):
        rep = real(G, R)
        if G.name == "C(4)":
            rep.action_ok = False
        return rep
    monkeypatch.setattr(checks, "finite_group_iso", broken)


FAULTS = {
    "leavitt-rank": lambda mp: mp.setattr(checks, "verify_certificate",
                                          lambda cert: Invalid((1, 1))),
    "compression": _lenient_compress,
    "finite-iso": _broken_finite_iso,
    # a valid certificate of the wrong shape for the product row
    "cert-algebra": lambda mp: mp.setattr(
        checks, "product_certificate",
        lambda certs: checks.extend_certificate(certs[0], 3)),
}


@pytest.mark.parametrize("name", FAULTS)
def test_one_broken_sub_result_fails_the_criterion(name, monkeypatch, capsys):
    FAULTS[name](monkeypatch)
    fn = dict(checks.ALL_CHECKS)[name]
    res = fn()
    assert not res.ok
    assert any(passed is False for _, passed in res.rows())
    assert main(["repro", name]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == res.line and out[0].endswith(": FAIL")
    assert out[1:] == [f"    {d}" for d in res.lines()]
    assert main(["repro", name, "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "fail"
    assert [c["verdict"] for c in data["checks"]] == ["fail"]
    assert data["checks"][0]["check"] == name


# ---------------------------------------------------------------------------
# every FAIL row says where: Report.fail is the one way a check turns False


def _negation_system():
    """sigma_0 = negation on Z over C(1): fails conditions (i), (ii) and
    (iii) and the ring laws of sigma_0."""
    neg = lambda r: -r
    return CrossedSystem(Cyclic(1), Z, sigma={0: neg})


NEGATION_LINES = [
    "condition (i) fails at (0,0), r = 1",
    "condition (i) fails at (0,0), r = 2",
    "condition (i) fails at (0,0), r = -3",
    "condition (ii) fails at (0,0,0)",
    "condition (iii) fails: the identity moves r = 1",
    "condition (iii) fails: the identity moves r = 2",
    "condition (iii) fails: the identity moves r = -3",
    "sigma_0 does not fix 1",
] + [f"sigma_0 is not a ring homomorphism at ({a}, {b})"
     for a in (1, 2, -3) for b in (1, 2, -3)]


def test_negation_system_names_each_failure_once():
    rep = verify_crossed_system(_negation_system())
    assert rep.failures == NEGATION_LINES
    assert rep.lines() == ["conjugation condition (i): FAIL",
                           "cocycle condition (ii): FAIL",
                           "normalization (iii): FAIL",
                           "omega values are units: pass",
                           "sigma_g unital, additive and multiplicative (sampled): FAIL",
                           *NEGATION_LINES]
    assert rep.to_json() == {"verdict": "fail", "failures": NEGATION_LINES}


def _unit_omega_system():
    """omega(0,0) = 2 over C(1) is not a unit, and not 1 either."""
    return verify_crossed_system(
        CrossedSystem(Cyclic(1), Z, omega={(0, 0): 2}, omega_inv={(0, 0): 1}))


def _noncentral_omega_system():
    """omega(1,1) = u, the self-inverse swap e1 e2* + e2 e1* of L(1,2),
    satisfies the cocycle identity over C(2) but does not commute with e1."""
    L = LeavittRing(2)
    u = L.element_from_str("e1 e2' + e2 e1'")
    omega = {(g, h): (u if (g, h) == (1, 1) else L.one()) for g in (0, 1) for h in (0, 1)}
    return verify_crossed_system(CrossedSystem(Cyclic(2), L, omega=omega, omega_inv=omega),
                                 samples=[L.gen(1), L.one()])


class _TwoIdentities(Cyclic):
    """C(2) that lists its identity twice, so the ranks add up past n*l."""

    def elements(self):
        return [0, 0, 1]


class _InverseOfIdentityC2(Cyclic):
    """C(2) with the inverses of 0 and 1 swapped: T_0 holds off-diagonal
    units."""

    def inv(self, g):
        return 1 - g


def _endo(group, n, l):
    return lambda mp: endo_graded_construction(Z, group, n, l)[1]


def _psi(target, fault):
    def build(mp):
        _faulty_blocks(mp, target, fault)
        W = WeylRing([1], [2])
        samples = [W.element_from_str(t) for t in ("x1", "y", "x1 y + 2")]
        return psi_embedding_check(W, samples, window=2)
    return build


def _leavitt_patched(attr, make):
    def build(mp):
        mp.setattr(LeavittRing, attr, make(getattr(LeavittRing, attr)))
        return leavitt_matrix_units(2, 2)[1]
    return build


def _wrong_product(real):
    """eps_11 eps_11 gains a one."""
    def mul(self, a, b):
        got = real(self, a, b)
        eps_11 = self.monomial((1, 1), (1, 1))
        return self.add(got, self.one()) if a == b == eps_11 else got
    return mul


def _wrong_chain_monomial(real):
    def monomial(self, a, b, coeff=None):
        if (tuple(a), tuple(b)) == ((1, 2, 1), (2, 1, 1)):
            return self.zero()
        return real(self, a, b, coeff)
    return monomial


def _first_diagonal_product_wrong(mp):
    """The first support product finite_group_iso forms is D_f D_f' of
    samples (0, 0); one wrong entry in it fails the diagonal law."""
    real, calls = translation.support_mul, []

    def support_mul(R, P, Q):
        out = real(R, P, Q)
        calls.append(None)
        return [{0: R.from_int(7)}] + out[1:] if len(calls) == 1 else out
    mp.setattr(translation, "support_mul", support_mul)
    return finite_group_iso(Cyclic(3), Z)


def _collapse(alpha, beta):
    def build(mp):
        mp.setattr(translation, "verify_injection_witness", lambda group, w: (True, "ok"))
        V, W = [(0,), (1,), (2,)], [(y,) for y in range(-2, 6)]
        w = InjectionWitness(V, W, [], dict(zip(V, alpha)), dict(zip(V, beta)))
        return collapse_matrices(FreeAbelian(1), w, Z)
    return build


def _bs_with_everything_in_x0(mp):
    mp.setattr(amenability, "bs_X0", lambda G: SubsetPredicate(G, lambda x: True, "all"))
    return bs_example_check(2, 2)


# one faulty input per row a report can fail: (build, report type, rows)
FAULTY = {
    "crossed-negation": (lambda mp: verify_crossed_system(_negation_system()),
                         CrossedSystemReport, {"cond1_ok", "cond2_ok", "cond3_ok",
                                               "sigma_hom_ok"}),
    "crossed-omega-not-a-unit": (lambda mp: _unit_omega_system(), CrossedSystemReport,
                                 {"units_ok"}),
    "crossed-omega-not-central": (lambda mp: _noncentral_omega_system(),
                                  CrossedSystemReport, {"central_ok"}),
    "endo-two-identities": (_endo(_TwoIdentities(2), 2, 2), EndoGradedReport,
                            {"dimension_ok"}),
    "endo-wrong-product": (_endo(_WrongProductC3(3), 2, 2), EndoGradedReport,
                           {"partition_ok", "closure_ok"}),
    "endo-inverse-of-identity": (_endo(_InverseOfIdentityC2(2), 2, 1), EndoGradedReport,
                                 {"t1_diagonal_ok", "strong"}),
    "endo-wrong-inverse": (_endo(_WrongInverseC4(4), 3, 2), EndoGradedReport,
                           {"closure_ok", "strong"}),
    "psi-identity-block": (_psi((0, 0), _bump_corner), PsiReport, {"unital_ok"}),
    "psi-bumped-corner": (_psi((1, 0), _bump_corner), PsiReport,
                          {"additive_ok", "multiplicative_ok"}),
    "units-product": (_leavitt_patched("mul", _wrong_product), MatrixUnitReport,
                      {"product_law_ok"}),
    "units-sum": (_leavitt_patched("one", lambda real: lambda self: self.from_int(2)),
                  MatrixUnitReport, {"sum_identity_ok"}),
    "units-degree": (_leavitt_patched("degree_terms", lambda real: lambda self, a: {0, 1}),
                     MatrixUnitReport, {"degrees_ok"}),
    "units-chain": (_leavitt_patched("monomial", _wrong_chain_monomial), MatrixUnitReport,
                    {"chain_ok"}),
    "iso-bad-mul": (lambda mp: finite_group_iso(_BadMul(3), Z), FiniteGroupIsoReport,
                    {"shift_mult_ok", "action_ok", "bijective_ok"}),
    "iso-diagonal": (_first_diagonal_product_wrong, FiniteGroupIsoReport, {"diag_mult_ok"}),
    "iso-inverse-of-identity": (lambda mp: finite_group_iso(_InverseOfIdentityC2(2), Z),
                                FiniteGroupIsoReport, {"unital_ok"}),
    "iso-doubled-unit": (lambda mp: finite_group_iso(Cyclic(3), _DoubledMul()),
                         FiniteGroupIsoReport, {"bijective_ok"}),
    "collapse-alpha-not-injective": (_collapse([(0,), (0,), (4,)], [(1,), (3,), (5,)]),
                                     CollapseResult, {"mmt_ok", "projection_ok"}),
    "collapse-beta-not-injective": (_collapse([(0,), (2,), (4,)], [(1,), (3,), (3,)]),
                                    CollapseResult, {"nnt_ok"}),
    "collapse-images-overlap": (_collapse([(0,), (2,), (4,)], [(1,), (0,), (5,)]),
                                CollapseResult, {"mnt_ok", "nmt_ok"}),
    "bs-everything-in-x0": (_bs_with_everything_in_x0, BSCheckReport,
                            {"subset_ok", "disjoint_ok", "b_shift_ok"}),
}


def _failing_rows(rep) -> set:
    """The check fields that read FAIL, and "strong" when a strong-grading
    row does."""
    failing = {name for name, _ in rep.check_fields() if getattr(rep, name) is False}
    return failing | ({"strong"} if _failing_strong(rep) else set())


def _failing_strong(rep) -> list:
    return [v.g for v in getattr(rep, "strong", ()) if not v.found]


@pytest.mark.parametrize("case", FAULTY)
def test_every_fail_row_says_where(case, monkeypatch):
    """Each FAIL row has at least one Report.fail call, no two calls write
    the same line, and the rows that read FAIL are exactly those failed.
    A FAIL strong-grading row has exactly one call, with no check field,
    whose line names its g."""
    build, kind, rows = FAULTY[case]
    calls, real = [], Report.fail

    def fail(self, check, message):
        calls.append((check, message))
        real(self, check, message)
    monkeypatch.setattr(Report, "fail", fail)
    rep = build(monkeypatch)
    assert type(rep) is kind
    failing = _failing_rows(rep)
    assert rows <= failing
    assert failing - {"strong"} == {check for check, _ in calls if check is not None}
    strong = [message for check, message in calls if check is None]
    assert len(strong) == len(_failing_strong(rep))
    assert all(f" at {g}" in m for g, m in zip(_failing_strong(rep), strong))
    messages = [message for _, message in calls]
    assert len(messages) == len(set(messages))
    assert [f for f in rep.failures if f in messages] == messages
    assert not rep.ok


def test_faulty_inputs_cover_every_check_row():
    """The cases above fail every check row of every report type with check
    fields, and the strong-grading rows of the endo-graded report;
    CriterionResult has none (its rows are its detail lines)."""
    covered = {}
    for _, kind, rows in FAULTY.values():
        covered.setdefault(kind, set()).update(rows)
    kinds = [CrossedSystemReport, EndoGradedReport, PsiReport, MatrixUnitReport,
             FiniteGroupIsoReport, CollapseResult, BSCheckReport]
    assert {cls for cls in _report_types() if cls.check_fields()} == set(kinds)
    want = {cls: {name for name, _ in cls.check_fields()} for cls in kinds}
    want[EndoGradedReport].add("strong")
    assert covered == want


def _report_types():
    todo, out = [Report], set()
    while todo:
        for sub in todo.pop().__subclasses__():
            out.add(sub)
            todo.append(sub)
    return out

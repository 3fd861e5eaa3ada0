"""The one verdict type: a Report derives `ok` from its rows, and a broken
sub-result of an acceptance check turns its criterion, its `repro` line,
its exit code and its JSON verdict to fail together."""

import json

import pytest

from gradedrings import checks
from gradedrings.cli import main
from gradedrings.rings import Invalid
from gradedrings.translation import FolnerInequalityError


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

"""Recorded output of the verdict-printing commands, compared byte for byte.

The files under tests/data/golden hold the text and JSON output of the
report commands, `repro --verbose`, `repro --format json`, `normalize`, and
the `lines()` of the seven report types built by the library (the eighth,
CriterionResult, is printed by `repro`) with passing, failing and unsampled
checks.  The text output is `Report.lines()` and the JSON output of a
report is `Report.to_json()`.  A change to the ring classes or the report
types must leave every byte as it is.
"""

import io
from pathlib import Path

import pytest

from gradedrings.amenability import (BSCheckReport, bs_example_check,
                                     find_two_to_one_injection)
from gradedrings.cli import main
from gradedrings.graded import (CrossedSystem, endo_graded_construction,
                                psi_embedding_check, verify_crossed_system)
from gradedrings.groups import Cyclic, FreeGroup
from gradedrings.rings import IntegerModRing, IntegerRing, ProductRing
from gradedrings.special_algebras import WeylRing, leavitt_matrix_units
from gradedrings.translation import (CollapseResult, collapse_matrices,
                                     finite_group_iso)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def _text_and_json(name, argv, code):
    return [(name, argv, None, code),
            (name + "_json", argv + ["--format", "json"], None, code)]


CASES = [
    ("repro_verbose", ["repro", "--verbose"], None, 0),
    ("repro_json", ["repro", "--format", "json"], None, 0),
    *_text_and_json("collapse", ["collapse", "--group", "F2", "--v", "ball:2",
                                 "--w", "ball:3", "--k", "ball:1"], 0),
    *_text_and_json("collapse_mod3", ["collapse", "--group", "Z^2", "--v", "{(0, 0)}",
                                      "--w", "ball:1", "--k", "ball:1",
                                      "--ring", "Z/3"], 0),
    *_text_and_json("collapse_infeasible",
                    ["collapse", "--group", "Z", "--v", "{0; 1; 2}",
                     "--w", "ball:3", "--k", "{-1; 0; 1}"], 1),
    *_text_and_json("crossed_twisted",
                    ["crossed", "--config", str(DATA / "crossed_twisted.json")], 0),
    *_text_and_json("crossed_bad",
                    ["crossed", "--config", str(DATA / "crossed_bad.json")], 1),
    *_text_and_json("crossed_group_ring",
                    ["crossed", "--config", str(DATA / "crossed_group_ring.json")], 0),
    *_text_and_json("endo_graded_c2", ["endo-graded", "--group", "C(2)", "--ring", "Z/5",
                                       "--n", "2", "--l", "1"], 0),
    *_text_and_json("endo_graded_c3", ["endo-graded", "--group", "C(3)", "--ring", "Z",
                                       "--n", "2", "--l", "2"], 0),
    *_text_and_json("psi", ["psi", "--samples", "x1; y", "--window", "3"], 0),
    *_text_and_json("psi_twisted", ["psi", "--a", "1,-1", "--b", "1,0",
                                    "--samples", "x1; y; x2 y - 2", "--window", "2",
                                    "--component-window", "2"], 0),
    *_text_and_json("bs_check_k2", ["bs-check", "--k", "2", "--r", "2"], 0),
    *_text_and_json("bs_check_k3", ["bs-check", "--k", "3", "--r", "4"], 0),
    ("normalize_leavitt", ["normalize", "--algebra", "leavitt:n=2"],
     "e2 e2'\ne1' e1\ne1' e2\n2 e1 - 3 e2 e2'\ne2 e2' + e1 e1' - 1\n"
     "-e2 e1 e1' e2'\n3\n0\n", 0),
    ("normalize_leavitt3", ["normalize", "--algebra", "leavitt:n=3"],
     "e3 e3'\ne1 e3 e3' e2'\n- e2' e2 + 1\n", 0),
    ("normalize_weyl", ["normalize", "--algebra", "weyl"],
     "y x\nx y - y x\ny x - x y - 1\ny y x x\n-2 x y y\n", 0),
    ("normalize_weyl2", ["normalize", "--algebra", "weyl:a=1,-1;b=1,0"],
     "y x2\ny x2 + x2 y\ny x1 x2 - 3 x1\ny y x2 x1\n", 0),
]


@pytest.mark.parametrize("name, argv, stdin, code", CASES,
                         ids=[c[0] for c in CASES])
def test_cli_output(name, argv, stdin, code, monkeypatch, capsys):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def report_lines() -> str:
    """lines() and ok of one report of each type, first as built, then with
    checks forced to fail and a failure message attached to each type but
    the collapse and BS reports (the recorded text predates their builders'
    failure messages)."""
    Z = IntegerRing()
    reports = []
    F2 = FreeGroup(2)
    w = find_two_to_one_injection(F2, F2.ball(1), F2.ball(2), F2.ball(1))
    reports.append(collapse_matrices(F2, w, Z))
    reports.append(bs_example_check(2, 3))
    swap = lambda r: (r[1], r[0])
    skew = CrossedSystem(Cyclic(2), ProductRing([Z, Z]),
                         sigma={0: lambda r: r, 1: swap})
    reports.append(verify_crossed_system(skew, samples=[(1, 0), (0, 1), (2, -3)]))
    reports.append(endo_graded_construction(IntegerModRing(5), Cyclic(2), 2, 1)[1])
    weyl = WeylRing([1], [1])
    reports.append(psi_embedding_check(weyl, [weyl.x(1), weyl.y()], window=2))
    reports.append(leavitt_matrix_units(2, 1)[1])
    reports.append(finite_group_iso(Cyclic(3), Z))
    out = []
    for rep in reports:
        out += [type(rep).__name__, f"ok {rep.ok}"] + rep.lines()
        for attr, val in list(vars(rep).items()):
            if attr.endswith("_ok") and val is not None:
                setattr(rep, attr, False)
        if not isinstance(rep, (CollapseResult, BSCheckReport)):
            rep.failures.append("a recorded failure")
        if hasattr(rep, "strong"):
            rep.strong[-1].terms = []
        out += [f"ok {rep.ok}"] + rep.lines()
    return "\n".join(out) + "\n"


def test_report_lines():
    assert report_lines() == (GOLDEN / "report_lines.out").read_text()

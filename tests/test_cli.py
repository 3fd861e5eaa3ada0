import io
import json

import pytest

from gradedrings.amenability import whole_group
from gradedrings.cli import main
from gradedrings.groups import FreeAbelian
from gradedrings.rings import RankCertificate, RingMatrix
from gradedrings.serialize import (certificate_to_json, dump_json,
                                   translation_certificate_to_json)
from gradedrings.special_algebras import LeavittRing, leavitt_rank_certificate
from gradedrings.translation import TranslationRing


def run(*argv):
    return main(list(argv))


def test_folner_witness_exit_codes(capsys):
    assert run("folner", "--group", "Z", "--k", "ball:1", "--eps", "1/2") == 0
    out = capsys.readouterr().out
    assert "witness found" in out
    assert run("folner", "--group", "F2", "--k", "ball:1", "--eps", "1",
               "--r-max", "4") == 1


def test_folner_json_format(capsys):
    assert run("folner", "--group", "Z", "--k", "ball:1", "--eps", "1",
               "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "witness"


def test_folner_bad_subset_is_input_error(capsys):
    assert run("folner", "--group", "Z", "--subset", "nope",
               "--k", "ball:1", "--eps", "1") == 2


def test_paradox(capsys, tmp_path):
    out = tmp_path / "w.json"
    assert run("paradox", "--group", "F2", "--v", "ball:1", "--w", "ball:2",
               "--k", "ball:1", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert len(data["alpha"]) == len(data["V"])
    assert run("paradox", "--group", "Z", "--v", "{0; 1; 2}",
               "--w", "ball:3", "--k", "{-1; 0; 1}") == 1
    assert "Hall" in capsys.readouterr().out


def test_internal_error_is_not_a_verdict(monkeypatch, capsys):
    """A failed recount is a fault in the program: exit 3, never 1."""
    monkeypatch.setattr("gradedrings.cli.verify_hall_violation",
                        lambda *args: False)
    assert run("paradox", "--group", "Z", "--v", "{0; 1; 2}",
               "--w", "ball:3", "--k", "{-1; 0; 1}") == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: VerificationError: Hall violator")


def test_compress_repeated_f_is_input_error(tmp_path, capsys):
    """A repeated point of F is an input fault: exit 2, not a failed
    re-verification (exit 3)."""
    G = FreeAbelian(1)
    L = LeavittRing(2)
    T = TranslationRing(G, whole_group(G), L)
    A = RingMatrix(T, 2, 1, [T.diag_const(L.gen_star(1)),
                             T.diag_const(L.gen_star(2))])
    B = RingMatrix(T, 1, 2, [T.diag_const(L.gen(1)), T.diag_const(L.gen(2))])
    path = tmp_path / "t.json"
    dump_json(translation_certificate_to_json(T, RankCertificate(T, 1, 2, A, B)),
              str(path))
    assert run("compress", "--certificate", str(path), "--k", "0",
               "--f", "0;1") == 0
    capsys.readouterr()
    assert run("compress", "--certificate", str(path), "--k", "0",
               "--f", "0;1;1") == 2
    assert capsys.readouterr().err == "error: F repeats a point\n"


def test_collapse(capsys):
    assert run("collapse", "--group", "F2", "--v", "ball:1", "--w", "ball:2",
               "--k", "ball:1") == 0


def test_cert_verify_and_transform(tmp_path, capsys):
    src = tmp_path / "l2.json"
    dump_json(certificate_to_json(leavitt_rank_certificate(2)), str(src))
    assert run("cert", "verify", str(src)) == 0

    ext = tmp_path / "l2e.json"
    assert run("cert", "extend", str(src), "--target", "4",
               "--out", str(ext)) == 0
    assert run("cert", "verify", str(ext)) == 0
    assert json.loads(ext.read_text())["m"] == 4

    assert run("cert", "opposite", str(src)) == 0
    assert run("cert", "product", str(src), str(src)) == 0

    bad = tmp_path / "bad.json"
    data = certificate_to_json(leavitt_rank_certificate(2))
    data["B"][0][0] = "e2"
    dump_json(data, str(bad))
    assert run("cert", "verify", str(bad)) == 1


def test_cert_missing_file_is_input_error():
    assert run("cert", "verify", "/nonexistent.json") == 2


def test_monoid_verdicts(capsys):
    assert run("monoid", "5 <= 3 in C(2,1)") == 0
    assert run("monoid", "1 <= 0 in C(2,1)") == 1
    assert run("monoid", "u <= u + 2*x1 + y1 in M(2,1,1)") == 0
    assert "z =" in capsys.readouterr().out
    assert run("monoid", "3*x1 <= 2*x1 in M(2,1,1)") == 1
    assert "psi_1" in capsys.readouterr().out
    assert run("monoid", "gibberish") == 2


def test_crossed_config(tmp_path):
    cfg = tmp_path / "sys.json"
    table = {f"{g}; {h}": ("-1" if (g * h) % 2 else "1")
             for g in range(2) for h in range(2)}
    cfg.write_text(json.dumps({"group": "C(2)", "ring": "Z",
                               "omega": table, "omega_inv": table}))
    assert run("crossed", "--config", str(cfg)) == 0
    bad = tmp_path / "bad.json"
    table["0; 1"] = "-1"    # breaks normalization omega(1, g) = 1
    bad.write_text(json.dumps({"group": "C(2)", "ring": "Z",
                               "omega": table, "omega_inv": table}))
    assert run("crossed", "--config", str(bad)) == 1


def test_endo_graded(capsys):
    assert run("endo-graded", "--group", "C(2)", "--ring", "Z/5",
               "--n", "2", "--l", "1") == 0
    assert "strong grading" in capsys.readouterr().out
    assert run("endo-graded", "--group", "Z", "--ring", "Z",
               "--n", "2", "--l", "1") == 2
    assert "infinite" in capsys.readouterr().err


def test_psi(capsys):
    assert run("psi", "--samples", "x1; y", "--window", "3") == 0


def test_normalize(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("e2 e2'\n"))
    assert run("normalize", "--algebra", "leavitt:n=2") == 0
    assert capsys.readouterr().out.strip() == "1 + -1 e1 e1'"
    monkeypatch.setattr("sys.stdin", io.StringIO("y x\n"))
    assert run("normalize", "--algebra", "weyl") == 0
    assert capsys.readouterr().out.strip() == "1 + x1 y"


def test_bs_check_and_rosenblatt(capsys):
    assert run("bs-check", "--k", "2", "--r", "2") == 0
    assert run("rosenblatt", "--k", "2", "--u", "(0, 0)",
               "--v", "(0, 0); (1/2, 1)") == 0
    assert "g =" in capsys.readouterr().out
    assert run("rosenblatt", "--k", "2", "--u", "(0, 0)",
               "--v", "(0, 0)") == 2


def test_repro_single_and_unknown(capsys):
    assert run("repro", "leavitt-rank") == 0
    assert "criterion  1" in capsys.readouterr().out
    assert run("repro", "not-a-check") == 2
    assert run("repro", "--list") == 0
    names = capsys.readouterr().out.split()
    assert "folner" in names and len(names) == 13

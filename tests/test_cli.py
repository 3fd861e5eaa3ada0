import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gradedrings
from gradedrings import monoids
from gradedrings.amenability import Infeasible, whole_group
from gradedrings.checks import _stack_twice
from gradedrings.cli import EXIT_CODES, main
from gradedrings.groups import FreeAbelian
from gradedrings.rings import RankCertificate, RingMatrix, block_up_certificate
from gradedrings.serialize import (certificate_to_json, dump_json,
                                   translation_certificate_to_json)
from gradedrings.special_algebras import LeavittRing, leavitt_rank_certificate
from gradedrings.translation import TranslationRing


DATA = Path(__file__).parent / "data"


def run(*argv):
    return main(list(argv))


def write_translation_cert(path, shift=0, swap=False):
    """The L(1,2) certificate over T(Z|Z; L(1,2)): A = (s e1*, s e2*)^T,
    B = (s^-1 e1, s^-1 e2) with s the shift by `shift`, so AB = I.  With
    swap, B = (s^-1 e2, s^-1 e1) and AB = I fails."""
    G = FreeAbelian(1)
    L = LeavittRing(2)
    T = TranslationRing(G, whole_group(G), L)
    A = RingMatrix(T, 2, 1, [T.term((shift,), T.fn(L.gen_star(i)))
                             for i in (1, 2)])
    B = RingMatrix(T, 1, 2, [T.term((-shift,), T.fn(L.gen(i)))
                             for i in ((2, 1) if swap else (1, 2))])
    dump_json(translation_certificate_to_json(T, RankCertificate(T, 1, 2, A, B)),
              str(path))
    return str(path)


@pytest.fixture
def files(tmp_path):
    """Input files for the CLI, by the placeholder an argv names them with."""
    cert, bad = str(tmp_path / "l2.json"), str(tmp_path / "bad.json")
    data = certificate_to_json(leavitt_rank_certificate(2))
    dump_json(data, cert)
    data["B"][0][0] = "e2"
    dump_json(data, bad)
    return {"@cert": cert, "@bad": bad,
            "@tcert": write_translation_cert(tmp_path / "t.json")}


# one command per verdict the CLI can print
VERDICT_CASES = [
    ("pass", ["bs-check", "--k", "2", "--r", "2"]),
    ("fail", ["crossed", "--config", str(DATA / "crossed_bad.json")]),
    ("witness", ["folner", "--group", "Z", "--k", "ball:1", "--eps", "1/2"]),
    ("no-witness", ["folner", "--group", "F2", "--k", "ball:1", "--eps", "1",
                    "--r-max", "2"]),
    ("infeasible", ["paradox", "--group", "Z", "--v", "{0; 1; 2}",
                    "--w", "ball:3", "--k", "{-1; 0; 1}"]),
    ("compressed", ["compress", "--certificate", "@tcert", "--k", "0",
                    "--f", "0;1"]),
    ("refused", ["compress", "--certificate", "@tcert", "--k", "0;-1;1",
                 "--f", "0;1"]),
    ("valid", ["cert", "verify", "@cert"]),
    ("invalid", ["cert", "verify", "@bad"]),
    ("yes", ["monoid", "5 <= 3 in C(2,1)"]),
    ("no", ["monoid", "1 <= 0 in C(2,1)"]),
    ("unknown", ["monoid", "2*u <= u + x1 + y1 in M(2,1,1)", "--depth", "0"]),
    ("found", ["rosenblatt", "--k", "2", "--u", "(0, 0)",
               "--v", "(0, 0); (1/2, 1)"]),
]


@pytest.mark.parametrize("verdict, argv", VERDICT_CASES,
                         ids=[c[0] for c in VERDICT_CASES])
def test_exit_code_is_the_verdicts(verdict, argv, files, capsys):
    code = main([files.get(a, a) for a in argv] + ["--format", "json"])
    printed = json.loads(capsys.readouterr().out)["verdict"]
    assert printed == verdict
    assert code == EXIT_CODES[printed]


def test_verdict_cases_cover_the_table():
    assert sorted(v for v, _ in VERDICT_CASES) == sorted(EXIT_CODES)
    assert set(EXIT_CODES.values()) == {0, 1, 4}
    assert [v for v, code in EXIT_CODES.items() if code == 4] == ["unknown"]


def test_verdict_missing_from_table_is_internal_error(monkeypatch, capsys):
    """A verdict with no exit code is a fault in the program: exit 3, and
    nothing is printed as if it were an answer."""
    monkeypatch.delitem(EXIT_CODES, "pass")
    assert run("bs-check", "--k", "2", "--r", "2") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: no exit code for verdict 'pass'\n"


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


def test_folner_negative_r_max_is_input_error(capsys):
    assert run("folner", "--group", "Z", "--k", "ball:1", "--eps", "1/2",
               "--r-max", "-1") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: r_max must be non-negative\n"


def test_folner_zero_denominator_eps_is_input_error(capsys):
    assert run("folner", "--group", "Z", "--k", "ball:1", "--eps", "1/0") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --eps 1/0 has a zero denominator\n"


@pytest.mark.parametrize("group, subset, name", [
    ("F2", "bs-x", "X=AB"), ("Z^2", "bs-x0", "X0")])
def test_folner_bs_subset_off_bs_is_input_error(group, subset, name, capsys):
    assert run("folner", "--group", group, "--subset", subset,
               "--k", "ball:1", "--eps", "1") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: the subset {name} is defined on BS(1,k) only, "
                   f"not on {group}\n")


def test_folner_failure_with_a_non_ball_k_prints_its_ratios(capsys):
    """K = {1, a, b} in F2 is not a ball, so each radius multiplies K by a
    sphere; the ratios are pinned byte for byte."""
    assert run("folner", "--group", "F2", "--k", "{1; a; b}", "--eps", "1",
               "--r-max", "3") == 1
    assert capsys.readouterr().out == (
        "no witness among balls of radius 0..3\n"
        "  radius 0: |KF cap X| / |F cap X| = 3/1 = 3\n"
        "  radius 1: |KF cap X| / |F cap X| = 11/5 = 11/5\n"
        "  radius 2: |KF cap X| / |F cap X| = 35/17 = 35/17\n"
        "  radius 3: |KF cap X| / |F cap X| = 107/53 = 107/53\n"
        "best ratio: 107/53\n")
    assert run("folner", "--group", "F2", "--k", "{1; a; b}", "--eps", "1",
               "--r-max", "3", "--format", "json") == 1
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "no-witness", "r_max": 3, "best_ratio": "107/53",
        "ratios": [[0, 3, 1, "3"], [1, 11, 5, "11/5"], [2, 35, 17, "35/17"],
                   [3, 107, 53, "107/53"]]}


def test_paradox(capsys, tmp_path):
    out = tmp_path / "w.json"
    assert run("paradox", "--group", "F2", "--v", "ball:1", "--w", "ball:2",
               "--k", "ball:1", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert len(data["alpha"]) == len(data["V"])
    assert run("paradox", "--group", "Z", "--v", "{0; 1; 2}",
               "--w", "ball:3", "--k", "{-1; 0; 1}") == 1
    assert "Hall" in capsys.readouterr().out


@pytest.mark.parametrize("serializer, argv", [
    ("injection_witness_to_json", ["paradox", "--group", "F2", "--v", "ball:1",
                                   "--w", "ball:2", "--k", "ball:1"]),
    ("folner_witness_to_json", ["folner", "--group", "Z", "--k", "ball:1",
                                "--eps", "1/2"]),
])
def test_text_witness_builds_no_payload(serializer, argv, monkeypatch, capsys):
    """Text output without --out prints summary lines only, so the witness
    serializer never runs; JSON output still calls it once."""
    calls = []
    monkeypatch.setattr(f"gradedrings.cli.{serializer}",
                        lambda *args: calls.append(args) or {})
    assert run(*argv) == 0
    assert calls == []
    assert "found" in capsys.readouterr().out
    assert run(*argv, "--format", "json") == 0
    assert len(calls) == 1


def test_paradox_set_starting_with_minus(capsys):
    """A set option whose value starts with "-" is written --k=... or in
    braces; as a separate word argparse reads it as an option: exit 2."""
    argv = ["paradox", "--group", "Z", "--v", "{0; 1}", "--w", "ball:2"]
    assert run(*argv, "--k=-1;0;1") == 0
    assert run(*argv, "--k", "{-1; 0; 1}") == 0
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--k", "-1;0;1")
    assert exc.value.code == 2


def test_internal_error_is_not_a_verdict(monkeypatch, capsys):
    """A failed recount is a fault in the program: exit 3, never 1."""
    monkeypatch.setattr("gradedrings.cli.verify_hall_violation",
                        lambda *args: False)
    assert run("paradox", "--group", "Z", "--v", "{0; 1; 2}",
               "--w", "ball:3", "--k", "{-1; 0; 1}") == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: VerificationError: Hall violator")


@pytest.mark.parametrize("command", ["paradox", "collapse"])
def test_a_violator_that_fails_its_recount_is_not_a_verdict(monkeypatch, capsys, command):
    """A search that returns a false Hall violator, A = {e} with an empty
    neighbourhood on F2, is caught by the recount in both commands: exit 3,
    never the verified "no" of exit 1."""
    monkeypatch.setattr("gradedrings.cli.find_two_to_one_injection",
                        lambda G, V, W, K: Infeasible([V[0]], []))
    assert run(command, "--group", "F2", "--v", "ball:1", "--w", "ball:2",
               "--k", "ball:1") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: VerificationError: Hall violator failed its recount\n"


@pytest.mark.parametrize("argv", [
    ["paradox", "--group", "BS(1,2)", "--v", "(1/3, 0)", "--w", "ball:1", "--k", "ball:1"],
    ["folner", "--group", "BS(1,2)", "--k", "{(0, 0); (1/3, 0)}", "--eps", "1",
     "--r-max", "1"],
], ids=["paradox", "folner"])
def test_bs_text_outside_the_group_is_input_error(argv, capsys):
    """(1/3, 0) is not in BS(1,2); a search over it would print a verified
    "no" (exit 1) about an element the group does not hold."""
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: denominator of 1/3 is not a power of 2\n"


def test_a_program_key_error_is_internal(monkeypatch, capsys):
    """No input reaches a KeyError, since the loaders name missing fields,
    so one is a fault in the program: exit 3, not the input error of exit 2."""
    def broken(*args):
        raise KeyError("x")
    monkeypatch.setattr("gradedrings.cli.bs_example_check", broken)
    assert run("bs-check", "--k", "2", "--r", "2") == 3
    assert capsys.readouterr().err == "internal error: KeyError: 'x'\n"


def test_malformed_json_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"group": "C(2)",')
    assert run("crossed", "--config", str(cfg)) == 2
    assert capsys.readouterr().err.startswith("error: Expecting property name")


def test_free_group_of_rank_27_is_input_error(capsys):
    assert run("paradox", "--group", "F27", "--v", "ball:1", "--w", "ball:2",
               "--k", "ball:1", "--format", "json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rank 27 exceeds 26") and "a-z" in err


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_pipe_is_not_a_verdict(unbuffered):
    """A reader that closes stdout before the verdict is printed: exit 3
    (never 1, "verified no"), and no traceback or internal error, whether
    the write or the flush at exit meets the closed pipe."""
    src = str(Path(gradedrings.__file__).resolve().parent.parent)
    env = {"PYTHONPATH": src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gradedrings", "folner", "--group", "Z^2", "--k",
         "ball:1", "--eps", "1/4", "--r-max", "10", "--format", "json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert err == ""


def test_compress_repeated_f_is_input_error(tmp_path, capsys):
    """A repeated point of F is an input fault: exit 2, not a failed
    re-verification (exit 3)."""
    path = write_translation_cert(tmp_path / "t.json")
    assert run("compress", "--certificate", path, "--k", "0",
               "--f", "0;1") == 0
    capsys.readouterr()
    assert run("compress", "--certificate", path, "--k", "0",
               "--f", "0;1;1") == 2
    assert capsys.readouterr().err == "error: F repeats a point\n"


@pytest.mark.parametrize("shift, swap, k, f, message", [
    (0, False, "0;1", "0;1", "K must be symmetric"),
    (0, False, "1;-1", "0;1", "K must contain the identity"),
    (1, False, "0", "0;1", "K does not dominate all entry shifts"),
    (0, True, "0", "0", "window verification failed at blocks (1,1)"),
], ids=["asymmetric-k", "no-identity", "short-k", "bad-window"])
def test_compress_malformed_input_is_input_error(shift, swap, k, f, message,
                                                 tmp_path, capsys):
    """Only a failed Folner inequality is a refusal (exit 1); a K or a
    certificate that the compression cannot take is an input fault."""
    path = write_translation_cert(tmp_path / "t.json", shift, swap)
    assert run("compress", "--certificate", path, "--k", k, "--f", f) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_compress_shifted_certificate(tmp_path, capsys):
    """The shifted certificate is well formed: a K that holds its shifts
    compresses it, so only K is at fault in the short-k case above."""
    path = write_translation_cert(tmp_path / "t.json", shift=1)
    assert run("compress", "--certificate", path, "--k", "0;-1;1",
               "--f", "0;1;2;3", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "compressed", "n": 6, "m": 8}
    # the window check runs over U x U, |U| = |{-1..4}| = 6, not U x F_X
    assert run("compress", "--certificate", path, "--k", "0;-1;1",
               "--f", "0;1;2;3") == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "window verification passed on 6 x 6 points"


def test_collapse(capsys):
    assert run("collapse", "--group", "F2", "--v", "ball:1", "--w", "ball:2",
               "--k", "ball:1") == 0


@pytest.mark.parametrize("command, w", [("paradox", "{}"), ("collapse", "ball:1")])
def test_empty_v_is_input_error(command, w, capsys):
    """The empty map matches no element, so it must not print a witness or
    a pass."""
    assert run(command, "--group", "Z", "--v", "{}", "--w", w,
               "--k", "ball:1") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --v is empty: no element to match\n"


def test_cert_verify_and_transform(files, tmp_path, capsys):
    src = files["@cert"]
    assert run("cert", "verify", src) == 0
    assert run("cert", "verify", files["@bad"]) == 1

    ext = tmp_path / "l2e.json"
    assert run("cert", "extend", src, "--target", "4", "--out", str(ext)) == 0
    assert run("cert", "verify", str(ext)) == 0
    assert json.loads(ext.read_text())["m"] == 4

    assert run("cert", "opposite", src) == 0
    assert run("cert", "product", src, src) == 0
    capsys.readouterr()
    assert run("cert", "opposite", src, src) == 2
    assert capsys.readouterr().err == (
        "error: cert opposite takes exactly one certificate file, got 2\n")
    with pytest.raises(SystemExit) as exc:
        run("cert", "verify")
    assert exc.value.code == 2


@pytest.mark.parametrize("action, message", [
    ("extend", "cert extend needs --target"),
    ("hom", "unknown map None (use aug or mod:m)"),
])
def test_cert_missing_option_is_input_error(action, message, files, capsys):
    assert run("cert", action, files["@cert"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cert_input_errors(tmp_path, capsys):
    """An invalid (1, 3) certificate to extend, and mod:m on a ring other
    than Z, are input errors: exit 2, not an internal error."""
    data = certificate_to_json(leavitt_rank_certificate(3))
    data["B"][0][1] = "0"
    bad = str(tmp_path / "bad3.json")
    dump_json(data, bad)
    assert run("cert", "extend", bad, "--target", "5") == 2
    assert capsys.readouterr().err == "error: input certificate invalid at (2, 2)\n"
    l2 = str(tmp_path / "l2.json")
    dump_json(certificate_to_json(leavitt_rank_certificate(2)), l2)
    assert run("cert", "hom", l2, "--map", "mod:3") == 2
    assert capsys.readouterr().err == "error: mod:m needs a certificate over Z\n"


def test_cert_block_up_zero_is_input_error(tmp_path, capsys):
    """--up 0 asks for block size 0, an input error; it does not fall back
    to block down, even on a certificate over a matrix ring."""
    m2 = str(tmp_path / "m2.json")
    dump_json(certificate_to_json(block_up_certificate(
        _stack_twice(leavitt_rank_certificate(2)), 2)), m2)
    assert run("cert", "block", m2) == 0
    capsys.readouterr()
    assert run("cert", "block", m2, "--up", "0") == 2
    assert capsys.readouterr().err == "error: block size must be >= 1\n"


@pytest.mark.parametrize("action", ["verify", "block", "opposite"])
def test_cert_misshaped_matrix_ring_entry_is_input_error(action, tmp_path,
                                                         capsys):
    """An M2(Z) entry must be 2x2.  With 2x1 blocks in A and 1x2 blocks in B
    the product AB is I_2 in every entry, so only the shape check on reading
    stops the file."""
    bad = str(tmp_path / "m2bad.json")
    dump_json({"ring": "M2(Z)", "n": 2, "m": 1,
               "A": [[[["1"], ["0"]], [["0"], ["1"]]]],
               "B": [[[["1", "0"]]], [[["0", "1"]]]]}, bad)
    assert run("cert", action, bad) == 2
    assert capsys.readouterr().err == "error: M2(Z) entry is 2x1, not 2x2\n"


@pytest.mark.parametrize("argv, message", [
    (["cert", "verify", "@tcert"],
     "a translation-ring certificate (it has a 'group' field), "
     "not a rank certificate"),
    (["cert", "extend", "@tcert", "--target", "3"],
     "a translation-ring certificate (it has a 'group' field), "
     "not a rank certificate"),
    (["compress", "--certificate", "@cert", "--k=-1;0;1", "--f", "0;1"],
     "a rank certificate (it has no 'group' field), "
     "not a translation-ring certificate"),
], ids=["verify-translation", "extend-translation", "compress-rank"])
def test_certificate_of_the_wrong_kind_is_input_error(argv, message, files,
                                                      capsys):
    """cert reads rank certificates and compress reads translation-ring
    certificates; each refuses the other kind by name, with exit 2."""
    assert run(*[files.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


L12 = {"ring": "L(1,2)", "n": 1, "m": 2, "A": [["e1'"], ["e2'"]], "B": [["e1", "e2"]]}
T12 = {"group": "Z", "subset": "all", "ring": "L(1,2)", "n": 1, "m": 2,
       "A": [[[{"shift": "0", "const": "e1'"}]], [[{"shift": "0", "const": "e2'"}]]],
       "B": [[[{"shift": "0", "const": "e1"}], [{"shift": "0", "const": "e2"}]]]}
TERMS = ("an entry over T(Z|all; L(1,2)) is not a list of terms, "
         "each with a text 'shift' and a 'const'")


@pytest.mark.parametrize("argv, data, message", [
    (["cert", "verify", "@data"], [1, 2],
     "the file is not a JSON object, so not a rank certificate"),
    (["compress", "--certificate", "@data", "--k=-1;0;1", "--f", "0;1"], [1, 2],
     "the file is not a JSON object, so not a translation-ring certificate"),
    (["cert", "verify", "@data"], {"ring": "L(1,2)", "n": 1},
     "rank certificate is missing field 'm'"),
    (["compress", "--certificate", "@data", "--k=-1;0;1", "--f", "0;1"],
     {"group": "Z", "ring": "L(1,2)", "n": 1, "m": 2, "A": [["e1'"]]},
     "translation-ring certificate is missing field 'B'"),
    *[(["cert", "verify", "@data"], {**L12, **change}, message)
      for change, message in [
          ({"A": 5}, "rank certificate field 'A' is not a list of lists"),
          ({"A": [5]}, "rank certificate field 'A' is not a list of lists"),
          ({"ring": 5}, "rank certificate field 'ring' is not a string"),
          ({"n": [1]}, "rank certificate field 'n' is not an integer"),
          ({"n": 1.7}, "rank certificate field 'n' is not an integer"),
          ({"m": True}, "rank certificate field 'm' is not an integer"),
          ({"A": [[1], ["e2'"]]}, "an entry over L(1,2) is not a string"),
          ({"ring": "prod(Z, Z/3)", "A": [["5"], [["1", "1"]]]},
           "an entry over prod(Z, Z/3) is not a list of 2 entries"),
          ({"ring": "M2(Z)", "A": [["1"], [[["1", "0"]]]]},
           "an entry over M2(Z) is not a list of lists")]],
    *[(["compress", "--certificate", "@data", "--k=-1;0;1", "--f", "0;1"],
       {**T12, **change}, message)
      for change, message in [
          ({"group": 5}, "translation-ring certificate field 'group' is not a string"),
          ({"n": True}, "translation-ring certificate field 'n' is not an integer"),
          ({"B": [["x", []]]}, TERMS),
          ({"B": [[[{"shift": "0"}], []]]}, TERMS),
          ({"B": [[[{"shift": 0, "const": "e1"}], []]]}, TERMS),
          ({"B": [[[{"shift": "0", "const": "e1", "overrides": []}], []]]}, TERMS),
          ({"B": [[[{"shift": "0", "const": 1}], []]]},
           "an entry over L(1,2) is not a string")]],
], ids=["verify-list", "compress-list", "verify-no-m", "compress-no-B",
        "A-not-a-list", "A-row-not-a-list", "ring-not-a-string", "n-a-list",
        "n-a-float", "m-a-bool", "entry-a-number", "product-entry-a-text",
        "matrix-entry-a-text", "group-not-a-string",
        "translation-n-a-bool", "term-list-a-string", "term-without-const",
        "shift-not-a-string", "overrides-a-list", "const-a-number"])
def test_malformed_certificate_file_is_input_error(argv, data, message,
                                                   tmp_path, capsys):
    """A certificate file that is not a JSON object, lacks a field, has a
    field of the wrong JSON type or an entry of the wrong shape is exit 2
    with a message that names the kind of certificate or the entry ring."""
    path = str(tmp_path / "data.json")
    dump_json(data, path)
    assert run(*[path if a == "@data" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_cert_extend_over_a_leavitt_ring_with_a_group_ring_base(tmp_path, capsys):
    """The file that cert extend writes names the base by its spec, so
    cert verify can read it back."""
    src, ext = str(tmp_path / "lg.json"), str(tmp_path / "lg3.json")
    data = certificate_to_json(leavitt_rank_certificate(2))
    data["ring"] = "L(1,2; group(Z, C(2)))"
    dump_json(data, src)
    assert run("cert", "extend", src, "--target", "3", "--out", ext) == 0
    assert json.loads(Path(ext).read_text())["ring"] == "L(1,2;group(Z, C(2)))"
    assert run("cert", "verify", ext) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "valid: AB = I_3, BGN True"


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


def test_monoid_yes_that_fails_its_replay_is_internal_error(monkeypatch, capsys):
    """A closure step that is no relation firing makes "yes" an internal
    error (exit 3), never a printed verdict."""
    closure = monoids.mnkl_closure

    def corrupted(*args, **kwargs):
        out = closure(*args, **kwargs)
        out[(0, 1, 1)] = ((1, 0, 0), "relation 0")   # the firing is relation 1
        return out
    monkeypatch.setattr(monoids, "mnkl_closure", corrupted)
    assert run("monoid", "x1 <= u in M(2,1,1)") == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: VerificationError: chain step")


@pytest.mark.parametrize("expression", ["2*a <= a in C(2,0)", "2*a <= a in C(0,1)"])
def test_monoid_cnk_needs_positive_parameters(expression, capsys):
    assert run("monoid", expression) == 2
    assert capsys.readouterr().err == "error: n, k must be positive\n"


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


@pytest.mark.parametrize("config, message", [
    ([1, 2], "the file is not a JSON object, so not a crossed-system config"),
    ({"ring": "Z"}, "crossed-system config is missing field 'group'"),
    ({"group": "C(2)", "ring": "Z", "omega": {"0; 0": "1"}},
     "crossed-system config is missing field 'omega_inv'"),
    ({"group": "C(2)", "ring": "M2(Z)", "samples": ["1"]},
     "M2(Z) has no element parser"),
    ({"group": 2, "ring": "Z"}, "crossed-system config field 'group' is not a string"),
    ({"group": "C(2)", "ring": "prod(Z, Z)", "samples": [1]},
     "crossed-system config field 'samples' entry 0 is not a string"),
    ({"group": "C(2)", "ring": "Z", "samples": []},
     "crossed-system config field 'samples' is not a nonempty list"),
    ({"group": "C(2)", "ring": "Z", "omega": {"0; 0": "1", "1; 0": "1", "1; 1": "1"},
      "omega_inv": {"0; 0": "1", "0; 1": "1", "1; 0": "1", "1; 1": "1"}},
     "crossed-system config field 'omega' has no entry for the pair (0, 1)"),
    ({"group": "C(2)", "ring": "Z", "omega": {"0": "1"}, "omega_inv": {"0": "1"}},
     "crossed-system config field 'omega' key '0' is not of the form 'g; h'"),
    ({"group": "C(1)", "ring": "Z", "omega": {"0; 0": 1}, "omega_inv": {"0; 0": "1"}},
     "crossed-system config field 'omega' entry '0; 0' is not a string"),
    ({"group": "C(1)", "ring": "prod(Z, Z)", "omega": {"0; 0": "(1; 1)"},
      "omega_inv": {"0; 0": [1, 1]}},
     "crossed-system config field 'omega_inv' entry '0; 0' is not a string"),
], ids=["not-an-object", "no-group", "no-omega-inv", "no-parser", "group-not-a-string",
        "sample-not-a-string", "samples-empty", "omega-lacks-a-pair",
        "omega-key-not-a-pair", "omega-value-an-int", "omega-inv-value-a-list"])
def test_crossed_config_input_errors(config, message, tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(config))
    assert run("crossed", "--config", str(cfg)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_endo_graded(capsys):
    assert run("endo-graded", "--group", "C(2)", "--ring", "Z/5",
               "--n", "2", "--l", "1") == 0
    assert "strong grading" in capsys.readouterr().out
    assert run("endo-graded", "--group", "Z", "--ring", "Z",
               "--n", "2", "--l", "1") == 2
    assert "infinite" in capsys.readouterr().err


def test_psi(capsys):
    assert run("psi", "--samples", "x1; y", "--window", "3") == 0


@pytest.mark.parametrize("samples", ["", " ; "])
def test_psi_empty_samples_is_input_error(samples, capsys):
    """No sample means no pair checked, so it must not print a pass."""
    assert run("psi", "--samples", samples) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: samples is empty: no pair to check\n"


@pytest.mark.parametrize("windows", [["--window", "-1"],
                                     ["--window", "2", "--component-window", "-3"]])
def test_psi_negative_window_is_input_error(windows, capsys):
    """An empty window checks nothing, so it must not print a pass."""
    assert run("psi", "--samples", "x1", *windows) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: window and component_window must be non-negative\n"


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

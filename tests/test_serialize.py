import copy
from pathlib import Path

import pytest

from gradedrings.amenability import (InjectionWitness, bs_X,
                                     find_two_to_one_injection, folner_search,
                                     verify_injection_witness, whole_group)
from gradedrings.cli import main
from gradedrings.groups import BaumslagSolitar, FreeAbelian, FreeGroup
from gradedrings.rings import (IntegerModRing, IntegerRing, MatrixRing,
                               ProductRing, RankCertificate, RingMatrix,
                               verify_certificate)
from gradedrings.serialize import (certificate_from_json, certificate_to_json,
                                   dump_json, element_from_jsonable,
                                   element_to_jsonable, folner_witness_to_json,
                                   injection_witness_from_json,
                                   injection_witness_to_json, load_json,
                                   ring_from_spec, ring_to_spec,
                                   translation_certificate_from_json,
                                   translation_certificate_to_json)
from gradedrings.special_algebras import LeavittRing, leavitt_rank_certificate
from gradedrings.translation import (CompressionInput, TranslationRing,
                                     compress_certificate)

from fractions import Fraction

SPECS = ["Z", "Q", "Z/5", "M2(Z)", "L(1,2)", "L(1,3;Z/5)", "op(L(1,2))",
         "prod(Z, Z/3)", "group(Z, C(2))"]


@pytest.mark.parametrize("spec", SPECS)
def test_ring_spec_round_trip(spec):
    ring = ring_from_spec(spec)
    assert ring_from_spec(ring_to_spec(ring)) == ring


def test_unknown_spec_rejected():
    with pytest.raises(ValueError):
        ring_from_spec("H")


def test_element_jsonable_matrix_and_product():
    M2 = MatrixRing(IntegerRing(), 2)
    x = RingMatrix.from_rows(IntegerRing(), [[1, -2], [0, 3]])
    data = element_to_jsonable(M2, x)
    assert data == [["1", "-2"], ["0", "3"]]
    assert element_from_jsonable(M2, data).eq(x)
    P = ProductRing([IntegerRing(), IntegerModRing(3)])
    y = (5, 2)
    assert P.eq(element_from_jsonable(P, element_to_jsonable(P, y)), y)


def test_certificate_round_trip(tmp_path):
    cert = leavitt_rank_certificate(2)
    path = tmp_path / "cert.json"
    dump_json(certificate_to_json(cert), str(path))
    back = certificate_from_json(load_json(str(path)))
    assert back.ring == cert.ring
    assert back.A.eq(cert.A) and back.B.eq(cert.B)
    assert verify_certificate(back)


def test_translation_certificate_round_trip():
    G = FreeAbelian(1)
    L = LeavittRing(2)
    T = TranslationRing(G, whole_group(G), L)
    A = RingMatrix(T, 2, 1, [T.mul(T.shift((1,)), T.diag_const(L.gen_star(1))),
                             T.term((0,), T.fn(L.gen_star(2),
                                               {(0,): L.zero()}))])
    B = RingMatrix(T, 1, 2, [T.mul(T.diag_const(L.gen(1)), T.shift((-1,))),
                             T.diag_const(L.gen(2))])
    cert = RankCertificate(T, 1, 2, A, B)
    data = translation_certificate_to_json(T, cert)
    T2, back = translation_certificate_from_json(data)
    assert T2 == T
    assert back.A.eq(A.reinterpret(T2)) and back.B.eq(B.reinterpret(T2))


def test_compressed_certificate_round_trip_shares_parsed_entries(monkeypatch):
    """The compressed |F| = 48 certificate over L(1,2) is mostly "0": each
    distinct entry text of a matrix is parsed once, no zero is stored, and
    the shared elements are not changed by verifying the certificate."""
    G = FreeAbelian(1)
    L = LeavittRing(2)
    T = TranslationRing(G, whole_group(G), L)
    A = RingMatrix(T, 2, 1, [T.diag_const(L.gen_star(1)), T.diag_const(L.gen_star(2))])
    B = RingMatrix(T, 1, 2, [T.diag_const(L.gen(1)), T.diag_const(L.gen(2))])
    res = compress_certificate(CompressionInput(
        T, RankCertificate(T, 1, 2, A, B), [(-1,), (0,), (1,)],
        [(v,) for v in range(48)]))
    data = certificate_to_json(res.certificate)
    calls = []
    original = LeavittRing.element_from_str
    monkeypatch.setattr(LeavittRing, "element_from_str", lambda self, s:
                        calls.append(s) or original(self, s))
    back = certificate_from_json(data)
    texts = [sorted({v for row in data[k] for v in row}) for k in "AB"]
    assert sorted(calls) == sorted(texts[0] + texts[1])
    assert certificate_to_json(back) == data
    assert not any(L.is_zero(x) for M in (back.A, back.B)
                   for row in M.support for x in row.values())
    entries = [x for M in (back.A, back.B) for row in M.support for x in row.values()]
    snapshot = copy.deepcopy(entries)
    v = verify_certificate(back)
    assert v and v.bgn
    assert entries == snapshot


def test_translation_certificate_refuses_a_subset_it_cannot_rebuild(
        tmp_path, capsys):
    """Only "all" is rebuilt from its name; loading X=AB as the whole group
    would give a different ring.  compress reports it as an input error."""
    G = BaumslagSolitar(2)
    T = TranslationRing(G, bs_X(G), IntegerRing())
    one = RingMatrix(T, 1, 1, [T.one()])
    data = translation_certificate_to_json(T, RankCertificate(T, 1, 1, one, one))
    assert data["subset"] == "X=AB"
    with pytest.raises(ValueError, match="X=AB"):
        translation_certificate_from_json(data)
    path = tmp_path / "t.json"
    dump_json(data, str(path))
    assert main(["compress", "--certificate", str(path), "--k", "ball:1",
                 "--f", "ball:1"]) == 2
    assert "X=AB" in capsys.readouterr().err


def test_injection_witness_round_trip():
    F2 = FreeGroup(2)
    w = find_two_to_one_injection(F2, F2.ball(1), F2.ball(2), F2.ball(1))
    assert isinstance(w, InjectionWitness)
    G2, back = injection_witness_from_json(injection_witness_to_json(F2, w))
    assert G2 == F2
    ok, msg = verify_injection_witness(G2, back)
    assert ok, msg
    assert back.alpha == w.alpha and back.beta == w.beta


def test_folner_witness_json():
    Z = FreeAbelian(1)
    w = folner_search(Z, whole_group(Z), Z.ball(1), Fraction(1, 2), 8)
    data = folner_witness_to_json(Z, w)
    assert data["counts"] == {"KF_in_X": w.kf_count, "F_in_X": w.f_count}
    assert len(data["F"]) == len(w.F)


DATA = Path(__file__).resolve().parent / "data"
A_TO_INV_B = {1: -2, -1: 2, 2: 1, -2: -1}   # the automorphism a -> B, b -> a


@pytest.mark.parametrize("name, relabel", [
    ("plain", lambda w: w),
    ("relabelled", lambda w: tuple(A_TO_INV_B[a] for a in w)),
])
def test_injection_witness_json_matches_the_golden_file(name, relabel, tmp_path):
    """F2 ball3 -> ball4, with V and W in ball order or relabelled, writes
    the bytes of the golden file, and the file loads back to the witness."""
    F2 = FreeGroup(2)
    V = [relabel(x) for x in F2.ball(3)]
    W = [relabel(x) for x in F2.ball(4)]
    w = find_two_to_one_injection(F2, V, W, F2.ball(1))
    path = tmp_path / "w.json"
    dump_json(injection_witness_to_json(F2, w), str(path))
    golden = DATA / f"injection_f2_ball3_4_{name}.json"
    assert path.read_bytes() == golden.read_bytes()
    G, back = injection_witness_from_json(load_json(str(golden)))
    assert (G, back.V, back.W, back.alpha, back.beta) == (F2, V, W, w.alpha, w.beta)


def test_injection_witness_json_converts_each_distinct_element_once(monkeypatch):
    F2 = FreeGroup(2)
    w = find_two_to_one_injection(F2, F2.ball(2), F2.ball(3), F2.ball(1))
    calls = []
    for method in ("element_to_str", "element_from_str"):
        original = getattr(FreeGroup, method)
        monkeypatch.setattr(FreeGroup, method, lambda self, x, f=original:
                            calls.append(x) or f(self, x))
    data = injection_witness_to_json(F2, w)
    assert sorted(calls, key=F2.element_key) == F2.ball(3)
    calls.clear()
    injection_witness_from_json(data)
    assert sorted(calls) == sorted(set(data["W"]))


def test_injection_witness_with_an_image_outside_w_serializes_and_is_rejected():
    F2 = FreeGroup(2)
    w = find_two_to_one_injection(F2, F2.ball(1), F2.ball(2), F2.ball(1))
    x = w.V[0]
    outside = (1, 1, 1)
    w.alpha[x] = outside
    data = injection_witness_to_json(F2, w)
    assert data["alpha"][0] == [F2.element_to_str(x), "a a a"]
    assert "a a a" not in data["W"]
    G, back = injection_witness_from_json(data)
    assert back.alpha[x] == outside
    ok, msg = verify_injection_witness(G, back)
    assert not ok and "outside W" in msg

import copy
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradedrings.amenability import (InjectionWitness, bs_X,
                                     find_two_to_one_injection, folner_search,
                                     verify_injection_witness, whole_group)
from gradedrings.cli import main
from gradedrings.graded import CrossedProductRing, CrossedSystem
from gradedrings.groups import BaumslagSolitar, Cyclic, FreeAbelian, FreeGroup
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
from gradedrings.special_algebras import (LeavittRing, WeylRing,
                                          leavitt_rank_certificate)
from gradedrings.translation import (CompressionInput, FunctionRing,
                                     RightTranslationRing, TranslationRing,
                                     compress_certificate)

from fractions import Fraction

SPECS = ["Z", "Q", "Z/5", "M2(Z)", "L(1,2)", "L(1,3;Z/5)", "op(L(1,2))",
         "prod(Z, Z/3)", "group(Z, C(2))", "L(1,2; group(Z, C(2)))",
         "M2(L(1,2; group(Z, C(2))))", "op(M2(L(1,3;Z/5)))",
         "prod(Z, group(Q, C2xC2))", "M2(prod(Z, L(1,2)))"]


@pytest.mark.parametrize("spec", SPECS)
def test_ring_spec_round_trip(spec):
    """A ring's spec is its name, and the name reads back as the ring."""
    ring = ring_from_spec(spec)
    assert ring_to_spec(ring) == ring.name
    assert ring_from_spec(ring_to_spec(ring)) == ring


def _twisted_c2():
    omega = {(g, h): -1 if g == h == 1 else 1 for g in range(2) for h in range(2)}
    return CrossedProductRing(CrossedSystem(Cyclic(2), IntegerRing(), omega=omega,
                                            omega_inv=omega))


@pytest.mark.parametrize("make", [
    lambda: WeylRing([1], [1]),
    _twisted_c2,
    lambda: TranslationRing(FreeAbelian(1), whole_group(FreeAbelian(1)), IntegerRing()),
    lambda: FunctionRing(IntegerRing()),
], ids=["weyl", "twisted", "translation", "function"])
def test_ring_without_a_spec_is_refused_by_name(make):
    ring = make()
    with pytest.raises(ValueError, match=re.escape(f"ring {ring.name} has no "
                                                   "serializable spec")):
        ring_to_spec(ring)


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


def _nested_specs(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=2).map(lambda ps: f"prod({', '.join(ps)})"),
        children.map(lambda s: f"L(1,2;{s})"),
        children.map(lambda s: f"group({s}, C(2))"))


_ATOMS = st.sampled_from(["Z", "Z/5"])
_DEPTH_1 = _nested_specs(_ATOMS)
NESTED_SPECS = st.one_of(_ATOMS, _DEPTH_1, _nested_specs(st.one_of(_ATOMS, _DEPTH_1)))


def _elements(R):
    """Elements of a ring built by NESTED_SPECS."""
    if isinstance(R, IntegerModRing):
        return st.integers(0, R.m - 1)
    if isinstance(R, IntegerRing):
        return st.integers(-3, 3)
    if isinstance(R, ProductRing):
        return st.tuples(*[_elements(f) for f in R.factors])
    words = st.lists(st.integers(1, 2), max_size=2).map(tuple)
    if isinstance(R, LeavittRing):
        terms = st.lists(st.tuples(words, words, _elements(R.base)), max_size=3)
        return terms.map(lambda ts: _sum(R, [R.monomial(a, b, c) for a, b, c in ts]))
    terms = st.lists(st.tuples(_elements(R.base), st.sampled_from([0, 1])), max_size=3)
    return terms.map(lambda ts: _sum(R, [R.term(c, g) for c, g in ts]))


def _sum(R, xs):
    out = R.zero()
    for x in xs:
        out = R.add(out, x)
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_element_text_round_trips_over_nested_rings(data):
    """An element's text reads back as the element over rings nested two
    deep: a coefficient prints as one factor, a number or text in
    parentheses, and the parsers split only outside brackets."""
    R = ring_from_spec(data.draw(NESTED_SPECS, label="spec"))
    x = data.draw(_elements(R), label="element")
    assert R.eq(R.element_from_str(R.element_to_str(x)), x)


@pytest.mark.parametrize("spec, make_x, text", [
    ("group(L(1,2), C(2))", lambda R: R.term(R.base.add(R.base.gen(1), R.base.gen(2)), 1),
     "(e1 + e2)*[1]"),
    ("L(1,2;prod(Z, Z))", lambda R: R.monomial((1,), (1,), (1, -1)), "(1; -1) e1 e1'"),
], ids=["group-ring-over-leavitt", "leavitt-over-product"])
def test_nested_ring_certificates_verify_from_their_files(spec, make_x, text, tmp_path,
                                                          capsys):
    """A = [[1, x], [0, 1]] and B = [[1, -x], [0, 1]]: the file the library
    writes reads back, and cert verify accepts it."""
    R = ring_from_spec(spec)
    x = make_x(R)
    A = RingMatrix.from_rows(R, [[R.one(), x], [R.zero(), R.one()]])
    B = RingMatrix.from_rows(R, [[R.one(), R.neg(x)], [R.zero(), R.one()]])
    path = str(tmp_path / "cert.json")
    data = certificate_to_json(RankCertificate(R, 2, 2, A, B))
    assert data["A"][0][1] == text
    dump_json(data, path)
    assert main(["cert", "verify", path]) == 0
    assert capsys.readouterr().out == "valid: AB = I_2, BGN False\n"


def test_translation_certificate_round_trip():
    G = FreeAbelian(1)
    L = LeavittRing(2)
    T = TranslationRing(G, whole_group(G), L)
    one = T.base.one()
    A = RingMatrix(T, 2, 1, [T.mul(T.term((1,), one), T.diag_const(L.gen_star(1))),
                             T.term((0,), T.fn(L.gen_star(2),
                                               {(0,): L.zero()}))])
    B = RingMatrix(T, 1, 2, [T.mul(T.diag_const(L.gen(1)), T.term((-1,), one)),
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


def _shift_certificate():
    """A (1, 2) certificate object over T(Z|all; L(1,2)) whose entries shift
    by one and carry an override; only its JSON form is used, and the
    override makes AB differ from I at row 2."""
    G, L = FreeAbelian(1), LeavittRing(2)
    T = TranslationRing(G, whole_group(G), L)
    A = RingMatrix(T, 2, 1, [T.term((1,), T.fn(L.gen_star(1), {(2,): L.zero()})),
                             T.term((1,), T.fn(L.gen_star(2)))])
    B = RingMatrix(T, 1, 2, [T.term((-1,), T.fn(L.gen(i))) for i in (1, 2)])
    return T, RankCertificate(T, 1, 2, A, B)


def test_one_writer_for_both_certificate_kinds():
    T, cert = _shift_certificate()
    data = certificate_to_json(cert)
    assert data == translation_certificate_to_json(T, cert)
    assert (data["ring"], data["group"], data["subset"]) == ("L(1,2)", "Z", "all")
    assert data["A"][0][0] == [{"shift": "1", "const": "e1'",
                                "overrides": {"2": "0"}}]


def test_translation_certificate_writer_refuses_another_ring():
    """The header names T, so a certificate over another ring is refused
    rather than written under it."""
    T, cert = _shift_certificate()
    G = FreeAbelian(1)
    other = TranslationRing(G, whole_group(G), LeavittRing(3))
    with pytest.raises(ValueError, match=re.escape(other.name)):
        translation_certificate_to_json(other, cert)


def test_translation_certificate_refuses_a_right_ring():
    """The JSON form records no side, so a right-ring certificate would
    reload as a left-ring one with other entries: writing it is refused."""
    G = FreeGroup(2)
    T = RightTranslationRing(G, whole_group(G), IntegerRing())
    one = RingMatrix(T, 1, 1, [T.one()])
    with pytest.raises(ValueError, match="left ring"):
        translation_certificate_to_json(T, RankCertificate(T, 1, 1, one, one))


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

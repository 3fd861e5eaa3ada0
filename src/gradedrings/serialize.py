"""Ring name parsing and JSON (de)serialization for certificates and
witnesses.

Ring names: "Z", "Q", "Z/5", "M2(Z)", "L(1,2)", "op(...)", "prod(..., ...)",
"group(Z, C(2))".  A ring's spec is its name.  Certificates serialize as
{ring, n, m, A, B} with entries row-major, each written by
element_to_jsonable: a ring's canonical text form, nested lists for matrix
and product rings, and a term list for translation rings, whose
certificates also record the group and the subset.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .amenability import InjectionWitness, whole_group
from .graded import group_ring
from .groups import Group, group_from_spec, split_top_level
from .rings import (IntegerModRing, IntegerRing, MatrixRing, ProductRing,
                    RankCertificate, Ring, RingMatrix, RationalRing)
from .special_algebras import LeavittRing
from .translation import CoeffFn, RightTranslationRing, TranslationRing


def ring_from_spec(spec: str) -> Ring:
    spec = spec.strip()
    if spec == "Z":
        return IntegerRing()
    if spec == "Q":
        return RationalRing()
    m = re.fullmatch(r"Z/(\d+)", spec)
    if m:
        return IntegerModRing(int(m.group(1)))
    m = re.fullmatch(r"M(\d+)\((.*)\)", spec)
    if m:
        return MatrixRing(ring_from_spec(m.group(2)), int(m.group(1)))
    m = re.fullmatch(r"L\(1,\s*(\d+)\)", spec)
    if m:
        return LeavittRing(int(m.group(1)))
    m = re.fullmatch(r"L\(1,\s*(\d+);\s*(.*)\)", spec)
    if m:
        return LeavittRing(int(m.group(1)), ring_from_spec(m.group(2)))
    m = re.fullmatch(r"op\((.*)\)", spec)
    if m:
        return ring_from_spec(m.group(1)).opposite()
    m = re.fullmatch(r"prod\((.*)\)", spec)
    if m:
        return ProductRing([ring_from_spec(p)
                            for p in split_top_level(m.group(1), ",")])
    m = re.fullmatch(r"group\((.*)\)", spec)
    if m:
        parts = split_top_level(m.group(1), ",")
        if len(parts) != 2:
            raise ValueError(f"group ring spec needs (ring, group): {spec!r}")
        return group_ring(group_from_spec(parts[1]), ring_from_spec(parts[0]))
    raise ValueError(f"unknown ring spec: {spec!r}")


def ring_to_spec(ring: Ring) -> str:
    """The ring's name, when that name reads back as the ring."""
    try:
        if ring_from_spec(ring.name) == ring:
            return ring.name
    except ValueError:
        pass
    raise ValueError(f"ring {ring.name} has no serializable spec")


def _matrix_to_json(ring: Ring, M: RingMatrix) -> list:
    """M as dense rows of element_to_jsonable(ring, entry), with the zero
    converted once; _matrix_from_json reads it."""
    zero, out = element_to_jsonable(ring, ring.zero()), []
    for row in M.support:
        out.append([zero] * M.cols)
        for j, x in row.items():
            out[-1][j] = element_to_jsonable(ring, x)
    return out


def _matrix_from_json(ring: Ring, data: list) -> RingMatrix:
    """Dense rows of entries as a RingMatrix, each row read straight into
    its support row: a zero is not stored, and each distinct entry (a text,
    or a list object, which data keeps alive) is parsed once."""
    if not data or any(len(row) != len(data[0]) for row in data):
        raise ValueError("no rows, or ragged rows")
    parsed, support = {}, []  # parsed[key] is None for a zero
    for row in data:
        out = {}
        for j, v in enumerate(row):
            key = v if isinstance(v, str) else id(v)
            x = parsed.get(key, parsed)
            if x is parsed:
                x = element_from_jsonable(ring, v)
                x = parsed[key] = None if ring.is_zero(x) else x
            if x is not None:
                out[j] = x
        support.append(out)
    return RingMatrix.from_support_rows(ring, len(data[0]), support)


def _is_rows(data) -> bool:
    return isinstance(data, list) and all(isinstance(row, list) for row in data)


def element_to_jsonable(ring: Ring, x):
    if isinstance(ring, MatrixRing):
        return _matrix_to_json(ring.base, x)
    if isinstance(ring, ProductRing):
        return [element_to_jsonable(f, c) for f, c in zip(ring.factors, x)]
    if isinstance(ring, TranslationRing):
        G, S = ring.group, ring.base.base
        return [{"shift": G.element_to_str(g),
                 "const": element_to_jsonable(S, x[g].const),
                 "overrides": {G.element_to_str(y): element_to_jsonable(S, v)
                               for y, v in sorted(x[g].overrides.items(),
                                                  key=lambda kv: G.element_key(kv[0]))}}
                for g in sorted(x, key=G.element_key)]
    return ring.element_to_str(x)


def element_from_jsonable(ring: Ring, data):
    if isinstance(ring, MatrixRing):
        if not _is_rows(data):
            raise ValueError(f"an entry over {ring.name} is not a list of lists")
        x = _matrix_from_json(ring.base, data)
        if (x.rows, x.cols) != (ring.size, ring.size):
            raise ValueError(f"{ring.name} entry is {x.rows}x{x.cols}, "
                             f"not {ring.size}x{ring.size}")
        return x
    if isinstance(ring, ProductRing):
        if not isinstance(data, list) or len(data) != len(ring.factors):
            raise ValueError(f"an entry over {ring.name} is not a list of "
                             f"{len(ring.factors)} entries")
        return tuple(element_from_jsonable(f, v) for f, v in zip(ring.factors, data))
    if isinstance(ring, TranslationRing):
        if not isinstance(data, list) or not all(
                isinstance(t, dict) and isinstance(t.get("shift"), str)
                and "const" in t and isinstance(t.get("overrides", {}), dict)
                for t in data):
            raise ValueError(f"an entry over {ring.name} is not a list of terms, "
                             "each with a text 'shift' and a 'const'")
        G, S = ring.group, ring.base.base
        out = ring.zero()
        for term in data:
            f = CoeffFn(S, element_from_jsonable(S, term["const"]),
                        {G.element_from_str(y): element_from_jsonable(S, v)
                         for y, v in term.get("overrides", {}).items()})
            out = ring.add(out, ring.term(G.element_from_str(term["shift"]), f))
        return out
    if not isinstance(data, str):
        raise ValueError(f"an entry over {ring.name} is not a string")
    return ring.element_from_str(data)


# certificates ----------------------------------------------------------------


def certificate_to_json(cert: RankCertificate) -> dict:
    """A certificate over T(G|X; R) names R as its ring and records G and X."""
    ring, header = cert.ring, {}
    if isinstance(ring, RightTranslationRing):
        raise ValueError("the JSON form records no side: it reloads as a left ring")
    if isinstance(ring, TranslationRing):
        ring, header = ring.base.base, {"group": ring.group.name,
                                        "subset": ring.X.name}
    return {
        "ring": ring_to_spec(ring),
        **header,
        "n": cert.n,
        "m": cert.m,
        "A": _matrix_to_json(cert.ring, cert.A),
        "B": _matrix_to_json(cert.ring, cert.B),
    }


def check_json_object(data, kind: str, required: tuple, types: tuple,
                      entries: tuple = ()) -> None:
    """Refuse, with a message that names the kind read and the field, data
    that is not a JSON object, lacks a required field, or holds a field of
    the wrong JSON type.  types and entries list (fields, what, test): a
    types test reads the field's value, an entries test each entry of the
    list or object there, and its message names that entry."""
    if not isinstance(data, dict):
        raise ValueError(f"the file is not a JSON object, so not a {kind}")
    for field in required:
        if field not in data:
            raise ValueError(f"{kind} is missing field {field!r}")
    for fields, what, ok in types:
        for field in fields:
            if field in data and not ok(data[field]):
                raise ValueError(f"{kind} field {field!r} is not {what}")
    for fields, what, ok in entries:
        for field in fields:
            value = data.get(field, ())
            for key, entry in (value.items() if isinstance(value, dict)
                               else enumerate(value)):
                if not ok(entry):
                    raise ValueError(f"{kind} field {field!r} entry {key!r} is not {what}")


def _check_certificate_data(data, translation: bool) -> None:
    """Refuse, with a message that names the kind read, data that is not a
    JSON object, a certificate of the other kind (a translation-ring
    certificate has a 'group' field, a rank certificate none), one that
    lacks a field both kinds have, or a field of the wrong JSON type."""
    kinds = ("rank certificate", "translation-ring certificate")
    kind, other = kinds[translation], kinds[not translation]
    if isinstance(data, dict) and ("group" in data) != translation:
        has = "no" if translation else "a"
        raise ValueError(f"a {other} (it has {has} 'group' field), not a {kind}")
    check_json_object(data, kind, ("ring", "n", "m", "A", "B"),
                      ((("ring", "group"), "a string", lambda v: isinstance(v, str)),
                       ("nm", "an integer", lambda v: type(v) is int),
                       ("AB", "a list of lists", _is_rows)))


def _certificate_over(ring: Ring, data: dict) -> RankCertificate:
    return RankCertificate(ring, data["n"], data["m"],
                           _matrix_from_json(ring, data["A"]),
                           _matrix_from_json(ring, data["B"]))


def certificate_from_json(data: dict) -> RankCertificate:
    _check_certificate_data(data, translation=False)
    return _certificate_over(ring_from_spec(data["ring"]), data)


def translation_certificate_to_json(tring: TranslationRing,
                                    cert: RankCertificate) -> dict:
    if cert.ring != tring:
        raise ValueError(f"the certificate is over {cert.ring.name}, "
                         f"not over {tring.name}")
    return certificate_to_json(cert)


def translation_certificate_from_json(data: dict):
    """Load a certificate over T(G|all; R).  A subset other than "all" is
    not determined by its name, so it is refused; a missing one is "all"."""
    _check_certificate_data(data, translation=True)
    subset = data.get("subset", "all")
    if subset != "all":
        raise ValueError(f"cannot rebuild subset {subset!r} from a "
                         "translation certificate (only 'all')")
    group = group_from_spec(data["group"])
    tring = TranslationRing(group, whole_group(group), ring_from_spec(data["ring"]))
    return tring, _certificate_over(tring, data)


# witnesses -------------------------------------------------------------------


def injection_witness_to_json(group: Group, w) -> dict:
    """Each distinct element of V, W, K and the images is printed once."""
    s = {x: group.element_to_str(x)
         for x in {*w.V, *w.W, *w.K, *w.alpha.values(), *w.beta.values()}}
    return {
        "group": group.name,
        "V": [s[x] for x in w.V],
        "W": [s[x] for x in w.W],
        "K": [s[x] for x in w.K],
        "alpha": [[s[x], s[w.alpha[x]]] for x in w.V],
        "beta": [[s[x], s[w.beta[x]]] for x in w.V],
    }


def injection_witness_from_json(data: dict):
    """Each distinct text is parsed once."""
    group = group_from_spec(data["group"])
    pairs = data["alpha"] + data["beta"]
    texts = {*data["V"], *data["W"], *data["K"], *(t for pair in pairs for t in pair)}
    p = {t: group.element_from_str(t) for t in texts}
    return group, InjectionWitness(
        V=[p[x] for x in data["V"]],
        W=[p[x] for x in data["W"]],
        K=[p[x] for x in data["K"]],
        alpha={p[a]: p[b] for a, b in data["alpha"]},
        beta={p[a]: p[b] for a, b in data["beta"]},
    )


def folner_witness_to_json(group: Group, w) -> dict:
    s = group.element_to_str
    return {
        "group": group.name,
        "K": [s(x) for x in w.K],
        "eps": str(Fraction(w.eps)),
        "F": [s(x) for x in sorted(w.F, key=group.element_key)],
        "counts": {"KF_in_X": w.kf_count, "F_in_X": w.f_count},
    }


def dump_json(data, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)

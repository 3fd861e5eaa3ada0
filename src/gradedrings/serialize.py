"""Ring name parsing and JSON (de)serialization for certificates, witnesses,
and translation-ring elements.

Ring names: "Z", "Q", "Z/5", "M2(Z)", "L(1,2)", "op(...)", "prod(..., ...)",
"group(Z, C(2))".  Certificates serialize as {ring, n, m, A, B} with entries
row-major in each ring's canonical text form (nested lists for matrix and
product rings).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .amenability import InjectionWitness, whole_group
from .graded import CrossedProductRing, group_ring
from .groups import Group, group_from_spec, split_top_level
from .rings import (IntegerModRing, IntegerRing, MatrixRing, ProductRing,
                    RankCertificate, Ring, RingMatrix, RationalRing)
from .special_algebras import LeavittRing
from .translation import CoeffFn, TranslationRing


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
    if isinstance(ring, (IntegerRing, RationalRing, IntegerModRing, LeavittRing)):
        return ring.name
    if isinstance(ring, MatrixRing):
        return f"M{ring.size}({ring_to_spec(ring.base)})"
    if isinstance(ring, ProductRing):
        return "prod(" + ", ".join(ring_to_spec(f) for f in ring.factors) + ")"
    if isinstance(ring, CrossedProductRing) and ring.cs.is_group_ring:
        return f"group({ring_to_spec(ring.base)}, {ring.group.name})"
    if ring.name.startswith("op("):
        return f"op({ring_to_spec(ring.opposite())})"
    raise ValueError(f"ring {ring.name} has no serializable spec")


def _matrix_to_json(ring: Ring, M: RingMatrix, element_to_json) -> list:
    """M as dense rows of element_to_json(ring, entry), with the zero
    converted once; _matrix_from_json reads it."""
    zero, out = element_to_json(ring, ring.zero()), []
    for row in M.support:
        out.append([zero] * M.cols)
        for j, x in row.items():
            out[-1][j] = element_to_json(ring, x)
    return out


def _matrix_from_json(ring: Ring, data: list, element_from_json) -> RingMatrix:
    """Dense rows of entries as a RingMatrix, each row read straight into
    its support row: a zero is not stored, and each distinct entry (a text,
    or a list object, which data keeps alive) is parsed once."""
    parsed = {}

    def element(v):  # None stands for a zero
        key = v if isinstance(v, str) else id(v)
        if key not in parsed:
            x = element_from_json(ring, v)
            parsed[key] = None if ring.is_zero(x) else x
        return parsed[key]

    if not data or any(len(row) != len(data[0]) for row in data):
        raise ValueError("no rows, or ragged rows")
    return RingMatrix.from_support_rows(ring, len(data[0]), [
        {j: x for j, x in enumerate(map(element, row)) if x is not None}
        for row in data])


def element_to_jsonable(ring: Ring, x):
    if isinstance(ring, MatrixRing):
        return _matrix_to_json(ring.base, x, element_to_jsonable)
    if isinstance(ring, ProductRing):
        return [element_to_jsonable(f, c) for f, c in zip(ring.factors, x)]
    return ring.element_to_str(x)


def element_from_jsonable(ring: Ring, data):
    if isinstance(ring, MatrixRing):
        x = _matrix_from_json(ring.base, data, element_from_jsonable)
        if (x.rows, x.cols) != (ring.size, ring.size):
            raise ValueError(f"{ring.name} entry is {x.rows}x{x.cols}, "
                             f"not {ring.size}x{ring.size}")
        return x
    if isinstance(ring, ProductRing):
        return tuple(element_from_jsonable(f, v) for f, v in zip(ring.factors, data))
    return ring.element_from_str(data)


def certificate_to_json(cert: RankCertificate) -> dict:
    return {
        "ring": ring_to_spec(cert.ring),
        "n": cert.n,
        "m": cert.m,
        "A": _matrix_to_json(cert.ring, cert.A, element_to_jsonable),
        "B": _matrix_to_json(cert.ring, cert.B, element_to_jsonable),
    }


def certificate_from_json(data: dict) -> RankCertificate:
    ring = ring_from_spec(data["ring"])
    n, m = int(data["n"]), int(data["m"])
    A = _matrix_from_json(ring, data["A"], element_from_jsonable)
    B = _matrix_from_json(ring, data["B"], element_from_jsonable)
    return RankCertificate(ring, n, m, A, B)


# translation-ring certificates: entries are term lists ------------------------


def translation_element_to_json(tring: TranslationRing, M: dict) -> list:
    G, S = tring.group, tring.base.base
    out = []
    for g in sorted(M, key=G.element_key):
        f = M[g]
        out.append({
            "shift": G.element_to_str(g),
            "const": element_to_jsonable(S, f.const),
            "overrides": {G.element_to_str(x): element_to_jsonable(S, v)
                          for x, v in sorted(f.overrides.items(),
                                             key=lambda kv: G.element_key(kv[0]))},
        })
    return out


def translation_element_from_json(tring: TranslationRing, data: list) -> dict:
    G, S = tring.group, tring.base.base
    out = tring.zero()
    for term in data:
        g = G.element_from_str(term["shift"])
        f = CoeffFn(S, element_from_jsonable(S, term["const"]),
                    {G.element_from_str(x): element_from_jsonable(S, v)
                     for x, v in term.get("overrides", {}).items()})
        out = tring.add(out, tring.term(g, f))
    return out


def translation_certificate_to_json(tring: TranslationRing,
                                    cert: RankCertificate) -> dict:
    return {
        "ring": ring_to_spec(tring.base.base),
        "group": tring.group.name,
        "subset": tring.X.name,
        "n": cert.n,
        "m": cert.m,
        "A": _matrix_to_json(tring, cert.A, translation_element_to_json),
        "B": _matrix_to_json(tring, cert.B, translation_element_to_json),
    }


def translation_certificate_from_json(data: dict):
    """Load a certificate over T(G|all; R).  A subset other than "all" is
    not determined by its name, so it is refused; a missing one is "all"."""
    subset = data.get("subset", "all")
    if subset != "all":
        raise ValueError(f"cannot rebuild subset {subset!r} from a "
                         "translation certificate (only 'all')")
    group = group_from_spec(data["group"])
    base = ring_from_spec(data["ring"])
    tring = TranslationRing(group, whole_group(group), base)
    n, m = int(data["n"]), int(data["m"])
    A = _matrix_from_json(tring, data["A"], translation_element_from_json)
    B = _matrix_from_json(tring, data["B"], translation_element_from_json)
    return tring, RankCertificate(tring, n, m, A, B)


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

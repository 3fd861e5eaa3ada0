"""Command-line front end.

Subcommands cover every construction in the library: folner, paradox,
collapse, compress, cert (verify/extend/opposite/block/product/hom), monoid,
crossed, endo-graded, psi, normalize, bs-check, rosenblatt, and repro.
Exit codes: 0, 1 or 4 from EXIT_CODES for a printed verdict (1 is a
verified negative, 4 an undecided "unknown"), 2 on input errors, 3 on an
internal error (never a verdict).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction

from . import checks
from .amenability import (FolnerWitness, InjectionWitness, bs_X, bs_X0,
                          bs_example_check, find_two_to_one_injection,
                          folner_search, rosenblatt_find,
                          verify_hall_violation, whole_group)
from .graded import (CrossedProductRing, CrossedSystem,
                     endo_graded_construction, group_ring_augmentation,
                     psi_embedding_check, verify_crossed_system)
from .groups import (DEFAULT_MAX_RADIUS, BaumslagSolitar, Group,
                     group_from_spec, split_top_level)
from .monoids import (DEFAULT_CLOSURE_DEPTH, MnklParams, cnk_leq,
                      cnk_normalize, mnkl_leq, mnkl_vector)
from .report import VerificationError, verdict_of
from .rings import (IntegerModRing, IntegerRing, block_down_certificate,
                    block_up_certificate, extend_certificate, hom_certificate,
                    opposite_certificate, product_certificate,
                    verify_certificate)
from .serialize import (certificate_from_json, certificate_to_json, check_json_object,
                        dump_json, folner_witness_to_json, injection_witness_to_json,
                        load_json, ring_from_spec,
                        translation_certificate_from_json)
from .special_algebras import LeavittRing, WeylRing
from .translation import (CompressionInput, FolnerInequalityError,
                          collapse_matrices, compress_certificate)

# ---------------------------------------------------------------------------
# parsing helpers


def _parse_list(parse, text: str) -> list:
    """Elements separated by ";" (some element forms hold commas), read by parse."""
    return [parse(p) for p in split_top_level(text, ";")]


def _parse_set(group: Group, text: str) -> list:
    """A finite subset: "ball:r", or a ";"-separated list (braces optional)."""
    text = text.strip()
    m = re.fullmatch(r"ball:(\d+)", text)
    if m:
        r = int(m.group(1))
        return group.ball(r, max_radius=r)
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    return _parse_list(group.element_from_str, text)


def _weyl_ring(a: str, b: str) -> WeylRing:
    return WeylRing([int(v) for v in a.split(",")], [int(v) for v in b.split(",")])


def _subset(group: Group, name: str):
    if name == "all":
        return whole_group(group)
    if name == "bs-x":
        return bs_X(group)
    if name == "bs-x0":
        return bs_X0(group)
    raise ValueError(f"unknown subset spec: {name!r} (use all, bs-x, bs-x0)")


# The one place a verdict becomes an exit code; 1 means a verified "no" and
# 4 a search that ended without deciding.
EXIT_CODES = {
    "pass": 0, "witness": 0, "compressed": 0, "valid": 0, "yes": 0, "found": 0,
    "fail": 1, "no-witness": 1, "infeasible": 1, "refused": 1, "invalid": 1,
    "no": 1, "unknown": 4,
}


def _emit(args, lines: list, payload: dict) -> int:
    """Print the lines, or the payload as JSON; return the verdict's exit
    code.  A verdict missing from EXIT_CODES raises before printing."""
    verdict = payload["verdict"]
    if verdict not in EXIT_CODES:
        raise RuntimeError(f"no exit code for verdict {verdict!r}")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in lines:
            print(line)
    return EXIT_CODES[verdict]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_folner(args) -> int:
    G = group_from_spec(args.group)
    X = _subset(G, args.subset)
    K = _parse_set(G, args.k)
    try:
        eps = Fraction(args.eps)
    except ZeroDivisionError:
        raise ValueError(f"--eps {args.eps} has a zero denominator") from None
    res = folner_search(G, X, K, eps, args.r_max)
    if isinstance(res, FolnerWitness):
        used = args.format == "json" or args.out  # text prints no payload
        data = folner_witness_to_json(G, res) if used else {}
        if args.out:
            dump_json(data, args.out)
        return _emit(args, [
            f"witness found: |F| = {len(res.F)}",
            f"|KF cap X| = {res.kf_count} < (1 + {res.eps}) * {res.f_count}"
            f" = (1 + eps) |F cap X|",
        ], {"verdict": "witness", **data})
    lines = [f"no witness among balls of radius 0..{res.r_max}"]
    for idx, kf, f, ratio in res.ratios:
        lines.append(f"  radius {idx}: |KF cap X| / |F cap X| = {kf}/{f}"
                     + (f" = {ratio}" if ratio is not None else ""))
    lines.append(f"best ratio: {res.best_ratio}")
    return _emit(args, lines, {
        "verdict": "no-witness", "r_max": res.r_max, "best_ratio": str(res.best_ratio),
        "ratios": [[i, kf, f, str(r)] for i, kf, f, r in res.ratios]})


def _injection_sets(args):
    """The group and V, W, K of paradox and collapse.  An empty V is an
    input error: the empty map would pass without a single element checked."""
    G = group_from_spec(args.group)
    V = _parse_set(G, args.v)
    if not V:
        raise ValueError("--v is empty: no element to match")
    return G, V, _parse_set(G, args.w), _parse_set(G, args.k)


def _injection_search(G, V, W, K):
    """The two-to-one injection search of paradox and collapse.  A Hall
    violator is recounted before either command reports it; one that fails
    its recount is an internal error, never a verified "no"."""
    res = find_two_to_one_injection(G, V, W, K)
    if not isinstance(res, InjectionWitness) and not verify_hall_violation(
            G, V, W, K, res.violating_set):
        raise VerificationError("Hall violator failed its recount")
    return res


def _cmd_paradox(args) -> int:
    G, V, W, K = _injection_sets(args)
    res = _injection_search(G, V, W, K)
    s = G.element_to_str
    if isinstance(res, InjectionWitness):
        used = args.format == "json" or args.out  # text prints no payload
        data = injection_witness_to_json(G, res) if used else {}
        if args.out:
            dump_json(data, args.out)
        return _emit(args, [f"two-to-one injection found: |V| = {len(V)}, "
                            f"|W| = {len(W)}, translators in K of size {len(K)}"],
                     {"verdict": "witness", **data})
    lines = [
        "infeasible: Hall condition fails",
        "A = {" + "; ".join(s(x) for x in res.violating_set) + "}",
        f"|KA cap W| = {len(res.neighborhood)} < 2 |A| = {2 * len(res.violating_set)}",
    ]
    return _emit(args, lines, {"verdict": "infeasible",
                               "violating_set": [s(x) for x in res.violating_set],
                               "neighborhood_size": len(res.neighborhood)})


def _cmd_collapse(args) -> int:
    G, V, W, K = _injection_sets(args)
    R = ring_from_spec(args.ring)
    res = _injection_search(G, V, W, K)
    if not isinstance(res, InjectionWitness):
        return _emit(args, ["no two-to-one injection; collapse matrices not built"],
                     {"verdict": "infeasible"})
    out = collapse_matrices(G, res, R)
    return _emit(args, out.lines(), out.to_json())


def _cmd_compress(args) -> int:
    data = load_json(args.certificate)
    tring, cert = translation_certificate_from_json(data)
    G = tring.group
    ci = CompressionInput(tring, cert, _parse_set(G, args.k), _parse_set(G, args.f))
    try:
        res = compress_certificate(ci)
    except FolnerInequalityError as exc:
        return _emit(args, [f"compression refused: {exc}"],
                     {"verdict": "refused", "reason": str(exc)})
    out_cert = res.certificate
    lines = [
        f"window verification passed on {len(res.U)} x {len(res.U)} points",
        f"Folner inequality: n |U| = {cert.n * len(res.U)} < "
        f"m |F cap X| = {cert.m * len(res.F_X)}",
        f"compressed certificate: ({out_cert.n}, {out_cert.m}) over "
        f"{out_cert.ring.name}, verified",
    ]
    if args.out:
        dump_json(certificate_to_json(out_cert), args.out)
    return _emit(args, lines, {"verdict": "compressed", "n": out_cert.n,
                               "m": out_cert.m})


def _cert_emit(args, cert) -> int:
    v = verify_certificate(cert)
    if not v:
        raise VerificationError(f"certificate invalid at {v.position}")
    if args.out:
        dump_json(certificate_to_json(cert), args.out)
    return _emit(args, [f"certificate ({cert.n}, {cert.m}) over {cert.ring.name}: "
                        f"valid, BGN {v.bgn}"],
                 {"verdict": "valid", "n": cert.n, "m": cert.m, "bgn": v.bgn})


def _cmd_cert(args) -> int:
    if args.action != "product" and len(args.files) != 1:
        raise ValueError(f"cert {args.action} takes exactly one certificate "
                         f"file, got {len(args.files)}")
    certs = [certificate_from_json(load_json(p)) for p in args.files]
    if args.action == "product":
        return _cert_emit(args, product_certificate(certs))
    cert = certs[0]
    if args.action == "verify":
        v = verify_certificate(cert)
        if v:
            return _emit(args, [f"valid: AB = I_{cert.m}, BGN {v.bgn}"],
                         {"verdict": "valid", "bgn": v.bgn})
        return _emit(args, [f"invalid at entry {v.position} of AB"],
                     {"verdict": "invalid", "position": list(v.position)})
    if args.action == "extend":
        if args.target is None:
            raise ValueError("cert extend needs --target")
        return _cert_emit(args, extend_certificate(cert, args.target))
    if args.action == "opposite":
        return _cert_emit(args, opposite_certificate(cert))
    if args.action == "block":
        if args.up is not None:
            return _cert_emit(args, block_up_certificate(cert, args.up))
        return _cert_emit(args, block_down_certificate(cert))
    if args.action == "hom":
        if args.map == "aug":
            R = cert.ring
            if not isinstance(R, CrossedProductRing):
                raise ValueError("aug needs a group-ring certificate")
            return _cert_emit(args, hom_certificate(
                cert, lambda a: group_ring_augmentation(R, a), R.base))
        m = re.fullmatch(r"mod:(\d+)", args.map or "")
        if not m:
            raise ValueError(f"unknown map {args.map!r} (use aug or mod:m)")
        if not isinstance(cert.ring, IntegerRing):
            raise ValueError("mod:m needs a certificate over Z")
        target = IntegerModRing(int(m.group(1)))
        return _cert_emit(args, hom_certificate(cert, target.from_int, target))
    raise ValueError(f"unknown cert action {args.action!r}")


_MONOID_RE = re.compile(r"(.+?)<=(.+?)\s+in\s+([MC]\(.+?\))\s*$")


def _cmd_monoid(args) -> int:
    m = _MONOID_RE.fullmatch(args.expression.strip())
    if not m:
        raise ValueError('expected "LHS <= RHS in M(n,k,l)" or "... in C(n,k)"')
    lhs_s, rhs_s, monoid = m.group(1), m.group(2), m.group(3)
    cm = re.fullmatch(r"C\((\d+),\s*(\d+)\)", monoid)
    if cm:
        n, k = int(cm.group(1)), int(cm.group(2))
        lam, mu = _parse_c_side(lhs_s), _parse_c_side(rhs_s)
        verdict = cnk_leq(n, k, lam, mu)
        lines = [f"{lam}a <= {mu}a in C({n},{k}): {'yes' if verdict else 'no'}",
                 f"canonical forms: {cnk_normalize(n, k, lam)}a and "
                 f"{cnk_normalize(n, k, mu)}a"]
        return _emit(args, lines, {"verdict": "yes" if verdict else "no"})
    mm = re.fullmatch(r"M\((\d+),\s*(\d+),\s*(\d+)\)", monoid)
    if not mm:
        raise ValueError(f"unknown monoid {monoid!r}")
    params = MnklParams(int(mm.group(1)), int(mm.group(2)), int(mm.group(3)))
    s = _parse_m_side(params, lhs_s)
    t = _parse_m_side(params, rhs_s)
    res = mnkl_leq(params, s, t, depth=args.depth)
    if res.verdict == "yes":
        lines = [f"yes: s + z = t with z = {res.z}"]
        for parent, rel, child in res.chain:
            lines.append(f"  {parent} --{rel}--> {child}")
        return _emit(args, lines, {"verdict": "yes", "z": list(res.z)})
    if res.verdict == "no":
        return _emit(args, [f"no (separator {res.separator}): {res.reason}"],
                     {"verdict": "no", "separator": res.separator,
                      "reason": res.reason})
    return _emit(args, [f"unknown: {res.reason}"],
                 {"verdict": "unknown", "reason": res.reason})


def _parse_c_side(text: str) -> int:
    text = text.strip()
    m = re.fullmatch(r"(\d+)\s*\*?\s*a|(\d+)|a", text)
    if not m:
        raise ValueError(f"cannot parse C(n,k) element {text!r}")
    if m.group(1) is not None:
        return int(m.group(1))
    if m.group(2) is not None:
        return int(m.group(2))
    return 1


def _parse_m_side(params: MnklParams, text: str) -> tuple:
    u, x, y = 0, Counter(), Counter()
    for term in text.split("+"):
        term = term.strip()
        if term == "0":
            continue
        m = re.fullmatch(r"(?:(\d+)\s*\*?\s*)?(u|x(\d+)|y(\d+))", term)
        if not m:
            raise ValueError(f"cannot parse monoid term {term!r}")
        c = int(m.group(1)) if m.group(1) else 1
        if m.group(2) == "u":
            u += c
        else:
            i = int(m.group(3) or m.group(4))
            if not 1 <= i <= params.l:
                raise ValueError(f"index in {term!r} out of range 1..{params.l}")
            (x if m.group(3) else y)[i] += c
    return mnkl_vector(params, u, x, y)


# the fields a crossed-system config may have, with their JSON types, and
# the fields whose entries are ring elements written as strings
_CROSSED_FIELDS = ((("group", "ring"), "a string", lambda v: isinstance(v, str)),
                   (("omega", "omega_inv"), "an object", lambda v: isinstance(v, dict)),
                   (("samples",), "a nonempty list",
                    lambda v: isinstance(v, list) and bool(v)))
_CROSSED_ENTRIES = ((("omega", "omega_inv", "samples"), "a string",
                     lambda v: isinstance(v, str)),)


def _cmd_crossed(args) -> int:
    cfg = load_json(args.config)
    twisted = isinstance(cfg, dict) and ("omega" in cfg or "omega_inv" in cfg)
    check_json_object(cfg, "crossed-system config",
                      ("group", "ring") + (("omega", "omega_inv") if twisted else ()),
                      _CROSSED_FIELDS, _CROSSED_ENTRIES)
    G = group_from_spec(cfg["group"])
    R = ring_from_spec(cfg["ring"])
    omega = omega_inv = None
    if twisted:
        omega = _omega_table(G, R, cfg, "omega")
        omega_inv = _omega_table(G, R, cfg, "omega_inv")
    samples = None
    if "samples" in cfg:
        samples = [R.element_from_str(s) for s in cfg["samples"]]
    rep = verify_crossed_system(CrossedSystem(G, R, omega=omega, omega_inv=omega_inv),
                                samples)
    return _emit(args, rep.lines(), rep.to_json())


def _omega_table(G: Group, R, cfg: dict, field: str) -> dict:
    """The table at cfg[field], keyed "g; h", with an entry for every pair."""
    out = {}
    for key, val in cfg[field].items():
        pair = split_top_level(key, ";")
        if len(pair) != 2:
            raise ValueError(f"crossed-system config field {field!r} key {key!r} "
                             "is not of the form 'g; h'")
        out[tuple(G.element_from_str(x) for x in pair)] = R.element_from_str(val)
    for g in G.elements():
        for h in G.elements():
            if (g, h) not in out:
                raise ValueError(f"crossed-system config field {field!r} has no entry for "
                                 f"the pair ({G.element_to_str(g)}, {G.element_to_str(h)})")
    return out


def _cmd_endo_graded(args) -> int:
    G = group_from_spec(args.group)
    S = ring_from_spec(args.ring)
    _, rep = endo_graded_construction(S, G, args.n, args.l)
    return _emit(args, rep.lines(), rep.to_json())


def _cmd_psi(args) -> int:
    ring = _weyl_ring(args.a, args.b)
    samples = _parse_list(ring.element_from_str, args.samples)
    rep = psi_embedding_check(ring, samples, window=args.window,
                              component_window=args.component_window)
    return _emit(args, rep.lines(), rep.to_json())


def _cmd_normalize(args) -> int:
    ring = _algebra_from_spec(args.algebra)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        print(ring.element_to_str(ring.element_from_str(line)))
    return 0


def _algebra_from_spec(spec: str):
    m = re.fullmatch(r"leavitt:n=(\d+)", spec)
    if m:
        return LeavittRing(int(m.group(1)))
    m = re.fullmatch(r"weyl(?::a=([\d,-]+);b=([\d,-]+))?", spec)
    if m:
        return _weyl_ring(m.group(1) or "1", m.group(2) or "1")
    raise ValueError(f"unknown algebra spec {spec!r} "
                     "(use leavitt:n=N or weyl[:a=..;b=..])")


def _cmd_bs_check(args) -> int:
    rep = bs_example_check(args.k, args.r)
    return _emit(args, rep.lines(), rep.to_json())


def _cmd_rosenblatt(args) -> int:
    G = BaumslagSolitar(args.k)
    u = tuple(_parse_list(G.element_from_str, args.u))
    v = tuple(_parse_list(G.element_from_str, args.v))
    res = rosenblatt_find(args.k, u, v)
    return _emit(args, [
        f"g = {G.element_to_str(res.g)}",
        f"|g^-1 u cap X| = {res.u_count} < |g^-1 v cap X| = {res.v_count}",
    ], {"verdict": "found", "g": G.element_to_str(res.g),
        "u_count": res.u_count, "v_count": res.v_count})


def _cmd_repro(args) -> int:
    names = [name for name, _ in checks.ALL_CHECKS]
    if args.list:
        for name in names:
            print(name)
        return 0
    if args.name == "all":
        selected = checks.ALL_CHECKS
    else:
        selected = [(n, f) for n, f in checks.ALL_CHECKS if n == args.name]
        if not selected:
            raise ValueError(f"unknown check {args.name!r}; one of: "
                             + ", ".join(names + ["all"]))
    results = {name: fn() for name, fn in selected}
    lines = []
    for r in results.values():
        lines.append(r.line)
        if args.verbose or not r.ok:
            lines += [f"    {d}" for d in r.lines()]
    return _emit(args, lines, {
        "verdict": verdict_of(*results.values()),
        "checks": [{"check": name, **r.to_json()} for name, r in results.items()]})


# ---------------------------------------------------------------------------
# argument parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedrings",
        description="Exact verification tools for generating numbers of "
                    "group-graded rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=["text", "json"], default="text")
        return p

    p = add("folner", _cmd_folner, help="search for a Folner set over balls")
    p.add_argument("--group", required=True)
    p.add_argument("--subset", default="all")
    p.add_argument("--k", required=True, help='e.g. "ball:1" or "{0; 1}"')
    p.add_argument("--eps", required=True)
    p.add_argument("--r-max", type=int, default=DEFAULT_MAX_RADIUS)
    p.add_argument("--out")

    p = add("paradox", _cmd_paradox,
            help="search for a truncated two-to-one injection")
    p.add_argument("--group", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--out")

    p = add("collapse", _cmd_collapse,
            help="build and verify rank-collapse matrices from an injection")
    p.add_argument("--group", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--ring", default="Z")

    p = add("compress", _cmd_compress,
            help="compress a translation-ring certificate over a Folner set")
    p.add_argument("--certificate", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--out")

    p = add("cert", _cmd_cert, help="verify or transform rank certificates")
    p.add_argument("action", choices=["verify", "extend", "opposite", "block",
                                      "product", "hom"])
    p.add_argument("files", nargs="+", metavar="file")
    p.add_argument("--target", type=int)
    p.add_argument("--up", type=int)
    p.add_argument("--map")
    p.add_argument("--out")

    p = add("monoid", _cmd_monoid,
            help='decide order relations, e.g. "3*x1 <= 2*x1 in M(2,1,1)"')
    p.add_argument("expression")
    p.add_argument("--depth", type=int, default=DEFAULT_CLOSURE_DEPTH)

    p = add("crossed", _cmd_crossed, help="verify a crossed system from JSON")
    p.add_argument("--config", required=True)

    p = add("endo-graded", _cmd_endo_graded,
            help="grade a matrix ring by a finite group and verify")
    p.add_argument("--group", required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = add("psi", _cmd_psi,
            help="verify the translation-ring embedding on a finite window")
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    p.add_argument("--samples", required=True,
                   help='elements separated by ";", e.g. "x1; y; x1 y"')
    p.add_argument("--window", type=int, default=6)
    p.add_argument("--component-window", type=int)

    p = add("normalize", _cmd_normalize,
            help="read expressions from stdin, print canonical forms")
    p.add_argument("--algebra", required=True)

    p = add("bs-check", _cmd_bs_check,
            help="ball-truncated subset checks in BS(1,k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("rosenblatt", _cmd_rosenblatt,
            help="find a translate separating two finite tuples in BS(1,k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = add("repro", _cmd_repro, help="run the acceptance checks")
    p.add_argument("name", nargs="?", default="all")
    p.add_argument("--list", action="store_true")
    p.add_argument("--verbose", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed early raises here, not at exit
        return code
    except (ValueError, FileNotFoundError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # not a verdict; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    except Exception as exc:
        # a fault in the program must not read as a verdict (exit 1 is "no")
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

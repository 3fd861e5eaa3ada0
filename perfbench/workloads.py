"""The four seeded workloads and their verdict gate.

Each build function turns a seed into a fixed list of tasks.  A task
carries the verdict it must reach by construction and a run function that
calls the public gradedrings API, then re-checks the evidence: with the
library's own verifiers, after a JSON round trip, and with recounts written
here from first principles (ball sizes, Hall neighbourhoods, compressed shapes,
monoid rewrite chains and separators).  Every check is an explicit
comparison, so it still holds under ``python -O``.

In search, certify and rewrite the seed only changes choices that leave
the amount of work alone: the order of V and W (through an automorphism of
F2), interval offsets, eps inside the range that keeps the same Folner
radius, moduli, coefficients, index permutations.  The shapes of random
ring elements and monoid vectors come from fixed generators.  Two seeds
therefore give different task lists with the same size tiers, the same
verdict mix and nearly the same work.  In repro the seed goes to the two
seeded acceptance checks, whose random sizes it changes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from types import SimpleNamespace
from typing import Callable

PRIMES = (3, 5, 7, 11, 13)
MODULES = ("groups", "rings", "amenability", "translation", "graded",
           "special_algebras", "monoids", "serialize", "checks", "cli")


def load_library() -> SimpleNamespace:
    """The gradedrings package and its modules, as attributes."""
    lib = SimpleNamespace(package=importlib.import_module("gradedrings"))
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"gradedrings.{name}"))
    return lib


@dataclass
class Task:
    kind: str
    tier: str          # size tier, the same for every seed
    expected: str      # verdict the task must reach
    params: str        # the seeded choices, for the task-list fingerprint
    run: Callable      # run(counts) -> (verdict, evidence_ok, digest)
    largest: bool = False


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dumps(data, counts) -> str:
    """JSON text of a witness; its size is counted as serialize.bytes."""
    text = json.dumps(data, sort_keys=True)
    if counts is not None:
        counts["serialize.bytes"] += len(text.encode())
    return text


def fingerprint(tasks) -> str:
    return _digest("\n".join(f"{t.kind}|{t.tier}|{t.expected}|{t.params}"
                             for t in tasks))


def shape(tasks) -> list:
    """Size tiers and expected verdicts, which every seed must share."""
    return sorted((t.kind, t.tier, t.expected) for t in tasks)


# ---------------------------------------------------------------------------
# arithmetic written here, independent of the library


def _free_mul(x, y):
    word = list(x)
    for letter in y:
        if word and word[-1] == -letter:
            word.pop()
        else:
            word.append(letter)
    return tuple(word)


def _free_inv(x):
    return tuple(-a for a in reversed(x))


def _free_ball_size(r: int) -> int:
    return 2 * 3 ** r - 1   # rank-2 free group: 1 + 4(3^r - 1)/2


def _zd_ball_size(d: int, r: int) -> int:
    return sum(2 ** k * comb(d, k) * comb(r, k) for k in range(d + 1))


def _zd_ball1(d: int) -> list:
    out = [(0,) * d]
    for i in range(d):
        for s in (1, -1):
            out.append(tuple(s if j == i else 0 for j in range(d)))
    return out


def _bs_x_counts(k: int, r_max: int) -> list:
    """|B_r cap X| in BS(1,k) for r = 0..r_max, X = {(t, m): t integral}."""
    gens = [(Fraction(1), 0), (Fraction(-1), 0), (Fraction(0), 1), (Fraction(0), -1)]

    def mul(x, y):
        return (x[0] + Fraction(k) ** x[1] * y[0], x[1] + y[1])

    e = (Fraction(0), 0)
    seen, frontier = {e}, [e]
    counts = [1]
    for _ in range(r_max):
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        counts.append(counts[-1] + sum(1 for y in nxt if y[0].denominator == 1))
    return counts


def _injection_ok(w, V: set, W: set, K: set) -> bool:
    """Recount a free-group two-to-one injection: total on V, injective,
    disjoint images inside W, translators in K."""
    if set(w.V) != V or set(w.W) != W or set(w.K) != K:
        return False
    if set(w.alpha) != V or set(w.beta) != V:
        return False
    images = [w.alpha[x] for x in V] + [w.beta[x] for x in V]
    if len(set(images)) != 2 * len(V) or not set(images) <= W:
        return False
    return all(_free_mul(w.alpha[x], _free_inv(x)) in K
               and _free_mul(w.beta[x], _free_inv(x)) in K for x in V)


def _hall_ok(A, V, W) -> bool:
    """|N(A)| < 2|A| for A inside an interval V of Z, K = {-1, 0, 1}."""
    Aset, Wset = set(A), set(W)
    if not A or len(Aset) != len(A) or not Aset <= set(V):
        return False
    nbhd = {(a[0] + d,) for a in Aset for d in (-1, 0, 1)} & Wset
    return len(nbhd) < 2 * len(Aset)


def _shuffled(rng, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _f2_relabel(rng):
    """A seeded signed permutation of the generators of F2.  It is an
    automorphism that maps every ball, and K = ball(1), onto itself, so
    relabelled orders of V and W change the matching's tie-breaking (the
    witness) but not the amount of work."""
    images = rng.choice([(1, 2), (2, 1)])
    signs = (rng.choice([1, -1]), rng.choice([1, -1]))
    return lambda word: tuple((1 if a > 0 else -1) * signs[abs(a) - 1]
                              * images[abs(a) - 1] for a in word)


# ---------------------------------------------------------------------------
# search: groups and amenability


def _injection_task(lib, G, V, W, K, counts):
    am, se = lib.amenability, lib.serialize
    res = am.find_two_to_one_injection(G, V, W, K)
    if not isinstance(res, am.InjectionWitness):
        return "infeasible", False, ""
    text = _dumps(se.injection_witness_to_json(G, res), counts)
    G2, w2 = se.injection_witness_from_json(json.loads(text))
    ok = (w2.alpha == res.alpha and w2.beta == res.beta
          and am.verify_injection_witness(G2, w2)[0]
          and _injection_ok(w2, set(V), set(W), set(K)))
    return "witness", ok, _digest(text)


def _hall_task(lib, Z, V, W, K, counts):
    am = lib.amenability
    res = am.find_two_to_one_injection(Z, V, W, K)
    if not isinstance(res, am.Infeasible):
        return "witness", False, ""
    A = res.violating_set
    s = Z.element_to_str
    text = _dumps({"group": Z.name, "V": [s(x) for x in V],
                   "W": [s(x) for x in W], "K": [s(x) for x in K],
                   "violating_set": [s(x) for x in A]}, counts)
    data = json.loads(text)
    p = Z.element_from_str
    V2, W2, K2, A2 = ([p(x) for x in data[key]]
                      for key in ("V", "W", "K", "violating_set"))
    ok = (A2 == A and am.verify_hall_violation(Z, V2, W2, K2, A2)
          and _hall_ok(A2, V, W))
    return "infeasible", ok, _digest(text)


def _folner_eps(rng, d: int, r: int) -> Fraction:
    """A seeded eps >= 1/20 for which the ball of radius r is the first
    Folner set of Z^d, so the seed never changes the search length."""
    ratio = lambda q: Fraction(_zd_ball_size(d, q + 1), _zd_ball_size(d, q))
    lo = max(ratio(r) - 1, Fraction(1, 20))
    hi = ratio(r - 1) - 1
    return lo + (hi - lo) * Fraction(rng.randint(1, 99), 100)


def _folner_witness_task(lib, G, d, r, K, eps, counts):
    am, se = lib.amenability, lib.serialize
    res = am.folner_search(G, am.whole_group(G), K, eps, r)
    if not isinstance(res, am.FolnerWitness):
        return "failure", False, ""
    f_size, kf_size = _zd_ball_size(d, r), _zd_ball_size(d, r + 1)
    ok = (res.holds() and len(res.F) == f_size and res.f_count == f_size
          and res.kf_count == kf_size)
    text = _dumps(se.folner_witness_to_json(G, res), counts)
    data = json.loads(text)
    F = [G.element_from_str(x) for x in data["F"]]
    K2 = [G.element_from_str(x) for x in data["K"]]
    kf = {tuple(a + b for a, b in zip(k, f)) for k in K2 for f in F}
    ok = (ok and len(set(F)) == len(F) == data["counts"]["F_in_X"] == f_size
          and len(kf) == data["counts"]["KF_in_X"] == kf_size
          and len(kf) < (1 + Fraction(data["eps"])) * len(F)
          and all(sum(abs(c) for c in f) <= r for f in F))
    return "witness", ok, _digest(text)


def _folner_failure_task(lib, G, X_name, K, eps, r_max, want, counts):
    """want[r] = (|K B_r cap X|, |B_r cap X|), recounted here."""
    am = lib.amenability
    X = am.whole_group(G) if X_name == "all" else am.bs_X(G)
    res = am.folner_search(G, X, K, eps, r_max)
    if not isinstance(res, am.FolnerFailure):
        return "witness", False, ""
    ok = len(res.ratios) == r_max + 1
    for r, (idx, kf, f, ratio) in enumerate(res.ratios):
        ok = (ok and idx == r and (kf, f) == want[r]
              and ratio == Fraction(kf, f) and ratio >= 1 + eps)
    return "failure", ok, _digest(repr(res.ratios))


def build_search(lib, rng):
    groups = lib.groups
    tasks = []
    F2 = groups.FreeGroup(2)
    K1 = [(), (1,), (-1,), (2,), (-2,)]
    for r in range(1, 7):
        relabel = _f2_relabel(rng)
        V = [relabel(x) for x in F2.ball(r, max_radius=7)]
        W = [relabel(x) for x in F2.ball(r + 1, max_radius=7)]
        tasks.append(Task("injection", f"F2 ball{r}->{r + 1}", "witness",
                          _digest(repr((V, W))),
                          functools.partial(_injection_task, lib, F2, V, W, K1),
                          largest=(r == 6)))
    Z = groups.FreeAbelian(1)
    KZ = [(-1,), (0,), (1,)]
    # Tiers of equal-sized copies.  The median and the 90th percentile of
    # the pass's task times fall inside the L~32 and L~256 tiers, so each is
    # read from several samples of one size, not from a step between sizes.
    for tier, copies in ((4, 6), (8, 6), (16, 6), (32, 12), (64, 6), (128, 3),
                         (256, 8), (400, 1)):
        for _ in range(copies):
            L = tier - rng.randint(0, tier // 64)
            a = rng.randint(-1000, 1000)
            V = [(a + i,) for i in range(L + 1)]
            W = [(a + i,) for i in range(-1, L + 2)]
            tasks.append(Task("hall", f"Z L~{tier}", "infeasible", f"L={L} a={a}",
                              functools.partial(_hall_task, lib, Z, V, W, KZ)))
    for d, radii in ((1, (2, 5, 10, 20)), (2, (5, 10, 20, 40)), (3, (3, 6, 10))):
        G = groups.FreeAbelian(d)
        for r in radii:
            eps = _folner_eps(rng, d, r)
            tasks.append(Task("folner-witness", f"{G.name} r={r}", "witness",
                              f"eps={eps}",
                              functools.partial(_folner_witness_task, lib, G, d,
                                                r, _zd_ball1(d), eps)))
    for r_max in (5, 6, 7):
        eps = Fraction(rng.randint(1, 40), 20)    # every F2 ratio exceeds 3
        want = [(_free_ball_size(r + 1), _free_ball_size(r))
                for r in range(r_max + 1)]
        tasks.append(Task("folner-failure", f"F2 r<={r_max}", "failure",
                          f"eps={eps}",
                          functools.partial(_folner_failure_task, lib, F2, "all",
                                            K1, eps, r_max, want)))
    BS = groups.BaumslagSolitar(2)
    K_bs = [(Fraction(0), 0), (Fraction(1), 0), (Fraction(-1), 0),
            (Fraction(0), 1), (Fraction(0), -1)]
    for r_max in (5, 6, 7):
        eps = Fraction(rng.randint(1, 10), 20)    # ratios stay above 1.7 here
        x = _bs_x_counts(2, r_max + 1)
        want = [(x[r + 1], x[r]) for r in range(r_max + 1)]
        tasks.append(Task("folner-failure", f"BS(1,2) X=AB r<={r_max}", "failure",
                          f"eps={eps}",
                          functools.partial(_folner_failure_task, lib, BS, "AB",
                                            K_bs, eps, r_max, want)))
    return tasks


# ---------------------------------------------------------------------------
# certify: rings, translation and graded


def _leavitt_translation_input(lib, K_vals, F_vals):
    """The Z / L(1,2) translation certificate A = (e1*, e2*)^t, B = (e1, e2)."""
    rings, tr = lib.rings, lib.translation
    G = lib.groups.FreeAbelian(1)
    L = lib.special_algebras.LeavittRing(2)
    T = tr.TranslationRing(G, lib.amenability.whole_group(G), L)
    A = rings.RingMatrix(T, 2, 1, [T.diag_const(L.gen_star(1)),
                                   T.diag_const(L.gen_star(2))])
    B = rings.RingMatrix(T, 1, 2, [T.diag_const(L.gen(1)), T.diag_const(L.gen(2))])
    return tr.CompressionInput(T, rings.RankCertificate(T, 1, 2, A, B),
                               [(v,) for v in K_vals], [(v,) for v in F_vals])


def _certificate_roundtrip(lib, cert, counts):
    """JSON text of a certificate and the verdict of re-verifying it from
    that text alone."""
    se, rings = lib.serialize, lib.rings
    text = _dumps(se.certificate_to_json(cert), counts)
    back = se.certificate_from_json(json.loads(text))
    v = rings.verify_certificate(back)
    return text, bool(v) and v.bgn and (back.n, back.m) == (cert.n, cert.m)


def _compress_task(lib, ci, size, counts):
    v = lib.rings.verify_certificate(ci.cert)   # AB = I over the translation ring
    res = lib.translation.compress_certificate(ci)
    cert = res.certificate
    want = (size + 2, 2 * size)   # U = KF is an interval of |F| + 2 points
    text, back_ok = _certificate_roundtrip(lib, cert, counts)
    ok = ((cert.n, cert.m) == want and res.counts == want
          and len(res.U) == size + 2 and len(res.F_X) == size and back_ok
          and bool(v) and v.bgn)
    return "compressed", ok, _digest(text)


def _refused_task(lib, ci, reason, counts):
    try:
        lib.translation.compress_certificate(ci)
    except ValueError as exc:
        return "refused", reason in str(exc), _digest(str(exc))
    return "compressed", False, ""


def _collapse_task(lib, G, V, W, K, ring, counts):
    am, se, tr = lib.amenability, lib.serialize, lib.translation
    w = am.find_two_to_one_injection(G, V, W, K)
    if not isinstance(w, am.InjectionWitness):
        return "infeasible", False, ""
    text = _dumps(se.injection_witness_to_json(G, w), counts)
    G2, w2 = se.injection_witness_from_json(json.loads(text))
    res = tr.collapse_matrices(G2, w2, ring)
    ok = (res.mmt_ok and res.nnt_ok and res.mnt_ok and res.nmt_ok
          and res.projection_ok and len(res.uncovered) == len(W) - 2 * len(V)
          and (res.M.rows, res.M.cols) == (len(V), len(W))
          and _injection_ok(w2, set(V), set(W), set(K)))
    return ("pass" if res.ok else "fail"), ok, _digest(text)


def _finite_iso_task(lib, G, ring, counts):
    rep = lib.translation.finite_group_iso(G, ring)
    ok = (rep.shift_mult_ok and rep.diag_mult_ok and rep.action_ok
          and rep.unital_ok and rep.bijective_ok and not rep.failures)
    return ("pass" if rep.ok else "fail"), ok, ""


def _endo_task(lib, ring, G, n, l, counts):
    graded, rep = lib.graded.endo_graded_construction(ring, G, n, l)
    k = G.m
    N = n * l
    ranks = [N - k + 1] + [1] * (k - 1)        # rank p at the identity
    sizes_ok = all(
        len(graded.unit_positions[g])
        == sum(ranks[x] * ranks[(x - g) % k] for x in range(k))
        for g in range(k))
    ok = (rep.dimension_ok and rep.partition_ok and rep.closure_ok
          and rep.t1_diagonal_ok and len(rep.strong) == k
          and all(v.found for v in rep.strong)
          and len(graded.index) == N and graded.p == ranks[0] and sizes_ok
          and sum(len(u) for u in graded.unit_positions.values()) == N * N)
    return ("pass" if rep.ok else "fail"), ok, ""


def build_certify(lib, rng):
    groups, rings = lib.groups, lib.rings
    tasks = []

    def zp():
        return rings.IntegerModRing(rng.choice(PRIMES))

    K = [-1, 0, 1]
    for size in (8, 16, 32, 48):
        a = rng.randint(-500, 500)
        ci = _leavitt_translation_input(lib, K, range(a, a + size))
        tasks.append(Task("compress", f"|F|={size}", "compressed", f"a={a}",
                          functools.partial(_compress_task, lib, ci, size)))
    for size, Kr, reason in ((1, K, "Folner inequality"),
                             (2, K, "Folner inequality"),
                             (4, [0, 1], "symmetric")):
        a = rng.randint(-500, 500)
        ci = _leavitt_translation_input(lib, Kr, range(a, a + size))
        tasks.append(Task("compress", f"|F|={size} K={Kr}", "refused", f"a={a}",
                          functools.partial(_refused_task, lib, ci, reason)))
    F2 = groups.FreeGroup(2)
    K1 = [(), (1,), (-1,), (2,), (-2,)]
    for r in (2, 3):
        ring = zp() if r == 2 else rings.IntegerRing()
        relabel = _f2_relabel(rng)
        V = [relabel(x) for x in F2.ball(r)]
        W = [relabel(x) for x in F2.ball(r + 1)]
        tasks.append(Task("collapse", f"F2 ball{r}->{r + 1}", "pass",
                          f"{ring.name} {_digest(repr((V, W)))}",
                          functools.partial(_collapse_task, lib, F2, V, W, K1, ring)))
    C, DP = groups.Cyclic, groups.DirectProduct
    small = [C(m) for m in range(1, 9)] + [DP([C(2), C(2)]), DP([C(2), C(4)]),
                                           DP([C(2), C(2), C(2)])]
    for G in small:
        for ring in (rings.IntegerRing(), zp()):
            tasks.append(Task("finite-iso", f"{G.name} {type(ring).__name__}",
                              "pass", ring.name,
                              functools.partial(_finite_iso_task, lib, G, ring)))
    large = [C(9), C(12), DP([C(3), C(3)]), DP([C(2), C(6)])]
    for i, G in enumerate(large):
        ring = rings.IntegerRing() if i % 2 else zp()
        tasks.append(Task("finite-iso", f"{G.name} {type(ring).__name__}", "pass",
                          ring.name,
                          functools.partial(_finite_iso_task, lib, G, ring)))
    for k, n, l in [(2, 2, 1), (2, 1, 2), (3, 3, 1), (3, 2, 2), (4, 2, 2),
                    (4, 3, 2), (3, 3, 3)]:
        ring = zp() if n * l < 6 else rings.IntegerRing()
        tasks.append(Task("endo-graded", f"C({k}) n={n} l={l}", "pass", ring.name,
                          functools.partial(_endo_task, lib, ring, C(k), n, l),
                          largest=(k, n, l) == (3, 3, 3)))
    return tasks


# ---------------------------------------------------------------------------
# rewrite: special algebras, monoids and graded crossed products


def _corpus_task(ring, triples, counts):
    bad = 0
    for u, v, w in triples:
        if not ring.eq(ring.mul(ring.mul(u, v), w), ring.mul(u, ring.mul(v, w))):
            bad += 1
        if not ring.eq(ring.mul(u, ring.add(v, w)),
                       ring.add(ring.mul(u, v), ring.mul(u, w))):
            bad += 1
    return ("associative" if bad == 0 else "non-associative"), True, ""


COEFFS = (-3, -2, -1, 1, 2, 3)


def _random_element(ring, gens, shape, rng):
    """A sum of one or two words; shape picks the words, rng the coefficients."""
    out = ring.zero()
    for _ in range(shape.randint(1, 2)):
        term = ring.from_int(rng.choice(COEFFS))
        for _ in range(shape.randint(0, 4)):
            term = ring.mul(term, shape.choice(gens))
        out = ring.add(out, term)
    return out


def _units_task(lib, n, l, sigma, counts):
    units, rep = lib.special_algebras.leavitt_matrix_units(n, l, sigma=sigma)
    N = n ** l
    ok = (rep.product_law_ok and rep.sum_identity_ok and rep.degrees_ok
          and rep.chain_ok and len(units) == N and all(len(r) == N for r in units))
    return ("pass" if rep.ok else "fail"), ok, ""


def _words(n, l):
    out = [()]
    for _ in range(l):
        out = [w + (i,) for w in out for i in range(1, n + 1)]
    return out


def _coords_task(lib, ring, elem, m, counts):
    coords = lib.special_algebras.weyl_coordinates(ring, elem, m)
    one = ring.base.one()
    if m > 0:
        basis = _words(ring.n, m)
        recon = ring.zero()
        for w, q in zip(basis, coords):
            recon = ring.add(recon, ring.mul({(w, 0): one}, q))
        ok = len(coords) == len(basis)
    else:
        recon = ring.mul({((), -m): one}, coords[0])
        ok = len(coords) == 1
    return "exact", ok and ring.eq(recon, elem), ""


def _psi_task(lib, ring, samples, counts):
    rep = lib.graded.psi_embedding_check(ring, samples, window=6)
    ok = (rep.unital_ok and rep.additive_ok and rep.multiplicative_ok
          and rep.pairs_checked == len(samples) ** 2 and not rep.failures)
    return ("pass" if rep.ok else "fail"), ok, ""


def _monoid_relations(n, k, l):
    """The presentation of M(n,k,l) as (lhs, rhs) vectors."""
    size = 1 + 2 * l
    rels = [((n + k,) * (1 + l) + (0,) * l, (n,) * (1 + l) + (0,) * l)]
    for i in range(l):
        xy = [0] * size
        xy[1 + i] = xy[1 + l + i] = 1
        u = [0] * size
        u[0] = 1
        rels.append((tuple(xy), tuple(u)))
    return rels


def _cnk_norm(n, k, lam):
    return lam if lam < n + k else n + (lam - n) % k


def _phi(n, k, l, v):
    return _cnk_norm(n, k, v[0] + sum(v[1 + l:]))


def _chain_ok(rels, t, v, chain) -> bool:
    """Replay a rewrite chain from t to v, one relation per step."""
    cur = t
    for parent, rel, child in chain:
        if parent != cur or not rel.startswith("relation "):
            return False
        lhs, rhs = rels[int(rel.split()[1])]
        moves = [(a, b) for a, b in ((lhs, rhs), (rhs, lhs))
                 if all(p >= c for p, c in zip(parent, a))
                 and tuple(p - c + d for p, c, d in zip(parent, a, b)) == child]
        if not moves:
            return False
        cur = child
    return cur == v


def _monoid_task(lib, nkl, s, t, depth, counts):
    mo = lib.monoids
    n, k, l = nkl
    res = mo.mnkl_leq(mo.MnklParams(n, k, l), s, t, depth=depth)
    if res.verdict == "yes":
        v = tuple(a + b for a, b in zip(s, res.z))
        ok = min(res.z) >= 0 and _chain_ok(_monoid_relations(n, k, l), t, v,
                                             res.chain)
    elif res.verdict == "no":
        fs, ft = _phi(n, k, l, s), _phi(n, k, l, t)
        if res.separator == "phi":
            ok = ft < fs and ft < n          # fs a <= ft a fails in C(n,k)
        elif res.separator.startswith("psi_"):
            j = int(res.separator[4:])
            ok = fs == 0 and ft == 0 and 1 <= j <= l and s[j] > t[j]
        else:
            ok = False
    else:
        ok = True
    return res.verdict, ok, res.verdict


def _monoid_walk(rels, v, steps, rng):
    for _ in range(steps):
        moves = [(a, b) for lhs, rhs in rels for a, b in ((lhs, rhs), (rhs, lhs))
                 if all(p >= c for p, c in zip(v, a))]
        if not moves:
            break
        a, b = rng.choice(moves)
        v = tuple(p - c + d for p, c, d in zip(v, a, b))
    return v


def _permute_pairs(v, perm, l):
    """Relabel the generator pairs (x_i, y_i) of M(n,k,l), a symmetry of the
    presentation: closures keep their sizes and verdicts their values."""
    out = [v[0]] + [0] * (2 * l)
    for i in range(l):
        out[1 + perm[i]] = v[1 + i]
        out[1 + l + perm[i]] = v[1 + l + i]
    return tuple(out)


def _monoid_cases(nkl, rng):
    """(family, expected verdict, s, t) with the verdict fixed by construction.

    yes: t is a few rewrites away from s + z.  unknown and no-phi: phi(t) is
    below n, so phi(s) = phi(t) forces z to be pure x, and psi_j then rules
    out s = t + a x_j (true answer no, which neither separator can show);
    s = t + y_j is refuted by phi.  no-psi: pure-x vectors admit no rewrite.
    """
    n, k, l = nkl
    size = 1 + 2 * l
    rels = _monoid_relations(n, k, l)
    out = []
    for _ in range(2):
        s = tuple(rng.randint(0, 2) for _ in range(size))
        z = tuple(rng.randint(0, 2) for _ in range(size))
        t = _monoid_walk(rels, tuple(a + b for a, b in zip(s, z)), 3, rng)
        out.append(("yes", "yes", s, t))
    for family in ("unknown", "unknown", "no-phi"):
        c = rng.randint(1, n - 1)
        ys = [0] * l
        for _ in range(rng.randint(0, n - 1 - c)):
            ys[rng.randrange(l)] += 1
        t = (c,) + tuple(rng.randint(0, 4) for _ in range(l)) + tuple(ys)
        j = rng.randint(1, l)
        bump = [0] * size
        if family == "no-phi":
            bump[l + j] = 1
        else:
            bump[j] = rng.randint(1, 2)
        s = tuple(a + b for a, b in zip(t, bump))
        out.append((family, "no" if family == "no-phi" else "unknown", s, t))
    j = rng.randint(1, l)
    t = [0] * size
    s = [0] * size
    for i in range(1, l + 1):
        t[i] = s[i] = rng.randint(0, 3)
    s[j] = t[j] + rng.randint(1, 3)
    out.append(("no-psi", "no", tuple(s), tuple(t)))
    return out


def _stack_twice(lib, cert):
    """A (1,2) certificate doubled into a block-diagonal (2,4) one."""
    R, RM = cert.ring, lib.rings.RingMatrix
    z = R.zero()
    a0, a1 = cert.A[0, 0], cert.A[1, 0]
    b0, b1 = cert.B[0, 0], cert.B[0, 1]
    A = RM.from_rows(R, [[a0, z], [z, a0], [a1, z], [z, a1]])
    B = RM.from_rows(R, [[b0, z, b1, z], [z, b0, z, b1]])
    return lib.rings.RankCertificate(R, 2, 4, A, B)


def _cert_algebra_task(lib, make, shape, counts):
    cert = make()
    v = lib.rings.verify_certificate(cert)
    text, back_ok = _certificate_roundtrip(lib, cert, counts)
    ok = bool(v) and v.bgn and (cert.n, cert.m) == shape and back_ok
    return "valid", ok, _digest(text)


def build_rewrite(lib, rng):
    sa, gr, rings, groups = (lib.special_algebras, lib.graded, lib.rings,
                             lib.groups)
    tasks = []
    Z = rings.IntegerRing()
    nonzero = lambda: rng.choice([1, 2, 3])
    W1 = sa.WeylRing([1], [nonzero()])
    W2 = sa.WeylRing([1, 1], [nonzero(), nonzero()])
    order = 4
    omega = {(g, h): (-1 if g + h >= order else 1)
             for g in range(order) for h in range(order)}
    twisted = gr.CrossedProductRing(
        gr.twisted_system(groups.Cyclic(order), Z, omega, dict(omega)))
    group_ring = gr.group_ring(groups.Cyclic(5), Z)
    # (name, ring, generators, copies).  Eight copies of each of the three
    # cheapest corpora (about 1 ms each) put the median task time inside a
    # tier of similar tasks, not on the step between them and the sub-ms
    # monoid queries.
    corpora = []
    for n, copies in ((2, 2), (3, 8)):
        L = sa.LeavittRing(n)
        corpora.append((L.name, L, [L.gen(i) for i in range(1, n + 1)]
                        + [L.gen_star(i) for i in range(1, n + 1)], copies))
    corpora.append(("Weyl n=1", W1, [W1.x(1), W1.y()], 2))
    corpora.append(("Weyl n=2", W2, [W2.x(1), W2.x(2), W2.y()], 2))
    corpora.append(("Z[C(5)]", group_ring,
                    [group_ring.term(1, g) for g in range(5)], 8))
    corpora.append(("twisted Z[C(4)]", twisted,
                    [twisted.term(1, g) for g in range(order)], 8))
    for name, ring, gens, copies in corpora:
        for copy in range(copies):
            shape = random.Random(f"corpus:{name}:{copy}")
            triples = [tuple(_random_element(ring, gens, shape, rng)
                             for _ in range(3)) for _ in range(25)]
            tasks.append(Task("corpus", name, "associative",
                              _digest(repr([[ring.element_to_str(x) for x in t]
                                            for t in triples])),
                              functools.partial(_corpus_task, ring, triples)))
    for n, l in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (4, 2), (2, 4)):
        sigma = _shuffled(rng, _words(n, l))
        tasks.append(Task("matrix-units", f"n={n} l={l}", "pass",
                          _digest(repr(sigma)),
                          functools.partial(_units_task, lib, n, l, sigma)))
    for ring, degrees in ((W1, (-3, -1, 2, 4)), (W2, (-2, 1, 2, 3))):
        for m in degrees:
            shape = random.Random(f"coords:{ring.n}:{m}")
            elem = {}
            for j in range(3):
                key = ((tuple(shape.randint(1, ring.n) for _ in range(m + j)), j)
                       if m > 0 else
                       (tuple(shape.randint(1, ring.n) for _ in range(j)), j - m))
                elem[key] = rng.choice(COEFFS)
            tasks.append(Task("weyl-coordinates", f"{ring.name} m={m}", "exact",
                              repr(sorted(elem.items())),
                              functools.partial(_coords_task, lib, ring, elem, m)))
    c = [rng.choice(COEFFS) for _ in range(4)]
    for ring, texts, largest in (
            (W1, ["x1", "y", f"x1 y + {c[0]}", f"{c[1]} + x1 x1 y"], False),
            (W2, ["x1", "y", f"{c[2]} x2 y"], False),
            (W1, ["x1", "y", f"x1 y + {c[0]}", "x1 x1", f"{c[3]} y y"], True)):
        samples = [ring.element_from_str(s) for s in texts]
        tasks.append(Task("psi", f"{ring.name} {len(samples)} samples", "pass",
                          "; ".join(texts),
                          functools.partial(_psi_task, lib, ring, samples),
                          largest=largest))
    for i, nkl in enumerate([(2, 1, 1), (3, 1, 2), (2, 2, 2), (3, 2, 3)]):
        l = nkl[2]
        perm = _shuffled(rng, range(l))
        cases = _monoid_cases(nkl, random.Random(f"monoid:{nkl}"))
        for j, (family, expected, s, t) in enumerate(cases):
            s, t = _permute_pairs(s, perm, l), _permute_pairs(t, perm, l)
            depth = 10 + (i + j) % 3
            tasks.append(Task("monoid", f"M{nkl} {family} depth={depth}", expected,
                              f"s={s} t={t}",
                              functools.partial(_monoid_task, lib, nkl, s, t, depth)))
    p = rng.choice(PRIMES)
    base = rings.IntegerModRing(p)
    cert = lambda n, b=None: sa.leavitt_rank_certificate(n, b)
    for label, make, want in (
            ("extend L(1,2) to m=10", lambda: rings.extend_certificate(cert(2), 10),
             (1, 10)),
            ("extend L(1,3;Z/p) to m=7",
             lambda: rings.extend_certificate(
                 rings.truncate_certificate(cert(3, base)), 7), (1, 7)),
            ("opposite of L(1,2;Z/p) at m=6",
             lambda: rings.opposite_certificate(
                 rings.extend_certificate(cert(2, base), 6)), (1, 6)),
            ("block up to M2(L(1,2))",
             lambda: rings.block_up_certificate(_stack_twice(lib, cert(2)), 2),
             (1, 2)),
            ("product of L(1,2), L(1,3)",
             lambda: rings.product_certificate([cert(2), cert(3)]), (1, 2)),
            ("product of L(1,2), L(1,3), L(1,4;Z/p)",
             lambda: rings.product_certificate([cert(2), cert(3), cert(4, base)]),
             (1, 2))):
        tasks.append(Task("cert-algebra", label, "valid", f"p={p}",
                          functools.partial(_cert_algebra_task, lib, make, want)))
    return tasks


# ---------------------------------------------------------------------------
# repro: the acceptance checks through the CLI


SEEDED_CHECKS = ("bs-witnesses", "weyl")


def _repro_task(lib, name, seed, counts):
    checks = lib.checks
    saved = checks.ALL_CHECKS
    checks.ALL_CHECKS = [
        (n, functools.partial(fn, seed) if n in SEEDED_CHECKS else fn)
        for n, fn in saved]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(["repro", name])
    finally:
        checks.ALL_CHECKS = saved
    lines = out.getvalue().splitlines()
    passed = code == 0 and len(lines) == 1 and lines[0].endswith(": pass")
    return ("pass" if passed else "fail"), True, _digest(out.getvalue())


def build_repro(lib, rng):
    seed = rng.randrange(2 ** 31)
    tasks = []
    for name, _ in lib.checks.ALL_CHECKS:
        params = f"seed={seed}" if name in SEEDED_CHECKS else ""
        tasks.append(Task("check", name, "pass", params,
                          functools.partial(_repro_task, lib, name, seed),
                          largest=(name == "monoid-gn")))
    return tasks


WORKLOADS = {
    "search": build_search,
    "certify": build_certify,
    "rewrite": build_rewrite,
    "repro": build_repro,
}


def _interleave(tasks) -> list:
    """Put task i at position frac(i * golden ratio) of the pass.  Tasks
    built next to each other, such as the copies of one size, then run far
    apart, so each size is timed at several moments of a pass."""
    order = sorted(range(len(tasks)), key=lambda i: (i * 0.6180339887498949) % 1)
    return [tasks[i] for i in order]


def build(workload: str, lib, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return _interleave(WORKLOADS[workload](lib, rng))

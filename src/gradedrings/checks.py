"""The acceptance checks: thirteen exact, desk-scale verifications covering
every construction in the library.  Each check collects (detail line,
passed) rows and returns them as a CriterionResult, a Report whose verdict
is derived from those rows; the test suite and the `repro` CLI subcommand
both run these, so their verdicts cannot drift apart.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .amenability import (FolnerFailure, FolnerWitness, InjectionWitness,
                          Infeasible, bs_example_check,
                          find_two_to_one_injection, folner_search,
                          rosenblatt_find, verify_hall_violation, whole_group)
from .graded import endo_graded_construction, group_ring, group_ring_augmentation
from .groups import (BaumslagSolitar, Cyclic, DirectProduct, FreeAbelian,
                     FreeGroup, set_product)
from .monoids import (MnklParams, cnk_generating_number, cnk_leq,
                      cnk_leq_canonical, cnk_normalize, cnk_reach_oracle,
                      mnkl_leq, mnkl_phi, mnkl_homomorphisms_well_defined,
                      mnkl_vector)
from .report import Report, VerificationError, check_row
from .rings import (IntegerModRing, IntegerRing, MatrixRing, RankCertificate,
                    RingMatrix, _checked, block_down_certificate,
                    block_up_certificate, extend_certificate, hom_certificate,
                    opposite_certificate, product_certificate,
                    verify_certificate)
from .special_algebras import (LeavittRing, WeylRing, leavitt_iso_check,
                               leavitt_matrix_units, leavitt_rank_certificate,
                               weyl_component_basis, weyl_phi0_multiplicative)
from .translation import (CompressionInput, FolnerInequalityError,
                          TranslationRing, collapse_matrices,
                          compress_certificate, finite_group_iso)

DEFAULT_SEED = 20240817


@dataclass
class CriterionResult(Report):
    number: int
    name: str
    checked: list  # (detail line, passed) rows; passed is None for a count

    def _extra(self):
        return self.checked

    @property
    def details(self) -> list:
        return self.lines()

    @property
    def line(self) -> str:
        return check_row(f"criterion {self.number:2d} ({self.name})", self.ok)[0]

    def to_json(self):
        return {**super().to_json(), "number": self.number, "name": self.name,
                "details": self.details}


def check_leavitt_rank() -> CriterionResult:
    """A = column of e_i*, B = row of e_i gives AB = I_n and BA = 1."""
    rows = []
    for n in range(2, 6):
        cert = leavitt_rank_certificate(n)
        v = verify_certificate(cert)
        iso = leavitt_iso_check(n)
        rows.append((f"n={n}: AB=I {bool(v)} (BGN {getattr(v, 'bgn', False)}), "
                     f"BA=1 {iso}", bool(v and v.bgn and iso)))
    return CriterionResult(1, "Leavitt rank certificate", rows)


def check_matrix_units() -> CriterionResult:
    rows = [leavitt_matrix_units(n, l)[1].summary_row(f"(n,l)=({n},{l})")
            for n, l in [(2, 1), (2, 2), (3, 1)]]
    return CriterionResult(2, "matrix-unit tower", rows)


def _z_leavitt_input(K_vals, F_vals):
    G = FreeAbelian(1)
    L = LeavittRing(2)
    T = TranslationRing(G, whole_group(G), L)
    A = RingMatrix(T, 2, 1, [T.diag_const(L.gen_star(1)),
                             T.diag_const(L.gen_star(2))])
    B = RingMatrix(T, 1, 2, [T.diag_const(L.gen(1)), T.diag_const(L.gen(2))])
    cert = RankCertificate(T, 1, 2, A, B)
    return CompressionInput(T, cert, [(v,) for v in K_vals],
                            [(v,) for v in F_vals])


def check_compression() -> CriterionResult:
    rows = []
    res = compress_certificate(_z_leavitt_input([0], [0]))
    good = res.certificate.n == 1 and res.certificate.m == 2
    rows.append((f"K={{0}}, F={{0}}: shape (1,2) {good}", good))
    res = compress_certificate(_z_leavitt_input([0], [0, 1]))
    good = res.certificate.n == 2 and res.certificate.m == 4
    rows.append((f"K={{0}}, F={{0,1}}: shape (2,4) {good}", good))
    try:
        compress_certificate(_z_leavitt_input([-1, 0, 1], [0, 1]))
        rows.append(("padded K was not rejected", False))
    except FolnerInequalityError:
        rows.append(("padded K rejected (Folner inequality enforced)", True))
    return CriterionResult(3, "certificate compression", rows)


def check_collapse() -> CriterionResult:
    F2 = FreeGroup(2)
    w = find_two_to_one_injection(F2, F2.ball(2), F2.ball(3), F2.ball(1))
    if not isinstance(w, InjectionWitness):
        return CriterionResult(4, "rank collapse", [("no injection found", False)])
    res = collapse_matrices(F2, w, IntegerRing())
    return CriterionResult(4, "rank collapse", res.rows())


def check_folner() -> CriterionResult:
    rows = []
    epsilons = [Fraction(1), Fraction(1, 2), Fraction(1, 10)]
    for G in (FreeAbelian(1), FreeAbelian(2)):
        K = G.ball(1)
        for eps in epsilons:
            w = folner_search(G, whole_group(G), K, eps, 25)
            good = isinstance(w, FolnerWitness) and w.holds()
            tag = f"|F|={len(w.F)}" if good else "NOT FOUND"
            rows.append((f"{G.name}, eps={eps}: {tag}", good))
    F2 = FreeGroup(2)
    K = F2.ball(1)
    for eps in epsilons:
        w = folner_search(F2, whole_group(F2), K, eps, 6)
        good = isinstance(w, FolnerFailure) and all(
            r is None or r > 2 for (_, _, _, r) in w.ratios)
        best = w.best_ratio if isinstance(w, FolnerFailure) else None
        rows.append((f"F2, eps={eps}: no witness up to radius 6, "
                     f"best ratio {best}", good))
    return CriterionResult(5, "Folner dichotomy", rows)


def check_matching() -> CriterionResult:
    rows = []
    Z = FreeAbelian(1)
    K = [(-1,), (0,), (1,)]
    for L in range(2, 9):
        V = [(i,) for i in range(L + 1)]
        W = sorted(set_product(Z, K, V), key=Z.element_key)
        res = find_two_to_one_injection(Z, V, W, K)
        good = (isinstance(res, Infeasible)
                and verify_hall_violation(Z, V, W, K, res.violating_set))
        rows.append((f"Z, L={L}: infeasible with Hall set of size "
                     f"{len(res.violating_set) if good else '?'}", good))
    F2 = FreeGroup(2)
    K = F2.ball(1)
    for r in range(1, 5):
        res = find_two_to_one_injection(F2, F2.ball(r), F2.ball(r + 1), K)
        good = isinstance(res, InjectionWitness)
        rows.append((f"F2, r={r}: witness {'found' if good else 'MISSING'}", good))
    return CriterionResult(6, "matching dichotomy", rows)


def check_finite_iso() -> CriterionResult:
    rows = []
    groups = [Cyclic(m) for m in range(1, 9)]
    groups += [DirectProduct([Cyclic(2), Cyclic(2)]),
               DirectProduct([Cyclic(2), Cyclic(4)]),
               DirectProduct([Cyclic(2), Cyclic(2), Cyclic(2)])]
    for R in (IntegerRing(), IntegerModRing(5)):
        for G in groups:
            rep = finite_group_iso(G, R)
            if not rep.ok:
                rows.append(rep.summary_row(f"{G.name} over {R.name}"))
    rows.append((f"{2 * len(groups)} group/ring pairs checked", None))
    return CriterionResult(7, "finite translation ring", rows)


def check_monoid_gn() -> CriterionResult:
    rows = []
    for n in range(1, 21):
        for k in range(1, 21):
            if cnk_generating_number(n, k) != n:
                rows.append((f"gn(C({n},{k})) != {n}", False))
    rows.append(("generating numbers match for n,k <= 20", None))
    mismatches = 0
    for n in range(1, 11):
        for k in range(1, 11):
            canon, reach = cnk_reach_oracle(n, k, 100)
            norm = [cnk_normalize(n, k, v) for v in range(101)]
            # the normal form must be the oracle's class minimum
            mismatches += sum(a != b for a, b in zip(norm, canon))
            # The term for (lam, mu) depends on mu only through
            # (norm[mu], canon[mu]): sum each distinct pair once, weighted.
            classes = Counter(zip(norm, canon)).items()
            for lam in range(101):
                above, nl = reach[lam], norm[lam]
                for (nm, c), weight in classes:
                    if cnk_leq_canonical(n, nl, nm) != (c in above):
                        mismatches += weight
    rows.append((f"closed form vs closure oracle: {mismatches} mismatches "
                 "(lam,mu <= 100, n,k <= 10)", mismatches == 0))
    return CriterionResult(8, "monoid generating numbers", rows)


def check_separators() -> CriterionResult:
    bad_hom = bad_sep = 0
    for n in range(1, 6):
        for k in range(1, 6):
            for l in range(1, 4):
                params = MnklParams(n, k, l)
                bad_hom += not mnkl_homomorphisms_well_defined(params)
                for j in range(1, l + 1):
                    for mu in range(0, 6):
                        for lam in range(mu + 1, 7):
                            s = mnkl_vector(params, x={j: lam})
                            t = mnkl_vector(params, x={j: mu})
                            res = mnkl_leq(params, s, t)
                            if res.verdict != "no" or not _separator_valid(
                                    params, s, t, res):
                                bad_sep += 1
    return CriterionResult(9, "monoid separators", [
        (f"separator well-definedness: {bad_hom} failures", bad_hom == 0),
        (f"lam x_j <= mu x_j refutations (lam > mu): {bad_sep} failures",
         bad_sep == 0)])


def _separator_valid(params, s, t, res) -> bool:
    fs, ft = mnkl_phi(params, s), mnkl_phi(params, t)
    if res.separator == "phi":
        return not cnk_leq(params.n, params.k, fs, ft)
    if res.separator.startswith("psi_"):
        j = int(res.separator[4:])
        return fs == 0 and ft == 0 and s[j] > t[j]
    return False


def check_bs_witnesses(seed: int = DEFAULT_SEED) -> CriterionResult:
    rows = []
    for k in (2, 3):
        for r in range(0, 6):
            rep = bs_example_check(k, r)
            if not rep.ok:
                rows.append(rep.summary_row(f"k={k}, r={r}"))
    rows.append(("subset/disjointness/shift checks pass for k in {2,3}, r <= 5",
                 None))
    rng = random.Random(seed)
    failures = 0
    for _ in range(50):
        k = rng.choice([2, 3])
        G = BaumslagSolitar(k)
        nv = rng.randint(2, 6)
        nu = rng.randint(0, nv - 1)
        u = tuple(_random_bs(G, rng) for _ in range(nu))
        v = tuple(_random_bs(G, rng) for _ in range(nv))
        try:
            res = rosenblatt_find(k, u, v)
            if not res.u_count < res.v_count:
                failures += 1
        except VerificationError:
            failures += 1
    rows.append((f"coset pigeonhole on 50 random tuple pairs: "
                 f"{failures} failures (seed {seed})", failures == 0))
    return CriterionResult(10, "one-sided amenability witnesses", rows)


def _random_bs(G: BaumslagSolitar, rng: random.Random):
    x = G.identity()
    gens = G.symmetric_generators()
    for _ in range(rng.randint(0, 5)):
        x = G.mul(x, rng.choice(gens))
    return x


def check_weyl(seed: int = DEFAULT_SEED) -> CriterionResult:
    ring = WeylRing([1], [1])
    rng = random.Random(seed)
    gens = [ring.x(1), ring.y(), ring.scalar(ring.base.from_int(2)), ring.one()]
    assoc_failures = 0
    for _ in range(500):
        u, v, w = (_random_word(ring, gens, rng) for _ in range(3))
        lhs = ring.mul(ring.mul(u, v), w)
        rhs = ring.mul(u, ring.mul(v, w))
        if not ring.eq(lhs, rhs):
            assoc_failures += 1
    rows = [(f"product corpus (500 triples): {assoc_failures} "
             f"associativity failures (seed {seed})", assoc_failures == 0)]
    pairs = [(_random_degree0(ring, rng), _random_degree0(ring, rng))
             for _ in range(200)]
    good = weyl_phi0_multiplicative(ring, pairs)
    rows.append((f"coefficient-of-1 map multiplicative on 200 degree-0 pairs: "
                 f"{good}", good))
    ring2 = WeylRing([1, 1], [1, 0])
    for m in range(-4, 5):
        basis = weyl_component_basis(ring2, m)
        if m > 0:
            good = (basis.monomials is not None
                    and len(basis.monomials) == 2 ** m
                    and all(len(w) == m and l == 0 for w, l in basis.monomials))
        elif m < 0:
            good = basis.monomials == [((), -m)]
        else:
            good = basis.monomials is None and bool(basis.rule)
        if not good:
            rows.append((f"component basis wrong at degree {m}", False))
    rows.append(("component bases match for |m| <= 4", None))
    return CriterionResult(11, "Weyl rewriting", rows)


def _random_word(ring: WeylRing, gens, rng: random.Random):
    out = ring.one()
    for _ in range(rng.randint(0, 8)):
        out = ring.mul(out, rng.choice(gens))
    return out


def _random_degree0(ring: WeylRing, rng: random.Random):
    out = ring.zero()
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, 3)
        word = tuple(rng.randint(1, ring.n) for _ in range(k))
        out = ring.add(out, {(word, k): ring.base.from_int(rng.randint(-3, 3))})
    return out


def check_certificate_algebra() -> CriterionResult:
    rows, involution = [], []
    Zr = IntegerRing()
    for n in (2, 3):
        base = leavitt_rank_certificate(n)
        exts = [(t, extend_certificate(base, t)) for t in range(base.n + 1, 7)]
        rows.append((f"L(1,{n}): extensions up to m=6 verify",
                     all(_verifies(ext, need_bgn=True) and ext.m == t
                         for t, ext in exts)))
        op = opposite_certificate(base)
        back = opposite_certificate(op)
        involution.append(_verifies(op)
                          and back.A.eq(base.A.reinterpret(back.ring))
                          and back.B.eq(base.B.reinterpret(back.ring)))
    rows.append(("opposite is an involution (entrywise)", all(involution)))
    ident4 = RankCertificate(Zr, 4, 4, RingMatrix.identity(Zr, 4),
                             RingMatrix.identity(Zr, 4))
    down = block_down_certificate(block_up_certificate(ident4, 2))
    M2 = MatrixRing(LeavittRing(2), 2)
    blocked = block_up_certificate(_stack_twice(leavitt_rank_certificate(2)), 2)
    rows.append(("block round trips verify",
                 down.A.eq(ident4.A) and down.B.eq(ident4.B)
                 and _verifies(blocked) and blocked.ring == M2
                 and _verifies(block_down_certificate(blocked))))
    prod = product_certificate([leavitt_rank_certificate(2),
                                leavitt_rank_certificate(3)])
    rows.append(("product certificate verifies with shape (1,2)",
                 _verifies(prod) and (prod.n, prod.m) == (1, 2)))
    RG = group_ring(Cyclic(2), Zr)
    g = RG.term(1, 1)
    cert = RankCertificate(RG, 1, 1, RingMatrix(RG, 1, 1, [g]),
                           RingMatrix(RG, 1, 1, [g]))
    pushed = hom_certificate(cert, lambda e: group_ring_augmentation(RG, e), Zr)
    Z5 = IntegerModRing(5)
    zc = RankCertificate(Zr, 2, 2,
                         RingMatrix.from_rows(Zr, [[1, 2], [0, 1]]),
                         RingMatrix.from_rows(Zr, [[1, -2], [0, 1]]))
    pushed5 = hom_certificate(zc, Z5.from_int, Z5)
    rows.append(("augmentation and mod-5 pushforwards verify",
                 _verifies(pushed) and _verifies(pushed5)))
    return CriterionResult(12, "certificate algebra", rows)


def _verifies(cert: RankCertificate, need_bgn: bool = False) -> bool:
    v = verify_certificate(cert)
    return bool(v) and (v.bgn or not need_bgn)


def _stack_twice(cert: RankCertificate) -> RankCertificate:
    """Duplicate a (1,2) certificate into a (2,4) block-diagonal one."""
    R = cert.ring
    A = RingMatrix.from_support_rows(R, 2, [{c: cert.A[r, 0]}
                                            for r in range(2) for c in range(2)])
    B = RingMatrix.from_support_rows(R, 4, [{2 * r + c: cert.B[0, r] for r in range(2)}
                                            for c in range(2)])
    return _checked(RankCertificate(R, 2, 4, A, B),
                    "stacked certificate failed re-verification", need_bgn=True)


def check_endo_graded() -> CriterionResult:
    rows = [endo_graded_construction(S, G, n, l)[1].summary_row(
                f"{G.name}, n={n}, l={l} over {S.name}")
            for G, n, l, S in [(Cyclic(2), 2, 1, IntegerModRing(5)),
                               (Cyclic(3), 2, 2, IntegerRing())]]
    return CriterionResult(13, "graded endomorphism rings", rows)


ALL_CHECKS = [
    ("leavitt-rank", check_leavitt_rank),
    ("matrix-units", check_matrix_units),
    ("compression", check_compression),
    ("collapse", check_collapse),
    ("folner", check_folner),
    ("matching", check_matching),
    ("finite-iso", check_finite_iso),
    ("monoid-gn", check_monoid_gn),
    ("separators", check_separators),
    ("bs-witnesses", check_bs_witnesses),
    ("weyl", check_weyl),
    ("cert-algebra", check_certificate_algebra),
    ("endo-graded", check_endo_graded),
]


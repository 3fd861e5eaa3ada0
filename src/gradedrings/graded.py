"""Crossed systems and crossed products, group rings with augmentation,
strong-grading witnesses, the graded endomorphism-ring construction, and the
truncated embedding of a freely graded ring into a translation ring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .groups import Group
from .report import Report, VerificationError, check_row
from .rings import MatrixRing, Ring, RingMatrix, SparseRing, _add_term, mat_mul
from .special_algebras import WeylRing, weyl_component_basis, weyl_coordinates


class CrossedSystem:
    """(G, R, sigma, omega): a finite group acting on a ring with a unit-
    valued twisting.  sigma is a table g -> (map, inverse map); omega and
    omega_inv are tables on pairs."""

    def __init__(self, group: Group, ring: Ring, sigma: Optional[dict] = None,
                 omega: Optional[dict] = None, omega_inv: Optional[dict] = None):
        self.group = group
        self.ring = ring
        self.elements = group.elements()
        self.sigma = sigma
        self.omega = omega
        self.omega_inv = omega_inv
        self.trivial_sigma = sigma is None
        self.trivial_omega = omega is None
        if (omega is None) != (omega_inv is None):
            raise ValueError("omega and omega_inv must be supplied together")

    def act(self, g, r):
        if self.sigma is None:
            return r
        return self.sigma[g][0](r)

    def w(self, g, h):
        if self.omega is None:
            return self.ring.one()
        return self.omega[(g, h)]

    def w_inv(self, g, h):
        if self.omega is None:
            return self.ring.one()
        return self.omega_inv[(g, h)]

    @property
    def is_group_ring(self):
        return self.trivial_sigma and self.trivial_omega


def twisted_system(group: Group, ring: Ring, omega: dict,
                   omega_inv: dict) -> CrossedSystem:
    return CrossedSystem(group, ring, omega=omega, omega_inv=omega_inv)


@dataclass
class CrossedSystemReport(Report):
    cond1_ok: bool   # g.(h.r) = w(g,h) ((gh).r) w(g,h)^-1
    cond2_ok: bool   # cocycle identity
    cond3_ok: bool   # normalization w(g,1) = w(1,g) = 1, identity acts trivially
    units_ok: bool   # w w^-1 = w^-1 w = 1
    central_ok: Optional[bool]  # sampled centrality for trivial-sigma systems

    CHECKS = (("cond1_ok", "conjugation condition (i)"),
              ("cond2_ok", "cocycle condition (ii)"),
              ("cond3_ok", "normalization (iii)"),
              ("units_ok", "omega values are units"),
              ("central_ok", "omega centrality (sampled)"))


def verify_crossed_system(cs: CrossedSystem,
                          samples: Optional[Sequence] = None) -> CrossedSystemReport:
    """Check the three crossed-system conditions; group parts exhaustive,
    ring parts on the sample list (default: 0, 1, 2, -3)."""
    R = cs.ring
    G = cs.group
    if samples is None:
        samples = [R.zero(), R.one(), R.from_int(2), R.from_int(-3)]
    e = G.identity()
    rep = CrossedSystemReport(True, True, True, True,
                              None if not cs.trivial_sigma else True)
    for g in cs.elements:
        for h in cs.elements:
            wgh, wgh_i = cs.w(g, h), cs.w_inv(g, h)
            if not (R.eq(R.mul(wgh, wgh_i), R.one())
                    and R.eq(R.mul(wgh_i, wgh), R.one())):
                rep.units_ok = False
                rep.failures.append(f"omega({g},{h}) is not a unit")
            gh = G.mul(g, h)
            for r in samples:
                lhs = cs.act(g, cs.act(h, r))
                rhs = R.mul(R.mul(wgh, cs.act(gh, r)), wgh_i)
                if not R.eq(lhs, rhs):
                    rep.cond1_ok = False
                    rep.failures.append(f"condition (i) fails at ({g},{h})")
            for k in cs.elements:
                lhs = R.mul(cs.w(g, h), cs.w(gh, k))
                rhs = R.mul(cs.act(g, cs.w(h, k)), cs.w(g, G.mul(h, k)))
                if not R.eq(lhs, rhs):
                    rep.cond2_ok = False
                    rep.failures.append(f"condition (ii) fails at ({g},{h},{k})")
    for g in cs.elements:
        if not (R.eq(cs.w(g, e), R.one()) and R.eq(cs.w(e, g), R.one())):
            rep.cond3_ok = False
            rep.failures.append(f"condition (iii) fails at {g}")
    for r in samples:
        if not R.eq(cs.act(e, r), r):
            rep.cond3_ok = False
    if cs.trivial_sigma:
        rep.central_ok = True
        for g in cs.elements:
            for h in cs.elements:
                for r in samples:
                    if not R.eq(R.mul(cs.w(g, h), r), R.mul(r, cs.w(g, h))):
                        rep.central_ok = False
                        rep.failures.append(f"omega({g},{h}) not central")
    return rep


class CrossedProductRing(SparseRing):
    """Formal sums {g: r_g} multiplied by (r g)(s h) = r (g.s) w(g,h) (gh).

    The crossed system is verified at construction time.  Group rings
    carry no data beyond (G, R) and compare structurally; any other crossed
    product compares by the identity of its system.
    """

    def __init__(self, cs: CrossedSystem):
        rep = verify_crossed_system(cs)
        if not rep.ok:
            raise ValueError("crossed system fails verification: "
                             + "; ".join(rep.failures[:3]))
        self.cs = cs
        self.group = cs.group
        self.base = cs.ring
        self.unit_key = cs.group.identity()
        self.key = (cs.group, cs.ring) if cs.is_group_ring else (cs,)
        kind = ("group ring" if cs.is_group_ring
                else "skew" if cs.trivial_omega
                else "twisted" if cs.trivial_sigma else "crossed")
        self.name = f"{kind}({self.base.name}, {self.group.name})"

    def term(self, r, g) -> dict:
        self.group.check_element(g)
        return self.normalize({g: r})

    def mul(self, a, b):
        S, cs = self.base, self.cs
        out = {}
        for g, rg in a.items():
            for h, rh in b.items():
                gh = self.group.mul(g, h)
                val = S.mul(S.mul(rg, cs.act(g, rh)), cs.w(g, h))
                out[gh] = S.add(out[gh], val) if gh in out else val
        return self.normalize(out)

    def normalize(self, terms):
        return {g: r for g, r in terms.items() if not self.base.is_zero(r)}

    def element_to_str(self, a):
        if not a:
            return "0"
        G, S = self.group, self.base
        return " + ".join(f"{S.element_to_str(a[g])}*[{G.element_to_str(g)}]"
                          for g in sorted(a, key=G.element_key))

    def element_from_str(self, s):
        s = s.strip()
        if s == "0":
            return {}
        out = self.zero()
        for part in s.split("+"):
            m = re.fullmatch(r"\s*(.*?)\s*\*\s*\[(.*?)\]\s*", part)
            if not m:
                raise ValueError(f"cannot parse term {part!r}; "
                                 "expected 'coeff*[group element]'")
            out = self.add(out, self.term(self.base.element_from_str(m.group(1)),
                                          self.group.element_from_str(m.group(2))))
        return out


def group_ring(group: Group, ring: Ring) -> CrossedProductRing:
    return CrossedProductRing(CrossedSystem(group, ring))


def group_ring_augmentation(ring: CrossedProductRing, a: dict):
    """Sum of coefficients; a ring homomorphism RG -> R for group rings."""
    if not ring.cs.is_group_ring:
        raise ValueError("augmentation needs trivial sigma and omega")
    S = ring.base
    out = S.zero()
    for r in a.values():
        out = S.add(out, r)
    return out


# ---------------------------------------------------------------------------
# strong grading


STRONG_COEFF_BOUND = 3


@dataclass
class StrongGradingVerdict:
    g: object
    found: bool
    witness: str
    terms: list = field(default_factory=list)   # (s, ia, ib): 1 = sum s a[ia] b[ib]


def strong_grading_check(ring: Ring, components: dict, inv: Callable,
                         gs: Sequence) -> list:
    """For each tested g, search for 1 as a combination of products from the
    spanning sets of R_g and R_{g^-1}.

    Bounded strategy: scaled single products (integer coefficients up to
    STRONG_COEFF_BOUND), then a greedy family of pairwise orthogonal
    idempotent products summed up.  A negative verdict means the bounded search failed,
    not that the grading is weak.
    """
    one = ring.one()
    scalars = [(s, ring.from_int(s)) for c in range(1, STRONG_COEFF_BOUND + 1)
               for s in (c, -c)]
    out = []
    for g in gs:
        products = [(ia, ib, p) for ia, a in enumerate(components[g])
                    for ib, b in enumerate(components[inv(g)])
                    for p in (ring.mul(a, b),) if not ring.is_zero(p)]
        single = next(((s, ia, ib) for ia, ib, p in products for s, sc in scalars
                       if ring.eq(ring.mul(sc, p), one)), None)
        if single:
            s, ia, ib = single
            out.append(StrongGradingVerdict(g, True, f"1 = {s} * a[{ia}] b[{ib}]",
                                            [single]))
            continue
        chosen = []
        for ia, ib, p in products:
            if ring.eq(ring.mul(p, p), p) and all(
                    ring.is_zero(ring.mul(p, q)) and ring.is_zero(ring.mul(q, p))
                    for _, _, q in chosen):
                chosen.append((ia, ib, p))
        acc = ring.zero()
        for _, _, p in chosen:
            acc = ring.add(acc, p)
        if chosen and ring.eq(acc, one):
            pairs = " + ".join(f"a[{ia}] b[{ib}]" for ia, ib, _ in chosen)
            out.append(StrongGradingVerdict(g, True, f"1 = {pairs}",
                                            [(1, ia, ib) for ia, ib, _ in chosen]))
        else:
            out.append(StrongGradingVerdict(g, False, ""))
    return out


class _UnitLabelRing(SparseRing):
    """M_N(S) on matrix-unit labels, the model the endo-graded strong-grading
    search runs in: {(a, b): c} is the sum of c e_ab over labels a, b of
    index, e_ab e_cd = delta_bc e_ad, and 1 is the sum of the e_aa."""

    def __init__(self, S: Ring, index: Sequence):
        self.base = S
        self.index = tuple(index)
        self.key = (S, self.index)
        self.name = f"M{len(self.index)}({S.name}) on unit labels"

    def scalar(self, c):
        return {} if self.base.is_zero(c) else {(a, a): c for a in self.index}

    def one(self):
        return self.scalar(self.base.one())

    def mul(self, x, y):
        S, starts, out = self.base, {}, {}
        for (c, d), v in y.items():
            starts.setdefault(c, []).append((d, v))
        for (a, b), u in x.items():
            for d, v in starts.get(b, ()):
                _add_term(out, (a, d), S.mul(u, v), S)
        return out


# ---------------------------------------------------------------------------
# graded endomorphism rings of mixed-rank free modules


@dataclass
class EndoGraded:
    base: Ring
    group: Group
    n: int
    l: int
    p: int
    index: list          # (x, i) pairs, block-major in group element order
    ranks: dict          # x -> rank of A_x
    matrix_ring: MatrixRing
    components: dict     # g -> list of matrix units (as matrix_ring elements)
    unit_positions: dict  # g -> list of ((x,i),(y,j)) labels, same order


@dataclass
class EndoGradedReport(Report):
    dimension_ok: bool
    partition_ok: bool
    closure_ok: bool
    t1_diagonal_ok: bool
    strong: list = field(default_factory=list)

    CHECKS = (("dimension_ok", "total rank equals n*l"),
              ("partition_ok", "components partition the matrix units"),
              ("closure_ok", "grading closure T_g T_h in T_gh"),
              ("t1_diagonal_ok", "identity component is block diagonal"))

    def _extra(self):
        return [check_row(f"strong grading at {v.g}", v.found, v.witness)
                for v in self.strong]


def endo_graded_construction(S: Ring, group: Group, n: int, l: int):
    """Grade the matrix ring M_{nl}(S) by a finite group of order k, viewing
    it as endomorphisms of a direct sum with one summand of rank
    p = nl - k + 1 at the identity and rank-1 summands elsewhere.

    Component T_g consists of the blocks (x, g^-1 x); returns the graded
    ring data and a report covering dimension, partition, closure, strong
    grading for every g, and the block-diagonal identity component.
    """
    elems = group.elements()
    k = len(elems)
    if k < 2:
        raise ValueError("need a group of order at least 2")
    if n * l <= k - 1:
        raise ValueError(f"need n*l > |G| - 1 = {k - 1}")
    p = n * l - k + 1
    e = group.identity()
    ranks = {x: (p if x == e else 1) for x in elems}
    index = [(x, i) for x in elems for i in range(ranks[x])]
    N = len(index)
    pos = {lab: t for t, lab in enumerate(index)}
    mring = MatrixRing(S, N)

    def unit(a, b) -> RingMatrix:
        return RingMatrix.from_support_rows(
            S, N, [{pos[b]: S.one()} if t == pos[a] else {} for t in range(N)])

    components, unit_positions = {}, {}
    for g in elems:
        ginv = group.inv(g)
        labs = [((x, i), (group.mul(ginv, x), j))
                for x in elems for i in range(ranks[x])
                for j in range(ranks[group.mul(ginv, x)])]
        unit_positions[g] = labs
        components[g] = [unit(a, b) for a, b in labs]
    ring = EndoGraded(S, group, n, l, p, index, ranks, mring,
                      components, unit_positions)

    rep = EndoGradedReport(dimension_ok=(N == n * l), partition_ok=True,
                           closure_ok=True, t1_diagonal_ok=True)
    all_pairs = [(a, b) for g in elems for a, b in unit_positions[g]]
    if (len(all_pairs) != N * N
            or set(all_pairs) != {(a, b) for a in index for b in index}):
        rep.partition_ok = False
    # Closure is decided from the labels, since e_ab e_cd = delta_bc e_ad.
    # That holds for the matrices when each one is the unit its label names,
    # read at the label's position, and one dense product per pair (g, h)
    # checks the rule on mat_mul itself.
    comp_of, matrix_of, starts = {}, {}, {g: {} for g in elems}
    for g in elems:
        for (a, b), u in zip(unit_positions[g], components[g]):
            if ([(s, t) for s, row in enumerate(u.support) for t in row]
                    != [(pos[a], pos[b])] or not S.eq(u[pos[a], pos[b]], S.one())):
                rep.closure_ok = False
                rep.failures.append(f"T_{g} matrix labelled {a}, {b} is not that unit")
            comp_of[(a, b)], matrix_of[(a, b)] = g, u
            starts[g].setdefault(a, []).append(b)
    for g in elems:
        for h in elems:
            gh = group.mul(g, h)
            spot = None
            for a1, b1 in unit_positions[g]:
                for b2 in starts[h].get(b1, ()):
                    spot = spot or (a1, b1, b2)
                    if comp_of.get((a1, b2)) != gh:
                        rep.closure_ok = False
                        rep.failures.append(
                            f"product of T_{g} and T_{h} units left T_{gh}")
            if spot:
                a1, b1, b2 = spot
                prod = mat_mul(matrix_of[(a1, b1)], matrix_of[(b1, b2)])
                if not prod.eq(unit(a1, b2)):
                    rep.closure_ok = False
                    rep.failures.append(f"product of T_{g} and T_{h} units "
                                        "is not the unit their labels name")
    for (a, b) in unit_positions[e]:
        if a[0] != b[0]:
            rep.t1_diagonal_ok = False
    # The strong-grading search runs on the labels; each witness it finds is
    # then summed from the matrices with mat_mul and must give the identity.
    one = S.one()
    labelled = {g: [{ab: one} for ab in unit_positions[g]] for g in elems}
    rep.strong = strong_grading_check(_UnitLabelRing(S, index), labelled,
                                      group.inv, elems)
    identity = mring.one()
    for v in rep.strong:
        if not v.found:
            continue
        acc = mring.zero()
        for s, ia, ib in v.terms:
            c = S.from_int(s)
            prod = mat_mul(components[v.g][ia], components[group.inv(v.g)][ib])
            acc = acc.add(RingMatrix.from_support_rows(S, N, [
                {j: S.mul(c, x) for j, x in row.items()} for row in prod.support]))
        if not acc.eq(identity):
            v.found = False
            rep.failures.append(f"strong grading witness at {v.g} does not "
                                "sum to the identity matrix")
    return ring, rep


# ---------------------------------------------------------------------------
# truncated translation-ring embedding of a freely graded ring


@dataclass
class PsiReport(Report):
    unital_ok: bool
    additive_ok: bool
    multiplicative_ok: bool
    pairs_checked: int

    CHECKS = (("unital_ok", "unitality (Psi of 1 is the identity)"),
              ("additive_ok", "additivity on samples"),
              ("multiplicative_ok", "multiplicativity on {self.pairs_checked} pairs"))

    def to_json(self):
        return {**super().to_json(), "pairs_checked": self.pairs_checked}


def _weyl_basis_elems(ring: WeylRing, x: int) -> list:
    if x == 0:
        return [ring.one()]
    basis = weyl_component_basis(ring, x)
    return [{key: ring.base.one()} for key in basis.monomials]


def _homogeneous_parts(ring: WeylRing, elem: dict) -> dict:
    parts = {}
    for (w, lpow), c in elem.items():
        d = len(w) - lpow
        parts.setdefault(d, {})[(w, lpow)] = c
    return parts


def _block_matrix(ring: WeylRing, part: dict, d: int, x: int, y: int):
    """Coordinate matrix of left multiplication by a degree-d element, as a
    map from component y to component x = d + y, over the degree-0 subring."""
    if x != d + y:
        raise VerificationError(f"block ({x}, {y}) is not of degree {d}")
    cols = [weyl_coordinates(ring, ring.mul(part, v), x)
            for v in _weyl_basis_elems(ring, y)]
    return [list(row) for row in zip(*cols)]


class _PsiImage:
    """Psi(theta(r)) for a Weyl element r, read lazily one row at a time."""

    def __init__(self, ring: WeylRing, elem: dict):
        self.ring = ring
        self.parts = _homogeneous_parts(ring, elem)
        self._blocks = {}

    def block(self, x: int, y: int):
        d = x - y
        if d not in self.parts:
            return None
        if (x, y) not in self._blocks:
            self._blocks[(x, y)] = _block_matrix(self.ring, self.parts[d], d, x, y)
        return self._blocks[(x, y)]

    def row(self, x: int, i: int) -> dict:
        """The nonzero entries {(y, j): value} of row (x, i).  The interval-
        block rule: index i of component x lies in interval k of length n_x,
        and block (x, y) maps it onto interval k of component y."""
        out = {}
        for d in self.parts:
            M = self.block(x, x - d)
            k, a = divmod(i - 1, len(M))
            n_y = len(M[a])
            for b, v in enumerate(M[a]):
                if not self.ring.is_zero(v):
                    out[(x - d, k * n_y + b + 1)] = v
        return out


def _window_mismatches(ring: WeylRing, got: dict, want: dict, comps, idxs):
    """The window positions (y, j) where two rows differ; a position in
    neither row is zero in both."""
    zero = ring.zero()
    return [(y, j) for (y, j) in got.keys() | want.keys()
            if y in comps and j in idxs
            and not ring.eq(got.get((y, j), zero), want.get((y, j), zero))]


def psi_embedding_check(ring: WeylRing, samples: Sequence[dict],
                        window: int = 6,
                        component_window: Optional[int] = None) -> PsiReport:
    """Verify the translation-ring embedding of the graded algebra on a
    finite window: unitality, additivity, and multiplicativity of the block
    map, row by row, with the inner index sums taken over whole rows."""
    if window < 0 or (component_window is not None and component_window < 0):
        raise ValueError("window and component_window must be non-negative")
    degs = {d for s in samples for d in _homogeneous_parts(ring, s)}
    cw = component_window if component_window is not None \
        else max(2, max((abs(d) for d in degs), default=0) + 1)
    comps = range(-cw, cw + 1)
    idxs = range(-window, window + 1)
    rep = PsiReport(True, True, True, 0)

    one_img = _PsiImage(ring, ring.one())
    for x in comps:
        for i in idxs:
            if _window_mismatches(ring, one_img.row(x, i), {(x, i): ring.one()},
                                  comps, idxs):
                rep.unital_ok = False
        if any(y != x and one_img.block(x, y) is not None for y in comps):
            rep.unital_ok = False

    for r in samples:
        ri = _PsiImage(ring, r)
        for s in samples:
            si = _PsiImage(ring, s)
            sum_img = _PsiImage(ring, ring.add(r, s))
            prod_img = _PsiImage(ring, ring.mul(r, s))
            for x in comps:
                bad = []
                for i in idxs:
                    r_row = ri.row(x, i)
                    want_sum, want_prod = dict(r_row), {}
                    for key, w in si.row(x, i).items():
                        _add_term(want_sum, key, w, ring)
                    for (z, t), v in r_row.items():
                        for key, w in si.row(z, t).items():
                            _add_term(want_prod, key, ring.mul(v, w), ring)
                    if _window_mismatches(ring, sum_img.row(x, i), want_sum,
                                          comps, idxs):
                        rep.additive_ok = False
                    bad += [(y, i, j) for y, j in _window_mismatches(
                        ring, prod_img.row(x, i), want_prod, comps, idxs)]
                if bad:
                    rep.multiplicative_ok = False
                rep.failures += [f"multiplicativity fails at (({x},{i}),({y},{j}))"
                                 for y, i, j in sorted(bad)]
            rep.pairs_checked += 1
    return rep

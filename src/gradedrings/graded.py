"""Crossed systems and crossed products, group rings with augmentation,
strong-grading witnesses, the graded endomorphism-ring construction, and the
truncated embedding of a freely graded ring into a translation ring.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional, Sequence

from .groups import Group, as_factor, split_top_level, strip_parens
from .report import Report, VerificationError, check, check_row
from .rings import Ring, RingMatrix, SparseRing, _add_term, mat_mul
from .special_algebras import WeylRing, weyl_component_basis, weyl_coordinates


class CrossedSystem:
    """(G, R, sigma, omega): a finite group acting on a ring with a unit-
    valued twisting.  sigma is a table g -> map; omega and omega_inv are
    tables on pairs."""

    def __init__(self, group: Group, ring: Ring, sigma: Optional[dict] = None,
                 omega: Optional[dict] = None, omega_inv: Optional[dict] = None):
        self.group = group
        self.ring = ring
        self.elements = group.elements()
        self.sigma = sigma
        self.omega = omega
        self.omega_inv = omega_inv
        if (omega is None) != (omega_inv is None):
            raise ValueError("omega and omega_inv must be supplied together")

    def act(self, g, r):
        if self.sigma is None:
            return r
        return self.sigma[g](r)

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
        return self.sigma is None and self.omega is None


def twisted_system(group: Group, ring: Ring, omega: dict,
                   omega_inv: dict) -> CrossedSystem:
    return CrossedSystem(group, ring, omega=omega, omega_inv=omega_inv)


@dataclass
class CrossedSystemReport(Report):
    # g.(h.r) = w(g,h) ((gh).r) w(g,h)^-1
    cond1_ok: bool = check("conjugation condition (i)")
    cond2_ok: bool = check("cocycle condition (ii)")
    # w(g,1) = w(1,g) = 1, and the identity acts trivially
    cond3_ok: bool = check("normalization (iii)")
    units_ok: bool = check("omega values are units")  # w w^-1 = w^-1 w = 1
    # sampled centrality, for trivial-sigma systems only
    central_ok: Optional[bool] = check("omega centrality (sampled)", start=None)
    # sampled ring laws of each sigma_g, if any
    sigma_hom_ok: Optional[bool] = check(
        "sigma_g unital, additive and multiplicative (sampled)", start=None)


def verify_crossed_system(cs: CrossedSystem,
                          samples: Optional[Sequence] = None) -> CrossedSystemReport:
    """Check the three crossed-system conditions, and that each sigma_g is
    a ring homomorphism; group parts exhaustive, ring parts on the sample
    list (default: 0, 1, 2, -3) and every pair of samples.  An empty sample
    list is refused: the ring parts would pass with nothing checked."""
    R = cs.ring
    G = cs.group
    if samples is None:
        samples = [R.zero(), R.one(), R.from_int(2), R.from_int(-3)]
    if not samples:
        raise ValueError("samples is empty: no ring element to check")
    e, show = G.identity(), R.element_to_str
    rep = CrossedSystemReport(central_ok=True if cs.sigma is None else None,
                              sigma_hom_ok=None if cs.sigma is None else True)
    for g in cs.elements:
        for h in cs.elements:
            wgh, wgh_i = cs.w(g, h), cs.w_inv(g, h)
            if not (R.eq(R.mul(wgh, wgh_i), R.one())
                    and R.eq(R.mul(wgh_i, wgh), R.one())):
                rep.fail("units_ok", f"omega({g},{h}) is not a unit")
            gh = G.mul(g, h)
            for r in samples:
                lhs = cs.act(g, cs.act(h, r))
                rhs = R.mul(R.mul(wgh, cs.act(gh, r)), wgh_i)
                if not R.eq(lhs, rhs):
                    rep.fail("cond1_ok", f"condition (i) fails at ({g},{h}), r = {show(r)}")
            for k in cs.elements:
                lhs = R.mul(cs.w(g, h), cs.w(gh, k))
                rhs = R.mul(cs.act(g, cs.w(h, k)), cs.w(g, G.mul(h, k)))
                if not R.eq(lhs, rhs):
                    rep.fail("cond2_ok", f"condition (ii) fails at ({g},{h},{k})")
    for g in cs.elements:
        if not (R.eq(cs.w(g, e), R.one()) and R.eq(cs.w(e, g), R.one())):
            rep.fail("cond3_ok", f"condition (iii) fails at {g}")
    for r in samples:
        if not R.eq(cs.act(e, r), r):
            rep.fail("cond3_ok", f"condition (iii) fails: the identity moves r = {show(r)}")
    if cs.sigma is None:
        for g in cs.elements:
            for h in cs.elements:
                for r in samples:
                    if not R.eq(R.mul(cs.w(g, h), r), R.mul(r, cs.w(g, h))):
                        rep.fail("central_ok", f"omega({g},{h}) not central, r = {show(r)}")
    else:
        for g in cs.elements:
            if not R.eq(cs.act(g, R.one()), R.one()):
                rep.fail("sigma_hom_ok", f"sigma_{g} does not fix 1")
            for a in samples:
                for b in samples:
                    sa, sb = cs.act(g, a), cs.act(g, b)
                    if not (R.eq(cs.act(g, R.add(a, b)), R.add(sa, sb))
                            and R.eq(cs.act(g, R.mul(a, b)), R.mul(sa, sb))):
                        rep.fail("sigma_hom_ok", f"sigma_{g} is not a ring homomorphism "
                                                 f"at ({show(a)}, {show(b)})")
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
        kind = ("group" if cs.is_group_ring
                else "skew" if cs.omega is None
                else "twisted" if cs.sigma is None else "crossed")
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
        return " + ".join(f"{as_factor(S.element_to_str(a[g]))}*[{G.element_to_str(g)}]"
                          for g in sorted(a, key=G.element_key))

    def element_from_str(self, s):
        """Terms 'coeff*[group element]' joined by "+" outside brackets; a
        coefficient in parentheses is read without them."""
        s = s.strip()
        if s == "0":
            return {}
        out = self.zero()
        for part in split_top_level(s, "+"):
            m = re.fullmatch(r"(.*)\*\s*\[(.*)\]", part)
            if not m:
                raise ValueError(f"cannot parse term {part!r}; "
                                 "expected 'coeff*[group element]'")
            coeff = self.base.element_from_str(strip_parens(m.group(1)))
            out = self.add(out, self.term(coeff, self.group.element_from_str(m.group(2))))
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


@dataclass
class StrongGradingVerdict:
    g: object
    terms: list  # (ia, ib): 1 = sum a[ia] b[ib]; empty when none was found

    @property
    def found(self) -> bool:
        return bool(self.terms)

    @property
    def witness(self) -> str:
        pairs = " + ".join(f"a[{ia}] b[{ib}]" for ia, ib in self.terms)
        return f"1 = {pairs}" if pairs else ""


def strong_grading_check(ring: Ring, components: dict, inv: Callable,
                         gs: Sequence) -> list:
    """For each tested g, search for 1 as a sum of products from the
    spanning sets of R_g and R_{g^-1}.

    One greedy pass over the pairs (ia, ib) in spanning-set order keeps each
    nonzero product that is idempotent and orthogonal to every product kept
    so far; g is found when the kept products sum to 1.  A negative verdict
    means this search failed, not that the grading is weak.
    """
    one = ring.one()
    out = []
    for g in gs:
        chosen = []
        for ia, a in enumerate(components[g]):
            for ib, b in enumerate(components[inv(g)]):
                p = ring.mul(a, b)
                if not ring.is_zero(p) and ring.eq(ring.mul(p, p), p) and all(
                        ring.is_zero(ring.mul(p, q)) and ring.is_zero(ring.mul(q, p))
                        for _, _, q in chosen):
                    chosen.append((ia, ib, p))
        acc = ring.zero()
        for _, _, p in chosen:
            acc = ring.add(acc, p)
        out.append(StrongGradingVerdict(
            g, [(ia, ib) for ia, ib, _ in chosen] if ring.eq(acc, one) else []))
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

    def one(self):
        return {(a, a): self.base.one() for a in self.index}

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
    p: int
    index: list          # (x, i) pairs, block-major in group element order
    unit_positions: dict  # g -> list of ((x,i),(y,j)) labels: T_g's matrix units


@dataclass
class EndoGradedReport(Report):
    dimension_ok: bool = check("total rank equals n*l")
    partition_ok: bool = check("components partition the matrix units")
    closure_ok: bool = check("grading closure T_g T_h in T_gh")
    t1_diagonal_ok: bool = check("identity component is block diagonal")
    strong: list = field(default_factory=list)

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

    @cache  # each dense unit a check reads is built once
    def unit(a, b) -> RingMatrix:
        return RingMatrix.from_support_rows(
            S, N, [{pos[b]: S.one()} if t == pos[a] else {} for t in range(N)])

    unit_positions = {}
    for g in elems:
        ginv = group.inv(g)
        unit_positions[g] = [((x, i), (group.mul(ginv, x), j))
                             for x in elems for i in range(ranks[x])
                             for j in range(ranks[group.mul(ginv, x)])]
    ring = EndoGraded(p, index, unit_positions)

    rep = EndoGradedReport()
    if N != n * l:
        rep.fail("dimension_ok", f"total rank {N} is not n*l = {n * l}")
    # labels lie in index x index: a partition puts each unit in one component
    labels = Counter((a, b) for g in elems for a, b in unit_positions[g])
    for a in pos:
        for b in pos:
            if labels[a, b] != 1:
                rep.fail("partition_ok", f"unit {a}, {b} lies in {labels[a, b]} components")
    # Closure is decided from the labels, since e_ab e_cd = delta_bc e_ad;
    # one dense product per pair (g, h) checks that rule on the units the
    # labels name and on mat_mul itself.
    comp_of, starts = {}, {g: {} for g in elems}
    for g in elems:
        for a, b in unit_positions[g]:
            comp_of[(a, b)] = g
            starts[g].setdefault(a, []).append(b)
    for g in elems:
        for h in elems:
            gh = group.mul(g, h)
            spot = None
            for a1, b1 in unit_positions[g]:
                for b2 in starts[h].get(b1, ()):
                    spot = spot or (a1, b1, b2)
                    if comp_of.get((a1, b2)) != gh:
                        rep.fail("closure_ok", f"product of T_{g} and T_{h} units left "
                                               f"T_{gh} at {a1}, {b1} times {b1}, {b2}")
            if spot:
                a1, b1, b2 = spot
                if not mat_mul(unit(a1, b1), unit(b1, b2)).eq(unit(a1, b2)):
                    rep.fail("closure_ok", f"product of T_{g} and T_{h} units "
                                           "is not the unit their labels name")
    for (a, b) in unit_positions[e]:
        if a[0] != b[0]:
            rep.fail("t1_diagonal_ok", f"T_{e} holds the off-diagonal unit {a}, {b}")
    # The strong-grading search runs on the labels; each witness it finds is
    # then summed from dense units with mat_mul and must give the identity.
    one = S.one()
    labelled = {g: [{ab: one} for ab in unit_positions[g]] for g in elems}
    # one row per element, even where elements() repeats one
    for v in strong_grading_check(_UnitLabelRing(S, index), labelled, group.inv,
                                  list(dict.fromkeys(elems))):
        if not v.found:
            rep.fail(None, f"no strong-grading witness found at {v.g}")
        else:
            left, right = unit_positions[v.g], unit_positions[group.inv(v.g)]
            acc = RingMatrix.zero(S, N, N)
            for ia, ib in v.terms:
                acc = acc.add(mat_mul(unit(*left[ia]), unit(*right[ib])))
            if not acc.eq(RingMatrix.identity(S, N)):
                rep.fail(None, f"strong grading witness at {v.g} does not "
                               "sum to the identity matrix")
                v = StrongGradingVerdict(v.g, [])
        rep.strong.append(v)
    return ring, rep


# ---------------------------------------------------------------------------
# truncated translation-ring embedding of a freely graded ring


@dataclass
class PsiReport(Report):
    pairs_checked: int = 0
    unital_ok: bool = check("unitality (Psi of 1 is the identity)")
    additive_ok: bool = check("additivity on samples")
    multiplicative_ok: bool = check("multiplicativity on {self.pairs_checked} pairs")

    def to_json(self):
        return {**super().to_json(), "pairs_checked": self.pairs_checked}


def _weyl_basis_elems(ring: WeylRing, x: int) -> list:
    return [{key: ring.base.one()} for key in weyl_component_basis(ring, x)]


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
    map, row by row, with the inner index sums taken over whole rows.  Each
    sample's image, with the blocks it reads, is built once and serves as
    both factor of every pair; sums and products get an image per pair."""
    if window < 0 or (component_window is not None and component_window < 0):
        raise ValueError("window and component_window must be non-negative")
    if not samples:
        raise ValueError("samples is empty: no pair to check")
    degs = {d for s in samples for d in _homogeneous_parts(ring, s)}
    cw = component_window if component_window is not None \
        else max(2, max((abs(d) for d in degs), default=0) + 1)
    comps = range(-cw, cw + 1)
    idxs = range(-window, window + 1)
    rep = PsiReport()

    one_img = _PsiImage(ring, ring.one())
    for x in comps:
        for i in idxs:
            if _window_mismatches(ring, one_img.row(x, i), {(x, i): ring.one()},
                                  comps, idxs):
                rep.fail("unital_ok", f"unitality fails at row ({x},{i})")
        for y in comps:
            if y != x and one_img.block(x, y) is not None:
                rep.fail("unital_ok", f"Psi of 1 has a block at ({x},{y})")

    images = [_PsiImage(ring, s) for s in samples]
    for r, ri in zip(samples, images):
        for s, si in zip(samples, images):
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
                        rep.fail("additive_ok", f"additivity fails at row ({x},{i}) on "
                                 f"({ring.element_to_str(r)}, {ring.element_to_str(s)})")
                    bad += [(y, i, j) for y, j in _window_mismatches(
                        ring, prod_img.row(x, i), want_prod, comps, idxs)]
                for y, i, j in sorted(bad):
                    rep.fail("multiplicative_ok",
                             f"multiplicativity fails at (({x},{i}),({y},{j})) on "
                             f"({ring.element_to_str(r)}, {ring.element_to_str(s)})")
            rep.pairs_checked += 1
    return rep

"""Rewriting engines for the Leavitt algebra L(1,n) and generalized Weyl
algebras, exposed through the common Ring interface.

Leavitt elements are S-linear combinations of monomials alpha * beta-star,
stored as dicts {(alpha, beta): coeff} with alpha, beta tuples of generator
indices (beta kept unstarred).  The canonical form eliminates every monomial
whose alpha and beta both end in e_n via

    x e_n (y e_n)*  ->  x y* - sum_{i<n} (x e_i) (y e_i)*,

the confluent completion of the defining relations.

Weyl elements are combinations of basis monomials x-word * y^l, stored as
dicts {(xword, l): coeff}; products are normalized by pushing y to the right
with  y x_i = a_i x_i y + b_i.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import as_factor, strip_parens
from .report import Report, VerificationError, check
from .rings import (IntegerRing, RankCertificate, Ring, RingMatrix, SparseRing,
                    _add_term, _checked)

_Z = IntegerRing()


class _MonomialAlgebra(SparseRing):
    """Text form shared by the Leavitt and Weyl algebras, whose keys are
    basis monomials printed as words in the generators.  Subclasses give
    _factors(key), the printed factors of a monomial; _parse_factor(token);
    and degree_terms(a), the set of degrees of the monomials of a."""

    def is_homogeneous(self, a, deg: int) -> bool:
        return self.degree_terms(a) <= {deg}

    def element_to_str(self, a) -> str:
        if not a:
            return "0"
        S = self.base
        parts = []
        for key in sorted(a, key=lambda k: (len(self._factors(k)), k)):
            c = a[key]
            factors = self._factors(key)
            cstr = as_factor(S.element_to_str(c))
            if not factors:
                parts.append(cstr)
            elif S.eq(c, S.one()):
                parts.append(" ".join(factors))
            else:
                parts.append(cstr + " " + " ".join(factors))
        return " + ".join(parts)

    def element_from_str(self, s: str):
        return _parse_sum(s, self._parse_factor, self)


class LeavittRing(_MonomialAlgebra):
    """L(1,n) over a base ring S (default Z)."""

    unit_key = ((), ())

    def __init__(self, n: int, base: Optional[Ring] = None):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.base = base if base is not None else _Z
        self.key = (n, self.base)
        self.name = f"L(1,{n})" if self.base == _Z else f"L(1,{n};{self.base.name})"

    def monomial(self, alpha: Sequence[int], beta: Sequence[int], coeff=None):
        for i in tuple(alpha) + tuple(beta):
            if not 1 <= i <= self.n:
                raise ValueError(f"generator index {i} out of range")
        c = coeff if coeff is not None else self.base.one()
        return self.normalize({(tuple(alpha), tuple(beta)): c})

    def gen(self, i):
        """e_i"""
        return self.monomial((i,), ())

    def gen_star(self, i):
        """e_i*"""
        return self.monomial((), (i,))

    def mul(self, a, b):
        """Product of canonical elements.  The raw product stores no zero
        (_add_term drops them), so it is canonical unless some monomial has
        alpha and beta both ending in e_n; only then does normalize run."""
        S = self.base
        n = self.n
        out = {}
        rewrite = False
        for (a1, b1), c1 in a.items():
            lb = len(b1)
            for (a2, b2), c2 in b.items():
                # (a1 b1*)(a2 b2*): cancel b1 against the front of a2
                if lb <= len(a2):
                    if a2[:lb] != b1:
                        continue
                    alpha, beta = a1 + a2[lb:], b2
                elif b1[:len(a2)] == a2:
                    alpha, beta = a1, b2 + b1[len(a2):]
                else:
                    continue
                _add_term(out, (alpha, beta), S.mul(c1, c2), S)
                if alpha and beta and alpha[-1] == n and beta[-1] == n:
                    rewrite = True
        return self.normalize(out) if rewrite else out

    def normalize(self, terms: dict) -> dict:
        """Rewrite until no monomial has alpha and beta both ending in e_n."""
        S = self.base
        out = {}
        work = list(terms.items())
        while work:
            (alpha, beta), c = work.pop()
            if S.is_zero(c):
                continue
            if alpha and beta and alpha[-1] == self.n and beta[-1] == self.n:
                work.append(((alpha[:-1], beta[:-1]), c))
                for i in range(1, self.n):
                    work.append(((alpha[:-1] + (i,), beta[:-1] + (i,)), S.neg(c)))
            else:
                _add_term(out, (alpha, beta), c, S)
        return out

    def degree_terms(self, a) -> set:
        return {len(alpha) - len(beta) for alpha, beta in a}

    def _factors(self, key) -> list:
        alpha, beta = key
        return [f"e{i}" for i in alpha] + [f"e{i}'" for i in reversed(beta)]

    def _parse_factor(self, tok: str):
        m = re.fullmatch(r"e(\d+)(')?", tok)
        if m:
            i = int(m.group(1))
            return self.gen_star(i) if m.group(2) else self.gen(i)
        return self.scalar(self.base.element_from_str(tok))


def leavitt_rank_certificate(n: int, base: Optional[Ring] = None) -> RankCertificate:
    """The (1, n) certificate A = column of e_i*, B = row of e_i.

    AB = I_n by the relation e_i* e_j = delta_ij, and BA = sum e_i e_i* = 1,
    so (B, A) is an (n, 1) certificate and the witnessed epimorphism
    L -> L^n is an isomorphism.
    """
    L = LeavittRing(n, base)
    A = RingMatrix(L, n, 1, [L.gen_star(i) for i in range(1, n + 1)])
    B = RingMatrix(L, 1, n, [L.gen(i) for i in range(1, n + 1)])
    return _checked(RankCertificate(L, 1, n, A, B),
                    "Leavitt certificate failed verification", need_bgn=True)


@dataclass
class MatrixUnitReport(Report):
    product_law_ok: bool = check("product law (eps_ij eps_km = delta_jk eps_im)")
    sum_identity_ok: bool = check("sum identity (sum eps_ii = 1)")
    degrees_ok: bool = check("all units homogeneous of degree 0")
    chain_ok: bool = check("chain containment span_l in span_{{l+1}}")


MAX_MATRIX_UNITS = 64


def leavitt_matrix_units(n: int, l: int,
                         sigma: Optional[Sequence] = None) -> tuple[list, MatrixUnitReport]:
    """Build the matrix units eps_ij = sigma(i) sigma(j)* from length-l words
    and verify the matrix-unit laws exhaustively.

    sigma defaults to the lexicographic enumeration of words of length l.
    Returns (units as an N x N nested list, report) with N = n^l.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    L = LeavittRing(n)
    N = n ** l
    if N > MAX_MATRIX_UNITS:
        raise ValueError(f"n^l = {N} exceeds bound {MAX_MATRIX_UNITS}")
    all_words = _words(n, l)
    words = all_words if sigma is None else [tuple(w) for w in sigma]
    if len(words) != N or set(words) != set(all_words):
        raise ValueError(f"sigma must be a bijection onto the {N} words of length {l}")
    eps = [[L.monomial(words[i], words[j]) for j in range(N)] for i in range(N)]
    rep = MatrixUnitReport()
    for i in range(N):
        for j in range(N):
            if L.degree_terms(eps[i][j]) - {0}:
                rep.fail("degrees_ok", f"eps[{i+1}][{j+1}] not degree 0")
    mul, eq, zero = L.mul, L.eq, L.zero()
    for i in range(N):
        for j in range(N):
            left = eps[i][j]
            for k in range(N):
                for m in range(N):
                    want = eps[i][m] if j == k else zero
                    if not eq(mul(left, eps[k][m]), want):
                        rep.fail("product_law_ok",
                                 f"eps[{i+1}][{j+1}] eps[{k+1}][{m+1}] wrong")
    acc = L.zero()
    for i in range(N):
        acc = L.add(acc, eps[i][i])
    if not L.eq(acc, L.one()):
        rep.fail("sum_identity_ok", f"sum eps_ii = {L.element_to_str(acc)}, not 1")
    # span_l sits inside span_{l+1}: alpha beta* = sum_i (alpha e_i)(beta e_i)*
    for alpha in words:
        for beta in words:
            rhs = L.zero()
            for i in range(1, n + 1):
                rhs = L.add(rhs, L.monomial(alpha + (i,), beta + (i,)))
            if not L.eq(L.monomial(alpha, beta), rhs):
                rep.fail("chain_ok", f"chain: alpha={alpha} beta={beta}: alpha "
                                     "beta* != sum_i (alpha e_i)(beta e_i)*")
    return eps, rep


def _words(n: int, l: int) -> list[tuple]:
    out = [()]
    for _ in range(l):
        out = [w + (i,) for w in out for i in range(1, n + 1)]
    return out


# ---------------------------------------------------------------------------
# Generalized Weyl algebras


class WeylRing(_MonomialAlgebra):
    """Z-algebra on x_1..x_n, y with y x_i = a_i x_i y + b_i.

    Z-graded by deg(x_i) = 1, deg(y) = -1; basis monomials are x-words
    followed by a power of y.  Each a_i is a unit of Z, so 1 or -1, and is
    its own inverse (needed when solving for coordinates in the y^m
    components).

    mul reads the normal form of each y^l x_w from a private table keyed by
    (l, w), filled on first use from the entry for (l-1, w) by one _y_times
    step.  The table is a function of (a, b) alone, and no caller mutates
    its dicts, so one ring value can serve every caller.
    """

    unit_key = ((), 0)
    base = _Z

    def __init__(self, a: Sequence[int], b: Sequence[int]):
        self.a, self.b = list(a), list(b)
        if len(self.a) != len(self.b):
            raise ValueError("need as many a_i as b_i")
        self.n = len(self.a)
        if self.n < 1:
            raise ValueError("need at least one x generator")
        if any(v not in (1, -1) for v in self.a):
            raise ValueError("a_i must be 1 or -1")
        self.key = (tuple(self.a), tuple(self.b))
        self.name = f"Weyl(n={self.n};{_Z.name})"
        self._y_word_table = {}

    def x(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range")
        return {((i,), 0): self.base.one()}

    def y(self):
        return {((), 1): self.base.one()}

    def mul(self, a, b):
        S = self.base
        out = {}
        for (w1, l1), c1 in a.items():
            for (w2, l2), c2 in b.items():
                mid = self._y_pow_times_word(l1, w2)
                c = S.mul(c1, c2)
                for (w, l), cm in mid.items():
                    _add_term(out, (w1 + w, l + l2), S.mul(c, cm), S)
        return out

    def _y_pow_times_word(self, l: int, w: tuple) -> dict:
        """Normal form of y^l * x_w as a sum of basis monomials: the table's
        dict, which the caller must not mutate.  Missing entries are built
        upwards from the highest power of y already in the table."""
        table = self._y_word_table
        if (l, w) not in table:
            if (0, w) not in table:
                table[(0, w)] = {(w, 0): self.base.one()}
            k = l
            while (k, w) not in table:
                k -= 1
            for j in range(k + 1, l + 1):
                table[(j, w)] = self._y_times(table[(j - 1, w)])
        return table[(l, w)]

    def _y_times(self, elem: dict) -> dict:
        S = self.base
        out = {}
        for (w, l), c in elem.items():
            for key, cm in self._y_times_word(w).items():
                wk, lk = key
                _add_term(out, (wk, lk + l), S.mul(cm, c), S)
        return out

    def _y_times_word(self, w: tuple) -> dict:
        """y x_w = sum_j a_{w1}...a_{w(j-1)} b_{wj} x_{w without wj}
        + a_{w1}...a_{wk} x_w y, by a loop over the letters of w."""
        S = self.base
        signs = [S.one()]  # signs[j] = a_{w1}...a_{wj}
        for i in w:
            signs.append(S.mul(signs[-1], self.a[i - 1]))
        out = {(w, 1): signs[-1]}
        for j in range(len(w) - 1, -1, -1):
            _add_term(out, (w[:j] + w[j + 1:], 0),
                      S.mul(signs[j], self.b[w[j] - 1]), S)
        return out

    def degree_terms(self, a) -> set:
        return {len(w) - l for w, l in a}

    def _factors(self, key) -> list:
        w, l = key
        return [f"x{i}" for i in w] + ["y"] * l

    def _parse_factor(self, tok: str):
        if tok == "y":
            return self.y()
        m = re.fullmatch(r"x(\d+)", tok)
        if m:
            return self.x(int(m.group(1)))
        if tok == "x" and self.n == 1:
            return self.x(1)
        return self.scalar(self.base.element_from_str(tok))


def weyl_phi0(ring: WeylRing, r) -> object:
    """Coefficient of the basis element 1 in a degree-0 element."""
    if not ring.is_homogeneous(r, 0):
        raise ValueError("element is not homogeneous of degree 0")
    return r.get(((), 0), ring.base.zero())


def weyl_phi0_multiplicative(ring: WeylRing, pairs) -> bool:
    """phi0(r s) = phi0(r) phi0(s) on the supplied degree-0 sample pairs."""
    S = ring.base
    for r, s in pairs:
        lhs = weyl_phi0(ring, ring.mul(r, s))
        rhs = S.mul(weyl_phi0(ring, r), weyl_phi0(ring, s))
        if not S.eq(lhs, rhs):
            return False
    return True


def weyl_component_basis(ring: WeylRing, m: int) -> list:
    """The monomial keys of a free R_0-module basis of the degree-m
    component: the n^m x-words for m > 0, the single y^|m| for m < 0, and
    1 for m = 0 (rank 1)."""
    if m > 0:
        return [(w, 0) for w in _words(ring.n, m)]
    return [((), -m)]


def weyl_coordinates(ring: WeylRing, elem: dict, m: int) -> list:
    """Right coordinates of a homogeneous degree-m element over the degree-0
    subring, in the order of weyl_component_basis.

    For m > 0 each basis x-word is split off the front of every monomial
    (exact, no division); for m < 0 the single basis element y^|m| is divided
    out by a triangular elimination that uses the a_i as their own inverses;
    for m = 0 the element is its own coordinate.
    """
    if not ring.is_homogeneous(elem, m):
        raise ValueError(f"element is not homogeneous of degree {m}")
    S = ring.base
    if m == 0:
        return [dict(elem)]
    if m > 0:
        coords = {w: {} for w in _words(ring.n, m)}
        for (w, l), c in elem.items():
            _add_term(coords[w[:m]], (w[m:], l), c, S)
        out = [coords[w] for w in _words(ring.n, m)]
        recon = ring.zero()
        for w, q in zip(_words(ring.n, m), out):
            recon = ring.add(recon, ring.mul({(w, 0): S.one()}, q))
        if not ring.eq(recon, elem):
            raise VerificationError("coordinate reconstruction failed")
        return out
    q = -m
    ypow = {((), q): S.one()}
    coord = ring.zero()
    work = dict(elem)
    while work:
        w = max(work, key=lambda k: (len(k[0]), k[0]))[0]
        c = work[(w, len(w) + q)]
        lead_inv = S.one()
        for i in w:
            for _ in range(q):
                lead_inv = S.mul(lead_inv, ring.a[i - 1])
        piece = {(w, len(w)): S.mul(lead_inv, c)}
        coord = ring.add(coord, piece)
        work = ring.add(work, ring.neg(ring.mul(ypow, piece)))
    if not ring.eq(ring.mul(ypow, coord), elem):
        raise VerificationError("division reconstruction failed")
    return [coord]


# ---------------------------------------------------------------------------
# shared sum-of-products parser


def _parse_sum(s: str, parse_factor, ring: Ring):
    """A signed sum of products.  "+" and "-" split terms, and whitespace
    and "*" split factors, only outside brackets.  A factor in parentheses
    is a coefficient, read by the base ring without them, and the factor 0
    is zero, whatever the base ring's text for its zero."""
    s = s.strip()
    if not s:
        raise ValueError("empty expression")
    terms, sign, factors, cur, depth = [], 1, [], [], 0
    for ch in s + " ":
        depth += (ch in "([") - (ch in ")]")
        if depth or not (ch.isspace() or ch in "*+-"):
            cur.append(ch)
            continue
        if cur:
            factors.append("".join(cur))
            cur = []
        if ch in "+-":
            if factors:
                terms.append((sign, factors))
                factors, sign = [], 1
            if ch == "-":
                sign = -sign
    if factors:
        terms.append((sign, factors))
    if not terms:
        raise ValueError(f"cannot parse expression: {s!r}")

    def factor(f: str):
        if f == "0":
            return ring.zero()
        if f.startswith("("):
            return ring.scalar(ring.base.element_from_str(strip_parens(f)))
        return parse_factor(f)

    total = ring.zero()
    for sgn, term in terms:
        val = ring.one()
        for f in term:
            val = ring.mul(val, factor(f))
        if sgn < 0:
            val = ring.neg(val)
        total = ring.add(total, val)
    return total

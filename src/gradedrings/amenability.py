"""Folner-condition search, truncated paradoxical decompositions via
bipartite matching, and the Baumslag-Solitar witnesses for one-sided
amenability.

All counting comparisons are exact (Fraction); a negative search outcome is
a value carrying the evidence, never an exception.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .groups import BaumslagSolitar, Group, set_product
from .report import Report, VerificationError, check


class SubsetPredicate:
    """A decidable subset X of a group.

    name is the display form; key identifies the set and defaults to name.
    Subsets whose name does not determine them, such as finite ones named
    by their size, pass a key that does.
    """

    def __init__(self, group: Group, contains: Callable, name: str, key=None):
        self.group = group
        self._contains = contains
        self.name = name
        self.key = name if key is None else key

    def __contains__(self, x):
        return self._contains(x)

    def __eq__(self, other):
        return (isinstance(other, SubsetPredicate) and other.group == self.group
                and other.key == self.key)

    def __hash__(self):
        return hash((self.group, self.key))

    def __repr__(self):
        return f"SubsetPredicate({self.group.name}, {self.name})"


def whole_group(group: Group) -> SubsetPredicate:
    return SubsetPredicate(group, lambda x: True, "all")


def finite_subset(group: Group, elements: Iterable) -> SubsetPredicate:
    elems = set(elements)
    return SubsetPredicate(group, lambda x: x in elems, f"finite({len(elems)})",
                           key=frozenset(elems))


def _require_bs(group: Group, name: str) -> None:
    if not isinstance(group, BaumslagSolitar):
        raise ValueError(f"the subset {name} is defined on BS(1,k) only, "
                         f"not on {group.name}")


def bs_X(group: BaumslagSolitar) -> SubsetPredicate:
    """X = AB in BS(1,k): elements (t, m) with t an integer."""
    _require_bs(group, "X=AB")
    return SubsetPredicate(group, lambda x: x[0].denominator == 1, "X=AB")


def bs_X0(group: BaumslagSolitar) -> SubsetPredicate:
    """X0 = <a^k>B: elements (t, m) with t in kZ."""
    _require_bs(group, "X0")
    k = group.k
    return SubsetPredicate(
        group, lambda x: x[0].denominator == 1 and x[0].numerator % k == 0, "X0")


@dataclass
class FolnerWitness:
    K: list
    eps: Fraction
    F: list
    kf_count: int  # |KF intersect X|
    f_count: int   # |F intersect X|

    def holds(self) -> bool:
        return self.f_count > 0 and self.kf_count < (1 + self.eps) * self.f_count


@dataclass
class FolnerFailure:
    eps: Fraction
    r_max: int
    ratios: list  # (radius, kf_count, f_count, Fraction ratio)

    @property
    def best_ratio(self) -> Optional[Fraction]:
        vals = [r for (_, _, _, r) in self.ratios if r is not None]
        return min(vals) if vals else None


def folner_search(group: Group, X: SubsetPredicate, K: Sequence,
                  eps: Fraction, r_max: int):
    """Look for a finite F with |KF cap X| < (1 + eps) |F cap X|.

    F runs over the balls of radius 0..r_max, sliced one at a time from the
    group's one breadth-first walk (Group.ball), so that an early witness
    stops the search and each radius is walked once per group object.
    When K is itself a ball B_R, KF = B_{r+R} is read off the walk at
    radius r + R and nothing is multiplied (_shifted_counts); any other K
    is multiplied by one sphere at a time (_ball_counts).  Returns the
    first FolnerWitness found, re-verified by an independent recount that
    multiplies K by F, else a FolnerFailure with the exact ratio for every
    radius.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    K = list(K)
    if not K:
        raise ValueError("K must be nonempty")
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    R = _ball_radius(group, K)
    balls = (group.ball(q, max_radius=q) for q in itertools.count())
    if R is None:
        counts = _ball_counts(group, X, K, itertools.islice(balls, r_max + 1))
    else:
        counts = _shifted_counts(X, R, itertools.islice(balls, r_max + R + 1))
    ratios = []
    for idx, (F, kf_count, f_count) in enumerate(counts):
        ratio = Fraction(kf_count, f_count) if f_count else None
        ratios.append((idx, kf_count, f_count, ratio))
        if f_count and kf_count < (1 + eps) * f_count:
            counts.close()  # drop the running KF or walk before _recount
            w = FolnerWitness(K=K, eps=eps, F=F, kf_count=kf_count, f_count=f_count)
            if _recount(group, X, w) != (kf_count, f_count):
                raise VerificationError("Folner witness failed its recount")
            return w
    return FolnerFailure(eps=eps, r_max=r_max, ratios=ratios)


def _ball_radius(group: Group, K: Sequence):
    """R if set(K) is the ball B_R over the symmetric generators, else None.

    Reads B_0, B_1, ... until |B_R| >= |set(K)|, so at most |set(K)|
    radii: each ball holds at least one element more than the last until
    the balls stop growing, and then K holds more than any ball.  A fresh
    walk costs at most |gens| |K| products."""
    K = set(K)
    if group.identity() not in K:
        return None
    for R in range(len(K)):
        B = group.ball(R, max_radius=R)
        if len(B) >= len(K):
            return R if set(B) == K else None
    return None


def _shifted_counts(X: SubsetPredicate, R: int, balls: Iterable):
    """Yield (B_r, |B_R B_r cap X|, |B_r cap X|) for r = 0, 1, ... from
    the balls B_0, B_1, ..., each a prefix of the next.

    B_R B_r = B_{r+R}, since B_R holds the identity and a word of length
    at most r + R is a word of length at most R times one of length at
    most r.  So the first count is the second one at radius r + R: each
    sphere is counted in X once, and nothing is multiplied."""
    sizes, f = [0], [0]  # sizes[q + 1] = |B_q|, f[q + 1] = |B_q cap X|
    for q, B in enumerate(balls):
        f.append(f[-1] + sum(1 for x in B[sizes[-1]:] if x in X))
        sizes.append(len(B))
        if q >= R:
            r = q - R
            yield B[:sizes[r + 1]], f[q + 1], f[r + 1]


def _ball_counts(group: Group, X: SubsetPredicate, K: Sequence, balls: Iterable):
    """Yield (B, |KB cap X|, |B cap X|) for nested balls B, each a prefix of
    the next (Group.ball).  Since K(A u S) = KA u KS, each step multiplies
    K only by the new sphere S and counts in X only the products not seen
    before.  This is the path for a K that is not a ball; a ball K takes
    _shifted_counts, which multiplies nothing."""
    kf = set()
    kf_count = f_count = prev = 0
    for B in balls:
        sphere = B[prev:]
        prev = len(B)
        new = set_product(group, K, sphere) - kf
        kf |= new
        kf_count += sum(1 for g in new if g in X)
        f_count += sum(1 for f in sphere if f in X)
        yield B, kf_count, f_count


def _recount(group: Group, X: SubsetPredicate, w: FolnerWitness):
    """Count KF cap X and F cap X from scratch, multiplying K by F whatever
    path found the witness, so a ball witness cross-checks B_R B_r = B_{r+R}."""
    kf = set_product(group, w.K, w.F)
    return (len([g for g in kf if g in X]), len([f for f in w.F if f in X]))


# ---------------------------------------------------------------------------
# truncated two-to-one injections (paradoxical decompositions at desk scale)


@dataclass
class InjectionWitness:
    V: list
    W: list
    K: list
    alpha: dict
    beta: dict


@dataclass
class Infeasible:
    violating_set: list  # A subseteq V with |N(A)| < 2|A|
    neighborhood: list


def find_two_to_one_injection(group: Group, V: Sequence, W: Sequence,
                              K: Sequence):
    """Two injections alpha, beta: V -> W with disjoint images and
    translators in K (edges: (x, w) allowed iff w x^-1 in K, i.e. w = k x).

    Solved as a bipartite matching with two copies of every left vertex by
    Hopcroft-Karp; ties are broken by the given orderings, so the witness is
    deterministic.  Returns an InjectionWitness, or Infeasible with a
    Hall-violating set, which is the same for every maximum matching.
    """
    V = list(V)
    W = list(W)
    Kset = set(K)
    w_index = {w: i for i, w in enumerate(W)}
    adj = []  # per left vertex: sorted W indices of its neighbours k x
    for x in V:
        kx = (group.mul(k, x) for k in Kset)
        adj.append(sorted(w_index[w] for w in kx if w in w_index))
    match_left, match_right = _max_matching(adj, len(W))

    unmatched = [u for u, wi in enumerate(match_left) if wi == -1]
    if not unmatched:
        alpha, beta = {}, {}
        for i, x in enumerate(V):
            targets = sorted([match_left[2 * i], match_left[2 * i + 1]])
            alpha[x] = W[targets[0]]
            beta[x] = W[targets[1]]
        witness = InjectionWitness(V=V, W=W, K=sorted(Kset, key=group.element_key),
                                   alpha=alpha, beta=beta)
        ok, msg = verify_injection_witness(group, witness)
        if not ok:
            raise VerificationError(f"matching produced an invalid witness: {msg}")
        return witness

    # Hall violator: left vertices reachable by alternating paths from an
    # unmatched vertex; their joint neighborhood is too small.
    reach = set(unmatched)
    frontier = list(unmatched)
    reach_w = set()
    while frontier:
        u = frontier.pop()
        for wi in adj[u // 2]:
            if wi not in reach_w:
                reach_w.add(wi)
                v = match_right[wi]
                if v != -1 and v not in reach:
                    reach.add(v)
                    frontier.append(v)
    A_idx = sorted({u // 2 for u in reach})
    A = [V[i] for i in A_idx]
    nbhd = sorted({wi for i in A_idx for wi in adj[i]})
    result = Infeasible(violating_set=A, neighborhood=[W[i] for i in nbhd])
    if not len(result.neighborhood) < 2 * len(A):
        raise VerificationError("Hall certificate inconsistent")
    return result


def _max_matching(adj: list, n_right: int):
    """Maximum matching of left copies 2i, 2i+1 (both with neighbours
    adj[i]) into range(n_right), by Hopcroft-Karp without recursion.

    Each phase layers the left copies by a breadth-first search from the free
    ones, in index order, up to the first layer that sees a free right
    vertex; then a depth-first search with an explicit stack, in adj order,
    augments along vertex-disjoint shortest paths.  Returns (match_left,
    match_right), with -1 for unmatched.
    """
    n_left = 2 * len(adj)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    while True:
        free = [u for u in range(n_left) if match_left[u] == -1]
        dist = [-1] * n_left
        for u in free:
            dist[u] = 0
        queue, limit = list(free), -1
        for u in queue:  # the queue grows while it is read
            if dist[u] == limit:
                break
            for wi in adj[u // 2]:
                v = match_right[wi]
                if v == -1:
                    limit = dist[u]
                elif dist[v] == -1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if limit == -1:
            return match_left, match_right
        nxt = [0] * n_left  # next position to try in each copy's adj
        for root in free:
            stack, via = [root], []
            while stack:
                u = stack[-1]
                nbrs = adj[u // 2]
                if nxt[u] == len(nbrs):
                    stack.pop()
                    if via:
                        via.pop()
                    continue
                wi = nbrs[nxt[u]]
                nxt[u] += 1
                v = match_right[wi]
                if v == -1 and dist[u] == limit:
                    via.append(wi)
                    for x, y in zip(stack, via):
                        match_left[x] = y
                        match_right[y] = x
                        dist[x] = -1  # off limits for the rest of the phase
                    break
                if v != -1 and dist[u] < limit and dist[v] == dist[u] + 1:
                    via.append(wi)
                    stack.append(v)


def verify_injection_witness(group: Group, w: InjectionWitness):
    """Exhaustive soundness check: injectivity, disjoint images, translators."""
    Kset = set(w.K)
    if set(w.alpha) != set(w.V) or set(w.beta) != set(w.V):
        return False, "maps not defined on all of V"
    avals = list(w.alpha.values())
    bvals = list(w.beta.values())
    if len(set(avals)) != len(avals):
        return False, "alpha not injective"
    if len(set(bvals)) != len(bvals):
        return False, "beta not injective"
    if set(avals) & set(bvals):
        return False, "images not disjoint"
    wset = set(w.W)
    for x in w.V:
        x_inv = group.inv(x)
        for val, nm in ((w.alpha[x], "alpha"), (w.beta[x], "beta")):
            if val not in wset:
                return False, f"{nm}({x}) outside W"
            if group.mul(val, x_inv) not in Kset:
                return False, f"translator of {nm}({x}) outside K"
    return True, "ok"


def verify_hall_violation(group: Group, V, W, K, A) -> bool:
    """Recount from scratch that A is a subset of V whose neighbourhood
    N(A) = KA cap W has fewer than 2|A| elements."""
    A = set(A)
    if not A <= set(V):
        return False
    return len(set_product(group, K, A) & set(W)) < 2 * len(A)


# ---------------------------------------------------------------------------
# Baumslag-Solitar example witnesses


@dataclass
class BSCheckReport(Report):
    counts: dict  # sizes of the ball and of its parts in X and X0
    subset_ok: bool = check("X0 and aX0 inside X (|X0 cap ball| = {self.counts[x0]})")
    disjoint_ok: bool = check("X0 disjoint from aX0")
    b_shift_ok: bool = check("b maps X into X0 (and b-preimages of X0 lie in X)")


def bs_example_check(k: int, r: int) -> BSCheckReport:
    """Ball-truncated verification that X0, aX0 are disjoint subsets of X and
    that b carries X into X0 in BS(1,k)."""
    G = BaumslagSolitar(k)
    X = bs_X(G)
    X0 = bs_X0(G)
    ball = G.ball(r, max_radius=r)
    a = (Fraction(1), 0)
    b = (Fraction(0), 1)
    binv = G.inv(b)
    x0_ball = [x for x in ball if x in X0]
    x_ball = [x for x in ball if x in X]
    rep = BSCheckReport({"ball": len(ball), "x": len(x_ball), "x0": len(x0_ball)})
    text = G.element_to_str
    x0_set, ball_set = set(x0_ball), set(ball)
    for x in x0_ball:
        ax, pre = G.mul(a, x), G.mul(binv, x)
        if x not in X:
            rep.fail("subset_ok", f"{text(x)} lies in X0 but not in X")
        if ax not in X:
            rep.fail("subset_ok", f"a {text(x)} = {text(ax)} lies outside X")
        if ax in x0_set:
            rep.fail("disjoint_ok", f"a {text(x)} = {text(ax)} lies in X0")
        if pre in ball_set and pre not in X:
            rep.fail("b_shift_ok", f"b^-1 {text(x)} = {text(pre)} lies outside X")
    for x in x_ball:
        if (bx := G.mul(b, x)) not in X0:
            rep.fail("b_shift_ok", f"b {text(x)} = {text(bx)} lies outside X0")
    return rep


@dataclass
class RosenblattResult:
    g: tuple
    u_count: int
    v_count: int


def rosenblatt_find(k: int, u_tuple: Sequence, v_tuple: Sequence) -> RosenblattResult:
    """Find g in BS(1,k) with |gX cap u| < |gX cap v| for |u| < |v|.

    The translates {t X} of X = AB partition the group by the fractional
    part of the normal-form t-coordinate, so a pigeonhole over cosets always
    produces a strict inequality.
    """
    if len(u_tuple) >= len(v_tuple):
        raise ValueError("need |u| < |v|")
    G = BaumslagSolitar(k)
    for x in list(u_tuple) + list(v_tuple):
        G.check_element(x)

    def frac(x):
        t = x[0]
        return t - (t.numerator // t.denominator)

    cu = Counter(frac(x) for x in u_tuple)
    cv = Counter(frac(x) for x in v_tuple)
    for f in sorted(set(cu) | set(cv)):
        if cu.get(f, 0) < cv.get(f, 0):
            g = (f, 0)
            res = RosenblattResult(g=g, u_count=cu.get(f, 0), v_count=cv.get(f, 0))
            uc, vc = _rosenblatt_recount(G, g, u_tuple, v_tuple)
            if (uc, vc) != (res.u_count, res.v_count) or not uc < vc:
                raise VerificationError("separating translate failed its recount")
            return res
    raise VerificationError("pigeonhole failed; tuples malformed")


def _rosenblatt_recount(G: BaumslagSolitar, g, u_tuple, v_tuple):
    """Count memberships in gX directly: x in gX iff g^-1 x has integral t."""
    X = bs_X(G)
    ginv = G.inv(g)
    uc = sum(1 for x in u_tuple if G.mul(ginv, x) in X)
    vc = sum(1 for x in v_tuple if G.mul(ginv, x) in X)
    return uc, vc

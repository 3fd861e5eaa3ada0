"""The abelian monoids C(n,k) = <a : (n+k)a = na> and M(n,k,l), with the
order decision procedures used to pin down generating numbers.

C(n,k) has canonical forms (coefficients reduced into [0, n+k)); M(n,k,l)
elements are kept as written coefficient vectors, and order questions are
settled by a bounded congruence-closure search on the Yes side and by the
separating homomorphisms phi: M -> C(n,k) and psi_j: M -> Z on the No side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .report import VerificationError

DEFAULT_CLOSURE_DEPTH = 10


# ---------------------------------------------------------------------------
# C(n,k)


def cnk_normalize(n: int, k: int, lam: int) -> int:
    """Canonical coefficient: lam itself below n+k, else folded mod k above n."""
    if min(n, k) < 1:
        raise ValueError("n, k must be positive")
    if lam < 0:
        raise ValueError("coefficient must be non-negative")
    if lam < n + k:
        return lam
    return n + ((lam - n) % k)


def cnk_leq(n: int, k: int, lam: int, mu: int) -> bool:
    """Decide lam*a <= mu*a in C(n,k): exists z with lam + z congruent to mu."""
    return cnk_leq_canonical(n, cnk_normalize(n, k, lam), cnk_normalize(n, k, mu))


def cnk_leq_canonical(n: int, lam: int, mu: int) -> bool:
    """cnk_leq on canonical coefficients (what cnk_normalize returns).

    Closed form: mu >= lam, or mu >= n (then the periodic tail above n can
    always be reached).
    """
    return mu >= lam or mu >= n


def cnk_reach_oracle(n: int, k: int, bound: int):
    """Brute-force order oracle for a whole coefficient range at once.

    Returns (canon, reach): canon[v] is the BFS-minimal representative of v
    (the smallest value the rewrites reach from v, found by walking each
    class once), and reach[lam] the set of representatives of
    {lam + z : z >= 0}; the range z <= n + 2k covers one full period beyond
    the transient part.
    """
    hi = bound + n + 2 * k + 1
    top = hi + k
    # One walk per congruence class on 0..top, along the edges u <-> u + k
    # with u >= n (the rewrite (n+k)a <-> na); values are visited in
    # increasing order, so the value a walk starts from is its class minimum.
    canon = [None] * (top + 1)
    for v in range(hi + 1):
        if canon[v] is None:
            canon[v], todo = v, [v]
            while todo:
                u = todo.pop()
                for w in (u + k, u - k):
                    if min(u, w) >= n and w <= top and canon[w] is None:
                        canon[w] = v
                        todo.append(w)
    del canon[hi + 1:]
    reach = [{canon[lam + z] for z in range(n + 2 * k + 1)}
             for lam in range(bound + 1)]
    return canon, reach


def cnk_generating_number(n: int, k: int) -> int:
    """Least p >= 1 with (p+1)a <= pa; equals n for every C(n,k)."""
    p = 1
    while not cnk_leq(n, k, p + 1, p):
        p += 1
    return p


# ---------------------------------------------------------------------------
# M(n,k,l)


@dataclass(frozen=True)
class MnklParams:
    n: int
    k: int
    l: int

    def __post_init__(self):
        if min(self.n, self.k, self.l) < 1:
            raise ValueError("n, k, l must be positive")


def mnkl_vector(params: MnklParams, u: int = 0, x: Optional[dict] = None,
                y: Optional[dict] = None) -> tuple:
    """Coefficient vector (beta; alpha_1..alpha_l; gamma_1..gamma_l)."""
    xs = [0] * params.l
    ys = [0] * params.l
    for i, c in (x or {}).items():
        xs[i - 1] = c
    for i, c in (y or {}).items():
        ys[i - 1] = c
    vec = (u, *xs, *ys)
    if any(c < 0 for c in vec):
        raise ValueError("coefficients must be non-negative")
    return vec


def _relations(params: MnklParams) -> list[tuple[tuple, tuple]]:
    n, k, l = params.n, params.k, params.l
    rels = []
    # (n+k)(u + x_1 + ... + x_l) = n(u + x_1 + ... + x_l)
    lhs = (n + k,) + (n + k,) * l + (0,) * l
    rhs = (n,) + (n,) * l + (0,) * l
    rels.append((lhs, rhs))
    # x_i + y_i = u
    for i in range(l):
        xi = [0] * (1 + 2 * l)
        xi[1 + i] = 1
        xi[1 + l + i] = 1
        ui = [0] * (1 + 2 * l)
        ui[0] = 1
        rels.append((tuple(xi), tuple(ui)))
    return rels


def mnkl_closure(params: MnklParams, vec: tuple, depth: int) -> dict:
    """All vectors reachable from vec by at most `depth` relation applications.

    Returns {vector: (parent, relation description)} for witness chains.
    """
    rels = _relations(params)
    seen = {vec: None}
    frontier = [vec]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for ridx, (lhs, rhs) in enumerate(rels):
                for a, b in ((lhs, rhs), (rhs, lhs)):
                    if all(vc >= ac for vc, ac in zip(v, a)):
                        w = tuple(vc - ac + bc for vc, ac, bc in zip(v, a, b))
                        if w not in seen:
                            seen[w] = (v, f"relation {ridx}")
                            nxt.append(w)
        frontier = nxt
        if not frontier:
            break
    return seen


def mnkl_phi(params: MnklParams, vec: tuple) -> int:
    """Image in C(n,k): u, y_i -> a and x_i -> 0, additively (canonical form)."""
    total = vec[0] + sum(vec[1 + params.l:])
    return cnk_normalize(params.n, params.k, total)


def mnkl_psi(params: MnklParams, vec: tuple, j: int) -> int:
    """Image in Z: psi_j(u) = -1, psi_j(x_i) = delta_ij, psi_j(y_i) = -1 - delta_ij."""
    if not 1 <= j <= params.l:
        raise ValueError(f"j = {j} out of range 1..{params.l}")
    beta = vec[0]
    xs = vec[1:1 + params.l]
    ys = vec[1 + params.l:]
    out = -beta + xs[j - 1]
    for i, c in enumerate(ys, start=1):
        out += c * (-2 if i == j else -1)
    return out


@dataclass
class Yes:
    z: tuple
    chain: list = field(default_factory=list)

    verdict = "yes"


@dataclass
class No:
    separator: str
    reason: str

    verdict = "no"


@dataclass
class Unknown:
    reason: str

    verdict = "unknown"


def mnkl_leq(params: MnklParams, s: tuple, t: tuple,
             depth: int = DEFAULT_CLOSURE_DEPTH):
    """Decide s <= t in M(n,k,l), i.e. whether some z >= 0 has s + z = t.

    Yes comes with an explicit z and the rewrite chain from t to s + z,
    replayed step by step before it is returned (_replay_chain).
    No comes with a separator certificate: either phi (the C(n,k) image
    already refutes order) or a psi_j (phi forces any candidate z to involve
    only x generators, pure-x vectors admit no rewrites, and the x_j count
    then contradicts s + z = t).  Unknown when the bounded search is
    inconclusive.  The separators run first: one that applies refutes
    s <= t, so the closure could not have found a witness.
    """
    if len(s) != 1 + 2 * params.l or len(t) != 1 + 2 * params.l:
        raise ValueError("vector length does not match parameters")
    # separator phi: order must be preserved in C(n,k)
    fs, ft = mnkl_phi(params, s), mnkl_phi(params, t)
    if not cnk_leq(params.n, params.k, fs, ft):
        return No(separator="phi",
                  reason=f"phi(s) = {fs}a !<= phi(t) = {ft}a in C({params.n},{params.k})")
    # pure-x refutation: if phi(s) = phi(t) = 0, any z in s + z = t maps to 0
    # under phi, so z has no u or y part; pure-x vectors are rigid, forcing
    # s + z = t componentwise.
    if fs == 0 and ft == 0:
        xs = s[1:1 + params.l]
        xt = t[1:1 + params.l]
        for j in range(1, params.l + 1):
            if xs[j - 1] > xt[j - 1]:
                return No(separator=f"psi_{j}",
                          reason=(f"phi kills the u and y parts of any z, and "
                                  f"psi_{j} gives {xs[j-1]} + z_j = {xt[j-1]}, "
                                  "impossible for z_j >= 0"))
    closure = mnkl_closure(params, t, depth)
    for v in sorted(closure):
        if all(vc >= sc for vc, sc in zip(v, s)):
            z = tuple(vc - sc for vc, sc in zip(v, s))
            chain = _chain_to(closure, v)
            _replay_chain(params, s, t, z, chain)
            return Yes(z=z, chain=chain)
    return Unknown(reason=f"no witness within closure depth {depth}")


def _chain_to(closure: dict, v: tuple) -> list:
    chain = []
    cur = v
    while closure[cur] is not None:
        parent, rel = closure[cur]
        chain.append((parent, rel, cur))
        cur = parent
    chain.reverse()
    return chain


def _replay_chain(params: MnklParams, s: tuple, t: tuple, z: tuple, chain: list):
    """Raise VerificationError unless chain runs from t to s + z with z >= 0,
    each step firing the relation it names once, in either direction, on a
    vector that holds the side it removes (so no coordinate goes negative)."""
    rels = _relations(params)
    cur = t
    for parent, rel, child in chain:
        if parent != cur or not any(
                rel == f"relation {ridx}" and all(p >= a for p, a in zip(parent, old))
                and child == tuple(p - a + b for p, a, b in zip(parent, old, new))
                for ridx, (lhs, rhs) in enumerate(rels)
                for old, new in ((lhs, rhs), (rhs, lhs))):
            raise VerificationError(f"chain step {parent} --{rel}--> {child} "
                                    f"does not follow from {cur} by one relation")
        cur = child
    if min(z) < 0 or cur != tuple(a + b for a, b in zip(s, z)):
        raise VerificationError(f"chain ends at {cur}, not at s + z = {s} + {z}")


def mnkl_homomorphisms_well_defined(params: MnklParams) -> bool:
    """phi and every psi_j respect both relation families."""
    n, k, l = params.n, params.k, params.l
    for lhs, rhs in _relations(params):
        if mnkl_phi(params, lhs) != mnkl_phi(params, rhs):
            return False
        for j in range(1, l + 1):
            if mnkl_psi(params, lhs, j) != mnkl_psi(params, rhs, j):
                return False
    return True

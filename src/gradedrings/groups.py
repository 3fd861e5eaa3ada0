"""Normal-form arithmetic and ball enumeration for built-in groups.

Supported groups: free groups, free abelian groups, Baumslag-Solitar groups
BS(1,k), finite cyclic groups, and direct products of these.  Elements are
plain hashable Python values (tuples, ints, Fractions); each group object
knows how to multiply, invert, print and parse them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, neg
from typing import Iterable, Sequence

DEFAULT_MAX_RADIUS = 8

_GEN_NAMES = "abcdefghijklmnopqrstuvwxyz"


class Group:
    """Base class: a finitely generated group with a fixed generating set.

    Subclasses set key, the tuple of parameters that identifies the group:
    two groups are equal exactly when they have the same class and key.
    """

    name: str
    key: tuple

    def __eq__(self, other):
        return other is self or (type(other) is type(self) and other.key == self.key)

    def __hash__(self):
        return hash((type(self).__name__, self.key))

    def identity(self):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def generators(self) -> list:
        """Canonical (non-symmetrized) generating list."""
        raise NotImplementedError

    def check_element(self, x) -> None:
        """Raise ValueError if x is not a canonical element of this group."""
        raise NotImplementedError

    def element_key(self, x):
        """A deterministic sort key for elements (used for stable output)."""
        raise NotImplementedError

    def element_to_str(self, x) -> str:
        raise NotImplementedError

    def element_from_str(self, s: str):
        raise NotImplementedError

    def symmetric_generators(self) -> list:
        """Generators interleaved with their inverses: g1, g1^-1, g2, ..."""
        out = []
        for g in self.generators():
            out.append(g)
            gi = self.inv(g)
            if gi != g:
                out.append(gi)
        return out

    def elements(self) -> list:
        """All elements of a finite group; infinite groups refuse."""
        raise ValueError(f"{self.name} is infinite: its elements cannot be listed")

    def balls(self, r: int, max_radius: int = DEFAULT_MAX_RADIUS):
        """Yield ball(0), ball(1), ..., ball(r) from one breadth-first walk.

        Each ball lists all elements of word length <= its radius over the
        symmetric generating set, ordered by (word length, lexicographic
        order of the shortest generating word), which makes the enumeration
        deterministic.  Each ball is a prefix of the next.
        """
        if r < 0:
            raise ValueError("radius must be non-negative")
        if r > max_radius:
            raise ValueError(f"radius {r} exceeds maximum {max_radius}")
        gens = self.symmetric_generators()
        mul = self.mul
        e = self.identity()
        seen = {e}
        order = [e]
        frontier = [e]
        yield list(order)
        for _ in range(r):
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            order.extend(nxt)
            frontier = nxt
            yield list(order)

    def ball(self, r: int, max_radius: int = DEFAULT_MAX_RADIUS) -> list:
        """The last of balls(r, max_radius)."""
        for b in self.balls(r, max_radius):
            pass
        return b

    def __repr__(self):
        return self.name


class FreeGroup(Group):
    """Free group of rank k; elements are reduced words.

    A word is a tuple of nonzero ints: +i for the i-th generator (1-based),
    -i for its inverse.  Adjacent inverse pairs are always cancelled.
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if rank > len(_GEN_NAMES):
            raise ValueError(f"rank {rank} exceeds 26: only the letters a-z "
                             "name free generators")
        self.rank = rank
        self.key = (rank,)
        self.name = f"F{rank}"
        # letter <-> name: generator i is the i-th letter, its inverse the
        # same letter in upper case
        self._names = {}
        for i, ch in enumerate(_GEN_NAMES[:rank], 1):
            self._names[i], self._names[-i] = ch, ch.upper()
        self._letters = {ch: a for a, ch in self._names.items()}

    def identity(self):
        return ()

    def mul(self, x, y):
        # x and y are reduced, so letters cancel only where x meets y
        n = len(x)
        i, m = 0, min(n, len(y))
        while i < m and x[n - 1 - i] == -y[i]:
            i += 1
        return x[:n - i] + y[i:]

    def inv(self, x):
        return tuple(map(neg, reversed(x)))

    def generators(self):
        return [(i,) for i in range(1, self.rank + 1)]

    def check_element(self, x):
        if not isinstance(x, tuple):
            raise ValueError(f"not a free-group word: {x!r}")
        for a, b in zip(x, x[1:]):
            if a == -b:
                raise ValueError(f"word not reduced: {x!r}")
        for letter in x:
            if not (1 <= abs(letter) <= self.rank):
                raise ValueError(f"letter {letter} out of range")

    def element_key(self, x):
        # sort index: generator i -> 2i-2, inverse -> 2i-1 (matches ball order)
        return (len(x), tuple(2 * abs(a) - 2 + (a < 0) for a in x))

    def element_to_str(self, x):
        if not x:
            return "1"
        names = self._names
        return " ".join([names[a] for a in x])

    def element_from_str(self, s):
        """Parse a word of generator letters (upper case for inverses),
        separated by any whitespace or none, and reduce it; "1" is the
        identity."""
        letters = self._letters
        word = []
        for ch in s:
            a = letters.get(ch)
            if a is not None:
                if word and word[-1] == -a:
                    word.pop()
                else:
                    word.append(a)
            elif not ch.isspace():
                if s.strip() == "1":
                    return ()
                raise ValueError(f"{ch!r} in {s!r} is not a letter of {self.name}")
        return tuple(word)


class FreeAbelian(Group):
    """Z^d with the standard basis; elements are integer d-tuples."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.key = (rank,)
        self.name = "Z" if rank == 1 else f"Z^{rank}"

    def identity(self):
        return (0,) * self.rank

    def mul(self, x, y):
        return tuple(map(add, x, y))

    def inv(self, x):
        return tuple(-a for a in x)

    def generators(self):
        gens = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            gens.append(tuple(v))
        return gens

    def check_element(self, x):
        if not (isinstance(x, tuple) and len(x) == self.rank
                and all(isinstance(a, int) for a in x)):
            raise ValueError(f"not an element of {self.name}: {x!r}")

    def element_key(self, x):
        length = sum(abs(a) for a in x)
        word = []
        for i, a in enumerate(x):
            word.extend([2 * i + (a < 0)] * abs(a))
        return (length, tuple(word))

    def element_to_str(self, x):
        if self.rank == 1:
            return str(x[0])
        return "(" + ", ".join(str(a) for a in x) + ")"

    def element_from_str(self, s):
        s = s.strip().strip("()")
        parts = s.replace(",", " ").split()
        if len(parts) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {s!r}")
        return tuple(map(int, parts))


class BaumslagSolitar(Group):
    """BS(1,k) = <a, b : b a b^-1 = a^k> in semidirect-product normal form.

    Elements are pairs (t, m) with t in Z[1/k] (a Fraction whose denominator
    divides a power of k) and m an integer; the product law is
    (t, m) * (s, n) = (t + k^m * s, m + n).
    """

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = k
        self.key = (k,)
        self.name = f"BS(1,{k})"

    def identity(self):
        return (Fraction(0), 0)

    def mul(self, x, y):
        t, m = x
        s, n = y
        if not s:
            return (t, m + n)
        if m >= 0:
            return (t + s * self.k ** m, m + n)
        return (t + s / self.k ** -m, m + n)

    def inv(self, x):
        t, m = x
        if not t:
            return (t, -m)
        if m > 0:
            return (-t / self.k ** m, -m)
        return (-t * self.k ** -m, -m)

    def generators(self):
        # a = (1, 0), b = (0, 1)
        return [(Fraction(1), 0), (Fraction(0), 1)]

    def check_element(self, x):
        if not (isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], Fraction)
                and isinstance(x[1], int)):
            raise ValueError(f"not a BS(1,{self.k}) element: {x!r}")
        den = x[0].denominator
        while den % self.k == 0:
            den //= self.k
        if den != 1:
            raise ValueError(f"denominator of {x[0]} is not a power of {self.k}")

    def element_key(self, x):
        t, m = x
        return (abs(m), m, t.denominator, t)

    def element_to_str(self, x):
        return f"({x[0]}, {x[1]})"

    def element_from_str(self, s):
        m = re.fullmatch(r"\(\s*(-?\d+(?:/\d+)?)\s*,\s*(-?\d+)\s*\)", s.strip())
        if not m:
            raise ValueError(f"cannot parse BS element: {s!r}")
        return (Fraction(m.group(1)), int(m.group(2)))


class Cyclic(Group):
    """Cyclic group of order m; elements are residues 0..m-1."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("order must be >= 1")
        self.m = m
        self.key = (m,)
        self.name = f"C({m})"

    def identity(self):
        return 0

    def mul(self, x, y):
        return (x + y) % self.m

    def inv(self, x):
        return (-x) % self.m

    def generators(self):
        return [1 % self.m]

    def check_element(self, x):
        if not (isinstance(x, int) and 0 <= x < self.m):
            raise ValueError(f"not a residue mod {self.m}: {x!r}")

    def element_key(self, x):
        return (min(x, self.m - x), x)

    def element_to_str(self, x):
        return str(x)

    def element_from_str(self, s):
        return int(s) % self.m

    def elements(self):
        return list(range(self.m))


class DirectProduct(Group):
    """Direct product; elements are tuples, one coordinate per factor."""

    def __init__(self, factors: Sequence[Group]):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)
        self.key = tuple(self.factors)
        self.name = " x ".join(f.name for f in self.factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def inv(self, x):
        return tuple(f.inv(a) for f, a in zip(self.factors, x))

    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generators():
                coords = [h.identity() for h in self.factors]
                coords[i] = g
                gens.append(tuple(coords))
        return gens

    def check_element(self, x):
        if not (isinstance(x, tuple) and len(x) == len(self.factors)):
            raise ValueError(f"not an element of {self.name}: {x!r}")
        for f, a in zip(self.factors, x):
            f.check_element(a)

    def element_key(self, x):
        return tuple(f.element_key(a) for f, a in zip(self.factors, x))

    def element_to_str(self, x):
        return "(" + "; ".join(f.element_to_str(a) for f, a in zip(self.factors, x)) + ")"

    def element_from_str(self, s):
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        parts = split_top_level(s, ";")
        if len(parts) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} coordinates: {s!r}")
        return tuple(f.element_from_str(p) for f, p in zip(self.factors, parts))

    def elements(self):
        out = [()]
        for f in self.factors:
            out = [x + (a,) for x in out for a in f.elements()]
        return out


def set_product(group: Group, K: Iterable, A: Iterable) -> set:
    """The set KA = {k*a : k in K, a in A}, deduplicated."""
    K = list(K)
    mul = group.mul
    return {mul(k, a) for k in K for a in A}


_SPEC_RE_BS = re.compile(r"BS\(1,\s*(\d+)\)")
_SPEC_RE_CYC = re.compile(r"C\((\d+)\)|C(\d+)")
_SPEC_RE_FREE = re.compile(r"F(\d+)")
_SPEC_RE_ZD = re.compile(r"Z\^(\d+)")


def group_from_spec(spec: str) -> Group:
    """Parse group names like "F2", "Z", "Z^3", "BS(1,2)", "C(4)", "C2xC2"."""
    spec = spec.strip()
    parts = split_top_level(spec, "x")
    factors = [_atom_from_spec(p) for p in parts]
    if len(factors) == 1:
        return factors[0]
    return DirectProduct(factors)


def split_top_level(text: str, sep: str) -> list[str]:
    """Split text at each sep outside brackets; strip the parts and drop
    empty ones."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _atom_from_spec(spec: str) -> Group:
    if spec == "Z":
        return FreeAbelian(1)
    m = _SPEC_RE_ZD.fullmatch(spec)
    if m:
        return FreeAbelian(int(m.group(1)))
    m = _SPEC_RE_FREE.fullmatch(spec)
    if m:
        return FreeGroup(int(m.group(1)))
    m = _SPEC_RE_BS.fullmatch(spec)
    if m:
        return BaumslagSolitar(int(m.group(1)))
    m = _SPEC_RE_CYC.fullmatch(spec)
    if m:
        return Cyclic(int(m.group(1) or m.group(2)))
    raise ValueError(f"unknown group spec: {spec!r}")

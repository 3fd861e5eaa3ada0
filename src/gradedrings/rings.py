"""Exact coefficient rings, matrices over them, and rank certificates.

A rank certificate is a pair of matrices (A: m x n, B: n x m) over a ring
with A*B = I_m, witnessing a module epimorphism R^n -> R^m.  When n < m the
certificate witnesses bounded generating number.  All arithmetic is exact.
A matrix stores only its nonzero entries, one dict per row (support form,
below), and every matrix product, mat_mul included, is support_mul over
those rows.  Presented rings (Leavitt, Weyl, crossed products, translation
rings) plug in through the same Ring interface, share the SparseRing
representation, and keep their own product rules and normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .groups import split_top_level
from .report import VerificationError


class Ring:
    """Abstract exact ring.  Elements are plain Python values; the ring
    object supplies the operations and decidable equality.

    Subclasses set key, the tuple of parameters that identifies the ring:
    two rings are equal exactly when they have the same class and key.
    """

    name: str
    key: tuple

    def __eq__(self, other):
        return other is self or (type(other) is type(self) and other.key == self.key)

    def __hash__(self):
        return hash((type(self).__name__, self.key))

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def from_int(self, n: int):
        out, one = self.zero(), self.one()
        for _ in range(abs(n)):
            out = self.add(out, one)
        return out if n >= 0 else self.neg(out)

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero())

    def element_to_str(self, a) -> str:
        return str(a)

    def element_from_str(self, s: str):
        raise NotImplementedError(f"{self.name} has no element parser")

    def opposite(self) -> "Ring":
        return OppositeRing(self)

    def __repr__(self):
        return self.name


def _add_term(terms: dict, key, coeff, S: Ring):
    """Add coeff to the coefficient of key in place, dropping a zero sum."""
    cur = terms.get(key)
    if cur is None:
        if not S.is_zero(coeff):
            terms[key] = coeff
        return
    s = S.add(cur, coeff)
    if S.is_zero(s):
        del terms[key]
    else:
        terms[key] = s


class SparseRing(Ring):
    """A ring whose elements are finite sums stored as dicts mapping a key
    (a basis monomial, or a group element) to a nonzero coefficient in the
    base ring.

    Subclasses set base and unit_key (the key of 1) and supply the product
    rule mul.  Invariant: every element a ring method returns is canonical,
    that is, its keys are in normal form and it stores no zero coefficient.
    The entry points that take raw data (monomial and term constructors,
    parsers) canonicalize it, so eq compares dicts structurally.
    """

    base: Ring
    unit_key: object

    def zero(self):
        return {}

    def one(self):
        return {self.unit_key: self.base.one()}

    def scalar(self, c):
        return {} if self.base.is_zero(c) else {self.unit_key: c}

    def from_int(self, n):
        return self.scalar(self.base.from_int(n))

    def add(self, a, b):
        out = dict(a)
        for key, c in b.items():
            _add_term(out, key, c, self.base)
        return out

    def neg(self, a):
        return {k: self.base.neg(c) for k, c in a.items()}

    def eq(self, a, b):
        return a.keys() == b.keys() and all(self.base.eq(a[k], b[k]) for k in a)

    def is_zero(self, a):
        return not a  # eq(a, {}), as eq is structural


class IntegerRing(Ring):
    name = "Z"
    key = ()

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n

    def element_from_str(self, s):
        return int(s)


class RationalRing(Ring):
    name = "Q"
    key = ()

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def eq(self, a, b):
        return a == b

    def from_int(self, n):
        return Fraction(n)

    def element_from_str(self, s):
        return Fraction(s)


class IntegerModRing(Ring):
    """Z/mZ, m >= 2; elements are residues 0..m-1."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.key = (m,)
        self.name = f"Z/{m}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def eq(self, a, b):
        return a % self.m == b % self.m

    def is_zero(self, a):
        return a % self.m == 0

    def from_int(self, n):
        return n % self.m

    def element_from_str(self, s):
        return int(s) % self.m


class ProductRing(Ring):
    """Finite direct product; elements are tuples, componentwise operations."""

    def __init__(self, factors: Sequence[Ring]):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)
        self.key = tuple(self.factors)
        self.name = "prod(" + ", ".join(f.name for f in self.factors) + ")"

    def zero(self):
        return tuple(f.zero() for f in self.factors)

    def one(self):
        return tuple(f.one() for f in self.factors)

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def eq(self, a, b):
        return all(f.eq(x, y) for f, x, y in zip(self.factors, a, b))

    def element_to_str(self, a):
        return "(" + "; ".join(f.element_to_str(x) for f, x in zip(self.factors, a)) + ")"

    def element_from_str(self, s):
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        parts = split_top_level(s, ";")
        if len(parts) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} components: {s!r}")
        return tuple(f.element_from_str(p) for f, p in zip(self.factors, parts))


class OppositeRing(Ring):
    """Same elements as the base ring, multiplication order reversed."""

    def __init__(self, base: Ring):
        self.base = base
        self.key = (base,)
        self.name = f"op({base.name})"

    def opposite(self):
        return self.base

    def zero(self):
        return self.base.zero()

    def one(self):
        return self.base.one()

    def add(self, a, b):
        return self.base.add(a, b)

    def neg(self, a):
        return self.base.neg(a)

    def mul(self, a, b):
        return self.base.mul(b, a)

    def eq(self, a, b):
        return self.base.eq(a, b)

    def element_to_str(self, a):
        return self.base.element_to_str(a)

    def element_from_str(self, s):
        return self.base.element_from_str(s)


class MatrixRing(Ring):
    """M_s(R); elements are s x s RingMatrix values over the base ring."""

    def __init__(self, base: Ring, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.base = base
        self.size = size
        self.key = (base, size)
        self.name = f"M{size}({base.name})"

    def zero(self):
        return RingMatrix.zero(self.base, self.size, self.size)

    def one(self):
        return RingMatrix.identity(self.base, self.size)

    def add(self, a, b):
        return a.add(b)

    def neg(self, a):
        return a.neg()

    def mul(self, a, b):
        return mat_mul(a, b)

    def eq(self, a, b):
        return a.eq(b)

    def is_zero(self, a):
        return not any(a.support)


class RingMatrix:
    """Rectangular matrix over an exact ring, not mutated once built.  Row i
    is stored as a dict {j: m_ij} over its nonzero entries: an absent entry
    is 0, and no entry that ring.is_zero reads as zero is stored."""

    __slots__ = ("ring", "rows", "cols", "support")

    def __init__(self, ring: Ring, rows: int, cols: int, entries: Sequence):
        """The rows x cols matrix with the given entries, row-major."""
        entries = list(entries)
        self._store(ring, cols, [dict(enumerate(entries[i * cols:(i + 1) * cols]))
                                 for i in range(rows)])
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")

    def _store(self, ring: Ring, cols: int, rows: Sequence[dict]):
        if not rows or cols < 1:
            raise ValueError("dimensions must be positive")
        is_zero, support = ring.is_zero, []
        for i, row in enumerate(rows):
            if row and not 0 <= min(row) <= max(row) < cols:
                raise ValueError(f"row {i} has a column outside a "
                                 f"{len(rows)}x{cols} matrix")
            support.append({j: x for j, x in row.items() if not is_zero(x)})
        self.ring, self.rows, self.cols, self.support = ring, len(rows), cols, support

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence]) -> "RingMatrix":
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("no rows, or ragged rows")
        return cls(ring, len(rows), len(rows[0]), [x for row in rows for x in row])

    @classmethod
    def from_support_rows(cls, ring: Ring, cols: int, rows: Sequence[dict]) -> "RingMatrix":
        """The matrix with cols columns whose row i holds the entries of the
        dict rows[i] ({j: m_ij}) and zero elsewhere.  Entries that are zero
        are dropped; a column outside the shape raises."""
        M = cls.__new__(cls)
        M._store(ring, cols, rows)
        return M

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        return cls.from_support_rows(ring, n, [{i: ring.one()} for i in range(n)])

    @classmethod
    def zero(cls, ring: Ring, rows: int, cols: int) -> "RingMatrix":
        return cls.from_support_rows(ring, cols, [{}] * rows)

    @property
    def entries(self) -> list:
        """The dense row-major list of entries, kept for the bench tracer
        (perfbench/tracing.py), which counts nonzero entries through it."""
        zero = self.ring.zero()
        return [row.get(j, zero) for row in self.support for j in range(self.cols)]

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) outside a "
                             f"{self.rows}x{self.cols} matrix")
        return self.support[i].get(j, self.ring.zero())

    def add(self, other: "RingMatrix") -> "RingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ring != other.ring:
            raise ValueError("matrix shape or ring mismatch")
        R, zero = self.ring, self.ring.zero()
        return RingMatrix.from_support_rows(R, self.cols, [
            {j: R.add(p.get(j, zero), q.get(j, zero)) for j in p.keys() | q.keys()}
            for p, q in zip(self.support, other.support)])

    def neg(self) -> "RingMatrix":
        R = self.ring
        return RingMatrix.from_support_rows(R, self.cols, [
            {j: R.neg(x) for j, x in row.items()} for row in self.support])

    def transpose(self) -> "RingMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.support):
            for j, x in row.items():
                out[j][i] = x
        return RingMatrix.from_support_rows(self.ring, self.rows, out)

    def eq(self, other: "RingMatrix") -> bool:
        return ((self.rows, self.cols) == (other.rows, other.cols)
                and support_eq(self.ring, self.support, other.support))

    def reinterpret(self, ring: Ring) -> "RingMatrix":
        """Same entries viewed over another ring (e.g. the opposite ring)."""
        return RingMatrix.from_support_rows(ring, self.cols, self.support)

    def __repr__(self):
        return f"RingMatrix({self.ring.name}, {self.rows}x{self.cols}, {self.support!r})"


# Support form: a matrix as one dict per row, {j: m_ij} over its nonzero
# entries, as RingMatrix.support stores it.  A product or comparison in this
# form costs the pairs it meets, not rows x cols, and is still exact over
# every entry: an absent entry is 0.


def support_mul(R: Ring, P: list, Q: list) -> list:
    """The product of two matrices in support form, in support form.

    Row i sums p_ik * q_kj over the stored pairs only, k ascending (the ring
    need not be commutative).  A skipped pair has a zero factor, and a stored
    zero only adds zero products, so every entry is the dense one.
    """
    mul, add = R.mul, R.add
    out = []
    for row in P:
        acc = {}
        for k in sorted(row):
            a = row[k]
            for j, b in Q[k].items():
                ab = mul(a, b)
                acc[j] = add(acc[j], ab) if j in acc else ab
        out.append(acc)
    return out


def _first_difference(R: Ring, P: list, Q: list):
    """The first (i, j), 0-based and row-major, at which two matrices in
    support form differ, reading an absent entry as zero; None if none."""
    if len(P) != len(Q):
        raise ValueError(f"row count mismatch: {len(P)} vs {len(Q)}")
    zero, eq = R.zero(), R.eq
    for i, (p, q) in enumerate(zip(P, Q)):
        bad = [j for j in p.keys() | q.keys() if not eq(p.get(j, zero), q.get(j, zero))]
        if bad:
            return i, min(bad)
    return None


def support_eq(R: Ring, P: list, Q: list) -> bool:
    """Entrywise R.eq of two matrices in support form with the same number
    of rows; an absent entry reads as zero."""
    return _first_difference(R, P, Q) is None


def mat_mul(A: RingMatrix, B: RingMatrix) -> RingMatrix:
    """Exact matrix product: support_mul of the stored rows of A and B, so
    each entry is the exact sum of its products (the ring need not be
    commutative), and a zero entry on either side adds nothing."""
    if A.ring != B.ring:
        raise ValueError(f"ring mismatch: {A.ring} vs {B.ring}")
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: {A.rows}x{A.cols} times {B.rows}x{B.cols}")
    R = A.ring
    return RingMatrix.from_support_rows(
        R, B.cols, support_mul(R, A.support, B.support))


@dataclass
class RankCertificate:
    """Witness for an epimorphism R^n -> R^m: A is m x n, B is n x m, AB = I_m."""

    ring: Ring
    n: int
    m: int
    A: RingMatrix
    B: RingMatrix

    def __post_init__(self):
        if (self.A.rows, self.A.cols) != (self.m, self.n):
            raise ValueError(f"A must be {self.m}x{self.n}")
        if (self.B.rows, self.B.cols) != (self.n, self.m):
            raise ValueError(f"B must be {self.n}x{self.m}")
        if self.A.ring != self.ring or self.B.ring != self.ring:
            raise ValueError("matrix ring differs from certificate ring")


@dataclass
class Valid:
    bgn: bool = False

    def __bool__(self):
        return True


@dataclass
class Invalid:
    position: tuple  # (row, col) of first failing entry of A*B, 1-based

    def __bool__(self):
        return False


def verify_certificate(cert: RankCertificate):
    """Check AB = I_m exactly, over the support of A and B.

    AB is summed with support_mul from the stored rows, and compared
    with the identity over the entries it reaches plus the diagonal, in
    row-major order, so the first failure is the dense one.

    Returns Valid(bgn=True) when AB = I_m and n < m, Valid(bgn=False) when
    AB = I_m and n >= m, else Invalid with the first failing position.
    """
    R = cert.ring
    AB = support_mul(R, cert.A.support, cert.B.support)
    at = _first_difference(R, AB, [{i: R.one()} for i in range(cert.m)])
    if at is not None:
        return Invalid(position=(at[0] + 1, at[1] + 1))
    return Valid(bgn=cert.n < cert.m)


def _checked(cert: RankCertificate, msg: str,
             need_bgn: bool = False) -> RankCertificate:
    """Re-verify a certificate built from verified parts; raise
    VerificationError(msg) unless AB = I (and n < m when need_bgn)."""
    v = verify_certificate(cert)
    if not v or (need_bgn and not v.bgn):
        raise VerificationError(msg)
    return cert


def _require_valid(cert: RankCertificate, need_bgn: bool = False) -> None:
    """Check a transform's input: raise ValueError unless AB = I (and
    n < m when need_bgn)."""
    v = verify_certificate(cert)
    if not v:
        raise ValueError(f"input certificate invalid at {v.position}")
    if need_bgn and not v.bgn:
        raise ValueError(f"input certificate ({cert.n}, {cert.m}) is not BGN: "
                         "needs n < m")


def extend_certificate(cert: RankCertificate, target_m: int) -> RankCertificate:
    """Stretch any BGN certificate (n < m) to one with m = target_m > n.

    The input is first cut to (n, n+1): the first n+1 rows of A and columns
    of B, since the leading block of AB = I_m is I_{n+1}.  Then follows the
    epimorphism chain psi -> reshuffle -> xi -> reshuffle: each step takes
    A to diag(A, I) A and B to B diag(B, I), so that A'B' = diag(AB, I) = I.
    The chain runs on the stored rows.
    """
    _require_valid(cert, need_bgn=True)
    n, R = cert.n, cert.ring
    if target_m <= n:
        raise ValueError("target must exceed n")
    if cert.m == n + 1 == target_m:
        return cert
    A_step = cert.A.support[:n + 1]
    B_step = [{j: x for j, x in row.items() if j <= n} for row in cert.B.support]
    A_cur, B_cur = A_step, B_step
    for _ in range(n + 1, target_m):
        # diag(A, I) A_cur: A acts on the first n rows, the rest pass through
        A_cur = support_mul(R, A_step, A_cur[:n]) + A_cur[n:]
        # B_cur diag(B, I): B acts on the columns < n, column j >= n moves to j+1
        low = support_mul(R, [{k: x for k, x in row.items() if k < n} for row in B_cur],
                          B_step)
        B_cur = [{**p, **{k + 1: x for k, x in row.items() if k >= n}}
                 for p, row in zip(low, B_cur)]
    return _checked(RankCertificate(R, n, target_m,
                                    RingMatrix.from_support_rows(R, n, A_cur),
                                    RingMatrix.from_support_rows(R, target_m, B_cur)),
                    "extended certificate failed re-verification")


def opposite_certificate(cert: RankCertificate) -> RankCertificate:
    """Transpose the witness into one over the opposite ring.

    Since A o B computed over R^op equals (B^t A^t)^t over R, the pair
    (B^t, A^t) verifies over R^op with the same n and m.
    """
    _require_valid(cert)
    op = cert.ring.opposite()
    A2 = cert.B.transpose().reinterpret(op)
    B2 = cert.A.transpose().reinterpret(op)
    return _checked(RankCertificate(op, cert.n, cert.m, A2, B2),
                    "opposite certificate failed re-verification")


def block_down_certificate(cert: RankCertificate) -> RankCertificate:
    """Flatten a certificate over M_s(R) to one over R (dimensions scale by s)."""
    _require_valid(cert)
    if not isinstance(cert.ring, MatrixRing):
        raise ValueError("certificate is not over a matrix ring")
    s = cert.ring.size
    base = cert.ring.base
    A2 = _flatten_blocks(cert.A, base, s)
    B2 = _flatten_blocks(cert.B, base, s)
    return _checked(RankCertificate(base, cert.n * s, cert.m * s, A2, B2),
                    "flattened certificate failed re-verification")


def _flatten_blocks(M: RingMatrix, base: Ring, s: int) -> RingMatrix:
    out = [{} for _ in range(M.rows * s)]
    for i, row in enumerate(M.support):
        for j, block in row.items():
            for t, brow in enumerate(block.support):
                out[i * s + t].update({j * s + u: x for u, x in brow.items()})
    return RingMatrix.from_support_rows(base, M.cols * s, out)


def block_up_certificate(cert: RankCertificate, s: int) -> RankCertificate:
    """Regroup a certificate over R into one over M_s(R); dimensions must divide."""
    _require_valid(cert)
    if s < 1:
        raise ValueError("block size must be >= 1")
    if cert.n % s or cert.m % s:
        raise ValueError(f"dimensions ({cert.n}, {cert.m}) not divisible by {s}")
    if s == 1:
        return cert
    mring = MatrixRing(cert.ring, s)
    A2 = _group_blocks(cert.A, mring)
    B2 = _group_blocks(cert.B, mring)
    return _checked(RankCertificate(mring, cert.n // s, cert.m // s, A2, B2),
                    "blocked certificate failed re-verification")


def _group_blocks(M: RingMatrix, mring: MatrixRing) -> RingMatrix:
    s = mring.size
    blocks = [{} for _ in range(M.rows // s)]
    for i, row in enumerate(M.support):
        for j, x in row.items():
            blocks[i // s].setdefault(j // s, [{} for _ in range(s)])[i % s][j % s] = x
    return RingMatrix.from_support_rows(mring, M.cols // s, [
        {bj: RingMatrix.from_support_rows(mring.base, s, rows)
         for bj, rows in row.items()} for row in blocks])


def product_certificate(certs: Sequence[RankCertificate]) -> RankCertificate:
    """Combine BGN certificates into one over the product ring.

    Each input is extended to (n, b+1), where b is the largest n among them,
    and its domain padded with zeros: [A | 0] is (b+1) x b and [B ; 0] is
    b x (b+1), with the same product AB = I_{b+1}.  The results are then
    merged componentwise.
    """
    if not certs:
        raise ValueError("need at least one certificate")
    b = max(c.n for c in certs)
    shaped = [extend_certificate(c, b + 1) for c in certs]
    if len(shaped) == 1:
        return shaped[0]
    prod = ProductRing([c.ring for c in shaped])
    zeros = prod.zero()

    def merged(cols: int, parts: list) -> RingMatrix:  # parts: each factor's rows
        return RingMatrix.from_support_rows(prod, cols, [
            {j: tuple(row.get(j, z) for row, z in zip(rows, zeros))
             for j in set().union(*rows)} for rows in zip(*parts)])

    A = merged(b, [c.A.support for c in shaped])
    B = merged(b + 1, [c.B.support + [{}] * (b - c.n) for c in shaped])
    return _checked(RankCertificate(prod, b, b + 1, A, B),
                    "product certificate failed re-verification")


def truncate_certificate(cert: RankCertificate) -> RankCertificate:
    """Cut an (n, m) BGN certificate down to (n, n+1): the extension of it
    to n+1."""
    return extend_certificate(cert, cert.n + 1)


def hom_certificate(cert: RankCertificate, phi: Callable, target: Ring) -> RankCertificate:
    """Push a certificate forward along an entrywise unital ring homomorphism,
    applied to the stored entries only, so a phi with phi(0) != 0 is refused."""
    _require_valid(cert)
    if not target.eq(phi(cert.ring.one()), target.one()):
        raise ValueError("map is not unital: phi(1) != 1")
    if not target.is_zero(phi(cert.ring.zero())):
        raise ValueError("map does not fix zero: phi(0) != 0")
    A2, B2 = (RingMatrix.from_support_rows(target, M.cols, [
        {j: phi(x) for j, x in row.items()} for row in M.support])
        for M in (cert.A, cert.B))
    out = RankCertificate(target, cert.n, cert.m, A2, B2)
    v = verify_certificate(out)
    if not v:
        raise ValueError(f"image certificate fails at {v.position}; "
                         "map is probably not a homomorphism")
    return out

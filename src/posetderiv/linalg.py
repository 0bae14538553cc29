"""Exact integer and modular linear algebra built on Smith normal form.

All matrices carry arbitrary-precision integer entries; intermediate
values in a Smith reduction can grow far beyond machine words even for
small inputs, and fixed-width arithmetic would silently corrupt torsion
computations downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError, UnsupportedRingError


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense row-major integer matrix."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, data, cols: int | None = None) -> "IntegerMatrix":
        data = [list(row) for row in data]
        if data:
            cols = len(data[0])
            if any(len(row) != cols for row in data):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        flat = tuple(int(v) for row in data for v in row)
        return cls(len(data), cols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def column(self, j: int) -> list[int]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[t] * other.entry(t, j) for t in range(self.cols)))
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def mul_vector(self, vec) -> list:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return [
            sum(self.entry(i, j) * vec[j] for j in range(self.cols))
            for i in range(self.rows)
        ]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the bases above is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n >= _MR_BOUND without a small factor."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        raise UnsupportedRingError(
            f"cannot decide whether {n} is prime: the test is exact only "
            f"below {_MR_BOUND}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Ring:
    """Coefficient ring: the rationals, the integers, GF(p) or Z/n."""

    tag: str
    n: int | None = None

    def __post_init__(self):
        if self.tag in ("rationals", "integers"):
            if self.n is not None:
                raise ValueError(f"{self.tag} takes no modulus")
        elif self.tag == "prime_field":
            if self.n is None or not _is_prime(self.n):
                raise UnsupportedRingError(f"{self.n!r} is not prime")
        elif self.tag == "mod_ring":
            if self.n is None or self.n < 2:
                raise UnsupportedRingError("modulus must be at least 2")
        else:
            raise ValueError(f"unknown ring tag {self.tag!r}")

    # -- element arithmetic ----------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.tag == "rationals" else 0

    def normalize(self, v):
        if self.tag == "rationals":
            return Fraction(v)
        if self.tag == "integers":
            return int(v)
        return int(v) % self.n

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def neg(self, a):
        return self.normalize(-a)

    def is_zero(self, v) -> bool:
        return self.normalize(v) == self.zero

    def label(self) -> str:
        if self.tag == "rationals":
            return "q"
        if self.tag == "integers":
            return "z"
        if self.tag == "prime_field":
            return f"gf:{self.n}"
        return f"mod:{self.n}"


RATIONALS = Ring("rationals")
INTEGERS = Ring("integers")


def prime_field(p: int) -> Ring:
    return Ring("prime_field", p)


def mod_ring(n: int) -> Ring:
    return Ring("mod_ring", n)


def ring_from_string(text: str) -> Ring:
    """Parse the ring grammar: "q" | "gf:<prime>" | "mod:<n>"."""
    if text == "q":
        return RATIONALS
    if text.startswith("gf:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise InputError(f"bad ring string {text!r}") from None
        return prime_field(p)
    if text.startswith("mod:"):
        try:
            n = int(text[4:])
        except ValueError:
            raise InputError(f"bad ring string {text!r}") from None
        return mod_ring(n)
    raise InputError(f"bad ring string {text!r} (expected q, gf:p or mod:n)")


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular factorization s = u * a * v with diagonal s.

    The diagonal is ``divisors`` padded with zeros and each divisor
    divides the next.
    """

    u: IntegerMatrix
    s: IntegerMatrix
    v: IntegerMatrix
    divisors: tuple[int, ...]


def smith_normal_form(a: IntegerMatrix) -> SmithDecomposition:
    m, n = a.rows, a.cols
    s = a.to_rows()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(mat, i, j):
        mat[i], mat[j] = mat[j], mat[i]

    def swap_cols(mat, i, j):
        for row in mat:
            row[i], row[j] = row[j], row[i]

    def negate_row(mat, i):
        mat[i] = [-x for x in mat[i]]

    def row_sub(mat, i, j, q):
        # row_i -= q * row_j
        ri, rj = mat[i], mat[j]
        for t in range(len(ri)):
            ri[t] -= q * rj[t]

    def col_sub(mat, j, t, q):
        # col_j -= q * col_t
        for row in mat:
            row[j] -= q * row[t]

    def row_add(mat, i, j):
        ri, rj = mat[i], mat[j]
        for t in range(len(ri)):
            ri[t] += rj[t]

    def min_nonzero(start):
        pos = None
        val = 0
        for i in range(start, m):
            row = s[i]
            for j in range(start, n):
                x = row[j]
                if x and (pos is None or abs(x) < val):
                    pos = (i, j)
                    val = abs(x)
                    if val == 1:
                        return pos
        return pos

    t = 0
    lim = min(m, n)
    while t < lim:
        piv = min_nonzero(t)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            swap_rows(s, t, pi)
            swap_rows(u, t, pi)
        if pj != t:
            swap_cols(s, t, pj)
            swap_cols(v, t, pj)
        if s[t][t] < 0:
            negate_row(s, t)
            negate_row(u, t)

        pivot = s[t][t]
        dirty = False
        for i in range(t + 1, m):
            if s[i][t]:
                q = s[i][t] // pivot
                if q:
                    row_sub(s, i, t, q)
                    row_sub(u, i, t, q)
                if s[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j]:
                q = s[t][j] // pivot
                if q:
                    col_sub(s, j, t, q)
                    col_sub(v, j, t, q)
                if s[t][j]:
                    dirty = True
        if dirty:
            continue

        off = None
        for i in range(t + 1, m):
            row = s[i]
            for j in range(t + 1, n):
                if row[j] % pivot:
                    off = i
                    break
            if off is not None:
                break
        if off is not None:
            row_add(s, t, off)
            row_add(u, t, off)
            continue
        t += 1

    divisors = tuple(s[i][i] for i in range(lim) if s[i][i] != 0)
    return SmithDecomposition(
        u=IntegerMatrix.from_rows(u, cols=m),
        s=IntegerMatrix.from_rows(s, cols=n),
        v=IntegerMatrix.from_rows(v, cols=n),
        divisors=divisors,
    )


def _field_modulus(k: Ring) -> int | None:
    """Return p when k is a field of prime characteristic, None for Q."""
    if k.tag == "rationals":
        return None
    if k.tag == "prime_field":
        return k.n
    if k.tag == "mod_ring" and _is_prime(k.n):
        return k.n
    raise UnsupportedRingError(
        f"rank over {k.label()} is not defined; use q or a prime field"
    )


def rank_from_divisors(divisors, k: Ring) -> int:
    p = _field_modulus(k)
    if p is None:
        return len(divisors)
    return sum(1 for d in divisors if d % p)


def rank_over(a: IntegerMatrix, k: Ring) -> int:
    return rank_from_divisors(smith_normal_form(a).divisors, k)


def _scalar_solve(d: int, c: int, k: Ring):
    """One solution of d * y = c in k, or None.  d is a positive integer."""
    if k.tag == "rationals":
        return Fraction(c, d)
    if k.tag == "integers":
        return c // d if c % d == 0 else None
    if k.tag == "prime_field":
        p = k.n
        if d % p == 0:
            return 0 if c % p == 0 else None
        return (c % p) * pow(d % p, -1, p) % p
    # mod_ring
    nn = k.n
    g = gcd(d, nn)
    if c % g:
        return None
    reduced = nn // g
    if reduced == 1:
        return 0
    return ((c // g) % reduced) * pow((d // g) % reduced, -1, reduced) % reduced


def solve_linear(a: IntegerMatrix, b, k: Ring):
    """One solution vector of a * x = b in k, or None when unsolvable.

    b is a vector of integers.  Entries of the result are reduced:
    fractions in lowest terms, modular values in [0, n).
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    dec = smith_normal_form(a)
    c = dec.u.mul_vector([int(x) for x in b])
    r = len(dec.divisors)
    y = [0] * a.cols
    for i in range(a.rows):
        if i < r:
            sol = _scalar_solve(dec.divisors[i], c[i], k)
            if sol is None:
                return None
            y[i] = sol
        elif not k.is_zero(c[i]):
            return None
    x = dec.v.mul_vector(y)
    return [k.normalize(val) for val in x]


def kernel_basis(a: IntegerMatrix, k: Ring) -> list[list[int]]:
    """Basis of the null space of a over k (k the rationals or a prime field).

    The vectors are integer-valued; over a prime field they are reduced
    mod p.  The basis size is cols - rank_over(a, k).
    """
    p = _field_modulus(k)
    dec = smith_normal_form(a)
    r = len(dec.divisors)
    idxs = [
        i
        for i in range(a.cols)
        if i >= r or (p is not None and dec.divisors[i] % p == 0)
    ]
    basis = []
    for i in idxs:
        col = dec.v.column(i)
        if p is not None:
            col = [x % p for x in col]
        basis.append(col)
    return basis

"""Exact integer and modular linear algebra built on Smith normal form.

All matrices carry arbitrary-precision integer entries; intermediate
values in a Smith reduction can grow far beyond machine words even for
small inputs, and fixed-width arithmetic would silently corrupt torsion
computations downstream.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from math import gcd

from .errors import InputError, UnsupportedRingError


class IntegerMatrix(namedtuple("IntegerMatrix", "rows cols sparse_rows")):
    """Integer matrix as sparse rows: ``sparse_rows[i]`` holds row i as
    (column, value) pairs, columns ascending, no zero values.

    The constructor checks every row.  ``IntegerMatrix._make((rows, cols,
    sparse_rows))`` skips the check; the package uses it only for rows it
    has just built in that form."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, sparse_rows):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(sparse_rows) != rows:
            raise ValueError(f"expected {rows} rows, got {len(sparse_rows)}")
        for row in sparse_rows:
            last = -1
            for j, x in row:
                if not (last < j < cols and x):
                    raise ValueError(f"bad sparse row {row!r} for {cols} columns")
                last = j
        return super().__new__(cls, rows, cols, sparse_rows)

    @property
    def entries(self) -> tuple[int, ...]:
        """The dense row-major view."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def row(self, i: int) -> list[int]:
        nonzero = dict(self.sparse_rows[i])
        return [nonzero.get(j, 0) for j in range(self.cols)]


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


class Ring(namedtuple("Ring", "tag n", defaults=(None,))):
    """Coefficient ring: the rationals (q), GF(p) (gf:p) or Z/n (mod:n).

    Every ring carries transitive functions and linear solves; which of
    them also has a rank is decided by `_field_modulus`.  Values of the
    rationals are Fractions; ``fractions`` loads when the first one is
    made."""

    __slots__ = ()

    def __new__(cls, tag: str, n: int | None = None):
        if tag == "rationals":
            if n is not None:
                raise ValueError("rationals takes no modulus")
        elif tag == "prime_field":
            if n is None or not _is_prime(n):
                raise UnsupportedRingError(f"{n!r} is not prime")
        elif tag == "mod_ring":
            if n is None or n < 2:
                raise UnsupportedRingError("modulus must be at least 2")
        else:
            raise ValueError(f"unknown ring tag {tag!r}")
        return super().__new__(cls, tag, n)

    # -- element arithmetic ----------------------------------------------

    @property
    def zero(self):
        return self.normalize(0) if self.tag == "rationals" else 0

    def normalize(self, v):
        if self.tag == "rationals":
            from fractions import Fraction

            return Fraction(v)
        return int(v) % self.n

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def is_zero(self, v) -> bool:
        return self.normalize(v) == self.zero

    def label(self) -> str:
        if self.tag == "rationals":
            return "q"
        return f"gf:{self.n}" if self.tag == "prime_field" else f"mod:{self.n}"


RATIONALS = Ring("rationals")


def prime_field(p: int) -> Ring:
    return Ring("prime_field", p)


# the fields analyze reports on by default
DEFAULT_FIELDS = (RATIONALS, prime_field(2), prime_field(3))


def mod_ring(n: int) -> Ring:
    return Ring("mod_ring", n)


def _ascii_int(text: str) -> int:
    """ASCII digits as an int, else ValueError; int() also takes "+5", " 5", "1_1"."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not ASCII digits: {text!r}")
    return int(text)


def ring_from_string(text: str) -> Ring:
    """Parse the ring grammar: "q" | "gf:<prime>" | "mod:<n>", the modulus
    in ASCII digits."""
    if text == "q":
        return RATIONALS
    kind, colon, modulus = text.partition(":")
    make = {"gf": prime_field, "mod": mod_ring}.get(kind)
    if make is None or not colon:
        raise InputError(f"bad ring string {text!r} (expected q, gf:p or mod:n)")
    try:
        return make(_ascii_int(modulus))
    except ValueError:
        raise InputError(f"bad ring string {text!r}") from None


class SmithDecomposition(namedtuple("SmithDecomposition", "u s v divisors")):
    """Unimodular factorization s = u * a * v with diagonal s.

    The diagonal is ``divisors`` padded with zeros and each divisor
    divides the next.
    """

    __slots__ = ()


def _smith(rows: list[dict[int, int]], m: int, n: int) -> list[tuple[int, int]]:
    """Diagonalize the block rows[:m] x columns < n of the {column: value}
    rows in place; return the pivots (row, column) in order.

    A first pass visits the block rows once in index order, and a row that
    still holds an entry of absolute value 1 pivots on its first such
    entry.  Then each step takes an entry of least absolute value and
    clears its column and row by division with remainder.  The step is
    repeated while a remainder survives, or while the pivot fails to
    divide some other entry, whose row is then added to the pivot row
    (Dumas, Saunders and Villard, J. Symb. Comput. 32, 2001).  Pivots come
    from the block only, but row operations carry whole rows and column
    operations reach every row, so columns >= n and rows >= m ride along.
    For each pivot (i, j), rows[i][j] ends as a Smith divisor, each
    dividing the next.  A finished pivot row leaves the elimination: when
    column operations would change no other row, its other entries below
    column n are left as they are instead of being zeroed.
    """
    cols: dict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    def step(pi, pj):  # True when the step must be repeated
        prow = rows[pi]
        pivot = prow[pj]
        for j in prow:  # the pivot row leaves the index
            cols[j].discard(pi)
        for i in [i for i in cols[pj] if i < m]:  # row i -= q * pivot row
            row = rows[i]
            q = row[pj] // pivot
            for j, x in prow.items():
                y = row.get(j, 0) - q * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
        if not cols[pj] and (pivot == 1 or pivot == -1):
            prow[pj] = 1  # negating column pj changes no other row
            return False
        block = [(j, x // pivot) for j, x in prow.items() if j < n and j != pj]
        for i in cols[pj]:  # column j -= q * column pj
            row = rows[i]
            c = row[pj]
            for j, q in block:
                y = row.get(j, 0) - q * c
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
        again = min(cols[pj], default=m) < m  # a block row kept a remainder
        for j, q in block:
            x = prow[j] - q * pivot
            if x:
                prow[j] = x
                again = True
            else:
                del prow[j]
        if not again and pivot != 1 and pivot != -1:
            for i in rest:  # add a row that the pivot fails to divide
                if any(j < n and x % pivot for j, x in rows[i].items()):
                    for j, x in rows[i].items():
                        y = prow.get(j, 0) + x
                        if y:
                            prow[j] = y
                        else:
                            del prow[j]
                    again = True
                    break
        if again:  # the pivot row comes back
            for j in prow:
                cols[j].add(pi)
        elif pivot < 0:
            for j in prow:
                prow[j] = -prow[j]
        return again

    pivots = []
    for pi in range(m):
        for j, x in rows[pi].items():
            if (x == 1 or x == -1) and j < n:
                step(pi, j)
                pivots.append((pi, j))
                break
    rest = sorted(set(range(m)).difference(i for i, _ in pivots))
    while True:
        pivot = 0
        for i in rest:
            for j, x in rows[i].items():
                if j < n and (not pivot or abs(x) < pivot):
                    pi, pj, pivot = i, j, abs(x)
        if not pivot:
            break
        if not step(pi, pj):
            pivots.append((pi, pj))
            rest.remove(pi)
    return pivots


def smith_normal_form(a: IntegerMatrix) -> SmithDecomposition:
    """Smith form with its unimodular transforms; see smith_divisors when
    only the divisors are needed.  One loop runs on [a | I_m] over I_n:
    the extra columns end as u and the extra rows as v, taken in pivot
    order and then the unpivoted rows and columns in index order."""
    m, n = a.rows, a.cols
    rows = [{**dict(pairs), n + i: 1} for i, pairs in enumerate(a.sparse_rows)]
    rows += [{j: 1} for j in range(n)]
    pivots = _smith(rows, m, n)
    order = [i for i, _ in pivots]
    order += sorted(set(range(m)).difference(order))
    slot = {j: t for t, (_, j) in enumerate(pivots)}
    for j in range(n):
        slot.setdefault(j, len(slot))
    divisors = tuple(rows[i][j] for i, j in pivots)
    u = [sorted((j - n, x) for j, x in rows[i].items() if j >= n) for i in order]
    s = [((t, d),) for t, d in enumerate(divisors)] + [()] * (m - len(divisors))
    v = [sorted((slot[j], x) for j, x in row.items()) for row in rows[m:]]
    return SmithDecomposition(
        u=IntegerMatrix._make((m, m, tuple(map(tuple, u)))),
        s=IntegerMatrix._make((m, n, tuple(s))),
        v=IntegerMatrix._make((n, n, tuple(map(tuple, v)))),
        divisors=divisors,
    )


def smith_divisors(a: IntegerMatrix) -> tuple[int, ...]:
    """Smith divisors of a, without transforms.

    The rows go as {column: value} dicts through `_smith`, the package's
    one elimination loop, with nothing riding along: unit pivots first,
    in row order, then pivots of least absolute value.
    """
    rows = [dict(pairs) for pairs in a.sparse_rows]
    return tuple(rows[i][j] for i, j in _smith(rows, a.rows, a.cols))


def _field_modulus(k: Ring) -> int | None:
    """The characteristic of k when k is a field: None for Q, p for GF(p)
    and for Z/p.  This is the one place that decides which rings have a
    rank; any other Z/n raises, pointing to the ring-free homology route."""
    if k.tag == "rationals":
        return None
    if k.tag == "prime_field" or _is_prime(k.n):
        return k.n
    raise UnsupportedRingError(
        f"the rank criterion needs a field, not {k.label()}; use the "
        "homology command for a coefficient-independent classification"
    )


def rank_from_divisors(divisors, k: Ring) -> int:
    p = _field_modulus(k)
    if p is None:
        return len(divisors)
    return sum(1 for d in divisors if d % p)


def rank_over(a: IntegerMatrix, k: Ring) -> int:
    return rank_from_divisors(smith_divisors(a), k)


def _scalar_solve(d: int, c: int, k: Ring):
    """One solution of d * y = c in k, or None.  d is a positive integer.

    Over Q, y = c / d.  Over Z/n, with GF(p) the case n = p, a solution
    exists exactly when g = gcd(d, n) divides c, and then
    y = (c/g) * (d/g)^-1 mod n/g is one, in [0, n/g)."""
    if k.tag == "rationals":
        return k.normalize(c) / d
    g = gcd(d, k.n)
    if c % g:
        return None
    m = k.n // g
    return c // g * pow(d // g, -1, m) % m


def solve_linear(a: IntegerMatrix, b, k: Ring):
    """One solution vector of a * x = b in k, or None when unsolvable.

    b holds values of k (integers, or fractions over the rationals).
    Entries of the result are reduced: fractions in lowest terms,
    modular values in [0, n).
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    m, n = a.rows, a.cols
    # one loop on [a | b] over I_n: column n ends as u * b, the rows below as v
    rows = [dict(pairs) for pairs in a.sparse_rows]
    for row, c in zip(rows, map(k.normalize, b)):
        if c:
            row[n] = c
    rows += [{j: 1} for j in range(n)]
    pivots = _smith(rows, m, n)
    y = {j: _scalar_solve(rows[i][j], rows[i].get(n, 0), k) for i, j in pivots}
    done = {i for i, _ in pivots}
    if None in y.values() or any(
        not k.is_zero(rows[i].get(n, 0)) for i in range(m) if i not in done
    ):
        return None
    return [
        k.normalize(sum(x * y[j] for j, x in row.items() if j in y)) for row in rows[m:]
    ]


def kernel_basis(a: IntegerMatrix, k: Ring) -> list[list[int]]:
    """Basis of the null space of a over k, a ring with a rank (Q or Z/p).

    The vectors are integer-valued; over a prime field they are reduced
    mod p.  The basis size is cols - rank_over(a, k).
    """
    p = _field_modulus(k)
    # The bench self-test needs a smith_normal_form span under kernel_basis;
    # until the in-package tracer (ROADMAP item 1) lands, keep the call.
    dec = smith_normal_form(a)
    r = len(dec.divisors)
    idxs = [
        i
        for i in range(a.cols)
        if i >= r or (p is not None and dec.divisors[i] % p == 0)
    ]
    slot = {i: s for s, i in enumerate(idxs)}
    basis = [[0] * a.cols for _ in idxs]
    for t, row in enumerate(dec.v.sparse_rows):
        for j, x in row:
            if j in slot:
                basis[slot[j]][t] = x if p is None else x % p
    return basis

"""Transitive functions, parallel-path consistency and outer derivations.

A transitive function assigns a ring value to every strictly comparable
pair so that values add along chains.  On cover values alone, that
additivity is equivalent to the relations between parallel cover paths.
A few generate them all, as monotone path pairs present the fundamental
group of a finite space (Barmak, LNM 2032, 2011): one per element z, pair
of its down-covers w1 < w2 and maximal common lower bound m of them, and
no path is ever enumerated.  Cover values are transitive exactly when
every row sums to zero on them, so a transitive function is held as its
cover values.  The signed incidence matrix of those rows decides, by its
rank over a coefficient field, whether every transitive function is a
potential (difference of a vertex function) or outer derivations exist:
der = E - rank_k, pot = V - C (``der_pot_from_divisors``); ``relation_h1``
reads H1 as betti1 = der - pot over Q and torsion = the divisors above 1.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InputError, NotComparableError
from .linalg import (
    RATIONALS,
    IntegerMatrix,
    Ring,
    kernel_basis,
    mod_ring,
    prime_field,
    rank_from_divisors,
    smith_divisors,
    solve_linear,
)
from .poset import Poset, _minimal


class ParallelPair(namedtuple("ParallelPair", "source target path_a path_b")):
    """Two distinct upward cover paths sharing endpoints."""

    __slots__ = ()


class ConsistencyMatrix(namedtuple("ConsistencyMatrix", "matrix column_edges")):
    """Signed incidence of parallel-path relations over the cover edges.

    Row i carries +1 on the edges of ``path_a`` of the i-th pair of
    ``parallel_pairs(P)`` and -1 on the edges of ``path_b``; the two
    paths share no edge.
    """

    __slots__ = ()


class CycleWalk(namedtuple("CycleWalk", "vertices")):
    """Closed walk of pairwise-comparable consecutive elements."""

    __slots__ = ()

    def __new__(cls, vertices):
        v = tuple(vertices)
        if len(v) < 2:
            raise ValueError("a cycle walk needs at least two entries")
        if v[0] != v[-1]:
            raise ValueError("a cycle walk must end where it started")
        for a, b in zip(v, v[1:]):
            if a == b:
                raise ValueError("consecutive walk elements must differ")
        return super().__new__(cls, v)


class TransitiveFunction:
    """Ring values on the cover edges, ``values[(lower, upper)]``, with equal
    sums along parallel cover paths: f(x, z) is the sum along any of them."""

    __slots__ = ("poset", "ring", "values")

    def __init__(self, poset: Poset, ring: Ring, values: dict):
        self.poset = poset
        self.ring = ring
        self.values = dict(values)

    def __repr__(self):
        return (
            f"TransitiveFunction({self.ring.label()}, "
            f"{len(self.values)} covers)"
        )


def _route(P: Poset, x: int, z: int) -> list[tuple[int, int]]:
    """The covers (w, v) of the reference path from x up to z, upward.

    Walked down from z, each v steps to its first down-cover in
    {x} | cone(x), in index order.
    """
    inside = P.above[x] | 1 << x
    steps = []
    while z != x:
        for w in P.down_covers[z]:
            if inside >> w & 1:
                break
        steps.append((w, z))
        z = w
    return steps[::-1]


def _relations_into(P: Poset, z: int, col: dict):
    """Yield (m, path_a, path_b) for each relation into z, paths as ``col``
    columns upward: for each pair w1 < w2 of z's down-covers and each
    maximal common lower bound m of them, the reference paths from m to
    w1 and to w2, each followed by its cover into z."""
    names = P.elements

    def path(m, w):
        return [col[names[a], names[b]] for a, b in _route(P, m, w) + [(w, z)]]

    downs = P.down_covers[z]
    for i, w1 in enumerate(downs):
        for w2 in downs[i + 1 :]:
            for m in _minimal(P.below[w1] & P.below[w2], P.above):
                yield m, path(m, w1), path(m, w2)


def _every_relation(P: Poset) -> list[tuple]:
    """(m, z, path_a, path_b) for each relation of ``_relations_into``,
    ordered by m, then z, then the down-cover pair."""
    col = {edge: c for c, edge in enumerate(P.covers)}
    found = [(m, z, a, b) for z in range(P.n) for m, a, b in _relations_into(P, z, col)]
    found.sort(key=lambda r: r[:2])  # stable, so pairs keep their order
    return found


def _row(path_a, path_b) -> tuple:
    """The sparse row +path_a - path_b; the two paths share no cover."""
    return tuple(sorted([(c, 1) for c in path_a] + [(c, -1) for c in path_b]))


def parallel_pairs(P: Poset) -> list[ParallelPair]:
    """One relation per pair of down-covers and maximal common lower bound.

    For each z, each pair w1 < w2 of its down-covers and each maximal
    element m of below(w1) & below(w2), the pair (m, z) has path_a =
    ref(m, w1) + (w1, z) and path_b = ref(m, w2) + (w2, z).  The
    reference path ref(m, w) is walked down from w, each step to the
    smallest-index down-cover in {m} | cone(m).  Pairs come ordered by
    source index, then target index, then (w1, w2).  The two paths share
    no element but m and z: another would be a common lower bound of w1
    and w2 above m.

    These rows span the same Z-lattice as the relations between all
    pairs of parallel cover paths.  Each row is such a relation.
    Conversely, any two cover paths from x to z are congruent modulo the
    rows, by induction on the size of the interval [x, z].  If both end
    with the same cover (w, z), their prefixes are congruent inside the
    smaller [x, w] (or both empty when w = x).  If they end with (w1, z)
    and (w2, z), w1 != w2, then x is a common lower bound of w1 and w2,
    so it lies below or at some maximal one, m.  By induction inside the
    smaller [x, w1] and [x, w2], the first path is congruent to any path
    x -> m followed by ref(m, w1) + (w1, z), and the second to the same
    path x -> m followed by ref(m, w2) + (w2, z); the two differ by the
    row of (m, z, w1, w2).  So the Smith divisors of the relation matrix
    are those of all parallel-path relations.  There are at most
    sum over z of C(d_z, 2) * |maximal common lower bounds| rows, where
    d_z is the number of down-covers of z.
    """
    names, edges = P.elements, P.covers
    return [
        ParallelPair(names[m], names[z], tuple(edges[c] for c in a), tuple(edges[c] for c in b))
        for m, z, a, b in _every_relation(P)
    ]


def consistency_matrix(P: Poset) -> ConsistencyMatrix:
    rows = tuple(_row(a, b) for *_, a, b in _every_relation(P))
    return ConsistencyMatrix(
        matrix=IntegerMatrix._make((len(rows), len(P.covers), rows)),
        column_edges=P.covers,
    )


def relation_rows_into(P: Poset, z: int) -> list[tuple]:
    """The sparse rows of ``consistency_matrix(P)`` whose pair ends at z,
    by down-cover pair, then source."""
    col = {edge: c for c, edge in enumerate(P.covers)}
    return [_row(a, b) for _, a, b in _relations_into(P, z, col)]


def relation_divisors(P: Poset) -> tuple[int, ...]:
    """Smith divisors of the consistency matrix; they fix der over every field."""
    return smith_divisors(consistency_matrix(P).matrix)


def der_pot_from_divisors(P: Poset, divisors, k: Ring) -> tuple[int, int]:
    """der = E - rank_k(consistency matrix), pot = V - C."""
    return len(P.covers) - rank_from_divisors(divisors, k), P.n - P.component_count


def has_outer_derivation(P: Poset, k: Ring) -> bool:
    der, pot = der_pot_from_divisors(P, relation_divisors(P), k)
    return der > pot


def relation_h1(P: Poset, divisors) -> tuple[int, tuple[int, ...]]:
    """(betti1, torsion1) of P read off the Smith divisors of its relation
    matrix, whose cokernel Z^E / rows is H1 + Z^(V - C): betti1 is der - pot
    over the rationals, and the torsion is the divisors above 1."""
    der, pot = der_pot_from_divisors(P, divisors, RATIONALS)
    return der - pot, tuple(d for d in divisors if d > 1)


def routes_agree(P: Poset, verdict, divisors) -> bool:
    """The cross-route identity: H1 from the relation divisors of P is the
    verdict's.  The rank over GF(p) counts the divisors p does not divide,
    so it implies der - pot = betti1 + #{torsion that char k divides} over
    every field k."""
    return relation_h1(P, divisors) == (verdict.betti1, verdict.torsion1)


def from_cover_values(P: Poset, ring: Ring, cover_values: dict):
    """The transitive function with these cover values, or None when a
    relation of ``consistency_matrix(P)`` does not sum to zero on them."""
    values = {}
    for edge in P.covers:
        if edge not in cover_values:
            raise InputError(f"cover edge {edge!r} has no assigned value")
        values[edge] = ring.normalize(cover_values[edge])
    for lo, hi in cover_values:
        P.index(lo), P.index(hi)  # an unknown element is reported as such
        if (lo, hi) not in values:
            raise InputError(f"pair {(lo, hi)!r} is not a cover edge")
    column = list(values.values())
    col = {edge: c for c, edge in enumerate(P.covers)}
    for z in range(P.n):
        for _, a, b in _relations_into(P, z, col):
            if not ring.is_zero(sum(column[c] for c in a) - sum(column[c] for c in b)):
                return None
    return TransitiveFunction(P, ring, values)


def is_potential(f: TransitiveFunction):
    """Vertex potential inducing f, or None when f is an outer derivation.

    Solves phi(y) - phi(x) = f(x, y) over the cover edges in f's ring and
    gauge-fixes the first element of each component to zero; additivity
    then covers every strict pair automatically.
    """
    P = f.poset
    ring = f.ring
    n = P.n
    rows = tuple(
        tuple(sorted(((P.index(lo), -1), (P.index(hi), 1)))) for lo, hi in P.covers
    )
    rhs = [f.values[edge] for edge in P.covers]
    a = IntegerMatrix._make((len(P.covers), n, rows))

    sol = solve_linear(a, rhs, ring)
    if sol is None:
        return None

    comp = P.component_ids
    first: dict[int, int] = {}
    for i in range(n):
        first.setdefault(comp[i], i)
    return {
        P.elements[i]: ring.sub(sol[i], sol[first[comp[i]]]) for i in range(n)
    }


def circulation(f: TransitiveFunction, C: CycleWalk):
    """Signed sum of f along a closed walk of comparable steps.

    A step's value is the sum along its reference path, the ``_route``
    that the relations use.
    """
    P = f.poset
    names = P.elements
    total = 0
    for a, b in zip(C.vertices, C.vertices[1:]):
        lo, hi, sign = P.index(a), P.index(b), 1
        if P.below[lo] >> hi & 1:
            lo, hi, sign = hi, lo, -1
        elif not P.above[lo] >> hi & 1:
            raise NotComparableError(f"{a!r} and {b!r} are not comparable")
        total += sign * sum(f.values[names[w], names[v]] for w, v in _route(P, lo, hi))
    return f.ring.normalize(total)


def outer_witness(P: Poset, p: int):
    """A concrete outer derivation over Z/p, or None when none exists.

    Scans the kernel basis of the consistency matrix over GF(p) in
    deterministic order and returns the first member that fails the
    potential test.  Witnesses are not unique.
    """
    cm = consistency_matrix(P)
    basis = kernel_basis(cm.matrix, prime_field(p))
    # len(basis) = E - rank_p = der; pot = V - C
    if len(basis) <= P.n - P.component_count:
        return None
    ring = mod_ring(p)
    for vec in basis:
        assignment = {edge: vec[c] for c, edge in enumerate(cm.column_edges)}
        f = from_cover_values(P, ring, assignment)
        assert f is not None, "kernel vector must satisfy all relations"
        if is_potential(f) is None:
            return f
    raise AssertionError("dimension count guarantees a non-potential kernel vector")

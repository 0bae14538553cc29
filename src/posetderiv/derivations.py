"""Transitive functions, parallel-path consistency and outer derivations.

A transitive function assigns a ring value to every strictly comparable
pair so that values add along chains.  On cover values alone, that
additivity is equivalent to the relations between parallel cover paths.
One reference path per comparable pair generates them all: each extra
incoming cover inside an upward cone gives one row, at most V * E rows
in total, and no path is ever enumerated.  The signed incidence matrix
of those rows decides, by its rank over a coefficient field, whether
every transitive function is a potential (difference of a vertex
function) or outer derivations exist: der = E - rank_k, pot = V - C.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InputError, NotComparableError, UnsupportedRingError
from .linalg import (
    IntegerMatrix,
    Ring,
    kernel_basis,
    mod_ring,
    prime_field,
    rank_from_divisors,
    smith_divisors,
    solve_linear,
)
from .poset import Poset, _bits


class ParallelPair(namedtuple("ParallelPair", "source target path_a path_b")):
    """Two distinct upward cover paths sharing endpoints."""

    __slots__ = ()


class ConsistencyMatrix(namedtuple("ConsistencyMatrix", "matrix column_edges")):
    """Signed incidence of parallel-path relations over the cover edges.

    Row i carries +1 on the edges of ``path_a`` of the i-th pair of
    ``parallel_pairs(P)`` and -1 on the edges of ``path_b``; an edge on
    both paths nets 0.
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
    """Ring values on every strictly comparable pair, additive on chains."""

    __slots__ = ("poset", "ring", "values")

    def __init__(self, poset: Poset, ring: Ring, values: dict):
        self.poset = poset
        self.ring = ring
        self.values = dict(values)

    def value(self, x: str, y: str):
        try:
            return self.values[(x, y)]
        except KeyError:
            raise NotComparableError(f"{x!r} < {y!r} does not hold") from None

    def __repr__(self):
        return (
            f"TransitiveFunction({self.ring.label()}, "
            f"{len(self.values)} pairs)"
        )


def _inner_covers(P: Poset, inside: int, z: int) -> list[int]:
    """The down-covers of z in ``inside`` = {x} | cone(x), in index order.

    The first, w0, is the last step of the reference path:
    ref(x, z) = ref(x, w0) + (w0, z).
    """
    return [w for w in P.down_covers[z] if inside >> w & 1]


def _cone_walk(P: Poset, x: int):
    """Yield each z above x in topological order, with ``_inner_covers``."""
    cone = P.above[x]
    inside = cone | (1 << x)
    for z in P.topological_order:
        if (cone >> z) & 1:
            yield z, _inner_covers(P, inside, z)


def _relations(P: Poset, x: int, targets, col: dict):
    """Yield (z, ref(x, z), ref(x, w) + (w, z)) for each relation of source x
    into ``targets`` (ascending, above x), paths as ``col`` columns upward.

    Each ref(x, w) is walked back through first inner covers only until it
    meets a path already kept for x, and every path built is kept.  The
    store starts at the first target with two inner covers: most sources
    have no relation into a given target.
    """
    names = P.elements
    inside = P.above[x] | 1 << x
    ref = None
    for z in targets:
        inner = _inner_covers(P, inside, z)
        if len(inner) < 2:
            continue
        if ref is None:
            ref = {x: ()}
        for w in inner:
            steps = []
            while w not in ref:
                v = _inner_covers(P, inside, w)[0]
                steps.append((v, w))
                w = v
            for v, w in reversed(steps):
                ref[w] = ref[v] + (col[(names[v], names[w])],)
        w0, *rest = inner
        ref[z] = path_a = ref[w0] + (col[(names[w0], names[z])],)
        for w in rest:
            yield z, path_a, ref[w] + (col[(names[w], names[z])],)


# The (column, +-1) entries of relation rows, shared: a sweep keeps a whole
# level's rows, and few distinct entries recur.
_ENTRIES: dict = {}


def _row(path_a, path_b) -> tuple:
    """The sparse row +path_a - path_b; a column on both nets 0."""
    acc = dict.fromkeys(path_a, 1)
    for c in path_b:
        acc[c] = acc.get(c, 0) - 1
    return tuple(sorted(_ENTRIES.setdefault(e, e) for e in acc.items() if e[1]))


def parallel_pairs(P: Poset) -> list[ParallelPair]:
    """One relation per extra incoming cover inside each upward cone.

    For every source x, a reference path ref(x, z) is fixed for each z
    in the cone of x: ref(x, z) = ref(x, w0) + (w0, z), where w0 is the
    smallest-index down-cover of z in {x} | cone(x).  Every other such
    down-cover w yields the pair (x, z) with path_a = ref(x, z) and
    path_b = ref(x, w) + (w, z).  Rows come ordered by source index,
    then target index, then w.

    These rows span the same Z-lattice as the relations between all
    pairs of parallel cover paths.  Each row is such a relation.
    Conversely, every cover path p from x to z is congruent to
    ref(x, z) modulo the rows, by induction on z in topological order:
    p ends with some cover (w, z), its prefix is congruent to ref(x, w)
    by induction (or empty when w = x), and ref(x, w) + (w, z) is either
    ref(x, z) itself (w = w0) or differs from it by one row.  So any two
    parallel paths differ by a combination of rows, and the Smith
    divisors of the relation matrix are unchanged.  A pair (x, z) gives
    one row fewer than the covers entering z from within the cone, never
    more than its number of paths minus one; in total at most V * E.
    """
    names, edges = P.elements, P.covers
    col = {edge: c for c, edge in enumerate(edges)}
    return [
        ParallelPair(names[x], names[z], tuple(edges[c] for c in a), tuple(edges[c] for c in b))
        for x in range(P.n)
        for z, a, b in _relations(P, x, _bits(P.above[x]), col)
    ]


def consistency_matrix(P: Poset) -> ConsistencyMatrix:
    col = {edge: c for c, edge in enumerate(P.covers)}
    rows = tuple(
        _row(a, b) for x in range(P.n) for _, a, b in _relations(P, x, _bits(P.above[x]), col)
    )
    return ConsistencyMatrix(
        matrix=IntegerMatrix._make((len(rows), len(col), rows)),
        column_edges=P.covers,
    )


def relation_rows_into(P: Poset, z: int) -> list[tuple]:
    """The sparse rows of ``consistency_matrix(P)`` whose pair ends at z,
    in source order."""
    if len(P.down_covers[z]) < 2:
        return []
    col = {edge: c for c, edge in enumerate(P.covers)}
    return [_row(a, b) for x in _bits(P.below[z]) for _, a, b in _relations(P, x, (z,), col)]


def relation_divisors(P: Poset) -> tuple[int, ...]:
    """Smith divisors of the consistency matrix; they fix der over every field."""
    return smith_divisors(consistency_matrix(P).matrix)


def der_pot_from_divisors(P: Poset, divisors, k: Ring) -> tuple[int, int]:
    """der = E - rank_k(consistency matrix), pot = V - C."""
    return len(P.covers) - rank_from_divisors(divisors, k), P.n - P.component_count


def der_pot_dims(P: Poset, k: Ring) -> tuple[int, int]:
    """Dimensions of the transitive-function and potential-function spaces."""
    return der_pot_from_divisors(P, relation_divisors(P), k)


def has_outer_derivation(P: Poset, k: Ring) -> bool:
    der, pot = der_pot_dims(P, k)
    return der > pot


_FUNCTION_RINGS = ("rationals", "prime_field", "mod_ring")


def from_cover_values(P: Poset, ring: Ring, cover_values: dict):
    """Extend cover values to a transitive function, or None if inconsistent.

    The check walks each upward cone once: a value for (x, z) computed
    through one incoming cover of z must agree with every other incoming
    cover inside the cone.  That edge-wise agreement is equivalent to all
    parallel-path relations, without enumerating paths.
    """
    if ring.tag not in _FUNCTION_RINGS:
        raise UnsupportedRingError(
            f"transitive functions over {ring.label()} are not supported"
        )
    cv: dict[tuple[int, int], object] = {}
    for edge in P.covers:
        if edge not in cover_values:
            raise InputError(f"cover edge {edge!r} has no assigned value")
        cv[(P.index(edge[0]), P.index(edge[1]))] = ring.normalize(cover_values[edge])
    for edge in cover_values:
        lo, hi = edge
        if (P.index(lo), P.index(hi)) not in cv:
            raise InputError(f"pair {edge!r} is not a cover edge")

    names = P.elements
    values: dict[tuple[str, str], object] = {}
    for i in range(P.n):
        local = {i: ring.zero}
        for j, downs in _cone_walk(P, i):
            val = None
            for w in downs:
                cand = ring.add(local[w], cv[(w, j)])
                if val is None:
                    val = cand
                elif cand != val:
                    return None
            local[j] = val
            values[(names[i], names[j])] = val
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
    if not P.covers:
        return {x: ring.zero for x in P.elements}

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
    """Signed sum of f along a closed walk of comparable steps."""
    P = f.poset
    ring = f.ring
    total = ring.zero
    verts = C.vertices
    for a, b in zip(verts, verts[1:]):
        ia, ib = P.index(a), P.index(b)
        if P.above[ia] >> ib & 1:
            total = ring.add(total, f.values[(a, b)])
        elif P.below[ia] >> ib & 1:
            total = ring.sub(total, f.values[(b, a)])
        else:
            raise NotComparableError(f"{a!r} and {b!r} are not comparable")
    return total


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

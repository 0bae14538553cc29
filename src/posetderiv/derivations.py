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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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

Edge = tuple[str, str]


@dataclass(frozen=True)
class ParallelPair:
    """Two distinct upward cover paths sharing endpoints."""

    source: str
    target: str
    path_a: tuple[Edge, ...]
    path_b: tuple[Edge, ...]


@dataclass(frozen=True)
class ConsistencyMatrix:
    """Signed incidence of parallel-path relations over the cover edges.

    Row i carries +1 on the edges of ``row_pairs[i].path_a`` and -1 on
    the edges of ``path_b``; an edge on both paths nets 0.
    """

    matrix: IntegerMatrix
    column_edges: tuple[Edge, ...]
    row_pairs: tuple[ParallelPair, ...]


@dataclass(frozen=True)
class CycleWalk:
    """Closed walk of pairwise-comparable consecutive elements."""

    vertices: tuple[str, ...]

    def __post_init__(self):
        v = tuple(self.vertices)
        object.__setattr__(self, "vertices", v)
        if len(v) < 2:
            raise ValueError("a cycle walk needs at least two entries")
        if v[0] != v[-1]:
            raise ValueError("a cycle walk must end where it started")
        for a, b in zip(v, v[1:]):
            if a == b:
                raise ValueError("consecutive walk elements must differ")


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

    def cover_values(self) -> dict:
        return {edge: self.values[edge] for edge in self.poset.covers}

    def __repr__(self):
        return (
            f"TransitiveFunction({self.ring.label()}, "
            f"{len(self.values)} pairs)"
        )


def parallel_pairs(P: Poset) -> list[ParallelPair]:
    """One relation per extra incoming cover inside each upward cone.

    For every source x, a reference path ref(x, z) is fixed for each z
    in the cone of x by walking the cone in topological order:
    ref(x, z) = ref(x, w0) + (w0, z), where w0 is the smallest-index
    down-cover of z in {x} | cone(x).  Every other such down-cover w
    yields the pair (x, z) with path_a = ref(x, z) and
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
    out = []
    names = P.elements
    topo = P.topological_order()
    for x in range(P.n):
        cone = P.above_mask(x)
        inside = cone | (1 << x)
        ref: dict[int, tuple[Edge, ...]] = {x: ()}
        extra: dict[int, list[int]] = {}
        for z in topo:
            if not (cone >> z) & 1:
                continue
            w0, *rest = (w for w in P.down_covers_idx(z) if (inside >> w) & 1)
            ref[z] = ref[w0] + ((names[w0], names[z]),)
            extra[z] = rest
        for z in _bits(cone):
            for w in extra[z]:
                out.append(
                    ParallelPair(
                        source=names[x],
                        target=names[z],
                        path_a=ref[z],
                        path_b=ref[w] + ((names[w], names[z]),),
                    )
                )
    return out


def consistency_matrix(P: Poset) -> ConsistencyMatrix:
    pairs = parallel_pairs(P)
    col = {edge: c for c, edge in enumerate(P.covers)}
    ncols = len(P.covers)
    entries = [0] * (len(pairs) * ncols)
    for r, pair in enumerate(pairs):
        base = r * ncols
        for edge in pair.path_a:
            entries[base + col[edge]] += 1
        for edge in pair.path_b:
            entries[base + col[edge]] -= 1
    return ConsistencyMatrix(
        matrix=IntegerMatrix(len(pairs), ncols, tuple(entries)),
        column_edges=P.covers,
        row_pairs=tuple(pairs),
    )


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
    topo = P.topological_order()
    for i in range(P.n):
        local = {i: ring.zero}
        for j in topo:
            if not P.is_less_idx(i, j):
                continue
            val = None
            for w in P.down_covers_idx(j):
                if w == i or P.is_less_idx(i, w):
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
    ncov = len(P.covers)
    if ncov == 0:
        return {x: ring.zero for x in P.elements}

    entries = [0] * (ncov * n)
    rhs = []
    for r, (lo, hi) in enumerate(P.covers):
        entries[r * n + P.index(lo)] = -1
        entries[r * n + P.index(hi)] = 1
        rhs.append(f.values[(lo, hi)])
    a = IntegerMatrix(ncov, n, tuple(entries))

    if ring.tag == "rationals":
        scale = lcm(*(Fraction(v).denominator for v in rhs)) if rhs else 1
        b = [int(Fraction(v) * scale) for v in rhs]
        sol = solve_linear(a, b, ring)
        if sol is None:
            return None
        sol = [v / scale for v in sol]
    else:
        sol = solve_linear(a, [int(v) for v in rhs], ring)
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
        if P.is_less_idx(ia, ib):
            total = ring.add(total, f.values[(a, b)])
        elif P.is_less_idx(ib, ia):
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

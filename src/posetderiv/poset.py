"""Finite posets presented by their Hasse diagram, plus order queries.

Conventions used throughout the package:

- A cover pair ``(x, y)`` means ``y`` covers ``x``; pairs point upward.
- Height counts the *elements* of a longest chain: a single point has
  height 1 and every antichain has height 1.
- An isolated element is both minimal and maximal and contributes to both
  counts.
- Input covers must already be transitively reduced; redundant pairs are
  rejected, never dropped silently.  ``transitive_reduction`` performs an
  explicit reduction for callers that want one.

One rule gives covers, beat points, cores, joins and meets: i is minimal
in a bitmask set S iff ``below[i] & S`` is empty (``_minimal``; the
``above`` masks give the maximal elements).  The covers of i inside S are
the minimal elements of ``above[i] & S``; i is a beat point of S iff
``below[i] & S`` has one maximal or ``above[i] & S`` one minimal element;
a join (meet) is the least upper (greatest lower) bound, which ``_least``
finds by walking down to one minimal element and checking it against S.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import (
    CycleError,
    DuplicateError,
    InputError,
    NotReducedError,
    SizeLimitError,
    UnknownElementError,
)


class Relation(Enum):
    """Outcome of comparing two elements."""

    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class ShapeStats(
    namedtuple(
        "ShapeStats",
        "vertex_count edge_count component_count height minimal_count "
        "maximal_count middle_count",
    )
):
    """Basic counting invariants of a poset.

    ``minimal_count + maximal_count + middle_count`` exceeds
    ``vertex_count`` by exactly the number of isolated elements.
    """

    __slots__ = ()


class Crown(namedtuple("Crown", "lower upper join meet")):
    """A two-level cyclic subposet on ``2n`` elements, ``n >= 2``.

    The only comparabilities among the elements are ``lower[i] < upper[i]``
    and ``lower[i] < upper[(i + 1) % n]``.  ``join`` and ``meet`` are the
    join and meet of the element set in the poset, or None.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.lower)

    def element_set(self) -> frozenset[str]:
        return frozenset(self.lower) | frozenset(self.upper)


def _bits(mask: int):
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _minimal(mask: int, below) -> list[int]:
    """Ascending indices of the minimal elements of ``mask`` under ``below``."""
    return [i for i in _bits(mask) if not below[i] & mask]


class Poset:
    """Immutable finite poset with precomputed strict-order bitmasks.

    Construction validates the cover list completely: distinct known
    identifiers, no self-pairs or duplicates, acyclic, transitively
    reduced.  The order lives in read-only attributes: ``above[i]`` and
    ``below[i]`` (bitmasks of the elements strictly above and below i),
    ``down_covers[i]`` (ascending), ``topological_order``, ``component_ids``
    (a component number per element) and ``component_count``.
    """

    __slots__ = (
        "elements",
        "covers",
        "_index",
        "above",
        "below",
        "down_covers",
        "topological_order",
        "component_ids",
        "component_count",
    )

    def __init__(self, elements, covers):
        elems, index, pairs, up, down = _index_covers(elements, covers, True)
        up = [sorted(s) for s in up]
        down = [sorted(s) for s in down]

        topo, above, below = _closure(up, down)

        for lo, hi in pairs:
            i, j = index[lo], index[hi]
            if above[i] & below[j]:
                raise NotReducedError(
                    f"cover pair ({lo!r}, {hi!r}) is implied by a longer chain"
                )
        self._fill(elems, tuple(pairs), index, above, below, up, down, topo)

    @classmethod
    def _from_masks(cls, elements, covers, above, below, down_covers):
        """Trusted construction from the masks and the ascending lower covers
        of a valid order: checks nothing, equals ``Poset(elements, covers)``."""
        up = [[] for _ in elements]
        for j, lows in enumerate(down_covers):
            for i in lows:
                up[i].append(j)
        P = cls.__new__(cls)
        index = dict(zip(elements, range(len(elements))))
        P._fill(elements, covers, index, above, below, up, down_covers, _kahn(up, down_covers))
        return P

    def _fill(self, elements, covers, index, above, below, up, down, topo):
        self.elements = elements
        self.covers = covers
        self._index = index
        self.above = tuple(above)
        self.below = tuple(below)
        self.down_covers = tuple(map(tuple, down))
        self.topological_order = tuple(topo)
        self.component_ids, self.component_count = _components(up, down)

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElementError(f"unknown element {x!r}") from None

    def strict_pairs(self):
        """Yield all (x, y) with x < y, ordered by element indices."""
        for i in range(self.n):
            for j in _bits(self.above[i]):
                yield (self.elements[i], self.elements[j])

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.covers == other.covers

    def __hash__(self):
        return hash((self.elements, self.covers))

    def __repr__(self):
        return f"Poset({self.n} elements, {len(self.covers)} covers)"


def _index_covers(elements, covers, reject_repeats: bool):
    """Index elements and cover pairs in one pass over the pairs.

    Returns the elements as a tuple, their index, the pairs as given and
    the sets of upper and lower neighbours of each element.  Raises
    DuplicateError on a repeated element (and, with reject_repeats, on a
    repeated pair), UnknownElementError and CycleError on a self-pair.
    """
    elems = tuple(elements)
    index: dict[str, int] = {}
    for e in elems:
        if e in index:
            raise DuplicateError(f"duplicate element {e!r}")
        index[e] = len(index)
    pairs = []
    up: list[set[int]] = [set() for _ in elems]
    down: list[set[int]] = [set() for _ in elems]
    for lo, hi in covers:
        if lo not in index:
            raise UnknownElementError(f"unknown element {lo!r} in covers")
        if hi not in index:
            raise UnknownElementError(f"unknown element {hi!r} in covers")
        if lo == hi:
            raise CycleError(f"self-pair on {lo!r}")
        i, j = index[lo], index[hi]
        if reject_repeats and j in up[i]:
            raise DuplicateError(f"duplicate cover pair ({lo!r}, {hi!r})")
        pairs.append((lo, hi))
        up[i].add(j)
        down[j].add(i)
    return elems, index, pairs, up, down


def _kahn(up, down) -> list[int]:
    """Kahn's topological order (sources in index order, then first in first
    out, upper neighbours as listed); raises CycleError on a directed cycle."""
    indeg = list(map(len, down))
    order = [i for i, d in enumerate(indeg) if not d]
    for cur in order:  # order grows while it is walked: it is the queue
        for nb in up[cur]:
            indeg[nb] -= 1
            if indeg[nb] == 0:
                order.append(nb)
    if len(order) != len(up):
        raise CycleError("cover relation contains a directed cycle")
    return order


def _components(up, down) -> tuple[tuple[int, ...], int]:
    """Component number of each element, in order of the components' first
    elements, and the number of components."""
    component = [-1] * len(up)
    next_id = 0
    for start, label in enumerate(component):  # sees the labels set below
        if label >= 0:
            continue
        component[start] = next_id
        reached = [start]
        for cur in reached:  # reached grows while it is walked
            for nbs in (up[cur], down[cur]):
                for nb in nbs:
                    if component[nb] < 0:
                        component[nb] = next_id
                        reached.append(nb)
        next_id += 1
    return tuple(component), next_id


def _closure(up, down) -> tuple[list[int], list[int], list[int]]:
    """Topological order and strict above/below bitmasks of a cover DAG.

    ``up[i]`` and ``down[i]`` list the upper and lower neighbours of i.
    Raises CycleError when the relation has a directed cycle.
    """
    n = len(up)
    order = _kahn(up, down)
    above = [0] * n
    for i in reversed(order):
        mask = 0
        for j in up[i]:
            mask |= (1 << j) | above[j]
        above[i] = mask
    below = [0] * n
    for i in order:
        mask = 0
        for j in down[i]:
            mask |= (1 << j) | below[j]
        below[i] = mask
    return order, above, below


def transitive_reduction(elements, pairs) -> list[tuple[str, str]]:
    """Reduce an arbitrary acyclic relation to its cover pairs.

    Accepts pairs that are redundant or duplicated, closes them
    transitively, and returns the covers of the resulting order in
    element-index order.  Raises CycleError on cyclic input.
    """
    elems, _, _, up, down = _index_covers(elements, pairs, False)
    n = len(elems)
    _, above, below = _closure(up, down)
    return [(elems[i], elems[j]) for i in range(n) for j in _minimal(above[i], below)]


def leq(P: Poset, x: str, y: str) -> Relation:
    """Four-way comparison of two elements in the derived order."""
    i, j = P.index(x), P.index(y)
    if i == j:
        return Relation.EQUAL
    if P.above[i] >> j & 1:
        return Relation.LESS
    if P.below[i] >> j & 1:
        return Relation.GREATER
    return Relation.INCOMPARABLE


def shape_stats(P: Poset) -> ShapeStats:
    n, above, below = P.n, P.above, P.below
    minimal = below.count(0)
    maximal = above.count(0)
    middle = sum(1 for i in range(n) if below[i] and above[i])
    height = [0] * n
    best = 0
    for i in P.topological_order:
        h = 1
        for j in P.down_covers[i]:
            if height[j] + 1 > h:
                h = height[j] + 1
        height[i] = h
        if h > best:
            best = h
    return ShapeStats(
        vertex_count=n,
        edge_count=len(P.covers),
        component_count=P.component_count,
        height=best,
        minimal_count=minimal,
        maximal_count=maximal,
        middle_count=middle,
    )


def _beat_points(alive: int, above, below):
    """Yield the beat points of the subposet on the bitmask ``alive``, ascending.

    A finite set has one maximal element iff it has a greatest element,
    which ``_least`` finds without listing the maximal elements.
    """
    for i in _bits(alive):
        if (
            _least(below[i] & alive, above, below) is not None
            or _least(above[i] & alive, below, above) is not None
        ):
            yield i


def beat_points(P: Poset) -> list[str]:
    """Elements that cover exactly one element or are covered by exactly one."""
    full = (1 << P.n) - 1
    return [P.elements[i] for i in _beat_points(full, P.above, P.below)]


def core(P: Poset) -> Poset:
    """Remove beat points (first in element order) until none remain.

    Walks a bitmask of the surviving elements and builds one poset at the
    end from their masks, renumbered, or returns P itself when it has no
    beat point.
    """
    above, below = P.above, P.below
    full = alive = (1 << P.n) - 1
    while (beat := next(_beat_points(alive, above, below), None)) is not None:
        alive ^= 1 << beat
    if alive == full:
        return P
    keep = list(_bits(alive))
    pos = {i: k for k, i in enumerate(keep)}
    up = [sum(1 << pos[j] for j in _bits(above[i] & alive)) for i in keep]
    down = [sum(1 << pos[j] for j in _bits(below[i] & alive)) for i in keep]
    names = tuple(P.elements[i] for i in keep)
    covers = tuple((names[i], names[j]) for i, mask in enumerate(up) for j in _minimal(mask, down))
    return Poset._from_masks(names, covers, up, down, [_minimal(m, up) for m in down])


def find_crowns(P: Poset, max_n: int = 6) -> list[Crown]:
    """All induced crown subposets with 2 <= n <= max_n, with their joins and meets.

    A depth-first walk on the order bitmasks goes up and down from the anchor,
    the smallest lower, until an upper above the anchor closes the cycle.  Only
    the direction whose first upper is smaller than its closing upper counts, so
    each crown is found once, up to rotation and reflection, and a walk stops
    once no such closing upper is left.  Crowns come sorted by n, then by the
    indices of their lowers and uppers.  Every lower lies below an upper, so a
    crown's join is the join of its uppers and its meet the meet of its lowers;
    ``_Bounds`` caches both by bitmask.
    """
    if max_n < 2:
        raise InputError(f"crown size must be >= 2, got {max_n}")
    above, below, names = P.above, P.below, P.elements
    joins, meets = _Bounds(above, below, names), _Bounds(below, above, names)
    # near[i]: i and everything comparable to it
    near = [up | down | 1 << i for i, (up, down) in enumerate(zip(above, below))]
    walks = []
    stack = []  # walk states, depth first: a stack, so no depth limit applies
    for a in range(P.n):
        lower_ok = ~near[a] & -(2 << a)
        for v in _bits(above[a]):
            if closers := above[a] & -(2 << v) & ~near[v]:
                for u in _bits(below[v] & lower_ok):  # near[v] has a, below[a]
                    stack.append(((a, u), (v,), (names[a], names[u]), (names[v],),
                                  1 << a | 1 << u, 1 << v, near[v], closers))
    while stack:
        lowers, uppers, lnames, unames, lmask, umask, block, closers = stack.pop()
        # block: the placed elements and all below a lower, above an earlier middle
        # lower or comparable to an upper; closers: the rest above the anchor after uppers[0]
        up = above[lowers[-1]]
        if found := up & closers:
            n, meet = len(lowers), meets[lmask]
            for v in _bits(found):
                # (v,) + uppers puts lower[i] below upper[i] and upper[i + 1]
                uppers_v, unames_v = (v,) + uppers, (names[v],) + unames
                walks.append((n, lowers, uppers_v, lnames, unames_v, joins[umask | 1 << v], meet))
        # lowers[-1] turns into a middle lower: nothing above it closes the crown,
        # and a middle upper is not above the anchor, so neither is its new lower
        if len(lowers) == max_n or not (closers := closers & ~up):
            continue
        middle = up & ~(block | above[lowers[0]])
        block |= up
        lower_ok = ~block & -(2 << lowers[0])  # free and after the anchor
        for v in _bits(middle):
            if vclosers := closers & ~near[v]:
                uppers_v, unames_v = uppers + (v,), unames + (names[v],)
                for u in _bits(below[v] & lower_ok):
                    stack.append((lowers + (u,), uppers_v, lnames + (names[u],), unames_v,
                                  lmask | 1 << u, umask | 1 << v, block | near[v], vclosers))
    # walks differ in their lowers or uppers, so sorting compares only indices
    walks.sort()
    return [Crown(*walk[3:]) for walk in walks]


class _Bounds(dict):
    """Joins of nonempty bitmask sets, each computed on its first lookup;
    ``(below, above)`` gives meets."""

    def __init__(self, above, below, names):
        self.order = above, below, names

    def __missing__(self, mask: int) -> str | None:
        above, below, names = self.order
        bounds = -1
        for i in _bits(mask):
            bounds &= above[i] | (1 << i)
        least = _least(bounds, below, above)
        bound = self[mask] = None if least is None else names[least]
        return bound


def _least(mask: int, below, above) -> int | None:
    """The least element of a bitmask set, or None; ``(above, below)`` gives the greatest."""
    if not mask:
        return None
    i = (mask & -mask).bit_length() - 1
    while lower := below[i] & mask:
        # step to the end of ``lower`` away from i: on a topological labeling
        # that element is already minimal in mask, in either direction
        i = lower.bit_length() - 1 if lower >> i else (lower & -lower).bit_length() - 1
    # i is minimal in mask, so it is the least element if there is one
    return None if mask & ~(above[i] | (1 << i)) else i


def join_meet(P: Poset, subset) -> tuple[str | None, str | None]:
    """Least upper bound and greatest lower bound of a set, or None each."""
    mask = 0
    for x in subset:
        mask |= 1 << P.index(x)
    if not mask:
        raise ValueError("subset must be nonempty")
    above, below, names = P.above, P.below, P.elements
    return _Bounds(above, below, names)[mask], _Bounds(below, above, names)[mask]


def _refine(part: list[int], cells: int, queue: list[int], above, below) -> int:
    """Refine the ordered cell partition ``part`` in place until it is equitable.

    ``part[s]`` is the bitmask of the cell that starts at position s, or 0
    where no cell starts; ``cells`` has bit s set where a cell of two or
    more elements starts, and the updated mask is returned.  Each splitter
    cell W taken from ``queue`` (cell starts, first in first out) splits
    every cell by the counts ``(|above[v] & W|, |below[v] & W|)``; the
    pieces take consecutive starts in increasing count order, so the
    result depends only on the order structure, not on labels.  New
    pieces join the queue, except the first largest one when its cell was
    not queued (Hopcroft's rule).
    """
    mul = len(part) + 1
    queued = 0
    for w in queue:
        queued |= 1 << w
    head = 0
    while head < len(queue) and cells:
        w = queue[head]
        head += 1
        queued ^= 1 << w
        W = part[w]
        touched = 0
        rest = W
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            touched |= above[x] | below[x]
            rest ^= low
        todo = cells
        while todo:
            bit = todo & -todo
            todo ^= bit
            s = bit.bit_length() - 1
            C = part[s]
            if not C & touched:
                continue
            groups: dict[int, int] = {}
            rest = C
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                key = (above[v] & W).bit_count() * mul + (below[v] & W).bit_count()
                groups[key] = groups.get(key, 0) | low
            if len(groups) == 1:
                continue
            pieces = []
            t = s
            for key in sorted(groups):
                piece = groups[key]
                size = piece.bit_count()
                part[t] = piece
                pieces.append((t, size))
                if size > 1:
                    cells |= 1 << t
                else:
                    cells &= ~(1 << t)
                t += size
            if queued & bit:
                del pieces[0]
            else:
                del pieces[max(range(len(pieces)), key=lambda k: pieces[k][1])]
            for t, _ in pieces:
                queued |= 1 << t
                queue.append(t)
    return cells


def _merge_orbits(orbit: dict[int, int], g, moved: int) -> None:
    """Join in ``orbit`` (element -> orbit bitmask) the cycles of permutation g.

    ``g`` is an image list and ``moved`` the bitmask of the elements it
    moves; elements missing from ``orbit`` are alone in their orbit.
    """
    for x in _bits(moved):
        a = orbit.get(x, 1 << x)
        if not a >> g[x] & 1:
            a |= orbit.get(g[x], 1 << g[x])
            for y in _bits(a):
                orbit[y] = a


def _canonical_search(above, below):
    """Least leaf certificate, its labeling and automorphism generators.

    Individualization-refinement search (McKay and Piperno, *Practical
    graph isomorphism, II*, 2014) on the order given by the ``above`` and
    ``below`` bitmasks of at least one element.  Each node of the search
    tree is an equitable ordered cell partition (``_refine``); its
    children individualize each element of its first non-singleton cell
    and refine again.  A leaf orders every element, and its certificate
    is the list of ``above`` bitmasks relabeled to that order.  A leaf
    whose certificate equals the first or the best one gives an
    automorphism.  Automorphisms prune each node's children to one per
    orbit of those that fix the node's prefix pointwise, and the search
    jumps back to the common ancestor of the two leaves.

    Returns the least certificate, the labeling ``lab`` of its leaf
    (``lab[k]`` is the element at position k) and the automorphisms found,
    each a pair (image list, bitmask of moved elements); they generate
    the full automorphism group.
    """
    n = len(above)
    root = [0] * n
    root[0] = (1 << n) - 1
    first = best = None
    gens: list[tuple[list[int], int]] = []
    path: list[int] = []

    def leaf(part):
        nonlocal first, best
        lab = [m.bit_length() - 1 for m in part]
        pos = [0] * n
        for k, v in enumerate(lab):
            pos[v] = k
        cert = []
        for v in lab:
            rest = above[v]
            r = 0
            while rest:
                low = rest & -rest
                r |= 1 << pos[low.bit_length() - 1]
                rest ^= low
            cert.append(r)
        if first is None:
            first = best = (cert, lab, path[:])
            return len(path)
        for ref_cert, ref_lab, ref_path in (first, best):
            if cert == ref_cert:
                g = [0] * n
                moved = 0
                for a, b in zip(lab, ref_lab):
                    g[a] = b
                    if a != b:
                        moved |= 1 << a
                gens.append((g, moved))
                k = 0
                while path[k] == ref_path[k]:
                    k += 1
                return k
        if cert < best[0]:
            best = (cert, lab, path[:])
        return len(path)

    def search(part, cells, fixed):
        if not cells:
            return leaf(part)
        depth = len(path)
        bit = cells & -cells
        s = bit.bit_length() - 1
        C = part[s]
        explored = 0
        seen = 0
        orbit: dict[int, int] = {}
        rest = C
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if explored:
                # generators found since the last look; those that move
                # the prefix never fix it later
                for g, moved in gens[seen:]:
                    if not fixed & moved:
                        _merge_orbits(orbit, g, moved)
                seen = len(gens)
                if orbit.get(v, 0) & explored:
                    continue
            child = part[:]
            child[s] = low
            child[s + 1] = C ^ low
            child_cells = cells ^ bit if C.bit_count() == 2 else cells ^ bit ^ (bit << 1)
            child_cells = _refine(child, child_cells, [s], above, below)
            path.append(v)
            back = search(child, child_cells, fixed | low)
            path.pop()
            explored |= low
            if back < depth:
                return back
        return depth

    try:
        search(root, _refine(root, 1 if n > 1 else 0, [0], above, below), 0)
    finally:
        del search  # it holds itself: free the search state now, not at a later collection
    return best[0], best[1], gens


def canonical_form(P: Poset) -> bytes:
    """Byte string equal for two posets iff they are order-isomorphic.

    The form is ``f"{n}:"`` followed by the least leaf certificate of
    ``_canonical_search`` (the ``above`` bitmasks relabeled to the
    canonical order), comma-separated, in ASCII.  The search recurses
    once per individualized element, so a poset whose search goes deeper
    than the interpreter's recursion limit raises SizeLimitError.
    """
    if P.n == 0:
        return b"0:"
    try:
        cert = _canonical_search(P.above, P.below)[0]
    except RecursionError:
        raise SizeLimitError(
            f"canonical form of this {P.n}-element poset needs a search deeper "
            "than the recursion limit"
        ) from None
    return (f"{P.n}:" + ",".join(map(str, cert))).encode("ascii")

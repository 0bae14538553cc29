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

from .errors import (
    CycleError,
    DuplicateError,
    InputError,
    NotReducedError,
    SizeLimitError,
    UnknownElementError,
)


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
    ``down_covers[i]`` (ascending), ``topological_order`` (the elements by
    the size of ``below[i]``, ties by index), ``component_ids`` (a
    component number per element, in order of first elements) and
    ``component_count``.  All of them follow from the masks and the covers.
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
        elems, index, pairs, up, down = _index_covers(elements, covers)
        above, below = _closure(up, down)
        for lo, hi in pairs:
            i, j = index[lo], index[hi]
            if above[i] & below[j]:
                raise NotReducedError(
                    f"cover pair ({lo!r}, {hi!r}) is implied by a longer chain"
                )
        self._fill(elems, tuple(pairs), index, above, below, map(sorted, down))

    @classmethod
    def _from_masks(cls, elements, covers, above, below, down_covers):
        """Trusted construction from the masks and the ascending lower covers
        of a valid order: checks nothing, equals ``Poset(elements, covers)``."""
        P = cls.__new__(cls)
        index = dict(zip(elements, range(len(elements))))
        P._fill(elements, covers, index, above, below, down_covers)
        return P

    def _fill(self, elements, covers, index, above, below, down_covers):
        self.elements = elements
        self.covers = covers
        self._index = index
        self.above = above = tuple(above)
        self.below = below = tuple(below)
        self.down_covers = tuple(map(tuple, down_covers))
        # anything below i has fewer elements below it than i has
        sizes = [b.bit_count() for b in below]
        self.topological_order = tuple(sorted(range(len(below)), key=sizes.__getitem__))
        self.component_ids, self.component_count = _components(self.down_covers)

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElementError(f"unknown element {x!r}") from None

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.covers == other.covers

    def __hash__(self):
        return hash((self.elements, self.covers))

    def __repr__(self):
        return f"Poset({self.n} elements, {len(self.covers)} covers)"


def _index_covers(elements, covers):
    """Index elements and cover pairs in one pass over the pairs.

    Returns the elements as a tuple, their index, the pairs as given and
    the sets of upper and lower neighbours of each element.  Raises
    DuplicateError on a repeated element or pair, UnknownElementError and
    CycleError on a self-pair.
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
        if j in up[i]:
            raise DuplicateError(f"duplicate cover pair ({lo!r}, {hi!r})")
        pairs.append((lo, hi))
        up[i].add(j)
        down[j].add(i)
    return elems, index, pairs, up, down


def _components(down_covers) -> tuple[tuple[int, ...], int]:
    """Component number of each element, in order of the components' first
    elements, and the number of components: union-find over the covers that
    links the larger root under the smaller, so each root is its least element."""
    parent = list(range(len(down_covers)))
    for j, downs in enumerate(down_covers):
        r = j
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        for i in downs:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            if i < r:
                i, r = r, i
            parent[i] = r
    component, count = [], 0
    for i, p in enumerate(parent):
        parent[i] = r = parent[p]  # p <= i already points at its root
        component.append(component[r] if r < i else count)
        count += r == i
    return tuple(component), count


def _closure(up, down) -> tuple[list[int], list[int]]:
    """Strict above/below bitmasks of a cover DAG, closed along Kahn's order.

    ``up[i]`` and ``down[i]`` hold the upper and lower neighbours of i.
    Raises CycleError when the relation has a directed cycle.
    """
    n = len(up)
    indeg = list(map(len, down))
    order = [i for i, d in enumerate(indeg) if not d]
    for cur in order:  # order grows while it is walked: it is the queue
        for nb in up[cur]:
            indeg[nb] -= 1
            if indeg[nb] == 0:
                order.append(nb)
    if len(order) != n:
        raise CycleError("cover relation contains a directed cycle")
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
    return above, below


def transitive_reduction(elements, pairs) -> list[tuple[str, str]]:
    """Reduce an arbitrary acyclic relation to its cover pairs.

    Accepts pairs that are redundant or duplicated, closes them
    transitively, and returns the covers of the resulting order in
    element-index order.  Raises CycleError on cyclic input.
    """
    elems, _, _, up, down = _index_covers(elements, dict.fromkeys((lo, hi) for lo, hi in pairs))
    n = len(elems)
    above, below = _closure(up, down)
    return [(elems[i], elems[j]) for i in range(n) for j in _minimal(above[i], below)]


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


def _beat_points(scan: int, alive: int, above, below):
    """Yield the elements of ``scan`` that are beat points of the subposet
    on the bitmask ``alive``, ascending.

    A finite set has one maximal element iff it has a greatest element,
    which ``_least`` finds without listing the maximal elements.
    """
    for i in _bits(scan):
        if (
            _least(below[i] & alive, above, below) is not None
            or _least(above[i] & alive, below, above) is not None
        ):
            yield i


def beat_points(P: Poset) -> list[str]:
    """Elements that cover exactly one element or are covered by exactly one."""
    full = (1 << P.n) - 1
    return [P.elements[i] for i in _beat_points(full, full, P.above, P.below)]


def core(P: Poset) -> Poset:
    """Remove beat points (first in element order) until none remain.

    Walks a bitmask of the surviving elements and builds one poset at the
    end from their masks, renumbered, or returns P itself when it has no
    beat point.  Removing beat point b changes the sets ``below[i] &
    alive`` and ``above[i] & alive`` only of the elements i comparable to
    b, and no survivor before b was a beat point, so the scan for the next
    one resumes at the survivors before b comparable to it and goes on
    after b: each removal is still the first beat point in element order.
    """
    above, below = P.above, P.below
    full = alive = scan = (1 << P.n) - 1
    while (beat := next(_beat_points(scan, alive, above, below), None)) is not None:
        alive ^= 1 << beat
        near = (above[beat] | below[beat]) & alive & ((1 << beat) - 1)
        scan = near | alive & -(2 << beat)
    if alive == full:
        return P
    keep = list(_bits(alive))
    bit = [0] * P.n  # the new bit of each survivor
    for k, i in enumerate(keep):
        bit[i] = 1 << k

    def remap(mask):
        out = 0
        for j in _bits(mask & alive):
            out |= bit[j]
        return out

    up = [remap(above[i]) for i in keep]
    down = [remap(below[i]) for i in keep]
    names = tuple(P.elements[i] for i in keep)
    covers = tuple((names[i], names[j]) for i, mask in enumerate(up) for j in _minimal(mask, down))
    return Poset._from_masks(names, covers, up, down, [_minimal(m, up) for m in down])


def find_crowns(P: Poset, max_n: int = 6) -> list[Crown]:
    """All induced crown subposets with 2 <= n <= max_n, with their joins and meets.

    A depth-first walk on the order bitmasks goes up and down from the anchor,
    the smallest lower, until an upper above the anchor closes the cycle.  Only
    the direction whose first upper is smaller than its closing upper counts, so
    each crown is found once, up to rotation and reflection, and a walk stops
    once no such closing upper is left.  Crowns come in walk order: fixed for a
    given poset, but not sorted.  Every lower lies below an upper, so a crown's
    join is the join of its uppers and its meet the meet of its lowers; each walk
    state carries the AND of its lowers' down-sets and of its uppers' up-sets,
    and ``_least`` reads both bounds off those masks where a crown closes, once
    per call for each distinct mask: two call-local dicts keep the meet of each
    lower-bound mask and the join of each upper-bound mask.
    """
    if max_n < 2:
        raise InputError(f"crown size must be >= 2, got {max_n}")
    above, below, names = P.above, P.below, P.elements
    # ups[i], downs[i]: i and everything above / below it; near[i]: their union
    ups = [up | 1 << i for i, up in enumerate(above)]
    downs = [down | 1 << i for i, down in enumerate(below)]
    near = [up | down for up, down in zip(ups, downs)]
    named = {None: None, **dict(enumerate(names))}  # a bound's name, or None
    meets, joins = {}, {}  # bound mask -> the name of its meet / join, or None
    crowns, new = [], tuple.__new__  # new(Crown, ...) skips Crown's generated __new__
    for a in range(P.n):
        # the anchor's walk states, depth first: a stack, so no depth limit applies
        stack, after_a = [], -(2 << a)
        lower_ok = ~near[a] & after_a
        for v in _bits(above[a]):
            if closers := above[a] & -(2 << v) & ~near[v]:
                for u in _bits(below[v] & lower_ok):  # near[v] has a, below[a]
                    stack.append((u, (names[a], names[u]), (names[v],),
                                  downs[a] & downs[u], ups[v], near[v], closers))
        while stack:
            u, lnames, unames, lbound, ubound, block, closers = stack.pop()
            # u: the last lower; block: the placed elements and all below a lower, above
            # an earlier middle lower or comparable to an upper; closers: the rest above
            # the anchor after the first upper
            up = above[u]
            if found := up & closers:
                if lbound not in meets:
                    meets[lbound] = named[_least(lbound, above, below)]
                meet = meets[lbound]
                while found:  # the bits of found, ascending, as in _bits
                    v = (low := found & -found).bit_length() - 1
                    found ^= low
                    # names[v] first puts lower[i] below upper[i] and upper[i + 1]
                    if (bound := ubound & ups[v]) not in joins:
                        joins[bound] = named[_least(bound, below, above)]
                    crowns.append(new(Crown, (lnames, (names[v],) + unames, joins[bound], meet)))
            # u turns into a middle lower: nothing above it closes the crown,
            # and a middle upper is not above the anchor, so neither is its new lower
            if len(lnames) == max_n or not (closers := closers & ~up):
                continue
            middle = up & ~(block | above[a])
            block |= up
            lower_ok = ~block & after_a  # free and after the anchor
            while middle:
                v = (low := middle & -middle).bit_length() - 1
                middle ^= low
                if vclosers := closers & ~near[v]:
                    unames_v, ubound_v = unames + (names[v],), ubound & ups[v]
                    lowers = below[v] & lower_ok
                    while lowers:
                        w = (low := lowers & -lowers).bit_length() - 1
                        lowers ^= low
                        stack.append((w, lnames + (names[w],), unames_v, lbound & downs[w],
                                      ubound_v, block | near[v], vclosers))
    return crowns


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


def _refine(part: list[int], cells: int, queue: list[int], above, below) -> int:
    """Refine the ordered cell partition ``part`` in place until it is equitable.

    ``part[s]`` is the bitmask of the cell that starts at position s, or 0
    where no cell starts; ``cells`` has bit s set where a cell of two or
    more elements starts, and the updated mask is returned.  Each splitter
    cell W taken from ``queue`` (cell starts, first in first out) splits
    every cell by the counts ``(|above[v] & W|, |below[v] & W|)``.  Only
    the elements comparable to some element of W are counted; the rest
    share the counts (0, 0) and form the first piece in one mask
    operation, and a one-element W = {x} needs no count at all: the
    elements above x have (0, 1) and those below it (1, 0).  The pieces
    take consecutive starts in increasing count order, so the result
    depends only on the order structure, not on labels.  New pieces join
    the queue in that order, except the first largest one when its cell
    was not queued (Hopcroft's rule).  Which cell the search splits next
    and every certificate depend on the piece and queue order, so a
    change to either changes canonical forms.
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
        if W & (W - 1):
            up = None
            touched = 0
            rest = W
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                touched |= above[x] | below[x]
                rest ^= low
        else:
            x = W.bit_length() - 1
            up, down = above[x], below[x]
            touched = up | down
        todo = cells
        while todo:
            bit = todo & -todo
            todo ^= bit
            s = bit.bit_length() - 1
            C = part[s]
            hit = C & touched
            if not hit:
                continue
            if up is not None:
                pieces = [piece for piece in (C ^ hit, C & up, C & down) if piece]
            else:
                groups: dict[int, int] = {}
                rest = hit
                while rest:
                    low = rest & -rest
                    v = low.bit_length() - 1
                    rest ^= low
                    key = (above[v] & W).bit_count() * mul + (below[v] & W).bit_count()
                    groups[key] = groups.get(key, 0) | low
                pieces = [C ^ hit] if hit != C else []
                pieces += [groups[key] for key in sorted(groups)]
            if len(pieces) == 1:
                continue
            starts = []
            big = size_big = 0
            t = s
            for piece in pieces:
                size = piece.bit_count()
                part[t] = piece
                starts.append(t)
                if size > 1:
                    cells |= 1 << t
                    if size > size_big:
                        big, size_big = t, size
                else:
                    cells &= ~(1 << t)
                t += size
            # a queued cell keeps its start in the queue for the first piece
            skip = s if queued & bit or not size_big else big
            for t in starts:
                if t != skip:
                    queued |= 1 << t
                    queue.append(t)
    return cells


def _merge_orbits(orbit: dict[int, list[int]], g, moved: int) -> None:
    """Join in ``orbit`` the cycles of permutation g.

    ``orbit`` maps an element to a one-item list, shared by its whole
    orbit, that holds the orbit's bitmask; elements missing from it are
    alone in their orbit.  ``g`` is an image list and ``moved`` the
    bitmask of the elements it moves.  The smaller orbit joins the
    larger, so an element changes orbit at most log2(n) times.
    """
    for x in _bits(moved):
        a = orbit.setdefault(x, [1 << x])
        b = orbit.get(g[x]) or [1 << g[x]]
        if a is not b:
            if a[0].bit_count() < b[0].bit_count():
                a, b = b, a
            a[0] |= b[0]
            for y in _bits(b[0]):
                orbit[y] = a


def _canonical_search(above, below):
    """Least leaf certificate, its labeling and automorphism generators.

    Individualization-refinement search (McKay and Piperno, *Practical
    graph isomorphism, II*, 2014) on the order given by the ``above`` and
    ``below`` bitmasks of at least one element.  Each node of the search
    tree is an equitable ordered cell partition (``_refine``); its
    children individualize each element of its first non-singleton cell
    and refine again.  A leaf orders every element, and its certificate
    is the list of ``above`` bitmasks relabeled to that order.

    ``leaves`` keeps the first leaf of each certificate.  A leaf whose
    certificate is already there gives an automorphism that maps it onto
    that earlier leaf and fixes the prefix the two paths share.  The
    earlier leaf lies below an earlier, finished child of their common
    ancestor, so the leaf's branch is the image of that child and the
    search jumps back to the ancestor.  Automorphisms prune each node's
    children to one per orbit of those that fix the node's prefix
    pointwise.  Every pruned subtree is equivalent to one searched
    before it, so the least certificate and the labeling of its first
    leaf do not depend on how much is pruned, only on ``_refine``.

    Twins, elements with equal ``above`` and ``below`` masks, prune
    without a search: swapping two twins is an automorphism, and two
    twins in a node's cell are both outside its prefix, so it fixes the
    prefix.  A node skips every twin of a child it has explored, and
    every child in the orbit of such a twin, where the search proper
    would have explored a twin's subtree only to find that swap.  On an
    antichain the search is one path of n nodes.  Each twin class adds
    the swaps of its least element with each other one to the
    generators; any swap of two twins is a product of those, so the
    generators still reach every child a node skipped.

    Returns the least certificate, the labeling ``lab`` of its first leaf
    (``lab[k]`` is the element at position k) and the automorphisms found,
    each a pair (image list, bitmask of moved elements); they generate
    the full automorphism group.
    """
    n = len(above)
    root = [0] * n
    root[0] = (1 << n) - 1
    leaves: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    gens: list[tuple[list[int], int]] = []
    path: list[int] = []
    # the twin class of each element that has a twin, and the swaps of each
    # class's least element with each other one
    twins: dict[int, int] = {}
    swaps: list[tuple[list[int], int]] = []
    if len(set(zip(above, below))) < n:
        classes: dict[tuple[int, int], int] = {}
        for i, key in enumerate(zip(above, below)):
            classes[key] = classes.get(key, 0) | 1 << i
        for mask in classes.values():
            first = mask & -mask
            t = first.bit_length() - 1
            for u in _bits(mask ^ first):
                twins[t] = twins[u] = mask
                g = list(range(n))
                g[t], g[u] = u, t
                swaps.append((g, first | 1 << u))

    def leaf(part):
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
        first_lab, first_path = leaves.setdefault(tuple(cert), (lab, path[:]))
        if first_lab is lab:
            return len(path)
        g = [0] * n
        moved = 0
        for a, b in zip(lab, first_lab):
            g[a] = b
            if a != b:
                moved |= 1 << a
        gens.append((g, moved))
        k = 0
        while path[k] == first_path[k]:
            k += 1
        return k

    def search(part, cells, fixed):
        if not cells:
            return leaf(part)
        depth = len(path)
        bit = cells & -cells
        s = bit.bit_length() - 1
        C = part[s]
        explored = 0  # the children explored and their twins
        seen = 0
        orbit: dict[int, list[int]] = {}
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
                if orbit.get(v, (0,))[0] & explored:
                    continue
            child = part[:]
            child[s] = low
            child[s + 1] = C ^ low
            child_cells = cells ^ bit if C.bit_count() == 2 else cells ^ bit ^ (bit << 1)
            child_cells = _refine(child, child_cells, [s], above, below)
            path.append(v)
            back = search(child, child_cells, fixed | low)
            path.pop()
            if v in twins:
                low = twins[v]
                rest &= ~low
            explored |= low
            if back < depth:
                return back
        return depth

    try:
        search(root, _refine(root, 1 if n > 1 else 0, [0], above, below), 0)
    finally:
        del search  # it holds itself: free the search state now, not at a later collection
    cert, (lab, _) = min(leaves.items())
    return list(cert), lab, gens + swaps


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

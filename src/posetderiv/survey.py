"""Enumeration of small posets up to isomorphism and the conclusiveness sweep.

Posets on n elements are generated by canonical augmentation (McKay,
*Isomorph-free exhaustive generation*, 1998): every representative on
n - 1 elements gets a new maximal element above one down-set per orbit
of its automorphism group, and a child is kept only if the new element
lies in the child's canonical orbit of maximal elements.  Every poset
arises this way, since deleting a maximal element leaves a smaller poset
and a down-set, and only once: an isomorphism between two kept children
can be made to send new element to new element, so it restricts to an
automorphism of their common parent that carries one down-set to the
other.  Each class's H1 comes from homology (``_new_top_h1``).
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, namedtuple

# poset.canonical_form and homology.classify are looked up at each call:
# this module may first load while bench/tracing.py has them wrapped, and
# a name bound then keeps the wrapper.
from . import poset
from .errors import InputError, SizeLimitError
from .derivations import relation_rows_into, routes_agree
from .homology import ConclusiveVerdict, _new_top_h1
from .linalg import IntegerMatrix, smith_divisors
from .poset import Poset, _bits, _canonical_search, _merge_orbits, _minimal

# OEIS A000112: the poset classes on 1, 2, ... elements; the sweep checks
# its levels against them, so it goes no further than they do
CLASS_COUNTS = (1, 2, 5, 16, 63, 318, 2045, 16999, 183231)
SIZE_CAP = len(CLASS_COUNTS)
# the sweep hands the subtrees below the classes on this many elements to map
SPLIT_N = 5


class SweepReport(
    namedtuple(
        "SweepReport",
        "max_n counts_by_n defective_by_n soluble_by_n inconclusive_found "
        "identity_failures count_failures elapsed_ms",
    )
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        """No class failed the cross-check, and every level has its
        A000112 count (``count_failures`` holds (n, found, expected) per
        level that does not)."""
        return not self.identity_failures and not self.count_failures


def _down_sets(P: Poset, gens):
    """Yield one down-closed subset of P per orbit of the group ``gens`` generates.

    Down-sets are bitmasks (the empty set included), built over the
    elements in topological order; the first of each orbit is kept.
    """
    below = P.below
    downs = [0]
    for i in P.topological_order:
        downs += [d | 1 << i for d in downs if not below[i] & ~d]
    seen = set()
    for d in downs:
        if d in seen:
            continue
        seen.add(d)
        yield d
        stack = [d]
        while stack:
            x = stack.pop()
            for g, moved in gens:
                y = x & ~moved
                for j in _bits(x & moved):
                    y |= 1 << g[j]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)


def _extend(P: Poset, down_set: int, tops) -> Poset:
    """P with a new last element ``x{n}`` above down_set and its covers last;
    ``tops`` are the maximal elements of down_set, ascending."""
    n, new = P.n, f"x{P.n}"
    return Poset._from_masks(
        P.elements + (new,),
        P.covers + tuple((P.elements[j], new) for j in tops),
        [a | 1 << n if down_set >> j & 1 else a for j, a in enumerate(P.above)] + [0],
        P.below + (down_set,),
        P.down_covers + (tops,),
    )


def _top_key(down_set: int, covers, below) -> tuple:
    """Invariant of a maximal element with this down-set and these
    down-covers: whether it has at most one (so that ``_record`` passes the
    parent's verdict down the walk as often as possible), the down-set's
    size, the number of down-covers and the sorted down-set sizes of those."""
    sizes = sorted(below[j].bit_count() for j in covers)
    return (len(sizes) <= 1, down_set.bit_count(), len(sizes), sizes)


def _children(P: Poset):
    """Yield the children of P accepted by canonical deletion of a maximal element.

    The child on ``P.n + 1`` elements puts its new top t above a down-set
    d of P.  It is kept iff t lies in the child's canonical orbit of
    maximal elements: those with the greatest ``_top_key``, and among them
    the orbit of the one that comes first in the child's canonical
    labeling.  A tie needs that labeling, from a canonical search of the
    child, unless every rival's down-set is d: then each rival is t's
    twin, swapping the two is an automorphism, and t lies in the orbit of
    whichever of them comes first.
    """
    n = P.n
    above, below = P.above, P.below
    # the empty poset, the tree's root, has only the trivial automorphism
    gens = _canonical_search(above, below)[2] if n else []
    maximal = [(i, _top_key(below[i], P.down_covers[i], below)) for i in range(n) if not above[i]]
    for d in _down_sets(P, gens):
        tops = _minimal(d, above)
        key = _top_key(d, tops, below)
        others = [(i, k) for i, k in maximal if not d >> i & 1]
        if any(k > key for _, k in others):
            continue
        rivals = [i for i, k in others if k == key]
        child = _extend(P, d, tops)
        if any(below[i] != d for i in rivals):
            # a tie with a rival that is not t's twin: only the child's
            # canonical search can decide
            _, lab, child_gens = _canonical_search(child.above, child.below)
            orbit: dict[int, list[int]] = {}
            for g, moved in child_gens:
                _merge_orbits(orbit, g, moved)
            rivals.append(n)
            first = min(rivals, key=lab.index)
            if not orbit.get(n, (1 << n,))[0] >> first & 1:
                continue
        yield child


def enumerate_posets(n: int, parents=None):
    """Yield one representative per isomorphism class of posets on n elements.

    ``parents`` are classes on n - 1 elements (the sweep passes one at a
    time), and their children come in their order.  Without it, they are
    the classes on n - 1 elements, enumerated lazily from the empty poset.
    """
    if not 1 <= n <= SIZE_CAP:
        raise SizeLimitError(f"enumeration supports 1 <= n <= {SIZE_CAP}, got {n}")
    if parents is None:
        parents = [Poset((), ())]
        for _ in range(n - 1):
            parents = (child for P in parents for child in _children(P))
    for P in parents:
        yield from _children(P)


def _record(parent: tuple, P: Poset, tally: Counter) -> tuple:
    """P's sweep record, (verdict, relation rows, Smith divisors), made from
    its parent's and counted in ``tally`` by (field, level), and by (field,
    name) if inconclusive or failing ``routes_agree``.  P's H1 comes from
    its parent's through homology's Mayer-Vietoris rule, ``_new_top_h1``;
    only where that rule has no answer does P build an order complex
    (``classify``).  A new top with at most one down-cover, isolated or a
    beat point, leaves H1 unchanged, so P inherits its parent's H1.
    P's relation rows are its parent's, whose columns ``_extend`` keeps,
    plus the rows into its new top; only those need an elimination of the
    combined rows, otherwise the divisors carry over.  The relation route
    shares no code with the rule, not even its component count, so
    ``routes_agree`` still checks it."""
    verdict, rows, divisors = parent
    n = P.n
    tally["classes", n] += 1
    h1 = _new_top_h1(verdict, P)
    if h1 is None:
        from .homology import classify

        verdict = classify(P)
        tally["classified", n] += 1
    else:
        verdict = ConclusiveVerdict.from_h1(*h1)
        tally["inherited", n] += len(P.down_covers[-1]) <= 1
    new = relation_rows_into(P, n - 1)
    if new:
        rows += tuple(new)
        divisors = smith_divisors(IntegerMatrix._make((len(rows), len(P.covers), rows)))
        tally["smith", n] += 1
    tally["defective", n] += verdict.defective_uct
    tally["soluble", n] += verdict.soluble
    # a class's canonical form is needed only to name it here
    if verdict.torsion1:
        tally["inconclusive", poset.canonical_form(P).decode("ascii")] += 1
    if not routes_agree(P, verdict, divisors):
        tally["failure", poset.canonical_form(P).decode("ascii")] += 1
    return verdict, rows, divisors


def _walk(P: Poset, record: tuple, max_n: int, tally: Counter):
    """Walk the augmentation tree below P, which has fewer than max_n
    elements, depth first, and yield each class on max_n with its record.
    Each class below P is counted in ``tally`` by ``_record``.  A class's
    expansion, its children's enumeration and records, is timed once and
    charged to their level."""
    n = P.n + 1
    start = time.perf_counter()
    # the children are listed before their records, so that a traced
    # enumeration span holds enumeration alone
    children = [(child, _record(record, child, tally)) for child in list(enumerate_posets(n, (P,)))]
    tally["seconds", n] += time.perf_counter() - start
    for child, r in children:
        if n < max_n:
            yield from _walk(child, r, max_n, tally)
        else:
            yield child, r


def _subtree(root: tuple) -> Counter:
    """The tally of every class below a (poset, record, max_n) root, picklable for pools."""
    tally = Counter()
    for _ in _walk(*root, tally):
        pass
    return tally


def sweep(max_n: int, parallelism: int = 1, progress: bool = False) -> SweepReport:
    """Classify every poset class up to max_n elements and cross-check.

    The cross-check (derivations.routes_agree, as in analyze) compares H1
    read off the relation matrix's Smith divisors with H1 of the order
    complex.  The augmentation tree is walked from the empty poset
    (``_walk``), serially down to ``SPLIT_N`` elements; the subtrees
    below go through ``map``, one pool task each in at most
    ``os.cpu_count()`` worker processes if parallelism (at least 1) is
    above 1, and their tallies are summed, so the report does not depend
    on it.  The report is ok only if no class fails the cross-check and
    each level counts the classes ``CLASS_COUNTS`` gives.  With
    ``progress``, once the walk ends, each level prints its class count,
    the seconds since the sweep started, its classes per second of
    expansion time (summed across workers), classes classified through an
    order complex, inherited verdicts and Smith eliminations to stderr.
    """
    if not 1 <= max_n <= SIZE_CAP:
        raise SizeLimitError(f"sweep supports 1 <= max_n <= {SIZE_CAP}, got {max_n}")
    if parallelism < 1:
        raise InputError(f"sweep needs at least 1 job, got {parallelism}")
    workers = min(parallelism, os.cpu_count() or 1)
    start = time.monotonic()
    from .homology import classify

    # the tree's root, the empty poset, has no relation rows
    empty = Poset((), ())
    record = (classify(empty), (), ())
    tally = Counter()
    leaves = _walk(empty, record, min(max_n, SPLIT_N), tally)
    roots = [(P, r, max_n) for P, r in leaves if P.n < max_n]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_subtree, roots)
    else:
        parts = map(_subtree, roots)
    for part in parts:
        tally.update(part)
    levels = range(1, max_n + 1)
    counts = tuple((n, tally["classes", n]) for n in levels)
    if progress:
        for n in levels:
            print(
                f"sweep: n={n} classes={tally['classes', n]}"
                f" elapsed_s={time.monotonic() - start:.2f}"
                f" classes_per_s={tally['classes', n] / max(tally['seconds', n], 1e-9):.0f}"
                f" classified={tally['classified', n]}"
                f" inherited={tally['inherited', n]} smith={tally['smith', n]}",
                file=sys.stderr,
            )
    return SweepReport(
        max_n=max_n,
        counts_by_n=counts,
        defective_by_n=tuple((n, tally["defective", n]) for n in levels),
        soluble_by_n=tuple((n, tally["soluble", n]) for n in levels),
        inconclusive_found=tuple(sorted(k for field, k in tally if field == "inconclusive")),
        identity_failures=tuple(sorted(k for field, k in tally if field == "failure")),
        count_failures=tuple((n, c, e) for (n, c), e in zip(counts, CLASS_COUNTS) if c != e),
        elapsed_ms=int((time.monotonic() - start) * 1000),
    )

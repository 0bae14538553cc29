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
other.
"""

from __future__ import annotations

import os
import sys
import time
from collections import namedtuple

# poset.canonical_form and homology.classify are looked up at each call:
# this module may first load while bench/tracing.py has them wrapped, and
# a name bound then keeps the wrapper.
from . import poset
from .errors import InputError, SizeLimitError
from .derivations import relation_rows_into
from .homology import routes_agree
from .linalg import IntegerMatrix, smith_divisors
from .poset import Poset, _bits, _canonical_search, _merge_orbits, _minimal

SIZE_CAP = 8


class SweepReport(
    namedtuple(
        "SweepReport",
        "max_n counts_by_n defective_by_n soluble_by_n inconclusive_found "
        "identity_failures elapsed_ms",
    )
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.identity_failures


def _down_sets(P: Poset, gens) -> list[int]:
    """One down-closed subset of P per orbit of the group ``gens`` generates.

    Down-sets are bitmasks (the empty set included), built over the
    elements in topological order; the first of each orbit is kept.
    """
    below = P.below
    downs = [0]
    for i in P.topological_order:
        downs += [d | 1 << i for d in downs if not below[i] & ~d]
    out = []
    seen = set()
    for d in downs:
        if d in seen:
            continue
        out.append(d)
        seen.add(d)
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
    return out


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
    down-covers: whether it has at most one (so that ``_job`` inherits
    verdicts as often as possible), the down-set's size, the number of
    down-covers and the sorted down-set sizes of those."""
    sizes = sorted(below[j].bit_count() for j in covers)
    return (len(sizes) <= 1, down_set.bit_count(), len(sizes), sizes)


def _children(P: Poset) -> list[Poset]:
    """The children of P accepted by canonical deletion of a maximal element.

    The child on ``P.n + 1`` elements puts its new top t above a down-set
    of P.  It is kept iff t lies in the child's canonical orbit of maximal
    elements: those with the greatest ``_top_key``, and among them the
    orbit of the one that comes first in the child's canonical labeling.
    """
    n = P.n
    above, below = P.above, P.below
    # the empty poset, the tree's root, has only the trivial automorphism
    gens = _canonical_search(above, below)[2] if n else []
    maximal = [(i, _top_key(below[i], P.down_covers[i], below)) for i in range(n) if not above[i]]
    kids = []
    for d in _down_sets(P, gens):
        tops = _minimal(d, above)
        key = _top_key(d, tops, below)
        others = [(i, k) for i, k in maximal if not d >> i & 1]
        if any(k > key for _, k in others):
            continue
        rivals = [i for i, k in others if k == key]
        child = _extend(P, d, tops)
        if rivals:
            # a tie: only the child's canonical search can decide
            _, lab, child_gens = _canonical_search(child.above, child.below)
            orbit: dict[int, int] = {}
            for g, moved in child_gens:
                _merge_orbits(orbit, g, moved)
            rivals.append(n)
            first = min(rivals, key=lab.index)
            if not orbit.get(n, 1 << n) >> first & 1:
                continue
        kids.append(child)
    return kids


def enumerate_posets(n: int, parents=None):
    """Yield one representative per isomorphism class of posets on n elements.

    ``parents`` is the list of classes on n - 1 elements in the order this
    function yields them (for n = 1, the empty poset alone); the classes on
    n elements are their children, in that order.  Without it, the lower
    levels are grown first, from the empty poset.
    """
    if not 1 <= n <= SIZE_CAP:
        raise SizeLimitError(f"enumeration supports 1 <= n <= {SIZE_CAP}, got {n}")
    if parents is None:
        parents = [Poset((), ())]
        for _ in range(n - 1):
            parents = [child for P in parents for child in _children(P)]
    for P in parents:
        yield from _children(P)


def _record(job):
    """Sweep record of a ``(poset, verdict, parent rows, parent divisors)``
    job: verdict, cross-route identity (``homology.routes_agree`` on P's
    divisors), the rows and divisors that P's children carry, and whether
    a Smith elimination ran; module-level so process pools can pickle it.

    P's relation rows are its parent's, whose columns ``_extend`` keeps,
    plus the rows into its new top.  Without new rows the matrix only
    gains zero columns, so the parent's divisors carry over; otherwise
    the combined rows get a Smith elimination.  P is classified when the
    verdict is None.
    """
    P, verdict, rows, divisors = job
    if verdict is None:
        from .homology import classify

        verdict = classify(P)
    new = relation_rows_into(P, P.n - 1)
    if new:
        rows += tuple(new)
        divisors = smith_divisors(IntegerMatrix._make((len(rows), len(P.covers), rows)))
    return {
        "verdict": verdict,
        "identity_ok": routes_agree(P, verdict, divisors),
        "rows": rows,
        "divisors": divisors,
        "smith": bool(new),
    }


def _job(previous: dict, P: Poset) -> tuple:
    """P's sweep job: (P, inherited verdict or None, parent's relation rows,
    parent's divisors), from the records of the level below by cover list.

    ``_extend`` lists the parent's covers first and the new top's last, so
    every class finds its parent; the point's is the empty poset.  The
    verdict is inherited when the top has at most one down-cover: it is
    then isolated or a beat point, and removing either leaves H1 unchanged
    (Stong 1966), so every flag of the verdict is the parent's.
    """
    tops = len(P.down_covers[-1])
    parent = previous[P.covers[: len(P.covers) - tops]]
    verdict = parent["verdict"] if tops <= 1 else None
    return P, verdict, parent["rows"], parent["divisors"]


def sweep(max_n: int, parallelism: int = 1, progress: bool = False) -> SweepReport:
    """Classify every poset class up to max_n elements and cross-check.

    The cross-check (homology.routes_agree, as in analyze) ties the
    consistency-matrix route to homology: the Smith divisors of the
    relation matrix must give betti1 = E - rank - (V - C) and, in the
    divisors above 1, exactly the torsion of H1.
    Each level is grown once, from the level below it, starting at the
    augmentation tree's root, the empty poset.  Classes may inherit the
    homology verdict (``_job``).  The relation route is carried down the
    same tree: each class takes its parent's relation rows and
    divisors, builds only the rows into its new top
    (``derivations.relation_rows_into``) and runs a Smith elimination only
    when there are some (``_record``).  Every class still gets its own
    identity check.  Report content does not depend on
    parallelism, which must be at least 1; at most ``os.cpu_count()``
    worker processes start, since a forked pool starts every worker up
    front.  With ``progress``, each level prints its class count, the
    seconds since the sweep started, the level's classes per second,
    inherited verdicts and Smith eliminations to stderr.
    """
    if not 1 <= max_n <= SIZE_CAP:
        raise SizeLimitError(f"sweep supports 1 <= max_n <= {SIZE_CAP}, got {max_n}")
    if parallelism < 1:
        raise InputError(f"sweep needs at least 1 job, got {parallelism}")
    workers = min(parallelism, os.cpu_count() or 1)
    start = time.monotonic()
    counts = []
    defective = []
    soluble = []
    inconclusive: list[str] = []
    failures: list[str] = []
    from .homology import classify

    # the previous level and its records by cover list; level 0 is the
    # tree's root, the empty poset, with no relation rows
    posets = [Poset((), ())]
    previous: dict = {(): {"verdict": classify(posets[0]), "rows": (), "divisors": ()}}
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for n in range(1, max_n + 1):
            level_start = time.monotonic()
            posets = list(enumerate_posets(n, posets))
            jobs = [_job(previous, P) for P in posets]
            if pool is not None:
                chunk = max(1, len(jobs) // (workers * 4))
                records = list(pool.map(_record, jobs, chunksize=chunk))
            else:
                records = [_record(job) for job in jobs]
            previous = {P.covers: r for P, r in zip(posets, records)}
            counts.append((n, len(records)))
            defective.append((n, sum(r["verdict"].defective_uct for r in records)))
            soluble.append((n, sum(r["verdict"].soluble for r in records)))
            for P, r in zip(posets, records):
                # a class's canonical form is needed only to name it here
                if r["verdict"].torsion1:
                    inconclusive.append(poset.canonical_form(P).decode("ascii"))
                if not r["identity_ok"]:
                    failures.append(poset.canonical_form(P).decode("ascii"))
            if progress:
                now = time.monotonic()
                rate = len(records) / max(now - level_start, 1e-9)
                print(
                    f"sweep: n={n} classes={len(records)} elapsed_s={now - start:.2f}"
                    f" classes_per_s={rate:.0f}"
                    f" inherited={sum(job[1] is not None for job in jobs)}"
                    f" smith={sum(r['smith'] for r in records)}",
                    file=sys.stderr,
                )
    finally:
        if pool is not None:
            pool.shutdown()
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return SweepReport(
        max_n=max_n,
        counts_by_n=tuple(counts),
        defective_by_n=tuple(defective),
        soluble_by_n=tuple(soluble),
        inconclusive_found=tuple(sorted(inconclusive)),
        identity_failures=tuple(sorted(failures)),
        elapsed_ms=elapsed_ms,
    )

"""Enumeration of small posets up to isomorphism and the conclusiveness sweep.

Posets on n elements are generated by extending every representative on
n - 1 elements with a new maximal element placed above each down-closed
subset, then deduplicating by canonical form.  Every poset arises this
way: deleting a maximal element leaves a smaller poset and a down-set.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass

from .errors import InputError, SizeLimitError
from .derivations import relation_divisors
from .homology import classify, identity_checks
from .linalg import RATIONALS, prime_field
from .poset import Poset, _minimal, canonical_form

SIZE_CAP = 8

_SWEEP_FIELDS = (RATIONALS, prime_field(2), prime_field(3))


@dataclass(frozen=True)
class SweepReport:
    max_n: int
    counts_by_n: tuple[tuple[int, int], ...]
    defective_by_n: tuple[tuple[int, int], ...]
    soluble_by_n: tuple[tuple[int, int], ...]
    inconclusive_found: tuple[str, ...]
    identity_failures: tuple[str, ...]
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return not self.identity_failures


def _down_sets(P: Poset) -> list[int]:
    """All down-closed subsets of P as bitmasks (the empty set included)."""
    out = []
    for mask in range(1 << P.n):
        good = True
        rest = mask
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if P.below_mask(j) & ~mask:
                good = False
                break
        if good:
            out.append(mask)
    return out


def _extend(P: Poset, down_set: int) -> Poset:
    new = f"x{P.n}"
    tops = [(P.elements[j], new) for j in _minimal(down_set, P._above)]
    return Poset(P.elements + (new,), P.covers + tuple(tops))


def enumerate_posets(n: int):
    """Yield one representative per isomorphism class of posets on n elements."""
    if not 1 <= n <= SIZE_CAP:
        raise SizeLimitError(f"enumeration supports 1 <= n <= {SIZE_CAP}, got {n}")
    level: dict[bytes, Poset] = {b"1:0": Poset(["x0"], [])}
    for _ in range(n - 1):
        nxt: dict[bytes, Poset] = {}
        for rep in level.values():
            for mask in _down_sets(rep):
                cand = _extend(rep, mask)
                nxt.setdefault(canonical_form(cand), cand)
        level = nxt
    for form in sorted(level):
        yield level[form]


def _analyze_payload(P: Poset):
    """Per-poset sweep record; module-level so process pools can pickle it."""
    verdict = classify(P)
    checks = identity_checks(P, verdict, relation_divisors(P), _SWEEP_FIELDS)
    return {
        "n": P.n,
        "betti1": verdict.betti1,
        "torsion": list(verdict.torsion1),
        "soluble": verdict.soluble,
        "defective": verdict.defective_uct,
        "identity_ok": all(agrees for *_, agrees in checks),
    }


def sweep(max_n: int, parallelism: int = 1, progress: bool = False) -> SweepReport:
    """Classify every poset class up to max_n elements and cross-check.

    The cross-check (homology.identity_checks, as in analyze) ties the
    consistency-matrix route to homology: for each test field,
    (E - rank) - (V - C) must equal betti1 plus the number of torsion
    coefficients killed by the field characteristic.
    Report content does not depend on parallelism, which must be at
    least 1; at most ``os.cpu_count()`` worker processes start, since a
    forked pool starts every worker up front.  With ``progress``,
    each level prints its class count, the seconds since the sweep
    started and the level's classes per second to stderr.
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
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for n in range(1, max_n + 1):
            level_start = time.monotonic()
            posets = list(enumerate_posets(n))
            if pool is not None and len(posets) > 1:
                chunk = max(1, len(posets) // (workers * 4))
                records = list(pool.map(_analyze_payload, posets, chunksize=chunk))
            else:
                records = [_analyze_payload(P) for P in posets]
            counts.append((n, len(records)))
            defective.append((n, sum(1 for r in records if r["defective"])))
            soluble.append((n, sum(1 for r in records if r["soluble"])))
            for P, r in zip(posets, records):
                # a class's canonical form is needed only to name it here
                if r["torsion"]:
                    inconclusive.append(canonical_form(P).decode("ascii"))
                if not r["identity_ok"]:
                    failures.append(canonical_form(P).decode("ascii"))
            if progress:
                now = time.monotonic()
                rate = len(records) / max(now - level_start, 1e-9)
                print(
                    f"sweep: n={n} classes={len(records)} elapsed_s={now - start:.2f}"
                    f" classes_per_s={rate:.0f}",
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

"""External JSON schemas: input parsing and report assembly.

Every numeric value in a report is exact: integers stay integers and
rationals are rendered as "p/q" strings.  No floats appear anywhere.
"""

from __future__ import annotations

from .derivations import TransitiveFunction, outer_witness, relation_divisors
from .errors import InputError, UnsupportedRingError
from .linalg import Ring, _field_modulus, ring_from_string
from .poset import Poset, canonical_form, transitive_reduction


def as_dict(value):
    """``value`` with each record in it (a namedtuple) turned into a dict
    of its fields, recursively; lists and tuples keep their type."""
    if hasattr(value, "_asdict"):
        return {k: as_dict(v) for k, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return type(value)(map(as_dict, value))
    return value


def _identifier_ok(value) -> bool:
    return (
        isinstance(value, str)
        and len(value) > 0
        and not any(ord(ch) < 32 or ord(ch) == 127 for ch in value)
    )


def poset_from_json(obj, reduce: bool = False) -> Poset:
    """Validate and build a poset from {"elements": [...], "covers": [[lo, hi], ...]}.

    With reduce=True the cover list may contain transitively redundant
    pairs; they are folded into the reduction instead of rejected.
    """
    if not isinstance(obj, dict):
        raise InputError("poset JSON must be an object")
    elements = obj.get("elements")
    covers = obj.get("covers")
    if not isinstance(elements, list) or not all(_identifier_ok(e) for e in elements):
        raise InputError(
            "'elements' must be a list of nonempty strings without control characters"
        )
    if not isinstance(covers, list):
        raise InputError("'covers' must be a list of [lower, upper] pairs")
    # A cover name only has to be a string here: Poset rejects every name
    # that is not one of the elements checked above.
    pairs = []
    for item in covers:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not isinstance(item[0], str)
            or not isinstance(item[1], str)
        ):
            raise InputError(f"bad cover pair {item!r}")
        pairs.append((item[0], item[1]))
    if reduce:
        pairs = transitive_reduction(elements, pairs)
    return Poset(elements, pairs)


def _parse_value(ring: Ring, raw):
    if isinstance(raw, bool):
        raise InputError(f"bad ring value {raw!r}")
    if isinstance(raw, int):
        return ring.normalize(raw)
    if ring.tag == "rationals" and isinstance(raw, str):
        try:
            return ring.normalize(raw)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad rational value {raw!r}") from None
    raise InputError(f"bad ring value {raw!r}")


def function_values_from_json(obj):
    """Parse {"ring": ..., "cover_values": [[lo, hi, value], ...]}.

    Checks the JSON shape only and rejects an edge assigned twice;
    from_cover_values rejects a missing or non-cover edge or element.
    """
    if not isinstance(obj, dict):
        raise InputError("function JSON must be an object")
    ring_text = obj.get("ring")
    if not isinstance(ring_text, str):
        raise InputError("'ring' must be a ring string (q, gf:p or mod:n)")
    ring = ring_from_string(ring_text)
    triples = obj.get("cover_values")
    if not isinstance(triples, list):
        raise InputError("'cover_values' must be a list of [lower, upper, value]")
    values: dict[tuple[str, str], object] = {}
    for item in triples:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise InputError(f"bad cover value triple {item!r}")
        lo, hi, raw = item
        if not (isinstance(lo, str) and isinstance(hi, str)):
            raise InputError(f"bad cover value triple {item!r}")
        if (lo, hi) in values:
            raise InputError(f"cover edge ({lo!r}, {hi!r}) assigned twice")
        values[(lo, hi)] = _parse_value(ring, raw)
    return ring, values


def encode_value(ring: Ring, value):
    if ring.tag == "rationals":
        return str(ring.normalize(value))
    return int(value)


def function_json(f: TransitiveFunction) -> dict:
    return {
        "ring": f.ring.label(),
        "cover_values": [
            [lo, hi, encode_value(f.ring, f.values[(lo, hi)])]
            for lo, hi in f.poset.covers
        ],
    }


def canonical_sha256(P: Poset) -> str:
    import hashlib

    return hashlib.sha256(canonical_form(P)).hexdigest()


def require_rank_ring(ring: Ring) -> None:
    """Reject rings without a well-defined matrix rank, with guidance."""
    try:
        _field_modulus(ring)
    except UnsupportedRingError:
        raise UnsupportedRingError(
            f"the rank criterion needs a field, not {ring.label()}; use the "
            "homology command for a coefficient-independent classification"
        ) from None


# Opens every `conflicts` entry that reports a failed cross-route identity.
IDENTITY_CONFLICT = "cross-route identity fails over"


def analysis_report(P: Poset, rings, include_witness: bool = False) -> dict:
    """Full per-poset report: homology, per-ring dimensions, criteria.

    Both routes run on every report, so each requested field is
    cross-checked (homology.identity_checks); a failure becomes a
    `conflicts` entry starting with IDENTITY_CONFLICT.
    """
    from .criteria import criteria_report, table2_conflict
    from .homology import classify, identity_checks

    for ring in rings:
        require_rank_ring(ring)
    verdict = classify(P)
    divisors = relation_divisors(P)

    criteria = as_dict(criteria_report(P))
    stats = criteria.pop("stats")
    conflicts = []
    message = table2_conflict(criteria["table2_case"], verdict.torsion1)
    if message:
        conflicts.append(message)

    checks = identity_checks(P, verdict, divisors, rings)
    rings_out = []
    for ring, der, pot, agrees in checks:
        if not agrees:
            conflicts.append(
                f"{IDENTITY_CONFLICT} {ring.label()}: der - pot = {der - pot}, "
                f"but H1 has betti {verdict.betti1} and torsion "
                f"{list(verdict.torsion1)}"
            )
        rings_out.append(
            {
                "ring": ring.label(),
                "der_dim": der,
                "pot_dim": pot,
                "outer_exists": der > pot,
            }
        )
    # require_rank_ring admitted only q and prime moduli: n is the characteristic
    witness_prime = next(
        (r.n for r, der, pot, _ in checks if der > pot and r.n is not None), None
    )

    witness = None
    if include_witness and witness_prime is not None:
        w = outer_witness(P, witness_prime)
        if w is not None:
            witness = function_json(w)

    return {
        "poset": {
            "stats": stats,
            "canonical_sha256": canonical_sha256(P),
        },
        "homology": {
            "dim": 1,
            "betti": verdict.betti1,
            "torsion": list(verdict.torsion1),
        },
        "rings": rings_out,
        "conclusiveness": {
            "soluble": verdict.soluble,
            "defective_uct": verdict.defective_uct,
            "conclusive_torsion_free": verdict.conclusive_torsion_free,
        },
        "criteria": criteria,
        "conflicts": conflicts,
        "witness": witness,
    }


def sweep_json(report) -> dict:
    return {**as_dict(report), "ok": report.ok}

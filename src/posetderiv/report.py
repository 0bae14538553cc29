"""External JSON schemas: input parsing and report assembly.

``poset_json`` and ``function_json`` are the only writers of the poset
and function formats, the inverses of ``poset_from_json`` and
``function_values_from_json``.

Every numeric value in a report is exact: integers stay integers and
rationals are rendered as "p/q" strings.  No floats appear anywhere.
"""

from __future__ import annotations

import re
import sys

from .derivations import (
    TransitiveFunction, der_pot_from_divisors, outer_witness, relation_divisors,
    relation_h1, routes_agree,
)
from .errors import InputError, SizeLimitError
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


_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


def _identifier_ok(value) -> bool:
    """A nonempty string without an ASCII control character."""
    return isinstance(value, str) and value != "" and _CONTROL.search(value) is None


def poset_from_json(obj, reduce: bool = False) -> Poset:
    """Validate and build a poset from {"elements": [...], "covers": [[lo, hi], ...]}.

    With reduce=True the cover list may contain transitively redundant
    pairs; they are folded into the reduction instead of rejected.
    """
    if not isinstance(obj, dict):
        raise InputError("poset JSON must be an object")
    elements = obj.get("elements")
    covers = obj.get("covers")
    if not isinstance(elements, list) or not all(map(_identifier_ok, elements)):
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


def poset_json(P: Poset) -> dict:
    return {"elements": list(P.elements), "covers": [[lo, hi] for lo, hi in P.covers]}


def _parse_value(ring: Ring, raw):
    if isinstance(raw, bool):
        raise InputError(f"bad ring value {raw!r}")
    if isinstance(raw, int):
        return ring.normalize(raw)
    if ring.tag == "rationals" and isinstance(raw, str):
        try:  # "p/q" only: Fraction also takes "1e5000", "0.5" or " 1_0"
            if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", raw):
                return ring.normalize(raw)
        except (ValueError, ZeroDivisionError):  # digits past the limit, or q = 0
            pass
        raise InputError(f"bad rational value {raw!r}")
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
        try:
            return str(ring.normalize(value))
        except ValueError:  # past the interpreter's limit on integer text
            digits = sys.get_int_max_str_digits()
            raise SizeLimitError(f"a rational value passes the {digits}-digit limit") from None
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


# Opens the `conflicts` entry that reports a failed cross-route identity.
IDENTITY_CONFLICT = "cross-route identity fails"


def analysis_report(P: Poset, rings, include_witness: bool = False) -> dict:
    """Full per-poset report: homology, per-ring dimensions, criteria.

    Both routes run on every report and are cross-checked once
    (derivations.routes_agree); a failure becomes one `conflicts` entry
    starting with IDENTITY_CONFLICT.
    """
    from .criteria import criteria_report, table2_conflict
    from .homology import classify

    # characteristic of each ring; a ring without a rank raises here
    moduli = [_field_modulus(ring) for ring in rings]
    verdict = classify(P)
    divisors = relation_divisors(P)

    criteria = as_dict(criteria_report(P))
    stats = criteria.pop("stats")
    conflicts = []
    message = table2_conflict(criteria["table2_case"], verdict.torsion1)
    if message:
        conflicts.append(message)

    if not routes_agree(P, verdict, divisors):
        betti, torsion = relation_h1(P, divisors)
        conflicts.append(
            f"{IDENTITY_CONFLICT}: the relation matrix gives betti {betti} and "
            f"torsion {list(torsion)}, but H1 has betti {verdict.betti1} and "
            f"torsion {list(verdict.torsion1)}"
        )
    rings_out = []
    witness_prime = None
    for ring, p in zip(rings, moduli):
        der, pot = der_pot_from_divisors(P, divisors, ring)
        if witness_prime is None and der > pot and p is not None:
            witness_prime = p
        rings_out.append(
            {
                "ring": ring.label(),
                "der_dim": der,
                "pot_dim": pot,
                "outer_exists": der > pot,
            }
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

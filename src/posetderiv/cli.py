"""Command-line front end.

Exit codes: 0 success, 2 input error, 4 internal cross-check failure
(the relation-matrix and homology routes disagree) in `analyze` or a
sweep.  All output is JSON on stdout; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .criteria import criteria_report
from .derivations import from_cover_values, is_potential, outer_witness
from .errors import InputError, PosetderivError
from .fixtures import fixture_json
from .homology import euler_characteristic, full_order_complex
from .linalg import ring_from_string
from .poset import core, find_crowns, join_meet
from .report import (
    IDENTITY_CONFLICT,
    analysis_report,
    canonical_sha256,
    criteria_json,
    encode_value,
    function_json,
    function_values_from_json,
    homology_json,
    poset_from_json,
    stats_json,
    sweep_json,
)
from .survey import sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetderiv",
        description=(
            "Decide whether the incidence algebra of a finite poset admits "
            "outer derivations, over which coefficient rings, and whether "
            "the poset is soluble, defective or inconclusive."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poset_arg(p):
        p.add_argument("poset", help="path to a poset JSON file")
        p.add_argument(
            "--reduce",
            action="store_true",
            help="transitively reduce the input covers instead of rejecting them",
        )

    p = sub.add_parser("analyze", help="full report for one poset")
    add_poset_arg(p)
    p.add_argument(
        "--ring",
        action="append",
        metavar="RING",
        help="coefficient ring (q, gf:p, mod:p); repeatable; default q, gf:2, gf:3",
    )
    p.add_argument(
        "--witness",
        action="store_true",
        help="include an outer-derivation witness when one exists",
    )

    p = sub.add_parser("derivation", help="verify a function or construct a witness")
    dsub = p.add_subparsers(dest="derivation_command", required=True)
    v = dsub.add_parser("verify", help="check transitivity and potentiality")
    add_poset_arg(v)
    v.add_argument("function", help="path to a function JSON file")
    v.add_argument("--ring", help="override the ring declared in the file")
    w = dsub.add_parser("witness", help="emit an outer derivation over Z/p")
    add_poset_arg(w)
    w.add_argument("--prime", type=int, required=True, metavar="P")

    p = sub.add_parser("homology", help="integral homology of the order complex")
    add_poset_arg(p)
    p.add_argument("--dim", type=int, default=1, metavar="N")
    p.add_argument(
        "--euler",
        action="store_true",
        help="also build the full complex and report its Euler characteristic",
    )

    p = sub.add_parser("core", help="remove beat points until none remain")
    add_poset_arg(p)

    p = sub.add_parser("crowns", help="list induced crowns and their join/meet")
    add_poset_arg(p)
    p.add_argument("--max-n", type=int, default=6, metavar="N")

    p = sub.add_parser("criteria", help="combinatorial conclusiveness criteria")
    add_poset_arg(p)

    p = sub.add_parser("sweep", help="classify all posets up to a size")
    p.add_argument("--max-n", type=int, required=True, metavar="N")
    p.add_argument("--jobs", type=int, default=1, metavar="J")
    p.add_argument("--out", metavar="PATH", help="write the report to this file")

    p = sub.add_parser("fixture", help="print a built-in fixture")
    p.add_argument("name", help="rp2, table1, diamond, s5, crown:N, chain:N, antichain:N, fence:N")

    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path!r} is not valid JSON: {exc}") from None


def _load_poset(args):
    return poset_from_json(_load_json(args.poset), reduce=args.reduce)


def _cmd_analyze(args) -> tuple[dict, int]:
    P = _load_poset(args)
    ring_texts = args.ring or ["q", "gf:2", "gf:3"]
    rings = [ring_from_string(t) for t in ring_texts]
    report = analysis_report(P, rings, include_witness=args.witness)
    failed = any(c.startswith(IDENTITY_CONFLICT) for c in report["conflicts"])
    return report, 4 if failed else 0


def _cmd_derivation(args) -> tuple[dict, int]:
    P = _load_poset(args)
    if args.derivation_command == "verify":
        obj = _load_json(args.function)
        if args.ring is not None:
            obj = dict(obj)
            obj["ring"] = args.ring
        ring, values = function_values_from_json(obj, P)
        f = from_cover_values(P, ring, values)
        if f is None:
            return {"transitive": False, "potential": False, "phi": None}, 0
        phi = is_potential(f)
        if phi is None:
            return {"transitive": True, "potential": False, "phi": None}, 0
        return (
            {
                "transitive": True,
                "potential": True,
                "phi": {x: encode_value(ring, v) for x, v in phi.items()},
            },
            0,
        )
    witness = outer_witness(P, args.prime)
    return {"witness": None if witness is None else function_json(witness)}, 0


def _cmd_homology(args) -> tuple[dict, int]:
    P = _load_poset(args)
    out = {"homology": homology_json(P, args.dim)}
    if args.euler:
        out["euler_characteristic"] = euler_characteristic(full_order_complex(P))
    return out, 0


def _cmd_core(args) -> tuple[dict, int]:
    C = core(_load_poset(args))
    return (
        {
            "elements": list(C.elements),
            "covers": [list(c) for c in C.covers],
            "canonical_sha256": canonical_sha256(C),
        },
        0,
    )


def _cmd_crowns(args) -> tuple[dict, int]:
    P = _load_poset(args)
    crowns = []
    all_have = True
    for crown in find_crowns(P, args.max_n):
        join, meet = join_meet(P, sorted(crown.element_set(), key=P.index))
        if join is None and meet is None:
            all_have = False
        crowns.append(
            {
                "n": crown.n,
                "lower": list(crown.lower),
                "upper": list(crown.upper),
                "join": join,
                "meet": meet,
            }
        )
    return (
        {
            "crowns_found": len(crowns),
            "all_have_join_or_meet": all_have,
            "crowns": crowns,
        },
        0,
    )


def _cmd_criteria(args) -> tuple[dict, int]:
    P = _load_poset(args)
    rep = criteria_report(P)
    return {"stats": stats_json(rep.stats), "criteria": criteria_json(rep)}, 0


def _cmd_sweep(args) -> tuple[dict, int]:
    report = sweep(args.max_n, parallelism=args.jobs, progress=True)
    payload = sweep_json(report)
    code = 0 if report.ok else 4
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return {"written": args.out, "ok": report.ok}, code
    return payload, code


def _cmd_fixture(args) -> tuple[dict, int]:
    return fixture_json(args.name), 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "derivation": _cmd_derivation,
    "homology": _cmd_homology,
    "core": _cmd_core,
    "crowns": _cmd_crowns,
    "criteria": _cmd_criteria,
    "sweep": _cmd_sweep,
    "fixture": _cmd_fixture,
}


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = _COMMANDS[args.command](args)
    except PosetderivError as exc:
        _emit({"error": str(exc)})
        return 2
    except OSError as exc:
        _emit({"error": str(exc)})
        return 2
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())

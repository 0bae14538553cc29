"""Command-line front end.

Exit codes: 0 success, 2 input error, usage error (an unknown command
or option, a missing or malformed argument) or size limit (a fixture
above 4096, a sweep outside 1..9, a canonical search past the recursion
limit, a number past the 4300-digit limit on integer text, order-complex
chains past the chain limit of 900 elements, as in `homology --dim 950`
on 1100 stacked antichains, since a chain of k elements alone spans
2**k - 1 simplices), 4 internal cross-check failure
(H1 read off the relation matrix's Smith divisors differs from H1 of the
order complex) in `analyze` or a sweep, or a sweep level whose class
count differs from OEIS A000112.  A leading `--` is dropped, since no
option before the command takes a value.  All output is JSON on stdout,
errors included, except `--help`; progress goes to stderr.  `main` may
be called many times in one process: the argument parser is built on
the first call only, and each call parses its arguments afresh.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

from .derivations import from_cover_values, is_potential, outer_witness
from .errors import InputError, PosetderivError
from .linalg import DEFAULT_FIELDS, _ascii_int, ring_from_string
from .poset import core, find_crowns
from .report import (
    IDENTITY_CONFLICT,
    analysis_report,
    as_dict,
    canonical_sha256,
    encode_value,
    function_json,
    function_values_from_json,
    poset_from_json,
    poset_json,
    sweep_json,
)

# Parsing a poset loads the modules above; a command that needs one more
# imports it inside the command, so no call loads what it does not use.


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as InputError, so that it reaches stdout as
    JSON like any other error; subparsers are made of the same class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posetderiv",
        description=(
            "Decide whether the incidence algebra of a finite poset admits "
            "outer derivations, over which coefficient rings, and whether "
            "the poset is soluble, defective or inconclusive."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def integer(text):
        # ASCII digits; a leading "-" passes, for the commands to reject
        return -_ascii_int(text[1:]) if text[:1] == "-" else _ascii_int(text)

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
    w.add_argument("--prime", type=integer, required=True, metavar="P")

    p = sub.add_parser("homology", help="integral homology of the order complex")
    add_poset_arg(p)
    p.add_argument("--dim", type=integer, default=1, metavar="N")
    p.add_argument(
        "--euler",
        action="store_true",
        help="also report the Euler characteristic of the order complex, "
        "from the Moebius function of the poset without building the complex",
    )

    p = sub.add_parser("core", help="remove beat points until none remain")
    add_poset_arg(p)

    p = sub.add_parser("crowns", help="list induced crowns and their join/meet")
    add_poset_arg(p)
    p.add_argument("--max-n", type=integer, default=6, metavar="N")

    p = sub.add_parser("criteria", help="combinatorial conclusiveness criteria")
    add_poset_arg(p)

    p = sub.add_parser("sweep", help="classify all posets up to a size")
    p.add_argument("--max-n", type=integer, required=True, metavar="N")
    p.add_argument(
        "--jobs",
        type=integer,
        default=1,
        metavar="J",
        help="worker processes, at least 1; no more than the CPU count start",
    )
    p.add_argument("--out", metavar="PATH", help="write the report to this file")

    p = sub.add_parser("fixture", help="print a built-in fixture")
    p.add_argument("name", help="rp2, table1, diamond, s5, crown:N, chain:N, antichain:N, fence:N")

    return parser


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a report.

    Reports hold only dicts with string keys, lists, tuples, strings,
    integers, booleans and None; anything else raises TypeError.  The
    standard library falls back to its pure-Python encoder whenever an
    indent is given, which this walk outruns.
    """
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, not {type(key).__name__}")
            out.append(sep)
            out.append(_escape(key))
            out.append(": ")
            if type(item) is str:  # the common leaf, without a call
                out.append(_escape(item))
            else:
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            if type(item) is str:
                out.append(_escape(item))
            else:
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"cannot write a {type(value).__name__} in a report")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path!r} is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise InputError(f"{path!r} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path!r} is nested too deeply") from None


def _load_poset(args):
    return poset_from_json(_load_json(args.poset), reduce=args.reduce)


def _cmd_analyze(args) -> tuple[dict, int]:
    P = _load_poset(args)
    rings = [ring_from_string(t) for t in args.ring] if args.ring else DEFAULT_FIELDS
    report = analysis_report(P, rings, include_witness=args.witness)
    failed = any(c.startswith(IDENTITY_CONFLICT) for c in report["conflicts"])
    return report, 4 if failed else 0


def _cmd_derivation(args) -> tuple[dict, int]:
    P = _load_poset(args)
    if args.derivation_command == "verify":
        obj = _load_json(args.function)
        if args.ring is not None and isinstance(obj, dict):
            obj = {**obj, "ring": args.ring}
        ring, values = function_values_from_json(obj)
        f = from_cover_values(P, ring, values)
        phi = None if f is None else is_potential(f)
        return {
            "transitive": f is not None,
            "potential": phi is not None,
            "phi": None if phi is None else {x: encode_value(ring, v) for x, v in phi.items()},
        }, 0
    witness = outer_witness(P, args.prime)
    return {"witness": None if witness is None else function_json(witness)}, 0


def _cmd_homology(args) -> tuple[dict, int]:
    from .homology import euler_by_moebius, homology

    P = _load_poset(args)
    out = {"homology": as_dict(homology(P, args.dim))}
    if args.euler:
        out["euler_characteristic"] = euler_by_moebius(P)
    return out, 0


def _cmd_core(args) -> tuple[dict, int]:
    C = core(_load_poset(args))
    return {**poset_json(C), "canonical_sha256": canonical_sha256(C)}, 0


def _cmd_crowns(args) -> tuple[dict, int]:
    from .criteria import CrownReport

    P = _load_poset(args)
    crowns = find_crowns(P, args.max_n)
    # find_crowns gives walk order; the listing goes by n, then lower and upper indices
    crowns.sort(key=lambda c: (c.n, [*map(P.index, c.lower)], [*map(P.index, c.upper)]))
    listing = [{"n": c.n, **c._asdict()} for c in crowns]  # n, lower, upper, join, meet
    return {**as_dict(CrownReport.from_crowns(crowns)), "crowns": listing}, 0


def _cmd_criteria(args) -> tuple[dict, int]:
    from .criteria import criteria_report

    criteria = as_dict(criteria_report(_load_poset(args)))
    return {"stats": criteria.pop("stats"), "criteria": criteria}, 0


def _cmd_sweep(args) -> tuple[dict, int]:
    from .survey import sweep

    report = sweep(args.max_n, parallelism=args.jobs, progress=True)
    payload = sweep_json(report)
    code = 0 if report.ok else 4
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_json_text(payload) + "\n")
        return {"written": args.out, "ok": report.ok}, code
    return payload, code


def _cmd_fixture(args) -> tuple[dict, int]:
    from .fixtures import fixture_json

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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--":
        argv = argv[1:]
    try:
        try:
            args = _build_parser().parse_args(argv)
        except InputError:
            # before the command only --help is known, and it exits first;
            # argparse takes an unknown option's value for the command
            first = argv[0] if argv else ""
            if first.startswith("-") and first.strip("-"):
                raise InputError(f"posetderiv: unrecognized arguments: {first}") from None
            raise
        payload, code = _COMMANDS[args.command](args)
    except (PosetderivError, OSError) as exc:
        payload, code = {"error": str(exc)}, 2
    try:
        print(_json_text(payload), flush=True)
    except BrokenPipeError:
        # the reader left early (`| grep -q`); keep the flush at exit quiet
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks on CLI reports, valid for every workload seed.

Each check returns None when the report is right and a short reason
when it is not.  Reports are checked against facts the benchmark knows
independently of the program: the homology of the generated families,
the identity tying the relation matrix to H1, isomorphism invariance
across relabeled copies, and the published class counts.
"""

from __future__ import annotations

import json

from inputs import DEFAULT_RINGS, SWEEP_COUNTS


class Checker:
    """Checks one report at a time and remembers, per isomorphism group,
    the first answer seen, which every relabeled copy must repeat."""

    def __init__(self):
        self.groups: dict[str, object] = {}

    def check(self, request, code, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if not isinstance(report, dict):
            return "report is not a JSON object"
        try:
            return getattr(self, "_" + request.check)(report, request.expect)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            return f"malformed {request.check} report: {exc!r}"

    def _same_in_group(self, group: str, signature) -> str | None:
        first = self.groups.setdefault(group, signature)
        if first != signature:
            return f"relabeled copy of {group} answered {signature}, first copy {first}"
        return None

    def _analyze(self, rep, expect):
        betti = rep["homology"]["betti"]
        torsion = rep["homology"]["torsion"]
        if betti < 0 or any(t < 2 for t in torsion):
            return f"impossible H1: betti {betti}, torsion {torsion}"
        if [r["ring"] for r in rep["rings"]] != list(DEFAULT_RINGS):
            return f"rings {[r['ring'] for r in rep['rings']]}"
        for r in rep["rings"]:
            p = None if r["ring"] == "q" else int(r["ring"].split(":")[1])
            killed = 0 if p is None else sum(1 for t in torsion if t % p == 0)
            if r["der_dim"] - r["pot_dim"] != betti + killed:
                return f"{r['ring']}: der - pot = {r['der_dim'] - r['pot_dim']}, H1 says {betti + killed}"
            if r["outer_exists"] != (r["der_dim"] > r["pot_dim"]):
                return f"{r['ring']}: outer_exists contradicts dimensions"
        verdict = rep["conclusiveness"]
        if verdict != {
            "soluble": betti == 0 and not torsion,
            "defective_uct": betti >= 1,
            "conclusive_torsion_free": not torsion,
        }:
            return f"conclusiveness {verdict} contradicts H1"
        if "betti" in expect and (betti, torsion) != (expect["betti"], expect["torsion"]):
            return f"H1 betti {betti} torsion {torsion}, expected {expect['betti']} {expect['torsion']}"
        conflicts = rep["conflicts"]
        wanted = expect.get("conflict")
        if wanted is not None and not any(wanted in c for c in conflicts):
            return f"missing conflict {wanted!r}: {conflicts}"
        if not torsion and conflicts:
            return f"conflict reported without torsion: {conflicts}"
        signature = (rep["poset"]["canonical_sha256"], betti, torsion, rep["rings"])
        return self._same_in_group(expect["group"], signature)

    def _core(self, rep, expect):
        elements = rep["elements"]
        known = set(elements)
        ups = dict.fromkeys(elements, 0)
        downs = dict.fromkeys(elements, 0)
        for lo, hi in rep["covers"]:
            if lo not in known or hi not in known:
                return f"cover ({lo}, {hi}) names an element outside the core"
            ups[lo] += 1
            downs[hi] += 1
        beat = [e for e in elements if ups[e] == 1 or downs[e] == 1]
        if beat:
            return f"core keeps beat points {beat[:3]}"
        if "n" in expect and len(elements) != expect["n"]:
            return f"core has {len(elements)} elements, expected {expect['n']}"
        return self._same_in_group(expect["group"], (rep["canonical_sha256"], len(elements)))

    def _homology(self, rep, expect):
        h = rep["homology"]
        if h["dim"] != expect["dim"] or h["betti"] < 0 or any(t < 2 for t in h["torsion"]):
            return f"impossible homology {h}"
        if "betti" in expect and (h["betti"], h["torsion"]) != (expect["betti"], expect["torsion"]):
            return f"H{h['dim']} {h}, expected betti {expect['betti']} torsion {expect['torsion']}"
        return None

    def _witness(self, rep, expect):
        w = rep["witness"]
        if not expect["exists"]:
            return None if w is None else f"witness over Z/{expect['prime']} where none exists"
        if w is None:
            return f"no witness over Z/{expect['prime']}"
        if w["ring"] != f"mod:{expect['prime']}":
            return f"witness ring {w['ring']}"
        if not w["cover_values"]:
            return "empty witness"
        return None

    def _verify(self, rep, expect):
        if rep != {"transitive": True, "potential": False, "phi": None}:
            return f"witness does not verify as an outer derivation: {rep}"
        return None

    def _sweep(self, rep, expect):
        counts = [c for _, c in rep["counts_by_n"]]
        if counts != list(SWEEP_COUNTS[: expect["max_n"]]):
            return f"class counts {counts}"
        if rep["ok"] is not True or rep["identity_failures"] or rep["inconclusive_found"]:
            return "sweep not ok or found inconclusive classes below 13 elements"
        return None

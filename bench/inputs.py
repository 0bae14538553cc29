"""Seeded input generators and the request lists of the four workloads.

A poset here is the CLI's JSON form, ``{"elements": [...], "covers":
[[lo, hi], ...]}``.  Named fixtures (chains, crowns, the diamond, rp2,
s5) come from ``posetderiv.fixtures`` so that the benchmark keeps no
second copy of them; everything else is generated from the workload
seed.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from posetderiv.fixtures import fixture_json

WORKLOADS = ("lattice", "symmetric", "derive", "sweep")

# Timed runs cycle through this many pass variants; each variant draws
# its own random posets and relabelings from the seed.
VARIANTS = 6

DEFAULT_RINGS = ("q", "gf:2", "gf:3")

# Classes of posets on 1..7 elements (OEIS A000112).
SWEEP_COUNTS = (1, 2, 5, 16, 63, 318, 2045)
SWEEP_MAX_N = len(SWEEP_COUNTS)


@dataclass
class Request:
    """One CLI call: ``posetderiv.cli.main(argv)`` and what to check."""

    argv: list[str]
    check: str
    expect: dict = field(default_factory=dict)
    posets: int = 1


@dataclass
class Workload:
    passes: list[list[Request]]
    inputs: list[str]


# -- generators ---------------------------------------------------------


def named(name: str) -> dict:
    return fixture_json(name)


def product(P: dict, Q: dict) -> dict:
    """Cartesian product order: (p, q) <= (p', q') iff p <= p' and q <= q'.

    Its covers change one coordinate by a cover and keep the other.
    """
    elements = [f"{p}.{q}" for p in P["elements"] for q in Q["elements"]]
    covers = [[f"{a}.{q}", f"{b}.{q}"] for a, b in P["covers"] for q in Q["elements"]]
    covers += [[f"{p}.{a}", f"{p}.{b}"] for p in P["elements"] for a, b in Q["covers"]]
    return {"elements": elements, "covers": covers}


def grid(a: int, b: int) -> dict:
    """The a x b grid, the product of two chains."""
    return product(named(f"chain:{a}"), named(f"chain:{b}"))


def boolean(k: int) -> dict:
    """The Boolean lattice B_k, the product of k two-element chains."""
    out = named("chain:2")
    for _ in range(k - 1):
        out = product(out, named("chain:2"))
    return out


def layered(rng: random.Random, sizes, degree: int) -> dict:
    """Random graded poset: each element covers `degree` random elements
    of the layer below.  Covers join adjacent layers only, so the cover
    list is transitively reduced by construction."""
    layers = [[f"l{d}_{i}" for i in range(s)] for d, s in enumerate(sizes)]
    covers = []
    for below, above in zip(layers, layers[1:]):
        for hi in above:
            for lo in sorted(rng.sample(below, min(degree, len(below)))):
                covers.append([lo, hi])
    return {"elements": [e for layer in layers for e in layer], "covers": covers}


def relabel(rng: random.Random, P: dict) -> dict:
    """An isomorphic copy with fresh names, element order and cover order."""
    names = [f"v{i}" for i in range(len(P["elements"]))]
    rng.shuffle(names)
    rename = dict(zip(P["elements"], names))
    elements = list(names)
    rng.shuffle(elements)
    covers = [[rename[lo], rename[hi]] for lo, hi in P["covers"]]
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}


def cycle_rank(P: dict) -> int:
    """E - V + C of the Hasse diagram; equals betti1 for height <= 2."""
    parent = {e: e for e in P["elements"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(parent)
    for lo, hi in P["covers"]:
        a, b = find(lo), find(hi)
        if a != b:
            parent[a] = b
            components -= 1
    return len(P["covers"]) - len(P["elements"]) + components


# -- workloads ----------------------------------------------------------


class _Files:
    """Writes each generated poset once and remembers its path."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.paths: list[str] = []

    def add(self, key: str, poset: dict) -> str:
        path = self.workdir / f"{key}.json"
        if not path.exists():
            path.write_text(json.dumps(poset), encoding="utf-8")
            self.paths.append(str(path))
        return str(path)


def _analyze(path, group, **expect):
    return Request(["analyze", path], "analyze", dict(expect, group=group))


def _core(path, group, **expect):
    return Request(["core", path], "core", dict(expect, group="core:" + group))


SOLUBLE = {"betti": 0, "torsion": []}


def _lattice(rng: random.Random, files: _Files) -> list[list[Request]]:
    path = {}
    for a, b in ((3, 3), (3, 4), (4, 4), (3, 5), (4, 5), (5, 5)):
        path[f"grid{a}x{b}"] = files.add(f"grid{a}x{b}", grid(a, b))
    for k in (3, 4, 5):
        path[f"B{k}"] = files.add(f"B{k}", boolean(k))
    path["s5"] = files.add("s5", named("s5"))

    # Cores take a few milliseconds each; few of them keep the median
    # request among the analyses of random posets, where request costs
    # vary smoothly, instead of on the step from cores to analyses.
    fixed = [_core(path["s5"], "s5", n=12)]
    fixed += [_core(path[key], key, n=1) for key in ("grid4x5", "grid5x5", "B5")]
    for key in path:
        if key not in ("grid5x5", "B5"):
            fixed.append(_analyze(path[key], key, **SOLUBLE))
    # A pass has 49 requests.  The median falls among H2 of grid 3x4
    # (about 50 ms) and the 90th percentile in the middle of H2 of grid
    # 3x5 (about 0.35 s), just below the three analyses of grid 4x5, grid
    # 5x5 and B5.  The copies make those clusters wide enough that the
    # seeded random posets, whose costs vary with the seed, cannot move
    # either percentile out of them.
    copies = {"grid3x4": 5, "grid3x5": 4, "B4": 1, "s5": 1}
    for key, n in copies.items():
        fixed += [Request(["homology", path[key], "--dim", "2"], "homology", dict(SOLUBLE, dim=2))] * n

    # grid 5x5 and B5 take seconds each and most of a pass's time; both
    # are in every pass so that all passes are alike in cost.
    fixed += [_analyze(path[key], key, **SOLUBLE) for key in ("grid5x5", "B5")]
    passes = []
    for v in range(VARIANTS):
        reqs = list(fixed)
        drawn = []
        for d, sizes in enumerate(((5, 5, 5), (4, 6, 6, 4), (5, 6, 6, 5), (6, 6, 6, 6)) * 3):
            key = f"layered{v}_{d}"
            drawn.append((files.add(key, layered(rng, sizes, 2)), key))
            reqs.append(_analyze(drawn[-1][0], key))
        for p, key in rng.sample(drawn, len(drawn) // 2):
            reqs.append(_core(p, key))
            reqs.append(Request(["homology", p, "--dim", "2"], "homology", {"dim": 2}))
        rng.shuffle(reqs)
        passes.append(reqs)
    return passes


def _symmetric(rng: random.Random, files: _Files) -> list[list[Request]]:
    crown = {"betti": 1, "torsion": []}
    torus = {"betti": 2, "torsion": []}
    rp2 = {"betti": 0, "torsion": [2], "conflict": "table2 case 15"}
    # (name, poset, expected H1, copies per pass).  Canonical form's
    # cost depends on the labeling, by up to 2x between relabeled
    # copies, so a percentile is steady only inside a wide cluster of
    # similar requests: the copy counts put the median among the crown:4
    # and crown:5 requests (3-10 ms) and the 90th percentile among
    # crown:6 and the 2x2 torus (12-31 ms), below the five requests of
    # a pass that take 0.1 s and more.
    bases = [
        ("crown4", named("crown:4"), crown, 14),
        ("crown5", named("crown:5"), crown, 14),
        ("crown6", named("crown:6"), crown, 4),
        ("crown7", named("crown:7"), crown, 1),
        ("torus2x2", product(named("crown:2"), named("crown:2")), torus, 3),
        ("torus2x3", product(named("crown:2"), named("crown:3")), torus, 1),
        ("rp2", named("rp2"), rp2, 4),
    ]
    passes = []
    for v in range(VARIANTS):
        reqs = []
        for key, base, expect, copies in bases:
            for c in range(copies):
                path = files.add(f"{key}_{v}_{c}", relabel(rng, base))
                reqs.append(_analyze(path, key, **expect))
                reqs.append(_core(path, key, n=len(base["elements"])))
        # crown:8 takes seconds per request, so one pass has one of them,
        # analyze and core in turn.
        path = files.add(f"crown8_{v}", relabel(rng, named("crown:8")))
        if v % 2 == 0:
            reqs.append(_analyze(path, "crown8", **crown))
        else:
            reqs.append(_core(path, "crown8", n=16))
        rng.shuffle(reqs)
        passes.append(reqs)
    return passes


def _derive(rng: random.Random, files: _Files) -> list[list[Request]]:
    # (name, poset, copies per pass).  A pass has 95 requests, each
    # witness followed by its verify.  The random posets' requests take
    # 3-6 ms and hold the median; the witnesses of crown:4 x chain:3 and
    # crown:2 x diamond take about 12 ms, and their copies put the 90th
    # percentile inside them, below the two of crown:5 x chain:3 (18 ms).
    fixed = []
    for a, b, copies in ((3, 2, 1), (4, 2, 1), (4, 3, 4), (5, 3, 1)):
        fixed.append((f"crown{a}xchain{b}", product(named(f"crown:{a}"), named(f"chain:{b}")), copies))
    fixed.append(("crown2xdiamond", product(named("crown:2"), named("diamond")), 4))

    passes = []
    for v in range(VARIANTS):
        posets = list(fixed)
        for d, sizes in enumerate(((4, 5), (5, 6), (6, 7)) * 4):
            while True:
                P = layered(rng, sizes, 2 + d % 2)
                if cycle_rank(P) >= 1:
                    break
            posets.append((f"bipartite{v}_{d}", P, 1))
        reqs = []
        for key, P, copies in posets:
            path = files.add(key, P)
            for p in (2, 3):
                reqs += [_witness(path, p, exists=True)] * copies
        path = files.add("rp2", named("rp2"))
        reqs.append(_witness(path, 2, exists=True))
        reqs.append(_witness(path, 3, exists=False))
        rng.shuffle(reqs)
        passes.append(reqs)
    return passes


def _witness(path, p, exists):
    return Request(
        ["derivation", "witness", path, "--prime", str(p)],
        "witness",
        {"prime": p, "exists": exists, "poset": path},
    )


def verify_request(poset_path: str, witness_path: str) -> Request:
    """The follow-up check of a witness: it must be transitive and outer."""
    return Request(["derivation", "verify", poset_path, witness_path], "verify")


def _sweep(rng: random.Random, files: _Files) -> list[list[Request]]:
    # A whole sweep is one request.  With sweeps to 7 elements alone a run
    # holds about ten requests and its 90th percentile is its slowest
    # sweep.  A pass of one sweep to 7, three to 6 and one to 5 puts the
    # median in the middle of the sweeps to 6 and the 90th percentile
    # inside the sweeps to 7, away from the steps between sweep sizes.
    reqs = (
        [_sweep_request(SWEEP_MAX_N)]
        + [_sweep_request(SWEEP_MAX_N - 1)] * 3
        + [_sweep_request(SWEEP_MAX_N - 2)]
    )
    rng.shuffle(reqs)
    return [reqs]


def _sweep_request(max_n: int) -> Request:
    return Request(
        ["sweep", "--max-n", str(max_n), "--jobs", "1"],
        "sweep",
        {"max_n": max_n},
        posets=sum(SWEEP_COUNTS[:max_n]),
    )


_BUILDERS = {
    "lattice": _lattice,
    "symmetric": _symmetric,
    "derive": _derive,
    "sweep": _sweep,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs into workdir and its pass variants."""
    files = _Files(workdir)
    passes = _BUILDERS[name](random.Random(f"{name}:{seed}"), files)
    return Workload(passes=passes, inputs=files.paths)

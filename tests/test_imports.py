"""What a fresh interpreter loads, and the package's lazy re-exports.

Each test runs in a new interpreter, because by then the test run has
imported every submodule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import posetderiv

REPO = Path(posetderiv.__file__).resolve().parent.parent.parent


def fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints."""
    path = os.pathsep.join([str(REPO / "src"), str(REPO / "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_only_what_parsing_needs():
    loaded = fresh(
        "import json, sys, posetderiv.cli; print(json.dumps([*sys.modules]))"
    )
    unwanted = {
        "dataclasses",
        "hashlib",
        "fractions",
        "posetderiv.survey",
        "posetderiv.criteria",
        "posetderiv.fixtures",
        "posetderiv.homology",
    }
    assert unwanted.isdisjoint(loaded)
    assert "posetderiv.report" in loaded


def test_every_public_name_resolves_lazily():
    names = fresh(
        "import json, posetderiv as p\n"
        "print(json.dumps([n for n in p.__all__ if getattr(p, n, None) is None]"
        " + sorted(set(p.__all__) - set(dir(p)))))"
    )
    assert names == []
    assert len(posetderiv.__all__) == len(set(posetderiv.__all__)) == 77


def test_homology_name_stays_the_function():
    kinds = fresh(
        "import json, sys, posetderiv\n"
        "kinds = [callable(posetderiv.homology)]\n"
        "import posetderiv.homology\n"
        "from posetderiv import homology\n"
        "module = sys.modules['posetderiv.homology']\n"
        "kinds += [posetderiv.homology is module.homology]\n"
        "kinds += [homology is module.homology]\n"
        "print(json.dumps(kinds))"
    )
    assert kinds == [True, True, True]


def test_tracing_a_cold_cli_leaves_no_wrapper():
    # The tracer imports every traced module, so modules the CLI loads on
    # demand first load while the functions they use are wrapped.
    leftover = fresh(
        "import json, posetderiv.cli, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
        "print(json.dumps(tracing.leftover_wrappers()))"
    )
    assert leftover == []

"""Benchmark worker: runs `posetderiv.cli.main` in-process, one request at a time.

Protocol: one JSON object per line on stdin, one JSON reply per line on
stdout.  Operations:

  {"op": "run", "argv": [...], "id": n}    -> {"code", "stdout", "error"}
  {"op": "calibrate"}                       -> {"ms"}
  {"op": "trace", "on": bool}               -> {"ok": true}
  {"op": "finish", "spans": path}           -> {"leftover"}
  {"op": "stats"}                           -> {"peak_rss_kib"}
  {"op": "quit"}

`python3 worker.py --ready LIST` is the set-up probe instead: it imports
the CLI, parses every poset file named in LIST and exits.

Every request runs under a wall-time watchdog (SIGALRM), so a hang is
reported as a failure instead of stalling the run.  `calibrate` times a
fixed pure-Python reference kernel, which the client uses to follow the
host's speed (see run.py).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# A request that runs longer than this is stopped by the watchdog.
REQUEST_LIMIT_S = 30.0
# Kernel runs per calibration; the reply is their median.
CALIBRATION_REPEATS = 5


class RequestTimeout(BaseException):
    """Raised by the watchdog; a BaseException so no handler in the
    program under test can swallow it."""


def _alarm(signum, frame):
    raise RequestTimeout()


def run_request(cli, argv) -> dict:
    out = io.StringIO()
    error = None
    code = None
    signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except RequestTimeout:
        error = f"timed out after {REQUEST_LIMIT_S} s"
    except SystemExit as exc:
        error = f"exited with {exc.code}"
    except Exception:
        error = traceback.format_exc(limit=-3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"code": code, "stdout": out.getvalue(), "error": error}


def reference_kernel() -> int:
    """About a millisecond of the dict, set, tuple and integer work that
    dominates the program, independent of the program's code."""
    table: dict[int, tuple[int, int]] = {}
    for i in range(1500):
        key = (i * 7919) % 1021
        lo, hi = table.get(key, (0, 0))
        table[key] = (lo + i, hi ^ (i * i))
    seen = set()
    acc = 0
    for key in sorted(table):
        lo, hi = table[key]
        seen.add(lo % 97)
        acc = (acc * 31 + hi) % 1000003
    return acc + len(seen)


def calibrate() -> float:
    """Median wall time, in ms, of a few runs of the reference kernel.

    The collector is off meanwhile, so that the objects the program
    keeps alive cannot change the kernel's cost."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            reference_kernel()
            times.append((time.perf_counter() - t0) * 1000)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[len(times) // 2]


def serve() -> None:
    from posetderiv import cli

    import tracing

    signal.signal(signal.SIGALRM, _alarm)
    channel = sys.stdout
    tracer = tracing.Tracer()

    def reply(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    reply({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            tracer.request = msg["id"]
            reply(run_request(cli, msg["argv"]))
        elif op == "calibrate":
            reply({"ms": calibrate()})
        elif op == "trace":
            if msg["on"]:
                tracer.install()
            else:
                tracer.uninstall()
            reply({"ok": True})
        elif op == "finish":
            tracer.uninstall()
            with open(msg["spans"], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
            reply({"leftover": tracing.leftover_wrappers()})
        elif op == "stats":
            reply({"peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        elif op == "quit":
            return
        else:
            reply({"error": f"unknown op {op!r}"})


def ready(list_path: str) -> None:
    import posetderiv.cli  # noqa: F401
    from posetderiv.report import poset_from_json

    for path in Path(list_path).read_text(encoding="utf-8").splitlines():
        with open(path, encoding="utf-8") as fh:
            poset_from_json(json.load(fh))


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--ready":
        ready(sys.argv[2])
    else:
        serve()

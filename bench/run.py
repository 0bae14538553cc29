"""posetderiv benchmark: closed-loop CLI workloads, checked outputs, metrics.

    python3 bench/run.py --workload lattice --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One client (this process) drives one worker process (worker.py), which
calls `posetderiv.cli.main` in-process.  A request is sent only after
the previous reply has arrived, so at most one process is busy.  Every
reply is checked (checks.py); a failure is an exception, a nonzero exit
code, a watchdog timeout or a report that fails its check.

A timed run repeats passes over the workload's requests, sends no new
request once --seconds have elapsed, and reports on the passes it
completed.  Between requests it calibrates the worker's speed with a
fixed reference kernel and spreads its set-up probes over the run; every
time it reports is scaled to the reference speed (see `Speed`).  With
--trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a separate traced run
(tracing.py), which alternates untraced and traced copies of the first
two passes and requires their reports to be byte-identical.
"""

from __future__ import annotations

import argparse
import bisect
import json
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(ROOT / "src"))
from worker import REQUEST_LIMIT_S  # noqa: E402

# The client gives up on a worker that misses the watchdog by this much.
BACKSTOP_S = 15.0
# The traced run finishes its pass pair unless it runs this far past --seconds.
GRACE_S = 60.0
# Set-up probes per timed run, spread evenly over it.
SETUP_SPAWNS = 15
# The worker is calibrated after a request once this long has passed
# since the last calibration.
CALIBRATE_EVERY_S = 0.25
# A time is scaled by the median of the calibrations this close to it.
CALIBRATION_WINDOW_S = 2.0
# The reference speed: the reference kernel's time, in ms.  On the 2-CPU
# x86-64 host of the baselines (CPython 3.11) it took 0.5-1.0 ms.
REFERENCE_KERNEL_MS = 0.8

END_TO_END_UNITS = {
    "setup_s": "s",
    "posets_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


class WorkerLost(Exception):
    pass


class Worker:
    """The worker process and its line protocol."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        self.call(None, timeout=60.0)

    def call(self, msg, timeout=REQUEST_LIMIT_S + BACKSTOP_S):
        if msg is not None:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise WorkerLost("worker died or stopped answering")
        return json.loads(line)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.kill()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Speed:
    """The host's speed over a run, from the worker's calibrations.

    A shared host's speed can drift by tens of percent within seconds
    and between minutes (NOTES.md), more than the changes the benchmark
    must resolve.  The reference kernel is pure Python and independent
    of the program, so its time tracks only the host; a time divided by
    `factor` is what it would have been at the reference speed.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernel_ms: list[float] = []

    def add(self, t: float, kernel_ms: float) -> None:
        self.times.append(t)
        self.kernel_ms.append(kernel_ms)

    def factor(self, t: float) -> float:
        lo = bisect.bisect_left(self.times, t - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.times, t + CALIBRATION_WINDOW_S)
        near = self.kernel_ms[lo:hi]
        if len(near) < 3:  # a long request: the calibrations on either side
            i = bisect.bisect_left(self.times, t)
            near = self.kernel_ms[max(0, i - 2) : i + 2] or [REFERENCE_KERNEL_MS]
        return statistics.median(near) / REFERENCE_KERNEL_MS


class Loop:
    """Sends requests one at a time and records latency and failures."""

    def __init__(self, worker, checker, workdir: Path):
        self.worker = worker
        self.checker = checker
        self.workdir = workdir
        self.latencies_ms: list[float] = []
        self.midpoints: list[float] = []
        # Called between two requests of a pass, with the worker idle.
        self.between = lambda: None
        self.attempted = 0
        self.failed = 0
        self.posets = 0
        self.errors: list[str] = []
        self.outputs: list[str] = []
        self.next_id = 0

    def send(self, request) -> dict | None:
        from inputs import verify_request

        rid = self.next_id
        self.next_id += 1
        msg = {"op": "run", "argv": request.argv, "id": rid}
        t0 = time.perf_counter()
        try:
            reply = self.worker.call(msg)
        finally:
            t1 = time.perf_counter()
            self.latencies_ms.append((t1 - t0) * 1000)
            self.midpoints.append((t0 + t1) / 2)
            self.attempted += 1
        problem = reply["error"] or self.checker.check(request, reply["code"], reply["stdout"])
        self.outputs.append(reply["stdout"])
        if problem:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(request.argv)}: {problem}")
            return reply
        self.posets += request.posets
        if request.check == "witness" and request.expect["exists"]:
            witness = self.workdir / "witness.json"
            witness.write_text(json.dumps(json.loads(reply["stdout"])["witness"]))
            self.send(verify_request(request.expect["poset"], str(witness)))
        return reply

    def run_pass(self, requests, stop_at: float) -> bool:
        """Run one pass; False if it reached stop_at first."""
        for request in requests:
            if time.perf_counter() >= stop_at:
                return False
            self.send(request)
            self.between()
        return True


def quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def probe_setup(listing: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and parsing inputs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--ready", str(listing)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    # Popen.wait(timeout) polls in steps of up to 50 ms, which would
    # quantize the reading; the pipe reaches EOF the moment the probe exits.
    with proc.stdout:
        exited = select.select([proc.stdout], [], [], 60.0)[0] and not proc.stdout.read()
    if not exited:
        proc.kill()
    code = proc.wait()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def end_to_end(latencies_ms: list[float], setup_s: list[float], done: tuple[int, int]) -> dict:
    """Percentiles of every request sent: a pass is shuffled, so the part
    of one cut short by the deadline is a fair sample of the mix.
    Throughput over complete passes only (`done`: posets and requests),
    where a single heavy request in or out would tip it."""
    posets, count = done
    latencies_ms = latencies_ms or [0.0]
    return {
        "setup_s": statistics.median(setup_s or [0.0]),
        "posets_per_s": posets / max(sum(latencies_ms[:count]) / 1000, 1e-9),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": quantile(latencies_ms, 0.9),
    }


def timed_run(workload, seconds: float, workdir: Path) -> dict:
    """Timed passes; the metrics cover the passes completed in --seconds."""
    from checks import Checker

    listing = workdir / "inputs.txt"
    listing.write_text("\n".join(workload.inputs), encoding="utf-8")
    worker = Worker()
    loop = Loop(worker, Checker(), workdir)
    speed = Speed()
    setup = []  # (start, seconds) of each set-up probe

    def calibrate():
        speed.add(time.perf_counter(), worker.call({"op": "calibrate"})["ms"])

    def between():
        now = time.perf_counter()
        if len(setup) < SETUP_SPAWNS and now >= start + len(setup) * seconds / SETUP_SPAWNS:
            setup.append((now, probe_setup(listing)))
            calibrate()
        elif now - speed.times[-1] >= CALIBRATE_EVERY_S:
            calibrate()

    passes = 0
    done = None  # (posets, requests) at the end of the last complete pass
    try:
        calibrate()
        loop.between = between
        start = time.perf_counter()
        while loop.run_pass(workload.passes[passes % len(workload.passes)], start + seconds):
            passes += 1
            done = (loop.posets, len(loop.latencies_ms))
        while len(setup) < SETUP_SPAWNS:
            setup.append((time.perf_counter(), probe_setup(listing)))
            calibrate()
        calibrate()
        rss_mib = worker.call({"op": "stats"})["peak_rss_kib"] / 1024
    except WorkerLost as exc:
        loop.failed += 1
        loop.errors.append(str(exc))
        rss_mib = 0.0
    finally:
        worker.close()
    done = done or (loop.posets, len(loop.latencies_ms))
    metrics = end_to_end(
        [ms / speed.factor(t) for ms, t in zip(loop.latencies_ms, loop.midpoints)],
        [s / speed.factor(t) for t, s in setup],
        done,
    )
    unscaled = end_to_end(loop.latencies_ms, [s for _, s in setup], done)
    kernel = speed.kernel_ms or [REFERENCE_KERNEL_MS]
    print(
        f"bench: {len(kernel)} calibrations, reference kernel "
        f"{min(kernel):.3f}-{max(kernel):.3f} ms (median {statistics.median(kernel):.3f}); unscaled "
        + ", ".join(f"{k} {v:.4g}" for k, v in unscaled.items()),
        file=sys.stderr,
    )
    metrics["peak_rss_mb"] = rss_mib
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "passes": passes,
        "errors": loop.errors,
    }


# sweep reports carry their own wall time, which tracing may change
_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def traced_run(workload, seconds: float, workdir: Path) -> dict:
    """Alternate untraced and traced copies of passes 0 and 1; derive layer numbers."""
    from checks import Checker
    import tracing

    # Two passes, because on symmetric crown:8 is analyzed in one and cored
    # in the other.
    requests = [r for p in workload.passes[:2] for r in p]
    worker = Worker()
    loop = Loop(worker, Checker(), workdir)
    walls = {False: 0.0, True: 0.0}
    pass_ids: list[range] = []
    spans_path = workdir / "spans.jsonl"
    leftover = None  # wrappers still installed after the run; None if unknown
    try:
        start = time.perf_counter()
        stop_at = start + seconds + GRACE_S
        while time.perf_counter() - start < seconds or not pass_ids:
            outputs = {}
            for traced in (False, True):
                worker.call({"op": "trace", "on": traced})
                first, mark = loop.next_id, len(loop.outputs)
                t0 = time.perf_counter()
                if not loop.run_pass(requests, stop_at):
                    break
                walls[traced] += time.perf_counter() - t0
                outputs[traced] = [_ELAPSED.sub("", o) for o in loop.outputs[mark:]]
                if traced:
                    pass_ids.append(range(first, loop.next_id))
            if len(outputs) < 2:
                break
            if outputs[False] != outputs[True]:
                loop.failed += 1
                loop.errors.append("traced reports differ from untraced reports")
        worker.call({"op": "trace", "on": False})
        leftover = worker.call({"op": "finish", "spans": str(spans_path)})["leftover"]
    except WorkerLost as exc:
        loop.failed += 1
        loop.errors.append(str(exc))
    finally:
        worker.close()
    if leftover:
        loop.failed += 1
        loop.errors.append(f"trace wrappers left installed: {leftover}")
    metrics = {}
    if pass_ids and leftover == []:
        spans = [json.loads(line) for line in spans_path.open(encoding="utf-8")]
        groups = [[s for s in spans if s[5] in ids] for ids in pass_ids]
        metrics = tracing.median_metrics(groups)
        metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()},
        "passes": len(pass_ids),
        "errors": loop.errors,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        workload = inputs.build(name, seed, workdir)
        if trace:
            return traced_run(workload, seconds, workdir)
        return timed_run(workload, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="lattice, symmetric, derive, sweep or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "posetderiv" / "cli.py").is_file():
        print(f"bench: no posetderiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import inputs

    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(inputs.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        for err in result.pop("errors"):
            print(f"bench: {name}: {err}", file=sys.stderr)
        passes = result.pop("passes")
        if args.workload == "all":
            _print_table(name, result, passes)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0


def _print_table(name: str, result: dict, passes: int) -> None:
    rows = dict(result["metrics"])
    rows["failed_frac"] = {"value": result["failed"] / max(1, result["attempted"]), "unit": "1"}
    print(f"{name}: {result['attempted']} requests, {passes} complete passes, correct={result['correct']}")
    for key, m in rows.items():
        print(f"  {key:40s} {m['value']:14.4f} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())

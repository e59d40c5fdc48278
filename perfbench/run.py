"""Benchmark of `mcdwin sweep`: figure points per second, set-up time, peak
memory and the correctness of every point, plus a traced run that splits the
time by library layer.

Run from the repository root:

    python3 perfbench/run.py --workload design-ab --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
    python3 perfbench/run.py --self-test

One client runs the workload's sweep invocations one after another, in
process, through `mcdwin.cli.main` (a closed loop), and repeats the whole
workload until `--seconds` of sweep time have passed (at least once).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run next to an untraced one.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Generated configs, CSVs, reports and spans go to `.perfbench/` under the root.

While it measures, the benchmark keeps the CPUs its workload leaves idle
busy with spin processes (see `fill_idle_cpus`), so that other tenants of a
shared core do not make the timings swing.

A point fails when its sweep raised, exited non-zero or timed out, when the
oracle rejects its row, or when a repeat of the workload with the same seed
gives a different row.  `correct` is true when the oracle, on this run's
rows, accepts a passing row and rejects the same row with its threshold
moved by 50; failed points are counted in `failed`, not hidden.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

PROCESS_START = perf_counter()

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# no pass starts or runs past this, so a run ends within 180 s
RUN_DEADLINE_S = 165.0
# one pass over a workload; several times the slowest workload's pass
PASS_CAP_S = 120.0
SETUP_SAMPLES = 7

END_TO_END_UNITS = {"points_per_s": "points/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "montecarlo.simulate.calls": "count",
    "montecarlo.simulate.self_s": "s",
    "montecarlo.trials": "count",
    "montecarlo.trials_per_s": "1/s",
    "montecarlo.pools": "count",
    "optimizer.exhaustive.self_s": "s",
    "optimizer.exhaustive.candidates": "count",
    "optimizer.exhaustive.scanned": "count",
    "optimizer.exhaustive.scan_frac": "fraction",
    "optimizer.shift_tau.self_s": "s",
    "optimizer.shift_tau.taus": "count",
    "optimizer.numeric.self_s": "s",
    "optimizer.closed_form.self_s": "s",
    "reception.threshold.calls": "count",
    "reception.threshold.self_s": "s",
    "reception.threshold.sequences": "count",
    "reception.floor.calls": "count",
    "reception.floor.self_s": "s",
    "metrics.calls": "count",
    "metrics.self_s": "s",
    "channel.calls": "count",
    "channel.self_s": "s",
    "trace.overhead_frac": "fraction",
}

# Set-up: a fresh interpreter imports the package and makes its first CLI call.
SETUP_CODE = """
import contextlib, io, time
t0 = time.perf_counter()
import mcdwin.cli
argv = ["optimize"] + [x for kv in ("receiver=absorbing", "d_um=5", "r_um=5", "D=80e-12",
        "T_s=0.2", "L=4", "Q=2000") for x in ("-s", kv)]
with contextlib.redirect_stdout(io.StringIO()):
    code = mcdwin.cli.main(argv)
elapsed = time.perf_counter() - t0
assert mcdwin.__file__.startswith(__import__("sys").argv[1])
print(elapsed if code == 0 else -1.0)
"""


# Spins until killed, for at most 200 s, and stops early once its parent is gone.
SPIN_CODE = """
import os, time
parent, end = os.getppid(), time.monotonic() + 200
while os.getppid() == parent and time.monotonic() < end:
    for _ in range(100000):
        pass
"""
MAX_SPINNERS = 3


@contextmanager
def fill_idle_cpus(busy: int):
    """Keep the CPUs that the measured work leaves idle busy with spin loops.

    On a small VM the vCPUs share physical cores with other tenants.  On a
    2-vCPU VM a single-threaded pass swung by +-30% within seconds while the
    other vCPU idled, and by a few per cent with it busy: slower, but steady.
    """
    count = max(0, min(len(os.sched_getaffinity(0)) - busy, MAX_SPINNERS))
    spinners = [
        subprocess.Popen([sys.executable, "-c", SPIN_CODE], stdin=subprocess.DEVNULL,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for _ in range(count)
    ]
    try:
        yield
    finally:
        for spin in spinners:
            spin.kill()
        for spin in spinners:
            spin.wait()


def _require_source() -> None:
    """Put the checkout's source first on sys.path; stop if it is missing."""
    if not (SRC / "mcdwin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mcdwin source under {SRC}")
    sys.path.insert(0, str(SRC))
    import mcdwin

    if not Path(mcdwin.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported mcdwin from {mcdwin.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# One pass over a workload
# ---------------------------------------------------------------------------


class _Timeout(BaseException):
    """Raised by the pass timer; not an Exception, so the CLI cannot catch it."""


_timer_armed = False


def _on_alarm(signum, frame):
    if _timer_armed:
        raise _Timeout()


@dataclass
class PassResult:
    wall_s: float = 0.0
    completed: int = 0
    timed_out: bool = False
    # (invocation, Q, scheme) -> parsed row, or -> reason the point failed
    rows: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    digests: list = field(default_factory=list)


def _point_ids(index: int, inv) -> list[tuple[int, int, str]]:
    return [(index, q, scheme) for q in inv.q_values for scheme in inv.schemes]


def run_pass(workload, seed: int, deadline: float) -> PassResult:
    """Run every sweep invocation of the workload once."""
    global _timer_armed
    from mcdwin import cli
    from oracle import Row

    result = PassResult()
    pass_deadline = min(deadline, perf_counter() + PASS_CAP_S)
    signal.signal(signal.SIGALRM, _on_alarm)
    for index, inv in enumerate(workload.invocations):
        ids = _point_ids(index, inv)
        remaining = pass_deadline - perf_counter()
        if result.timed_out or remaining <= 0:
            result.timed_out = True
            result.failures.update((pid, "timeout") for pid in ids)
            result.digests.append(None)
            continue
        config = WORK / f"{workload.name}-{index}.cfg"
        config.write_text(inv.config_text(workload.trials, seed))
        out = WORK / f"{workload.name}-{index}.csv"
        out.unlink(missing_ok=True)
        argv = ["sweep", "-c", str(config), "-o", str(out), "--workers", str(workload.workers)]
        errors = io.StringIO()
        reason = None
        start = perf_counter()
        try:
            _timer_armed = True
            signal.setitimer(signal.ITIMER_REAL, remaining)
            with redirect_stdout(io.StringIO()), redirect_stderr(errors):
                code = cli.main(argv)
            if code != 0:
                reason = f"exit {code}: {errors.getvalue().strip()}"
        except _Timeout:
            result.timed_out = True
            reason = "timeout"
        except Exception as exc:  # a point that raised is a failed point, not a crash
            reason = f"raised {type(exc).__name__}: {exc}"
        finally:
            _timer_armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            result.wall_s += perf_counter() - start
        if reason is not None:
            result.failures.update((pid, reason) for pid in ids)
            result.digests.append(None)
            continue
        text = out.read_bytes()
        result.digests.append(hashlib.sha256(text).hexdigest())
        for cells in csv.DictReader(io.StringIO(text.decode())):
            row = Row.from_csv(cells)
            result.rows[(index, row.q, row.scheme)] = row
        for pid in ids:
            if pid in result.rows:
                result.completed += 1
            else:
                result.failures[pid] = "missing row"
    return result


# ---------------------------------------------------------------------------
# A run: set-up, repeated passes, checks, metrics
# ---------------------------------------------------------------------------


def measure_setup(samples: int) -> list[float]:
    """Seconds from a fresh interpreter's first import to its first CLI call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(samples + 1):  # the first run compiles bytecode; drop it
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        value = float(done.stdout.strip().splitlines()[-1])
        if value < 0:
            raise RuntimeError("set-up probe: first CLI call failed")
        if i:
            times.append(value)
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def _repeat(workload, seed: int, budget_s: float, deadline: float, on_pass=None) -> list[PassResult]:
    """Whole passes until their sweep time reaches budget_s (at least one)."""
    passes: list[PassResult] = []
    spent = 0.0
    while True:
        done = run_pass(workload, seed, deadline)
        if on_pass is not None:
            on_pass(done)
        passes.append(done)
        spent += done.wall_s
        if done.timed_out or spent >= budget_s or perf_counter() + 1.5 * done.wall_s > deadline:
            return passes


def check_points(workload, seed: int, passes: list[PassResult]) -> tuple[dict, bool]:
    """Failure reason per failed point, and whether the oracle discriminates."""
    from mcdwin.cli import parse_config
    from oracle import check_rows, rejects_planted_threshold

    failures: dict = {}
    for done in passes:
        for pid, reason in done.failures.items():
            failures.setdefault(pid, reason)
    first = passes[0]
    for later in passes[1:]:
        for pid, row in later.rows.items():
            if pid in first.rows and row != first.rows[pid]:
                failures.setdefault(pid, "differs from the first pass with the same seed")

    discriminates = None
    for index, inv in enumerate(workload.invocations):
        params = parse_config(inv.config_text(workload.trials, seed)).system
        ids = [pid for pid in _point_ids(index, inv) if pid in first.rows]
        rows = [first.rows[pid] for pid in ids]
        problems = check_rows(params, rows)
        for i, found in problems.items():
            failures.setdefault(ids[i], "; ".join(found))
        good = [row for i, row in enumerate(rows) if i not in problems]
        if discriminates is None and good:
            discriminates = rejects_planted_threshold(params, good[0])
    return failures, bool(discriminates)


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload, seed: int, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload; returns the contract result plus a report."""
    import tracer as tracing

    WORK.mkdir(exist_ok=True)
    deadline = PROCESS_START + RUN_DEADLINE_S
    setup: list[float] = []
    if not trace:
        with fill_idle_cpus(busy=1):
            setup = measure_setup(setup_samples)

    traced: list[PassResult] = []
    layers: list[dict] = []
    spans: list[list] = []
    with fill_idle_cpus(busy=workload.workers):
        plain = _repeat(workload, seed, seconds / 2 if trace else seconds, deadline)
        if trace and not plain[-1].timed_out:
            tracer = tracing.Tracer()

            def collect(done: PassResult) -> None:
                layers.append(tracing.layer_metrics(tracer.spans, tracer.counts))
                spans.append(tracer.spans)
                tracer.reset()

            tracer.install()
            try:
                traced = _repeat(workload, seed, seconds / 2, deadline, on_pass=collect)
            finally:
                tracer.uninstall()

    passes = plain + traced
    failures, discriminates = check_points(workload, seed, passes)
    attempted = workload.points
    if trace:
        metrics = {
            name: _median([layer[name] for layer in layers])
            for name in PER_LAYER_UNITS
            if name != "trace.overhead_frac"
        }
        plain_wall = _median([p.wall_s for p in plain])
        traced_wall = _median([p.wall_s for p in traced])
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 if traced_wall else 0.0
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "points_per_s": _median([p.completed / p.wall_s for p in plain if p.wall_s > 0]),
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": discriminates,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    digests = plain[0].digests
    report = {
        "workload": workload.name,
        "trace": trace,
        "status": "timeout" if any(p.timed_out for p in passes) else "ok",
        "environment": environment(seed),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_wall_s": [p.wall_s for p in plain],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "setup_samples_s": setup,
        "failed_frac": len(failures) / attempted,
        "failed_points": {
            f"{workload.invocations[i].label()} Q={q} {scheme}": reason
            for (i, q, scheme), reason in sorted(failures.items())
        },
        "csv_sha256": dict(zip((inv.label() for inv in workload.invocations), digests)),
        "digest": hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest(),
        "result": result,
    }
    if trace:
        report["spans_file"] = str(_write_json(f"spans-{workload.name}-seed{seed}.json", spans))
    _write_json(f"report-{workload.name}-seed{seed}-trace{int(trace)}.json", report)
    return report


def _write_json(name: str, payload) -> Path:
    path = WORK / name
    path.write_text(json.dumps(payload, separators=(",", ":")))
    return path


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"workload {report['workload']}  trace {int(report['trace'])}  status {report['status']}"
          f"  passes {report['passes']}+{report['traced_passes']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':34s} {report['failed_frac']:.6g} fraction"
          f" ({result['failed']}/{result['attempted']} points)")
    for point, reason in report["failed_points"].items():
        print(f"    failed: {point}: {reason}")
    print(f"  digest {report['digest']}")
    env = report["environment"]
    print("  env " + " ".join(f"{key}={value}" for key, value in env.items()))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    rows = []
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric, value in result["metrics"].items():
                rows.append((name, metric, value["value"], value["unit"]))
            if not trace:
                rows.append((name, "failed_frac", result["failed"] / result["attempted"], "fraction"))
    print()
    print(f"{'workload':10s} {'metric':34s} {'value':>12s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:10s} {metric:34s} {value:12.6g} {unit}")
    return status


def self_test() -> int:
    """Tiny-size checks of the metric names and of the oracle."""
    from mcdwin.cli import parse_config
    from oracle import rejects_planted_threshold
    from workloads import TINY, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        report = run_workload(TINY, seed=1, seconds=0.01, trace=trace, setup_samples=1)
        emitted = {name: m["unit"] for name, m in report["result"]["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        if emitted != wanted:
            problems.append(f"{section}: emitted {emitted}, BENCHMARK.json has {wanted}")
        if report["result"]["failed"] or not report["result"]["correct"]:
            problems.append(f"tiny workload, trace {trace}: {report['failed_points']}")

    inv = TINY.invocations[0]
    params = parse_config(inv.config_text(TINY.trials, 1)).system
    row = run_pass(TINY, 1, perf_counter() + 60).rows[(0, inv.q_values[-1], "numeric-msinar")]
    if not rejects_planted_threshold(params, row):
        problems.append("oracle rejects a correct row or accepts its threshold moved by 50")

    capped = run_pass(TINY, 1, perf_counter() + 1e-3)
    if not capped.timed_out or len(capped.failures) != TINY.points:
        problems.append(f"a capped pass is not reported as timed out: {capped.failures}")

    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    _require_source()
    from workloads import WORKLOADS

    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for the sturmian-erasures library and its `wse` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; the library is imported from `src/`.
With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
does a fixed amount of work traced, and once more untraced in a fresh
process, and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  --all runs every
workload in its own process and prints each workload's named metrics.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7
# Reference-loop samples taken by each set-up probe right after its set-up,
# and by the benchmark right before each spawned cli-cold command.
PROBE_SPEED_SAMPLES = 16
CLI_SPEED_SAMPLES = 4
PROBE_READY = "setup-ready"

sys.path.insert(0, str(HERE))

import cli_cold  # noqa: E402
import spans  # noqa: E402
from speed import SpeedMeter  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("exact-irrational", "exact-ties", "long-analysis", "decide-corpus", "cli-cold")
# Work done by the traced run, fixed so that its per-layer totals compare
# across commits: one round of each workload, counted in operations (stream
# advances, analyzer calls, decisions); cli-cold replays one command cycle.
TRACE_OPS = {
    "exact-irrational": workloads.StreamWorkload.length // workloads.CHUNK,
    "exact-ties": workloads.StreamWorkload.length // workloads.CHUNK,
    "long-analysis": 12,
    "decide-corpus": 2 + 500 * workloads.ROUND_BATCHES,
}
# The name each workload gives its throughput and latency metrics in `detail`.
NAMED = {
    "exact-irrational": {"work_per_s": ("letters_per_s", "letters/s")},
    "exact-ties": {"work_per_s": ("letters_per_s", "letters/s")},
    "long-analysis": {"work_per_s": ("analyzed_letters_per_s", "letters/s at max_n 64")},
    "decide-corpus": {"work_per_s": ("decisions_per_s", "decisions/s"),
                      "op_ms_p50": ("op_ms_p50", "ms"), "op_ms_p99": ("op_ms_p99", "ms")},
    "cli-cold": {"op_ms_p50": ("cmd_ms_p50", "ms"), "op_ms_p90": ("cmd_ms_p90", "ms")},
}


def make_workload(name):
    if name == "exact-irrational":
        return workloads.exact_irrational()
    if name == "exact-ties":
        return workloads.exact_ties()
    if name == "long-analysis":
        return workloads.AnalysisWorkload()
    if name == "decide-corpus":
        return workloads.DecideWorkload()
    return cli_cold.CliWorkload(ROOT, OUT)


def rng_for(seed, workload, stream):
    return random.Random(f"{seed}:{workload}:{stream}")


class Budget:
    """Stops a run after `seconds` of wall time or after `ops` operations."""

    def __init__(self, seconds=None, ops=None):
        self.seconds, self.ops = seconds, ops
        self.count = 0
        self.t0 = time.perf_counter()

    def done(self):
        if self.ops is not None:
            return self.count >= self.ops
        return time.perf_counter() - self.t0 >= self.seconds


class Tally:
    """Latencies, work units and failures of one measured phase."""

    def __init__(self):
        self.latency_ms = array("d")
        self.units = 0
        self.timed_s = 0.0
        self.attempted = 0
        self.failures = Counter()  # recorded known defects
        self.unexpected = Counter()

    @property
    def failed(self):
        return sum(self.failures.values()) + sum(self.unexpected.values())

    def record(self, op_kind, seconds, units, message, expected):
        self.attempted += 1
        self.latency_ms.append(seconds * 1000)
        self.timed_s += seconds
        if message is None:
            self.units += units
        else:
            (self.failures if expected else self.unexpected)[f"{op_kind}: {message[:100]}"] += 1


def run_ops(wl, rng, budget, rec=None, meter=None):
    """Time each operation's `run`; check its result outside the timing.

    The run ends at the first round boundary after the budget is spent, so
    every run holds whole rounds and the same mix of operations.  `meter`
    times its reference loop between operations."""
    tally = Tally()
    op_nid = rec.name_id("bench.op") if rec else None
    for op in wl.ops(rng):
        if op.boundary and budget.done():
            break
        if rec:
            rec.op_id = budget.count
            idx = rec.open(op_nid)
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is recorded, not fatal
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        if rec:
            rec.close(idx)
        budget.count += 1
        message = f"{type(error).__name__}: {error}" if error else op.check(result)
        if message and op.on_failure:
            op.on_failure()
        expected = error is not None and type(error).__name__ == op.known_defect
        tally.record(op.kind, elapsed, op.units, message, expected)
        if meter:
            meter.tick()
    return tally


def run_commands(wl, rng, budget, rss_kib, meter):
    """cli-cold: whole cycles of spawned commands until the budget and the
    minimum sample count are both met."""
    tally = Tally()
    index = 0
    while not budget.done() or tally.attempted < wl.min_commands:
        for cmd in wl.cycle(rng, index):
            meter.sample(CLI_SPEED_SAMPLES)
            t0 = time.perf_counter()
            code, out, err, rss = wl.spawn(cmd.argv, cmd.stdin)
            elapsed = time.perf_counter() - t0
            rss_kib.append(rss)
            message = wl.judge(cmd, code, out, err)
            tally.record(cmd.kind, elapsed, 1, message, bool(message) and
                         wl.expected_failure(cmd, err))
        index += 1
    return tally


def replay_commands(wl, rng, rec=None):
    """cli-cold traced run: one cycle in-process through cli.run."""
    tally = Tally()
    stdout_bytes = 0
    op_nid = rec.name_id("bench.op") if rec else None
    for pos, cmd in enumerate(wl.cycle(rng, 0)):
        if rec:
            rec.op_id = pos
            idx = rec.open(op_nid)
        t0 = time.perf_counter()
        code, out, err = cli_cold.replay(cmd)
        elapsed = time.perf_counter() - t0
        if rec:
            rec.close(idx)
        stdout_bytes += len(out.encode("ascii", "replace"))
        message = wl.judge(cmd, code, out, err)
        tally.record(cmd.kind, elapsed, 1, message, bool(message) and
                     wl.expected_failure(cmd, err))
    return tally, stdout_bytes


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def probe_setup(workload, seed, meter):
    """Median time from spawning a fresh process to the end of its set-up
    (interpreter start, import, input generation and warm-up).  Each probe
    then times the reference loop, outside its set-up time, into `meter`."""
    samples = []
    for r in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", f"{seed}.probe{r}"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline().strip()
        samples.append(time.perf_counter() - t0)
        meter.samples_s += [float(x) for x in proc.stdout.readline().split()]
        proc.stdout.close()
        if proc.wait() != 0 or line != PROBE_READY:
            raise RuntimeError(f"set-up probe failed for {workload}")
    return statistics.median(samples), samples


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def measure(workload, seed, seconds):
    """The end-to-end metrics of one workload (tracing off)."""
    setup_meter = SpeedMeter()
    setup_raw_s, setup_samples = probe_setup(workload, seed, setup_meter)
    setup_s = setup_raw_s * setup_meter.time_scale()
    wl = make_workload(workload)
    wl.setup(rng_for(seed, workload, "warm"))
    meter = SpeedMeter()
    meter.sample(PROBE_SPEED_SAMPLES)
    budget = Budget(seconds=seconds)
    if workload == "cli-cold":
        rss_kib = []
        tally = run_commands(wl, rng_for(seed, workload, "timed"), budget, rss_kib, meter)
        peak_kib = max(rss_kib)
    else:
        tally = run_ops(wl, rng_for(seed, workload, "timed"), budget, meter=meter)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Timings at the reference speed (see speed.py); `raw` keeps the clock's.
    # Only setup_s, work_per_s and peak_rss_mb are gated in BENCHMARK.json:
    # a latency percentile picks single operations, each run at whatever
    # speed the shared machine had at that instant, so it spreads more.
    scale = meter.time_scale()
    lat = tally.latency_ms
    raw = {"setup_s": setup_raw_s, "work_per_s": tally.units / tally.timed_s}
    raw.update({f"op_ms_p{q}": percentile(lat, q) for q in (50, 90, 99)})
    timing = {key: value * scale for key, value in raw.items() if key.startswith("op_ms_")}
    timing["work_per_s"] = raw["work_per_s"] / scale
    metrics = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (timing["work_per_s"], "1/s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    named = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": len(setup_samples)},
        "failed_ratio": {"value": tally.failed / tally.attempted, "unit": "failed/attempted",
                         "failed": tally.failed, "attempted": tally.attempted},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB",
                        "source": "children" if workload == "cli-cold" else "self"},
    }
    for key, (name, unit) in NAMED[workload].items():
        named[name] = {"value": timing[key], "unit": unit, "samples": len(lat)}
        if key.startswith("op_ms_p"):
            named[name]["percentile"] = int(key[len("op_ms_p"):])
            named[name]["beyond"] = sum(1 for x in lat if x > raw[key])
    detail = {
        "workload": workload,
        "unit_of_work": wl.unit,
        "timed_s": tally.timed_s,
        "units": tally.units,
        "named": named,
        "setup_samples_s": setup_samples,
        "timing": timing,
        "raw": raw,
        "speed": meter.summary(),
        "setup_speed": setup_meter.summary(),
        "known_defects": dict(tally.failures),
        "unexpected_failures": dict(tally.unexpected),
        "environment": environment(seed),
    }
    return tally, metrics, detail


def fixed_work(wl, workload, seed, rec=None):
    """The traced run's fixed amount of work: (tally, wall seconds, stdout
    bytes).  cli-cold replays one command cycle in-process."""
    rng = rng_for(seed, workload, "traced")
    root = rec.open(rec.name_id("bench.phase")) if rec else None
    t0 = time.perf_counter()
    if workload == "cli-cold":
        tally, stdout_bytes = replay_commands(wl, rng, rec)
    else:
        tally, stdout_bytes = run_ops(wl, rng, Budget(ops=TRACE_OPS[workload]), rec), 0
    wall_s = time.perf_counter() - t0
    if rec:
        rec.close(root)
    return tally, wall_s, stdout_bytes


def untraced_wall(workload, seed):
    """Wall time of the same fixed work in a fresh process without tracing,
    so that neither run finds caches the other has filled."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--trace-reference", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def measure_traced(workload, seed):
    """Per-layer metrics: the fixed work traced, against an untraced run."""
    untraced_s = untraced_wall(workload, seed)
    wl = make_workload(workload)
    wl.setup(rng_for(seed, workload, "warm"))
    rec = spans.SpanRecorder()
    ledger = spans.instrument(rec)
    tally, wall_s, stdout_bytes = fixed_work(wl, workload, seed, rec)
    cli_extra = {}
    if workload == "cli-cold":
        agg = rec.aggregate()
        per_cmd = 1000 / max(tally.attempted, 1)
        cli_extra["parse_args_ms"] = agg.get("cli.parse_args", (0, 0, 0))[1] / 1e9 * per_cmd
        cli_extra["handler_ms"] = agg.get("cli.handler", (0, 0, 0))[1] / 1e9 * per_cmd
        cli_extra["stdout_bytes"] = stdout_bytes
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    interp = cli_cold.spawn_ms(["-c", "pass"], env, ROOT, SETUP_PROBES)
    imported = cli_cold.spawn_ms(["-c", "import sturmian_erasures.cli"], env, ROOT, SETUP_PROBES)
    cli_extra["interp_ms"] = interp
    cli_extra["import_ms"] = imported - interp
    metrics = spans.layer_metrics(rec, ledger, wall_s, untraced_s, cli_extra)
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"trace-{workload}")
    detail = {
        "workload": workload,
        "traced_ops": tally.attempted,
        "known_defects": dict(tally.failures),
        "unexpected_failures": dict(tally.unexpected),
        "spans_file": str((OUT / f"trace-{workload}.bin").relative_to(ROOT)),
        "environment": environment(seed),
    }
    return tally, {k: (v, _unit(k)) for k, v in metrics.items()}, detail


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_share", "_ratio", "per_verdict")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def print_result(tally, metrics, detail):
    for name, (value, unit) in metrics.items():
        print(f"{detail['workload']} {name} = {value:.6g} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(seed, seconds):
    """Every workload in its own process; the named metrics of each."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        details = [ln for ln in proc.stdout.splitlines() if ln.startswith("detail ")]
        if proc.returncode != 0 or not details:
            print(f"{workload}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        detail = json.loads(details[-1][len("detail "):])
        for name, m in detail["named"].items():
            extra = ", ".join(f"{k} {m[k]}" for k in ("samples", "percentile", "beyond",
                                                      "failed", "attempted", "source") if k in m)
            print(f"{workload:17} {name:24} {m['value']:14.6g} {m['unit']:22} ({extra})")
        if detail["unexpected_failures"]:
            print(f"{workload:17} unexpected failures: {detail['unexpected_failures']}")
            status = 1
    env = environment(seed)
    print("environment " + json.dumps(env, sort_keys=True))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "sturmian_erasures" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --all")
    if args.setup_probe or args.trace_reference:
        wl = make_workload(args.workload)
        wl.setup(rng_for(args.seed, args.workload, "warm"))
        if args.setup_probe:
            print(PROBE_READY, flush=True)
            meter = SpeedMeter()
            meter.sample(PROBE_SPEED_SAMPLES)
            print(" ".join(repr(x) for x in meter.samples_s))
        else:
            print(fixed_work(wl, args.workload, args.seed)[1])
        return 0
    if args.trace:
        print_result(*measure_traced(args.workload, args.seed))
    else:
        print_result(*measure(args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())

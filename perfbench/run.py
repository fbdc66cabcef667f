"""Benchmark entry point.

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Runs from the repository root against the lemnatomic sources in src/.  One
workload runs in this process, single-threaded and closed-loop: passes of the
workload repeat, each from a fresh import, while another pass still fits in
--seconds.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 one pass runs with per-layer
wrappers installed and the line holds the per-layer metrics.  Timings are in
reference seconds: wall time corrected for the shared host's speed at that
moment (speed.py).  ``all`` runs every workload in its own process (traced
too with --trace 1) and prints a table, the tracing overhead included.
Results go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed
import workloads as w

RUN_BUDGET_S = 150.0  # no operation starts later than this after process start
SETUP_SAMPLES = 11
PASS_INTERVAL_S = 0.05  # CPU seconds between speed samples during passes
SETUP_INTERVAL_S = 0.005  # the same during set-up, which lasts a fraction of a second
OUT_DIR = w.HERE.parent / ".perfbench_out"
WORK_DIR = w.HERE.parent / ".perfbench_work"

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "top_s": "s",
}

# Child process for one set-up sample: it times itself from its first
# statement, before any import, to its inputs being ready, in reference seconds.
_PROBE = f"""\
import time
start = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import speed
with speed.Speedometer({SETUP_INTERVAL_S}) as meter:
    import workloads as w
    w.prepare(sys.argv[2], w.load_lemnatomic(), sys.argv[3])
    end = time.perf_counter()
print(meter.adjust(start, end))
"""


def machine_facts(args, lem) -> dict:
    import mpmath

    sources = sorted((w.SRC / "lemnatomic").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    commit = "unknown (not a git checkout)"
    if (w.HERE.parent / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(w.HERE.parent), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "lemnatomic_version": lem.__version__,
        "lemnatomic_commit": commit,
        "lemnatomic_source_sha256": digest,
    }


def setup_samples(workload: str, workdir) -> list:
    """Set-up reference seconds of fresh interpreters: import lemnatomic, make the inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(w.HERE), workload, str(workdir)],
            check=True, timeout=60, capture_output=True, text=True,
        )
        samples.append(float(proc.stdout))
    return samples


def run_passes(args, guard: w.Guard, workdir) -> list:
    """Passes of the workload, each from a fresh import; a traced run does one.

    Each operation's ``seconds`` is in reference seconds, its wall-clock time
    is ``wall_s``.
    """
    with speed.Speedometer(PASS_INTERVAL_S) as meter:
        passes = _passes(args, guard, workdir)
    for ops, _ in passes:
        for op in ops:
            op["wall_s"] = op["seconds"]
            op["seconds"] = meter.adjust(op["start"], op["start"] + op["wall_s"])
    return passes


def _passes(args, guard: w.Guard, workdir) -> list:
    rng = random.Random(args.seed)
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        lem = w.load_lemnatomic()
        inputs = w.prepare(args.workload, lem, workdir)
        tracer = patches = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            patches = spans.install(tracer, w.layer_modules(lem))
        try:
            ops = w.PASSES[args.workload](lem, inputs, rng, guard, tracer)
        finally:
            if patches is not None:
                spans.uninstall(patches)
        passes.append((ops, tracer))
        durations.append(time.perf_counter() - pass_start)
        if args.trace:
            return passes
        if time.perf_counter() - start + statistics.median(durations) > args.seconds:
            return passes


def time_metrics(passes: list) -> dict:
    """Medians over passes of: the main operations, the top unit, the rest,
    and one replay of every record (the sum of each record's median read)."""

    def per_pass(select):
        return statistics.median(
            sum(op["seconds"] for op in ops if select(op)) for ops, _ in passes
        )

    def replay(ops):
        reads = {}
        for op in ops:
            if not op["main"]:
                reads.setdefault(op["op"], []).append(op["seconds"])
        return sum(statistics.median(times) for times in reads.values())  # 0 with no reads

    return {
        "pass_s": per_pass(lambda op: op["main"]),
        "top_s": per_pass(lambda op: op["top"]),
        "rest_s": per_pass(lambda op: op["main"] and not op["top"]),
        "replay_ms": statistics.median(replay(ops) for ops, _ in passes) * 1000,
    }


def run_one(args) -> int:
    guard = w.Guard(time.perf_counter() + RUN_BUDGET_S)
    lem = w.load_lemnatomic()
    facts = machine_facts(args, lem)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        samples = [] if args.trace else setup_samples(args.workload, workdir)
        passes = run_passes(args, guard, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = [op for pass_ops, _ in passes for op in pass_ops]
    failures = [op for op in ops if op["error"]]
    timings = time_metrics(passes)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        import spans

        tracer = passes[0][1]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in spans.layer_metrics(tracer).items()}
        for name, value in timings.items():
            metrics[f"traced.{name}"] = {"value": value, "unit": "ms" if name.endswith("_ms") else "s"}
        tracer.dump(OUT_DIR / f"spans_{stem}.json.gz")
    else:
        values = {
            "setup_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **timings,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    result = {
        "correct": all(op["timeout"] for op in failures),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    detail = {
        "facts": facts,
        "passes": len(passes),
        "setup_samples_s": samples,
        "failures": [{k: op[k] for k in ("op", "error")} for op in failures],
        "ops": [{k: op[k] for k in ("op", "seconds", "wall_s", "error")} for ops_, _ in passes for op in ops_],
        **result,
    }
    (OUT_DIR / f"BENCH_{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="ascii")
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(f"passes: {len(passes)}  attempted: {len(ops)}  failed: {len(failures)}")
    for op in failures[:10]:
        print(f"FAILED {op['op']}: {op['error']}")
    if not args.trace:
        for name, metric in metrics.items():
            print(f"{name:>12s} {metric['value']:12.4f} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric."""
    table, totals = {}, {"correct": True, "attempted": 0, "failed": 0}
    for workload in w.WORKLOADS:
        for trace in range(args.trace + 1):
            argv = [
                sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            totals["correct"] &= last["correct"]
            totals["attempted"] += last["attempted"]
            totals["failed"] += last["failed"]
            table[(workload, trace)] = last["metrics"]
    metrics = {}
    print(f"{'workload':16s} {'metric':12s} {'value':>12s} unit   (traced - untraced)")
    for workload in w.WORKLOADS:
        for name, metric in table[(workload, 0)].items():
            metrics[f"{workload}.{name}"] = metric
            line = f"{workload:16s} {name:12s} {metric['value']:12.4f} {metric['unit']:6s}"
            traced = table.get((workload, 1), {}).get(f"traced.{name}")
            if traced is not None:
                overhead = traced["value"] - metric["value"]
                metrics[f"{workload}.trace_overhead.{name}"] = {"value": overhead, "unit": metric["unit"]}
                line += f" {overhead:+.4f}"
            print(line)
    print(f"attempted: {totals['attempted']}  failed: {totals['failed']}")
    print(json.dumps({**totals, "metrics": metrics}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (w.SRC / "lemnatomic" / "__init__.py").is_file():
        print(f"error: no lemnatomic sources under {w.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

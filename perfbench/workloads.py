"""The benchmark's workloads: their inputs, operations and reference checks.

An operation is one ladder rung, one cache replay read or one report call.
It fails on an exception, a non-zero exit code, a timeout, or an output that
differs from ``reference.json`` (written by ``make_reference.py``).  Every
pass starts from a fresh import of lemnatomic, so its in-process memos are
empty and each pass does the same work as the first one in a new process.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("exact-ladder", "numeric-ladder", "scan-suite")

# The top rung of each ladder runs last.  Rungs share chain memos inside one
# process (11-2i reuses the sl(11z) chain that -11 builds), so a top rung run
# earlier would be timed doing other rungs' work and its time would depend on
# the seed.  The seed permutes the rungs before it.
EXACT_RUNGS = ("-1+2i", "-3", "-3-4i", "3-6i", "9", "-11", "11-2i")
NUMERIC_RUNGS = EXACT_RUNGS + ("13", "13+10i", "17", "-19")
SCAN_BETAS = ("-3", "-3-4i")
SCAN_TOP = "-3-4i"
SCAN_BOUND = 30_000
REPORTS = ("verify_prop1", "splitting_primes", "density_report", "theorem_search", "prop2_evidence")
REPLAY_READS = 20  # cached reads of each exact record per pass

OP_LIMIT_S = 60.0  # a rung or a report
READ_LIMIT_S = 10.0  # a replay read


class OpTimeout(BaseException):
    """Raised from the alarm handler.  A BaseException, so that no
    ``except Exception`` in the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout("operation overran its time limit")


class Guard:
    """Runs one operation under a time limit and the run's overall deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        signal.signal(signal.SIGALRM, _on_alarm)

    def call(self, fn, limit: float):
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise OpTimeout("run time budget exhausted before the operation started")
        signal.setitimer(signal.ITIMER_REAL, min(limit, remaining))
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return result, time.perf_counter() - start


def load_lemnatomic():
    """Import lemnatomic (and its CLI) afresh from the checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "lemnatomic" or n.startswith("lemnatomic.")]:
        del sys.modules[name]
    lem = importlib.import_module("lemnatomic")
    importlib.import_module("lemnatomic.cli")
    if Path(lem.__file__).resolve().parent != SRC / "lemnatomic":
        raise ImportError(f"lemnatomic imported from {lem.__file__}, not from {SRC}")
    return lem


def layer_modules(lem) -> dict:
    """Short module name -> module, plus the package under ``""``."""
    names = ("gaussint", "residue", "zipoly", "gfq", "lemniscate", "exact", "classfield", "cache", "cli")
    return {"": lem, **{name: getattr(lem, name) for name in names}}


def prepare(workload: str, lem, workdir) -> dict:
    """Inputs for one pass, the set-up after the import: the exact ladder's
    empty cache directory, or the scan suite's two polynomials."""
    if workload == "exact-ladder":
        return {"cache_dir": tempfile.mkdtemp(prefix="cache-", dir=workdir)}
    if workload == "scan-suite":
        return {beta: lem.lemnatomic_exact(lem.parse_gauss(beta)).coefficients for beta in SCAN_BETAS}
    if workload == "numeric-ladder":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


@functools.cache
def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="ascii"))


# -- operations ----------------------------------------------------------------


def run_op(guard: Guard, tracer, label: str, fn, check, limit: float, top=False, main=True) -> dict:
    """Time fn() and check its result; returns the operation record.

    ``main`` marks the operations a pass's time is the sum of (rungs and
    reports, not replay reads); ``top`` marks the pass's heaviest unit.
    ``start`` and ``seconds`` are wall-clock; run.py converts them to
    reference seconds (speed.py).
    """
    if tracer is not None:
        tracer.begin_op(label)
    start = time.perf_counter()
    record = {"op": label, "main": main, "top": top, "start": start, "seconds": 0.0, "error": None, "timeout": False}
    try:
        result, record["seconds"] = guard.call(fn, limit)
    except OpTimeout as exc:
        record.update(seconds=time.perf_counter() - start, error=f"timeout: {exc}", timeout=True)
        return record
    except Exception as exc:  # any program error is this operation's failure
        record.update(seconds=time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        return record
    record["error"] = check(result)
    return record


def cli_call(lem, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lem.cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def check_rung(result: tuple, beta: str, method: str, cached: bool):
    """None when the CLI output matches the reference record for beta."""
    code, out, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    try:
        data = json.loads(out)
    except ValueError:
        return f"output is not JSON: {out[:80]!r}"
    ref = load_reference()["rungs"][beta]
    want = {
        "beta": ref["beta"],
        "degree": ref["degree"],
        "checksum": ref["checksum"],
        "method": method,
        "cached": cached,
    }
    got = {key: data.get(key) for key in want}
    if got != want:
        return f"expected {want}, got {got}"
    coeffs = data.get("coefficients", {}).get("coeffs", [])
    if len(coeffs) != ref["degree"] + 1 or coeffs[-1] != "1":
        return f"coefficients are not monic of degree {ref['degree']}"
    return None


def report_summary(name: str, data: dict) -> dict:
    """The counts of a report that the reference records in readable form."""
    if name == "verify_prop1":
        return {"checked": data["checked"], "failures": len(data["failures"])}
    if name == "splitting_primes":
        return {"hits": data["count"], "skipped": len(data["skipped"])}
    if name == "density_report":
        return {"hits": data["count_P"], "primes": data["count_all_odd"]}
    if name == "theorem_search":
        return {
            "candidates": [[c["beta"], c["subgroup_order"], c["group_order"]] for c in data["candidates"]],
            "witnesses": data["witnesses"],
        }
    if name == "prop2_evidence":
        return {
            "classes": len(data["classes"]),
            "subgroup_order": data["subgroup_order"],
            "group_order": data["group_order"],
            "skipped": len(data["skipped"]),
        }
    raise ValueError(f"unknown report {name!r}")


def report_digest(data: dict) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("ascii")).hexdigest()


def check_report(report, beta: str, name: str):
    ref = load_reference()["scan"][beta][name]
    data = report.to_json_dict()
    summary = report_summary(name, data)
    if summary != ref["summary"]:
        return f"expected {ref['summary']}, got {summary}"
    if report_digest(data) != ref["digest"]:
        return "report differs from the reference digest"
    return None


# -- passes --------------------------------------------------------------------


def _rung(lem, beta: str, method: str, extra: list, guard, tracer, top: bool) -> dict:
    """One cold rung through the CLI."""
    argv = ["lemnatomic", beta, "--method", method, "--json", *extra]
    return run_op(
        guard,
        tracer,
        f"rung {beta}",
        lambda: cli_call(lem, argv),
        lambda result: check_rung(result, beta, method, cached=False),
        OP_LIMIT_S,
        top=top,
    )


def _order(rungs: tuple, rng) -> list:
    """The seed permutes every rung but the top one, which stays last."""
    order = list(rungs[:-1])
    rng.shuffle(order)
    return order + [rungs[-1]]


def exact_pass(lem, inputs, rng, guard, tracer=None) -> list:
    """Each rung computed cold and cached, then a burst of REPLAY_READS reads
    of its record, which must come from the cache.

    Reading each record right after its rung spreads the reads over the
    pass, so host noise at one moment does not decide their median.
    """
    cache_dir = inputs["cache_dir"]
    ops = []
    for beta in _order(EXACT_RUNGS, rng):
        ops.append(_rung(lem, beta, "exact", ["--cache-dir", cache_dir], guard, tracer, beta == EXACT_RUNGS[-1]))
        argv = ["lemnatomic", beta, "--method", "exact", "--json", "--cache-dir", cache_dir]
        ops.extend(
            run_op(
                guard,
                tracer,
                f"replay {beta}",
                lambda: cli_call(lem, argv),
                lambda result: check_rung(result, beta, "exact", cached=True),
                READ_LIMIT_S,
                main=False,
            )
            for _ in range(REPLAY_READS)
        )
    return ops


def numeric_pass(lem, inputs, rng, guard, tracer=None) -> list:
    return [
        _rung(lem, beta, "numeric", [], guard, tracer, beta == NUMERIC_RUNGS[-1])
        for beta in _order(NUMERIC_RUNGS, rng)
    ]


def report_args(lem, polys: dict, beta: str, name: str) -> tuple:
    """Arguments of report ``name`` on the scan polynomial of beta."""
    if name == "verify_prop1":
        return (lem.parse_gauss(beta), SCAN_BOUND)
    if name == "prop2_evidence":
        return (polys[beta], lem.parse_gauss(beta), SCAN_BOUND)
    return (polys[beta], SCAN_BOUND)


def scan_pass(lem, inputs, rng, guard, tracer=None) -> list:
    """The five reports on each scan polynomial, in seeded order."""
    calls = [(beta, name) for beta in SCAN_BETAS for name in REPORTS]
    rng.shuffle(calls)
    ops = []
    for beta, name in calls:
        fn, args = getattr(lem, name), report_args(lem, inputs, beta, name)
        ops.append(
            run_op(
                guard,
                tracer,
                f"{name} {beta}",
                lambda: fn(*args),
                lambda report: check_report(report, beta, name),
                OP_LIMIT_S,
                top=beta == SCAN_TOP,
            )
        )
    return ops


PASSES = {"exact-ladder": exact_pass, "numeric-ladder": numeric_pass, "scan-suite": scan_pass}

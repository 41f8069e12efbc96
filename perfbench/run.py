"""Seeded in-process benchmark of the taurmt command-line interface.

    python3 perfbench/run.py --workload finite_n --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout: the program is imported from src/.
Each pass is a list of CLI argument vectors drawn from (workload, seed,
pass index) by perfbench/workloads.py and run through taurmt.cli.main with
its output captured. Every output is checked (perfbench/checks.py).

A run makes a fixed number of passes, --seconds divided by the workload's
nominal pass time (workloads.NOMINAL_PASS_S), so that a seed attempts the
same invocations, and fails the same ones, however fast the machine runs;
on a machine of the reference speed the passes last about --seconds.

--trace 0 prints the end-to-end metrics, measured with tracing off. Times
are scaled by a calibration load timed beside them (perfbench/calibrate.py),
so that they read as seconds on a machine of fixed speed:

  setup_s       median seconds for `import taurmt.cli` over fresh interpreters
  first_pass_s  median seconds of one fixed pass run cold, right after that
                import, in some of the same fresh interpreters
  pass_s        median seconds per warm pass
  op_ms_p50/p90 per-invocation latency over the warm passes
  peak_rss_mb   peak resident memory of this process after the passes
  ok_frac       share of invocations that neither failed nor broke their
                route's contract
  err.*         cross-route differences on a fixed accuracy panel

--trace 1 runs every pass twice, traced and untraced in alternating order,
requires byte-identical output from the two, and prints the per-layer
metrics per traced pass plus trace.overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The process exits 2 without that line when
the checkout holds no taurmt sources.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, spans, workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COLD_PASSES = (3, 7)
SETUP_RUNS = (7, 15)
COLD_BUDGET_S = 8.0
COLD_TIMEOUT_S = 60
MIN_TIMED_INVOCATIONS = 100
MIN_PASSES = 3
# a traced pass runs twice, once under the tracer
TRACED_PASS_COST = 2.5
CAL_EVERY_S = 0.5
# Differences below this read as agreement. Rounding moves them with any
# reordering of the arithmetic; every contract checked sits at or above it.
ACCURACY_FLOOR = 1e-10
ERROR_METRICS = (
    ("err.toeplitz_oracle", "rel"),
    ("err.series_toeplitz", "rel"),
    ("err.ode_limit", "rel"),
    ("err.ode_constraint", "scaled"),
    ("err.fredholm_doubling", "rel"),
    ("err.monodromy", "abs"),
)
PERCENTILES = (50, 90, 99, 99.9)
MAX_CLASS_RERUNS = 6
MALFORMED = "malformed output"


class Result(NamedTuple):
    code: int
    seconds: float
    stdout: str
    stderr: str
    crash: str | None


def invoke(cli, argv) -> Result:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an uncaught error is a failed op, not a stop
            code, crash = 1, type(exc).__name__
    seconds = time.perf_counter() - start
    return Result(code, seconds, out.getvalue(), err.getvalue(), crash)


def run_pass(cli, ops) -> list:
    return [invoke(cli, op.argv) for op in ops]


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.code}\n{r.crash}\n{len(r.stdout)}\n".encode())
        h.update(r.stdout.encode())
    return h.hexdigest()


def judge(ops, results) -> list:
    """checks.Verdict per op; unreadable output becomes a malformed one."""
    verdicts = []
    for i, (op, r) in enumerate(zip(ops, results)):
        if r.crash is not None:
            verdicts.append(checks.Verdict(f"uncaught {r.crash}", {}))
            continue
        twin = None
        if op.kind == "fredholm_twin" and results[i - 1].code == 0:
            twin = results[i - 1].stdout
        try:
            verdicts.append(checks.check(op.kind, op.argv, r.code, r.stdout,
                                         r.stderr, twin))
        except checks.Malformed as exc:
            verdicts.append(checks.Verdict(f"{MALFORMED}: {exc}", {}))
    return verdicts


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """Timed passes in a run: a function of the workload and --seconds
    only, at least MIN_PASSES and MIN_TIMED_INVOCATIONS invocations."""
    nominal = workloads.NOMINAL_PASS_S[workload]
    if traced:
        nominal *= TRACED_PASS_COST
    per_pass = len(workloads.pass_ops(workload, 0, 0))
    return max(MIN_PASSES, math.ceil(MIN_TIMED_INVOCATIONS / per_pass),
               round(seconds / nominal))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(round(p * len(sorted_values) / 100, 9))
    return sorted_values[max(rank, 1) - 1]


def samples_beyond(n: int, p: float) -> int:
    return n - math.ceil(round(p * n / 100, 9))


def highest_percentile(n: int, candidates=PERCENTILES):
    """The highest candidate percentile with at least 10 samples beyond it."""
    ok = [p for p in candidates if samples_beyond(n, p) >= 10]
    return max(ok) if ok else None


_digits = re.compile(r"[-+]?\d[\d.e+-]*")


class Tally:
    """Attempted and failed invocations, and the failures grouped by kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.malformed = 0
        self.groups: dict = {}
        self.draw_errors: dict = {}

    def add(self, ops, results, verdicts) -> None:
        for op, r, v in zip(ops, results, verdicts):
            self.attempted += 1
            for name, value in v.errors.items():
                self.draw_errors[name] = max(self.draw_errors.get(name, 0.0),
                                             value)
            if v.failure is None:
                continue
            self.failed += 1
            self.malformed += v.failure.startswith(MALFORMED)
            # group by kind and message with the numbers taken out
            message = r.stderr.strip().partition("\n")[0]
            verdict = (_digits.sub("#", v.failure) if r.code == 0
                       else f"exit {r.code}")
            key = (op.kind, verdict, _digits.sub("#", message))
            group = self.groups.setdefault(key, {"count": 0, "argv": op.argv,
                                                 "crash": r.crash})
            group["count"] += 1


def failure_classes(cli, tally: Tally) -> list:
    """Re-run one invocation per failure group under the tracer to name
    the exception class the CLI caught."""
    lines = []
    for n, (key, group) in enumerate(sorted(tally.groups.items(),
                                            key=lambda kv: -kv[1]["count"])):
        kind, verdict, message = key
        if group["crash"] is not None:
            cls = group["crash"]
        elif verdict not in ("exit 3", "exit 4"):
            cls = "no exception"  # exit 2 or a broken contract
        elif n < MAX_CLASS_RERUNS:
            tracer = spans.Tracer(spans.targets())
            with tracer:
                invoke(cli, group["argv"])
            cls = spans.escaped_error(tracer.spans) or "unknown"
        else:
            cls = "not re-run"
        lines.append(f"failure {group['count']}x {kind}: {verdict}: {cls}: "
                     f"{message or '-'}  e.g. {' '.join(group['argv'])}")
    return lines


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE",
                                                  ""),
    }


# ---------------------------------------------------------------------------
# cold start, measured in fresh interpreters


def cold_child(workload: str, with_pass: bool) -> int:
    """Body of one fresh interpreter: time the import and, with_pass, the
    cold pass after it, with calibration samples between the invocations."""
    start = time.perf_counter()
    import taurmt.cli as cli

    imported = time.perf_counter()
    from perfbench import calibrate

    scaler = calibrate.Scaler(CAL_EVERY_S)
    scaler.sample()
    row = {}
    if with_pass:
        first, hashes = 0.0, []
        for op in workloads.cold_ops(workload):
            scaler.sample_if_due()
            r = invoke(cli, op.argv)
            first += scaler.scaled(time.perf_counter(), r.seconds)
            hashes.append(r)
        row = {"first_pass_s": first, "digest": digest(hashes)}
    scaler.sample()
    row["setup_s"] = scaler.scaled(imported, imported - start)
    print(json.dumps(row))
    return 0


def cold_start(workload: str):
    """(setup samples, first-pass samples, digests) from fresh interpreters.

    The first COLD_PASSES[0] of them, and more up to COLD_PASSES[1] while
    half of COLD_BUDGET_S lasts, run the cold pass; all of them time the
    import, SETUP_RUNS[0] at least and up to SETUP_RUNS[1] while the budget
    lasts.
    """
    setup, first, digests = [], [], set()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        want_pass = len(first) < COLD_PASSES[0] or (
            len(first) < COLD_PASSES[1] and elapsed < COLD_BUDGET_S / 2)
        if not (want_pass or len(setup) < SETUP_RUNS[0] or (
                len(setup) < SETUP_RUNS[1] and elapsed < COLD_BUDGET_S)):
            return setup, first, digests
        mode = "pass" if want_pass else "setup"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--cold-child", mode],
            cwd=str(ROOT), capture_output=True, text=True,
            timeout=COLD_TIMEOUT_S, check=True)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(row["setup_s"])
        if mode == "pass":
            first.append(row["first_pass_s"])
            digests.add(row["digest"])


# ---------------------------------------------------------------------------
# runs


def accuracy_panel(cli) -> tuple:
    """(metric values, complete) from the fixed accuracy panel."""
    ops = list(workloads.ACCURACY_PANEL)
    results = run_pass(cli, ops)
    verdicts = judge(ops, results)
    worst: dict = {}
    complete = all(v.failure is None for v in verdicts)
    for v in verdicts:
        for name, value in v.errors.items():
            worst[name] = max(worst.get(name, 0.0), value)
    values = {}
    for name, _ in ERROR_METRICS:
        if name in worst:
            values[name] = max(worst[name], ACCURACY_FLOOR)
        else:
            complete = False
    return values, complete


def untraced_run(cli, args, tally: Tally, lines: list) -> tuple:
    correct = True
    setup, first, cold_digests = cold_start(args.workload)
    if len(cold_digests) != 1:
        correct = False
        lines.append("incorrect: cold passes differ between interpreters")

    ops = workloads.pass_ops(args.workload, args.seed, 0)
    results = run_pass(cli, ops)
    tally.add(ops, results, judge(ops, results))

    from perfbench import calibrate

    scaler = calibrate.Scaler(CAL_EVERY_S)
    scaler.sample()
    passes = []
    for k in range(1, pass_count(args.workload, args.seconds, False) + 1):
        ops = workloads.pass_ops(args.workload, args.seed, k)
        results, ends = [], []
        for op in ops:
            scaler.sample_if_due()
            results.append(invoke(cli, op.argv))
            ends.append(time.perf_counter())
        passes.append([(end, r.seconds) for end, r in zip(ends, results)])
        tally.add(ops, results, judge(ops, results))
    scaler.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pass_times, latencies = [], []
    for timed in passes:
        seconds = [scaler.scaled(end, t) for end, t in timed]
        pass_times.append(sum(seconds))
        latencies += [1e3 * t for t in seconds]

    errors, complete = accuracy_panel(cli)
    if not complete:
        correct = False
        lines.append("incorrect: an accuracy panel op failed")

    latencies.sort()
    n = len(latencies)
    top = highest_percentile(n)
    lines.append(f"calibration: median {statistics.median(scaler.samples):.4g}"
                 f" s over {len(scaler.samples)} samples, scale "
                 f"{calibrate.scale(scaler.samples):.4g}")
    lines.append(f"samples: {len(setup)} fresh interpreters, {len(first)} "
                 f"cold passes, {len(pass_times)} "
                 f"warm passes, {n} timed invocations; highest percentile "
                 f"with >= 10 samples beyond: p{top} = "
                 f"{percentile(latencies, top):.4g} ms")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "first_pass_s": (statistics.median(first), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "op_ms_p50": (percentile(latencies, 50), "ms"),
        "op_ms_p90": (percentile(latencies, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (1 - tally.failed / tally.attempted, "1"),
    }
    for name, unit in ERROR_METRICS:
        metrics[name] = (errors.get(name), unit)
    for name, value in sorted(tally.draw_errors.items()):
        lines.append(f"drawn ops: max {name} = {value:.3g}")
    return metrics, correct


def traced_run(cli, args, tally: Tally, lines: list) -> tuple:
    correct = True
    ops = workloads.pass_ops(args.workload, args.seed, 0)
    results = run_pass(cli, ops)
    tally.add(ops, results, judge(ops, results))

    tracer = spans.Tracer(spans.targets())
    times = {False: [], True: []}
    out_bytes = 0
    for k in range(1, pass_count(args.workload, args.seconds, True) + 1):
        ops = workloads.pass_ops(args.workload, args.seed, k)
        digests = {}
        for traced in ((False, True) if k % 2 else (True, False)):
            if traced:
                with tracer:
                    results = run_pass(cli, ops)
                out_bytes += sum(len(r.stdout.encode()) for r in results)
            else:
                results = run_pass(cli, ops)
                tally.add(ops, results, judge(ops, results))
            times[traced].append(sum(r.seconds for r in results))
            digests[traced] = digest(results)
        if digests[True] != digests[False]:
            correct = False
            lines.append(f"incorrect: traced pass {k} output differs")
    if tracer.missing:
        lines.append("trace targets not found: " + ", ".join(tracer.missing))

    passes = len(times[True])
    table = spans.layer_table(tracer.spans)
    traced_total = sum(times[True])
    lines.append(f"samples: {passes} traced and {passes} untraced passes")
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"layer {layer:42s} self {row['self_s'] / passes:9.4f} "
                     f"s/pass  share {row['self_s'] / traced_total:6.1%}  "
                     f"calls {row['calls'] / passes:8.1f}/pass")

    def layer(name, key):
        return table.get(name, {}).get(key, 0) / passes

    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead":
            # pass k ran both ways, so its draw cancels in the ratio
            value = statistics.median(
                t / u for t, u in zip(times[True], times[False])) - 1
        elif name == "cli.out_bytes":
            value = out_bytes / passes
        elif name == "sigma_ode.integrate.us_per_node":
            nodes = layer("sigma_ode.integrate", "nodes")
            value = (1e6 * layer("sigma_ode.integrate", "self_s") / nodes
                     if nodes else 0.0)
        else:
            layer_name, _, key = name.rpartition(".")
            value = layer(layer_name, key)
        metrics[name] = (value, unit)
    return metrics, correct


PER_LAYER = (
    ("rmt_numerics.fourier_table.calls", "count/pass"),
    ("rmt_numerics.fourier_table.self_s", "s/pass"),
    ("rmt_numerics.fourier_table.coeffs", "count/pass"),
    ("rmt_numerics.fourier_table.failed", "count/pass"),
    ("rmt_numerics.toeplitz_an.calls", "count/pass"),
    ("rmt_numerics.toeplitz_an.self_s", "s/pass"),
    ("rmt_numerics.toeplitz_an.lu_flops", "flop/pass"),
    ("rmt_numerics.bulk_limit_an.calls", "count/pass"),
    ("rmt_numerics.bulk_limit_an.self_s", "s/pass"),
    ("rmt_numerics.quad_oracle_an.calls", "count/pass"),
    ("rmt_numerics.quad_oracle_an.self_s", "s/pass"),
    ("rmt_numerics.fredholm_sine.calls", "count/pass"),
    ("rmt_numerics.fredholm_sine.self_s", "s/pass"),
    ("rmt_numerics.fredholm_sine.flops", "flop/pass"),
    ("rmt_numerics.fredholm_log_derivatives.calls", "count/pass"),
    ("rmt_numerics.fredholm_log_derivatives.self_s", "s/pass"),
    ("rmt_numerics.fredholm_log_derivatives.flops", "flop/pass"),
    ("sigma_ode.integrate.calls", "count/pass"),
    ("sigma_ode.integrate.self_s", "s/pass"),
    ("sigma_ode.integrate.nodes", "count/pass"),
    ("sigma_ode.integrate.failed", "count/pass"),
    ("sigma_ode.integrate.us_per_node", "us"),
    ("sigma_ode.seed.calls", "count/pass"),
    ("sigma_ode.seed.self_s", "s/pass"),
    ("sigma_ode.tau_reconstruct.calls", "count/pass"),
    ("sigma_ode.tau_reconstruct.self_s", "s/pass"),
    ("tau_series.build.calls", "count/pass"),
    ("tau_series.build.self_s", "s/pass"),
    ("tau_series.evaluate.calls", "count/pass"),
    ("tau_series.evaluate.self_s", "s/pass"),
    ("complexfn.calls", "count/pass"),
    ("complexfn.self_s", "s/pass"),
    ("monodromy.calls", "count/pass"),
    ("monodromy.self_s", "s/pass"),
    ("monodromy.failed", "count/pass"),
    ("cli.self_s", "s/pass"),
    ("cli.out_bytes", "byte/pass"),
    ("trace.overhead", "ratio"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-child", choices=("setup", "pass"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # before numpy is first imported, here and in every child
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "taurmt" / "cli.py").is_file():
        print(f"no taurmt sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.cold_child:
        return cold_child(args.workload, args.cold_child == "pass")

    import taurmt.cli as cli

    lines = [f"env {json.dumps(environment(), sort_keys=True)}",
             f"run workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    tally = Tally()
    if args.trace:
        metrics, correct = traced_run(cli, args, tally, lines)
    else:
        metrics, correct = untraced_run(cli, args, tally, lines)
    correct = correct and tally.malformed == 0
    lines += failure_classes(cli, tally)
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} = {value} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

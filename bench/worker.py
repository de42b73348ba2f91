"""One benchmark process: set up a workload, then serve it for a timed phase.

Started by run.py. It imports symquot from the checkout's ``src``,
makes the seeded inputs, warms up with one item and prints ``ready``.
With ``--setup-only`` it stops there (run.py times several set-ups);
otherwise it checks the warm-up answer, serves whole rounds of items
until ``--seconds`` have passed and at least ``min_items`` items ran,
checks every answer, and prints one JSON line with the counts and
metrics. Nothing of the checker runs before ``ready``, and workloads
with ``check_apart`` check in a forked child, so neither set-up time
nor the worker's peak RSS holds the checker's imports or allocations.

With ``--trace 1`` rounds alternate between untraced and traced, so the
traced minus the untraced median gives the tracing overhead, and layers
that the workload does not call are measured on a short probe of the
workload that does. The spans are written to ``bench/out`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, CliOneshot, MonomialLarge, SympowerTable  # noqa: E402

# per-layer metric: (span name, per-unit count or None for a median in ms)
LAYERS = {
    "sympower.verdict_ms": ("sympower.verdict", None),
    "sympower.class_table_ms": ("sympower.class_table", None),
    "sympower.class_table_us_per_class": ("sympower.class_table", "classes"),
    "report.json_ms": ("report.json", None),
    "report.md_ms": ("report.md", None),
    "monomial.parse_ms": ("monomial.parse", None),
    "monomial.close_ms": ("monomial.close", None),
    "monomial.analyze_ms": ("monomial.analyze", None),
    "monomial.close_us_per_element": ("monomial.close", "elements"),
    "monomial.analyze_us_per_element": ("monomial.analyze", "elements"),
}
# the workload probed for a layer that the traced workload does not call
PROBE_FOR = {"sympower": SympowerTable, "report": SympowerTable, "monomial": MonomialLarge}
CLI_PROBE_STARTS = 9
IMPORT_PROBE = (
    "import sys, time; n = len(sys.modules); t = time.perf_counter(); import symquot; "
    "print(time.perf_counter() - t, len(sys.modules) - n)"
)


def percentile(values, pct):
    """Nearest-rank percentile: N - ceil(pct*N/100) samples lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, ceil(pct * len(ordered) / 100) - 1)]


def check(wl, op, out) -> list[str]:
    """wl.check(op, out), in a forked child if the workload checks apart."""
    if not wl.check_apart:
        return wl.check(op, out)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child must never return into the serving loop
        try:
            os.close(read_end)
            try:
                problems = wl.check(op, out)
            except Exception as exc:  # a crash of the checker is a finding too
                problems = [f"checker raised {type(exc).__name__}: {exc}"]
            with os.fdopen(write_end, "w") as fh:
                json.dump(problems, fh)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    return json.loads(text) if text else ["checker process died without an answer"]


def pause_for_setup() -> float:
    """Wait while run.py times a fresh set-up; return the time waited."""
    t0 = perf_counter()
    print("setup", flush=True)
    sys.stdin.readline()
    return perf_counter() - t0


def serve(wl, seconds, tracers, setup_samples=0):
    """Serve whole rounds until time is up; round i uses tracers[i % len].

    ``setup_samples`` pauses, for run.py to time fresh set-ups, are spread
    evenly over the run at round boundaries, so that ``setup_s`` samples
    the machine over the same stretch as the items. Time paused is not
    run time.
    """
    records = []  # (latency s, tracer index, failed, unexpected failure)
    problems_seen: list[str] = []
    start = perf_counter()
    paused = 0.0
    taken = 0
    index = 0
    while True:
        tr = tracers[index % len(tracers)]
        for op in wl.round(index):
            tr.item_id = len(records)
            t0 = perf_counter()
            try:
                with tr.span("item"):
                    out = wl.run(op, tr)
            except Exception as exc:  # a crash in the program is a failed operation
                latency = perf_counter() - t0
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                latency = perf_counter() - t0
                problems = check(wl, op, out)
            unexpected = bool(problems) and not wl.known_fault(op)
            if unexpected and len(problems_seen) < 5:
                problems_seen += problems[:2]
            records.append((latency, index % len(tracers), bool(problems), unexpected))
        index += 1
        elapsed = perf_counter() - start - paused
        done = (elapsed >= seconds and len(records) >= wl.min_items
                and index % len(tracers) == 0)
        while taken < setup_samples and (
                done or elapsed >= (taken + 1) * seconds / (setup_samples + 1)):
            paused += pause_for_setup()
            taken += 1
        if done:
            break
    for line in problems_seen:
        print(f"{wl.name}: check failed: {line}", file=sys.stderr)
    return records


def counts(records):
    return {
        "correct": not any(r[3] for r in records),
        "attempted": len(records),
        "failed": sum(r[2] for r in records),
    }


def end_to_end(wl, records):
    lat = [r[0] for r in records]
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliOneshot) else resource.RUSAGE_SELF
    return {
        "items_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "item_ms_p50": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "item_ms_tail": {"value": percentile(lat, wl.tail_pct) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
    }


def layer_metrics(tracer, wanted):
    out = {}
    for metric in wanted:
        span, unit_key = LAYERS[metric]
        durations = tracer.durations(span)
        if not durations:
            continue
        if unit_key is None:
            value = statistics.median(d for _, d in durations) * 1e3
            out[metric] = {"value": value, "unit": "ms"}
        else:
            units = sum(tracer.counts[item][unit_key] for item, _ in durations)
            out[metric] = {"value": sum(d for _, d in durations) / units * 1e6, "unit": "us"}
    return out


def probe(cls, seed, wanted):
    """Layer metrics from one traced round of another workload."""
    wl = cls(seed, ROOT)
    tracer = Tracer()
    for item, op in enumerate(wl.round(0)):
        tracer.item_id = item
        wl.run(op, tracer)
    wl.close()
    return layer_metrics(tracer, wanted)


def timed_child(argv, env=None):
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60, check=True)
    return perf_counter() - t0, proc.stdout


def cli_metrics(seed):
    """Interpreter floor, fresh ``import symquot`` and in-process ``cli.run``."""
    from symquot import cli

    wl = CliOneshot(seed, ROOT)
    bare = [timed_child([sys.executable, "-c", "pass"])[0] for _ in range(CLI_PROBE_STARTS)]
    imports = [
        timed_child([sys.executable, "-c", IMPORT_PROBE], wl.env)[1].split()
        for _ in range(CLI_PROBE_STARTS)
    ]
    runs = []
    for op in wl.round(0):
        sink = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.run(op["argv"])
            except Exception:  # the known malformed-input faults raise in-process
                pass
        runs.append(perf_counter() - t0)
    wl.close()
    return {
        "cli.import_ms": {"value": statistics.median(float(s) for s, _ in imports) * 1e3,
                          "unit": "ms"},
        "cli.modules_imported": {"value": int(imports[-1][1]), "unit": "count"},
        "cli.run_ms": {"value": statistics.median(runs) * 1e3, "unit": "ms"},
        "cli.interpreter_ms": {"value": statistics.median(bare) * 1e3, "unit": "ms"},
    }


def traced_run(wl, args):
    tracer = Tracer()
    records = serve(wl, args.seconds, [NullTracer(), tracer])
    untraced = [r[0] for r in records if r[1] == 0]
    traced = [r[0] for r in records if r[1] == 1]
    metrics = layer_metrics(tracer, LAYERS)
    for prefix, cls in PROBE_FOR.items():
        missing = [m for m in LAYERS if m.startswith(prefix + ".") and m not in metrics]
        if missing:
            metrics.update(probe(cls, args.seed, missing))
    metrics.update(cli_metrics(args.seed))
    metrics["trace.overhead_ms"] = {
        "value": (statistics.median(traced) - statistics.median(untraced)) * 1e3, "unit": "ms"}
    tracer.write(ROOT / "bench" / "out" / f"trace-{wl.name}-seed{args.seed}.jsonl")
    return records, metrics


def selfcheck() -> int:
    """Feed every checker a right answer and deliberately wrong ones."""
    status = 0
    for cls in WORKLOADS.values():
        wl = cls(0, ROOT)
        op = wl.sample()
        out = wl.run(op, NullTracer())
        good = check(wl, op, out)
        print(f"{wl.name}: right answer -> {'passed' if not good else good}")
        status |= bool(good)
        for label, bad_op, bad in wl.corruptions(op, out):
            fresh = cls(0, ROOT)
            problems = check(fresh, bad_op, bad)
            fresh.close()
            verdict = f"counted as failed ({problems[0]})" if problems else "NOT FLAGGED"
            print(f"{wl.name}: {label} -> {verdict}")
            status |= not problems
        wl.close()
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setup-samples", type=int, default=0,
                        help="pauses for run.py to time fresh set-ups during the run")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    import symquot

    if not Path(symquot.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"symquot was imported from {symquot.__file__}, not from src/")
    if args.selfcheck:
        return selfcheck()
    if args.workload is None or (args.seconds is None and not args.setup_only):
        parser.error("--workload and --seconds are required")

    wl = WORKLOADS[args.workload](args.seed, ROOT)
    warm = wl.sample()
    warm_out = wl.run(warm, NullTracer())
    gc.collect()
    print("ready", flush=True)
    if args.setup_only:
        wl.close()
        return 0
    warm_problems = check(wl, warm, warm_out)
    del warm_out
    for line in warm_problems[:2]:
        print(f"{wl.name}: warm-up check failed: {line}", file=sys.stderr)
    try:
        if args.trace:
            records, metrics = traced_run(wl, args)
        else:
            records = serve(wl, args.seconds, [NullTracer()], args.setup_samples)
            metrics = end_to_end(wl, records)
    finally:
        wl.close()
    result = counts(records)
    result["correct"] = result["correct"] and not warm_problems
    print(json.dumps(dict(result, metrics=metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

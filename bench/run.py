"""Benchmark for symquot: three workloads, run from the root of a checkout.

One run:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It starts the worker that serves the timed phase and times its set-up
(interpreter start, ``import symquot`` from ``src/``, input generation,
one warm-up item). In untraced runs it times eight more fresh set-ups,
spread over the timed phase: at a round boundary the worker asks for
one and waits until it is done, and the wait is not run time.
``setup_s`` is the median of the nine. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).

Steadiness across seeds, against the bounds in BENCHMARK.json (with
--sets 2, two interleaved sets whose medians are compared too):
    python3 bench/run.py --repeat 10 [--sets 2] [--workload NAME] [--seconds S]

Checks of the checks (every checker must flag deliberately wrong answers):
    python3 bench/run.py --selfcheck
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sympower-table", "monomial-large", "cli-oneshot")
SETUP_SAMPLES = 9  # the timed worker's own set-up and eight taken during its run
DEADLINE_S = 170


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def start_worker(cmd: list[str], deadline: float, stdin=subprocess.DEVNULL):
    """Start a worker; return it, its watchdog, its first line and the time to it."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    ready = proc.stdout.readline().strip()
    return proc, watchdog, ready, perf_counter() - t0


def finish(workload: str, proc, watchdog, ready: str) -> None:
    proc.wait()
    watchdog.cancel()
    if ready != "ready" or proc.returncode != 0:
        fail(f"worker for {workload} exited with {proc.returncode} (ready: {ready!r})")


def single_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "symquot" / "__init__.py").is_file():
        fail(f"no symquot sources under {ROOT / 'src'}")
    deadline = perf_counter() + DEADLINE_S
    base = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    samples = 0 if trace else SETUP_SAMPLES - 1
    proc, watchdog, ready, setup = start_worker(
        base + ["--setup-samples", str(samples)], deadline, stdin=subprocess.PIPE)
    setups, lines = [setup], []
    if ready == "ready":
        for line in proc.stdout:
            if line.strip() != "setup":
                lines.append(line)
                continue
            # The worker waits while a fresh set-up is timed, then goes on.
            sample = start_worker(base + ["--setup-only"], deadline)
            finish(workload, *sample[:3])
            setups.append(sample[3])
            proc.stdin.write("go\n")
            proc.stdin.flush()
    finish(workload, proc, watchdog, ready)
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def spread_rows(results, bounds):
    """Median, quartiles and spread (IQR over median) of each metric."""
    rows = {}
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med}
    return rows


def repeat(workloads, runs: int, first_seed: int, seconds: float, sets: int) -> int:
    """Run each workload with RUNS seeds in SETS interleaved sets.

    For every set it prints each metric's median, quartiles and spread
    against the metric's bound; with two or more sets, also how far each
    later set's median moved from the first set's, in the worse
    direction. Exits 1 if a spread or a move exceeds its bound, or if the
    share of failed operations differs between runs.
    """
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    lower_better = {m["name"]: m["better"] == "lower" for m in metrics}
    summary = {}
    status = 0
    for workload in workloads:
        results = [[] for _ in range(sets)]
        for seed in range(first_seed, first_seed + runs):
            for k in range(sets):
                results[k].append(single_run(workload, seed, seconds, 0))
                print(f"{workload} set {k + 1} seed {seed}: " + json.dumps(results[k][-1]),
                      file=sys.stderr)
        every = [r for rs in results for r in rs]
        shares = {(r["failed"], r["attempted"]) for r in every}
        share_values = {f / a for f, a in shares}
        print(f"\n{workload}: failed/attempted {sorted(shares)}"
              f"{'' if len(share_values) == 1 else '  SHARE DIFFERS'}"
              f"{'' if all(r['correct'] for r in every) else '  INCORRECT'}")
        if len(share_values) != 1 or not all(r["correct"] for r in every):
            status = 1
        sets_rows = [spread_rows(rs, bounds) for rs in results]
        for k, rows in enumerate(sets_rows):
            print(f"set {k + 1}: {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} "
                  f"{'spread':>7} {'bound':>6}")
            for name, row in rows.items():
                bound = bounds[name]
                verdict = ("steady" if row["spread"] <= bound / 3
                           else "within" if row["spread"] <= bound else "WIDE")
                status |= row["spread"] > bound
                print(f"       {name:<14} {row['median']:>10.4f} {row['q1']:>10.4f} "
                      f"{row['q3']:>10.4f} {row['spread']:>7.1%} {bound:>6.0%}  {verdict}")
        for k, rows in enumerate(sets_rows[1:], start=2):
            print(f"set {k} against set 1, median move in the worse direction:")
            for name, row in rows.items():
                first = sets_rows[0][name]["median"]
                worse = (row["median"] - first) / first * (1 if lower_better[name] else -1)
                row["worse_than_set1"] = worse
                status |= worse > bounds[name]
                print(f"       {name:<14} {worse:>+8.1%}  bound {bounds[name]:.0%}"
                      f"{'  WORSE' if worse > bounds[name] else ''}")
        summary[workload] = {"shares": sorted(shares), "sets": sets_rows}
    out = ROOT / "bench" / "out" / "repeat.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return int(status)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="RUNS")
    parser.add_argument("--sets", type=int, default=1,
                        help="with --repeat: interleaved sets of RUNS runs to compare")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.selfcheck:
        return subprocess.run([sys.executable, str(WORKER), "--selfcheck"], cwd=ROOT).returncode
    if args.repeat:
        chosen = [args.workload] if args.workload else list(WORKLOADS)
        return repeat(chosen, args.repeat, args.seed, args.seconds, args.sets)
    if args.workload is None:
        fail("--workload is required")
    print(json.dumps(single_run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

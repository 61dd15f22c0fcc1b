"""Run the whole benchmark several times and summarise it.

    python3 perfbench/suite.py [--runs N] [--seed S] [--trace]
                               [--checkout DIR ...] [--out FILE ...]

For run ``i`` (workload seed ``S + i``) and every workload, runs
``perfbench/run.py`` for the ``run_seconds`` of ``BENCHMARK.json`` in each
checkout (default: the current directory) and prints every end-to-end metric
by name, with its unit, as the median and quartiles over the runs, with the
spread (interquartile range over median) beside the metric's bound.  Every table the runs build is checked; the
command exits 1 if any check failed.  ``--trace`` adds one traced run per
workload and seed and prints the per-layer metrics.

With two checkouts (say the parent commit and a change), the order in which
they run alternates from one run to the next, as the pair rule of
``perfbench/compare.py`` expects; ``--out`` names one result file per
checkout, in the same order.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from compare import quartiles, spread

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: wall-clock limit of one run.py invocation
RUN_TIMEOUT_S = 900


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed} in {checkout} failed "
            f"(exit {done.returncode}):\n{done.stderr[-2000:]}"
        )
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def values_of(runs: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [
        r["result"]["metrics"][metric]["value"]
        for r in runs
        if r["info"]["workload"] == workload and r["info"]["trace"] == trace
    ]


def print_summary(label: str, runs: list[dict], workloads: list[str], trace: bool) -> None:
    print(f"\n== {label}")
    print(
        f"{'workload':18} {'metric':14} {'unit':9} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'spread':>7} {'bound':>6}  runs"
    )
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            values = values_of(runs, workload, 0, metric["name"])
            q1, median, q3 = quartiles(values)
            print(
                f"{workload:18} {metric['name']:14} {metric['unit']:9} "
                f"{median:12.6g} {q1:12.6g} {q3:12.6g} {spread(values):7.4f} "
                f"{metric['bound']:6.3f}  {len(values)}"
            )
    if not trace:
        return
    header = "".join(f"{w:>19}" for w in workloads)
    print(f"\n{'per-layer metric (median of traced runs)':46}{header}")
    for metric in SPEC["per_layer"]:
        cells = []
        for workload in workloads:
            values = values_of(runs, workload, 1, metric["name"])
            cells.append(f"{statistics.median(values):19.6g}")
        print(f"{metric['name'] + ' [' + metric['unit'] + ']':46}" + "".join(cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--checkout", action="append", type=Path, default=[])
    parser.add_argument("--out", action="append", type=Path, default=[])
    args = parser.parse_args()
    checkouts = [c.resolve() for c in args.checkout] or [Path.cwd()]
    if args.out and len(args.out) != len(checkouts):
        parser.error("give one --out per checkout")
    workloads = [w["name"] for w in SPEC["workloads"]]

    runs: dict[Path, list[dict]] = {c: [] for c in checkouts}
    for i in range(args.runs):
        seed = args.seed + i
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for workload in workloads:
            for trace in (0, 1) if args.trace else (0,):
                for checkout in order:
                    run = run_once(checkout, workload, seed, trace)
                    runs[checkout].append(run)
                    result = run["result"]
                    print(
                        f"# {checkout.name} {workload} seed={seed} trace={trace} "
                        f"correct={result['correct']} rows={result['attempted']} "
                        f"failed={result['failed']}",
                        flush=True,
                    )

    for checkout, out in zip(checkouts, args.out):
        result_set = {"benchmark": SPEC, "checkout": str(checkout), "runs": runs[checkout]}
        out.write_text(json.dumps(result_set, indent=1) + "\n", encoding="utf-8")
    all_correct = True
    for checkout in checkouts:
        print_summary(str(checkout), runs[checkout], workloads, args.trace)
        all_correct &= all(r["result"]["correct"] for r in runs[checkout])
    print("\nall tables correct" if all_correct else "\nTABLE CHECK FAILED")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

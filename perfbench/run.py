"""Benchmark entry point: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package under test is that checkout's
``src/irsrelay``.  Every repetition builds and emits one full table in a fresh
child process (``perfbench/child.py``), with OpenBLAS held to one thread.

``--trace 0`` builds the tables of ``TABLE_SEEDS`` seeds derived from the
run's seed, in turn, until ``--seconds`` are used, and reports the end-to-end
metrics of ``BENCHMARK.json``.  Times are in reference seconds (see
``measure_end_to_end``): ``wall_s`` is the median repetition of each table,
averaged over the tables, and ``setup_s`` the median over every repetition.

``--trace 1`` builds the golden-seed table once (for ``cli.golden_bytes_equal``)
and then alternates untraced and traced builds of the seeded table; it
reports the per-layer metrics of ``BENCHMARK.json`` as medians over the
traced builds, and the tracing overhead from the pairs.

Every table written is checked (``perfbench/check.py``), and all tables of
one seed must be byte-identical.  The last line printed is the JSON result;
the line before it holds the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from check import check_table, golden_text  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS  # noqa: E402

#: the benchmark definition: the checkout this script belongs to
BENCHMARK_FILE = BENCH_DIR.parent / "BENCHMARK.json"

#: tables an untraced run builds, at seeds ``seed * TABLE_SEEDS + k``.  The
#: solvers' iteration counts depend on the channels: over 40 seeds the
#: iterations of one ``sweep-snr-w2`` table (12 trials) had a standard
#: deviation of 6.3%, those of eight tables 2.9%
TABLE_SEEDS = 8

#: the reference kernel's time (``child.reference_kernel_s``) on a 2-core
#: x86_64 machine at its faster moments; a reference second is the time in
#: which the kernel would run ``1 / REFERENCE_KERNEL_S`` times
REFERENCE_KERNEL_S = 0.03

#: fewest builds of each table (untraced) or build pairs (traced) a run makes
MIN_REPS = 2
MIN_PAIRS = 2

CHILD_TIMEOUT_S = 120

SINGLE_THREAD_BLAS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The program under test is missing or failed; no result is printed."""


class Runner:
    """Spawns repetition processes for one workload in one checkout."""

    def __init__(self, root: Path, workload: str) -> None:
        if not (root / "src" / "irsrelay" / "__init__.py").is_file():
            raise BenchError(f"no package source at {root / 'src' / 'irsrelay'}")
        self.root = root
        self.workload = WORKLOADS[workload]
        self.work_dir = root / ".perfbench"
        self.work_dir.mkdir(exist_ok=True)
        self.table_path = self.work_dir / f"{workload}.csv"
        self.spans_path = self.work_dir / f"{workload}.spans.jsonl"
        self.env = {
            **os.environ,
            **SINGLE_THREAD_BLAS,
            "PYTHONPATH": str(root / "src"),
        }

    def spawn(self, seed: int, *flags: str) -> dict:
        """One child process; returns its report plus ``setup_s`` (and ``table``)."""
        command = [
            sys.executable,
            str(BENCH_DIR / "child.py"),
            self.workload.name,
            str(seed),
            str(self.table_path),
            *flags,
        ]
        started = time.monotonic()
        try:
            done = subprocess.run(
                command,
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
        if done.returncode != 0:
            raise BenchError(
                f"repetition exited {done.returncode}:\n{done.stderr[-2000:]}"
            )
        report = json.loads(done.stdout.splitlines()[-1])
        report["setup_s"] = report["setup_done"] - started
        if "--setup-only" not in flags:
            report["table"] = self.table_path.read_text(encoding="utf-8")
        return report


class Tables:
    """Checks every table of a run and keeps the row counts."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.golden = golden_text(workload)
        self.attempted = 0
        self.failed = 0
        self.first_by_seed: dict[int, str] = {}

    def check(self, text: str, seed: int) -> None:
        attempted, failed = check_table(text, self.workload, seed)
        # every build at one seed must reproduce the first one byte for byte
        if self.first_by_seed.setdefault(seed, text) != text:
            failed = attempted
        self.attempted += attempted
        self.failed += failed


def table_seeds(seed: int) -> list[int]:
    """The seeds of the tables an untraced run at ``seed`` builds."""
    return [seed * TABLE_SEEDS + k for k in range(TABLE_SEEDS)]


def measure_end_to_end(runner: Runner, seed: int, seconds: float, tables: Tables):
    """End-to-end metrics of one run, in reference seconds.

    The host's speed swings by up to 1.8x, for seconds and at times for
    minutes (other tenants on the same cores), and CPU time swings with it.
    So each repetition also times a fixed reference kernel just before and
    just after its table, and every time is scaled by ``REFERENCE_KERNEL_S``
    over the kernel's time in that process.  Over 40 s windows of
    ``run-default`` the median scaled table time spread 0.02 of its median,
    against 0.20 for the raw median and 0.28 for the raw fastest repetition.
    """
    deadline = time.monotonic() + seconds
    seeds = table_seeds(seed)
    runner.spawn(seeds[0], "--setup-only")  # warm the bytecode and file caches
    walls: dict[int, list[float]] = {s: [] for s in seeds}
    reps, setups = [], []
    while True:
        cycle_start = time.monotonic()
        for table_seed in seeds:
            rep = runner.spawn(table_seed, *(() if reps else ("--env",)))
            tables.check(rep.pop("table"), table_seed)
            reps.append(rep)
            before, after = rep["kernel_s"]
            walls[table_seed].append(rep["wall_s"] * 2 * REFERENCE_KERNEL_S / (before + after))
            setups.append(rep["setup_s"] * REFERENCE_KERNEL_S / before)
        now = time.monotonic()
        if len(walls[seeds[-1]]) >= MIN_REPS and now + (now - cycle_start) > deadline:
            break
    wall_s = statistics.fmean(statistics.median(w) for w in walls.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "trials_per_s": runner.workload.evaluations / wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024.0,
        "rows_ok_frac": (tables.attempted - tables.failed) / tables.attempted,
    }
    samples = {
        "raw_setup_s": [r["setup_s"] for r in reps],
        "raw_wall_s": [r["wall_s"] for r in reps],
        "kernel_s": [r["kernel_s"] for r in reps],
        "table_seed": [s for _ in range(len(reps) // TABLE_SEEDS) for s in seeds],
        "peak_rss_kb": [r["peak_rss_kb"] for r in reps],
    }
    return metrics, samples, reps[0]["env"]


def measure_layers(runner: Runner, seed: int, seconds: float, tables: Tables):
    deadline = time.monotonic() + seconds
    golden = runner.spawn(GOLDEN_SEED, "--env")
    golden_table = golden.pop("table")
    tables.check(golden_table, GOLDEN_SEED)
    plain, traced = [], []
    while True:
        cycle_start = time.monotonic()
        for trace_flags, sink in (((), plain), (("--trace", str(runner.spans_path)), traced)):
            rep = runner.spawn(seed, *trace_flags)
            tables.check(rep.pop("table"), seed)
            sink.append(rep)
        now = time.monotonic()
        if len(traced) >= MIN_PAIRS and now + (now - cycle_start) > deadline:
            break
    metrics = {
        key: statistics.median(r["layers"][key] for r in traced)
        for key in traced[0]["layers"]
    }
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics["cli.golden_bytes_equal"] = int(golden_table == tables.golden)
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
    }
    return metrics, samples, golden["env"]


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        runner = Runner(Path.cwd(), args.workload)
        tables = Tables(args.workload)
        if args.trace:
            metrics, samples, env = measure_layers(runner, args.seed, args.seconds, tables)
            declared = _declared("per_layer")
        else:
            metrics, samples, env = measure_end_to_end(runner, args.seed, args.seconds, tables)
            declared = _declared("end_to_end")
    except (BenchError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    if set(metrics) != set(declared):
        sys.stderr.write(
            "perfbench: measured metrics do not match BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(declared))}\n"
        )
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "samples": samples,
    }
    result = {
        "correct": tables.failed == 0,
        "attempted": tables.attempted,
        "failed": tables.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

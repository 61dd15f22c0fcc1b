"""Tests of the benchmark's own code: trace wrappers, self time, table checks.

    python3 -m pytest perfbench -q

Run from the checkout root; the package is imported from ``src``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import irsrelay.cli as cli  # noqa: E402
from check import check_table, golden_text, parse_csv  # noqa: E402
from compare import compare, verdict  # noqa: E402
from run import REFERENCE_KERNEL_S, TABLE_SEEDS, measure_end_to_end  # noqa: E402
from tracing import Span, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: per-layer metrics that run.py adds from several builds, not from one trace
RUN_LEVEL_METRICS = {"trace.overhead_frac", "cli.golden_bytes_equal"}


def traced_build(subcommand: str, trial_workers: int, **overrides: str) -> dict:
    settings_overrides = {key: str(value) for key, value in overrides.items()}
    tracer = Tracer().install()
    try:
        settings = cli.parse_config(overrides=settings_overrides, env={})
        if subcommand == "run":
            table = cli.build_run_table(settings)
        else:
            table = cli.build_sweep_table(subcommand, settings)
        cli.format_table(table, "csv")
    finally:
        tracer.uninstall()
    return layer_metrics(tracer, trial_workers)


def assert_self_times_partition_busy_time(metrics: dict) -> None:
    """Trial-layer self times = busy time + harness time outside the trials."""
    busy = metrics["harness.collect_trials.busy_s"]
    outside_trials = metrics["harness.self_s"] - metrics["harness.run_trial.self_s"]
    trial_layers = sum(
        metrics[f"{layer}.self_s"] for layer in ("channel", "beamforming", "metrics", "harness")
    )
    assert busy > 0
    assert trial_layers == pytest.approx(busy + outside_trials, rel=1e-9)
    assert metrics["trace.self_sum_over_busy"] == pytest.approx(trial_layers / busy)


def test_run_counts_every_layer_call_on_a_tiny_three_method_run():
    trials = 5
    metrics = traced_build("run", 1, m=2, n=4, trials=trials, methods="ais,nsp,irses")
    # each method draws the trial's channels again: 3 draws per trial
    assert metrics["channel.sample_channels.calls"] == 3 * trials
    assert metrics["channel.draws_per_trial"] == 3
    assert metrics["harness.run_trial.calls"] == 3 * trials
    for solver in ("ais_max_rp", "nsp_max_rp_mrc", "irses_max_rp_mrc"):
        assert metrics[f"beamforming.{solver}.calls"] == trials
    assert metrics["beamforming.second_slot_optimize.calls"] == 3 * trials
    assert metrics["beamforming.irses_partition.calls"] == trials
    assert metrics["beamforming.solves_per_trial"] == 1
    assert metrics["beamforming.ur_update_ais.calls"] == 0
    # trial seeds plus one partition seed per irses trial
    assert metrics["channel.stream_seed.calls"] == 3 * trials + trials
    assert metrics["beamforming.ais_max_rp.iters_mean"] >= 1
    assert 0 < metrics["harness.parallel_efficiency"] <= 1
    assert_self_times_partition_busy_time(metrics)


def test_fixed_phase_and_baseline_paths_reach_the_metrics_layer():
    trials = 4
    metrics = traced_build(
        "run",
        1,
        m=2,
        n=4,
        trials=trials,
        methods="ais-fixed-phase,baseline-single-antenna,baseline-relay-only",
    )
    assert metrics["channel.draws_per_trial"] == 3
    assert metrics["beamforming.ur_update_ais.calls"] == trials
    assert metrics["metrics.receive_power_ais.calls"] == trials
    # fixed phase: first and second hop; relay only: both hops
    assert metrics["metrics.rate_from_power.calls"] == 4 * trials
    # the single-antenna baseline runs the alternating solver with m = 1
    assert metrics["beamforming.ais_max_rp.calls"] == trials


def test_sweep_through_the_thread_pool_counts_redraws_and_resolves():
    trials, points = 4, 2
    metrics = traced_build(
        "sweep-snr", 2, m=2, n=4, trials=trials, methods="ais,nsp,irses",
        values="0,10", workers=2,
    )
    assert metrics["channel.draws_per_trial"] == 3 * points
    assert metrics["beamforming.solves_per_trial"] == points
    assert metrics["harness.run_trial.calls"] == 3 * points * trials
    assert_self_times_partition_busy_time(metrics)


def test_traced_build_emits_every_declared_per_layer_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    metrics = traced_build("run", 1, m=2, n=4, trials=2, methods="ais")
    assert set(metrics) == declared - RUN_LEVEL_METRICS


def _span(name, parent, thread, cpu_start, cpu_end):
    return Span(name, parent, thread, None, cpu_start=cpu_start, cpu_end=cpu_end)


def test_self_time_subtracts_only_children_on_the_same_thread():
    tracer = Tracer()
    # the dispatcher uses 0.5 s of CPU on thread 1 besides the nested summary;
    # its two workers spend CPU time of threads 2 and 3, not of thread 1
    parent = _span("harness.collect_trials", None, 1, 0.0, 1.0)
    summary = _span("harness.summarize_records", parent, 1, 0.2, 0.7)
    a = _span("harness.run_trial", parent, 2, 0.0, 4.0)
    b = _span("harness.run_trial", parent, 3, 0.0, 5.0)
    grandchild = _span("channel.sample_channels", a, 2, 1.0, 2.0)
    tracer.spans = [summary, grandchild, a, b, parent]
    self_time = tracer.self_times()
    assert self_time[id(parent)] == pytest.approx(0.5)
    assert self_time[id(summary)] == pytest.approx(0.5)
    assert self_time[id(a)] == pytest.approx(3.0)
    assert self_time[id(b)] == pytest.approx(5.0)
    assert self_time[id(grandchild)] == pytest.approx(1.0)


def test_worker_thread_spans_hang_under_the_dispatching_span():
    tracer = Tracer()
    both_running = threading.Barrier(2, timeout=10)

    def work():
        both_running.wait()
        time.sleep(0.05)

    traced_work = tracer.wrap(work, "harness.run_trial")

    def dispatch():
        threads = [threading.Thread(target=traced_work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

    tracer.wrap(dispatch, "harness.collect_trials")()
    (root,) = [s for s in tracer.spans if s.name == "harness.collect_trials"]
    workers = [s for s in tracer.spans if s.name == "harness.run_trial"]
    assert len(workers) == 2
    assert all(s.parent is root for s in workers)
    assert len({s.thread for s in workers} | {root.thread}) == 3
    # the workers' CPU time is their threads', none of it the dispatcher's
    assert tracer.self_times()[id(root)] == pytest.approx(root.cpu, abs=1e-12)


def test_workers_that_take_turns_on_the_interpreter_lock_use_one_core():
    tracer = Tracer()
    both_running = threading.Barrier(2, timeout=10)

    def spin():
        both_running.wait()
        total = 0
        for i in range(3_000_000):  # pure Python: holds the lock throughout
            total += i
        return total

    traced_spin = tracer.wrap(spin, "harness.run_trial")

    def dispatch():
        threads = [threading.Thread(target=traced_spin) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

    tracer.wrap(dispatch, "harness.collect_trials")()
    metrics = layer_metrics(tracer, workers=2)
    wall = metrics["harness.collect_trials.wall_s"]
    workers = [s for s in tracer.spans if s.name == "harness.run_trial"]
    assert sum(s.duration for s in workers) > 1.5 * wall  # both were open
    # only one ran at a time: one busy core, the rest of the wall time waited
    assert metrics["harness.parallel_efficiency"] < 0.75
    assert metrics["harness.run_trial.wait_s"] > 0.5 * metrics["harness.collect_trials.busy_s"]


def test_uninstall_restores_every_wrapped_name_and_the_warning_filters():
    import warnings

    import irsrelay.harness as harness

    before = (harness.sample_channels, cli.collect_trials, cli.build_run_table)
    filters = warnings.filters[:]
    Tracer().install().uninstall()
    assert (harness.sample_channels, cli.collect_trials, cli.build_run_table) == before
    assert warnings.filters == filters


def test_degenerate_element_warnings_are_counted_not_printed(capsys):
    import warnings

    from irsrelay.errors import DegenerateElementWarning

    tracer = Tracer().install()
    try:
        for _ in range(3):
            warnings.warn("zero path", DegenerateElementWarning)
    finally:
        tracer.uninstall()
    assert tracer.degenerate_warnings == 3
    assert "zero path" not in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["run-default", "sweep-snr-w2", "small-all-methods"])
def test_golden_table_passes_its_own_check(workload):
    golden = golden_text(workload)
    seed = int(parse_csv(golden).metadata["seed"])
    assert check_table(golden, workload, seed) == (len(parse_csv(golden).rows), 0)


def _edit_cell(text: str, row: int, column: str, value: str) -> str:
    table = parse_csv(text)
    lines = text.splitlines()
    header = lines.index(",".join(table.columns))
    cells = lines[header + 1 + row].split(",")
    cells[table.columns.index(column)] = value
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "column, value",
    [
        ("mean_rate_s", "-0.1"),  # negative
        ("mean_rate_r", "nan"),  # non-finite
        ("mean_rate_s", "2.8"),  # above min(r, d) / 2 and far from golden
        ("mean_rate_d", "4.0"),  # makes mean_rate_s exceed min(r, d) / 2
        # a first-slot rate 5% lower, while the system rate stays capped by d
        ("mean_rate_r", "5.775233"),
        ("mean_rate_d", "5.4"),  # a second-slot rate 5% higher
    ],
)
def test_bad_run_row_fails_alone(column, value):
    golden = golden_text("run-default")
    seed = int(parse_csv(golden).metadata["seed"])
    bad = _edit_cell(golden, 0, column, value)
    assert check_table(bad, "run-default", seed) == (3, 1)


def test_sweep_row_far_from_golden_fails():
    golden = golden_text("sweep-snr-w2")
    seed = int(parse_csv(golden).metadata["seed"])
    bad = _edit_cell(golden, 6, "irses_mean_rate", "2.5")
    assert check_table(bad, "sweep-snr-w2", seed) == (7, 1)


def test_table_at_another_seed_or_size_fails_every_row():
    golden = golden_text("run-default")
    seed = int(parse_csv(golden).metadata["seed"])
    assert check_table(golden, "run-default", seed + 1) == (3, 3)
    assert check_table(golden.replace("# m=16", "# m=8"), "run-default", seed) == (3, 3)
    assert check_table("", "run-default", seed) == (3, 3)


def _runs(values):
    return dict(enumerate(values))


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # every pair won, by more than the parent's interquartile range
        ([1.0, 1.02, 0.98, 1.01, 0.99] * 2, [0.8, 0.81, 0.79, 0.8, 0.82] * 2, "lower", "improved"),
        ([100.0, 101, 99, 100, 102] * 2, [125.0, 126, 124, 125, 127] * 2, "higher", "improved"),
        # median worse by more than the 0.1 bound, spreads narrow
        ([1.0, 1.02, 0.98, 1.01, 0.99] * 2, [1.2, 1.21, 1.19, 1.2, 1.22] * 2, "lower", "worse"),
        # within the bound
        ([1.0, 1.02, 0.98, 1.01, 0.99] * 2, [1.03, 1.0, 1.05, 1.02, 1.0] * 2, "lower", "unchanged"),
        # spread wider than the bound hides a difference of the bound's size
        ([1.0, 1.5, 0.7, 1.3, 0.8] * 2, [1.1, 1.6, 0.8, 1.4, 0.9] * 2, "lower", "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert verdict(_runs(parent), _runs(change), better, 0.1)[0] == expected


def test_compare_claims_no_gain_on_fewer_than_ten_pairs():
    parent, change = [1.0, 1.02, 0.98], [0.8, 0.81, 0.79]
    assert verdict(_runs(parent), _runs(change), "lower", 0.1)[0] == "unchanged"


def _result_set(wall_s: list[float], failed: int) -> dict:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    runs = [
        {
            "info": {"workload": "run-default", "seed": seed, "trace": 0},
            "result": {
                "failed": failed if seed == 0 else 0,
                "metrics": {"wall_s": {"value": value, "unit": "s"}},
            },
        }
        for seed, value in enumerate(wall_s)
    ]
    wall = [m for m in spec["end_to_end"] if m["name"] == "wall_s"]
    return {"benchmark": {**spec, "end_to_end": wall}, "runs": runs}


@pytest.mark.parametrize("change_failed, expected", [(0, "improved"), (1, "worse")])
def test_compare_withholds_a_gain_when_more_rows_fail(change_failed, expected):
    parent = _result_set([1.0, 1.02, 0.98, 1.01, 0.99] * 2, failed=0)
    change = _result_set([0.8, 0.81, 0.79, 0.8, 0.82] * 2, failed=change_failed)
    [(workload, metric, word, _)] = compare(parent, change)
    assert (workload, metric, word) == ("run-default", "wall_s", expected)


class _HostAtTwoSpeeds:
    """A runner whose odd-seeded tables run on a host half as fast."""

    workload = WORKLOADS["run-default"]

    def __init__(self) -> None:
        self.seeds: list[int] = []

    def spawn(self, seed: int, *flags: str) -> dict:
        slow = 2.0 if seed % 2 else 1.0
        report = {"setup_s": 0.2 * slow, "peak_rss_kb": 1024, "env": {}}
        if "--setup-only" in flags:
            return report
        self.seeds.append(seed)
        kernel = [REFERENCE_KERNEL_S * slow * 0.9, REFERENCE_KERNEL_S * slow * 1.1]
        return {**report, "wall_s": 0.5 * slow, "kernel_s": kernel, "table": ""}


class _AllRowsPass:
    attempted, failed = 1, 0

    def check(self, text: str, seed: int) -> None:
        pass


def test_end_to_end_times_are_in_reference_seconds_whatever_the_host_speed():
    runner = _HostAtTwoSpeeds()
    metrics, _, _ = measure_end_to_end(runner, 3, 0.0, _AllRowsPass())
    assert sorted(set(runner.seeds)) == list(range(3 * TABLE_SEEDS, 4 * TABLE_SEEDS))
    assert metrics["wall_s"] == pytest.approx(0.5)
    assert metrics["setup_s"] == pytest.approx(0.2 / 0.9)
    assert metrics["trials_per_s"] == pytest.approx(runner.workload.evaluations / 0.5)
    assert metrics["rows_ok_frac"] == 1.0

"""The table path: each configuration's trials as columns, not records.

``collect_columns`` keeps the rates and iteration counts of a
configuration's trials as arrays in trial order, and a table is averaged
straight from them (``summarize_columns``).  Every number must be what the
records of ``collect_trials`` give, bit for bit, and no per-trial object is
made.  A mean or standard error that is not a number fails the table.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from irsrelay import cli, harness
from irsrelay.harness import (
    METHODS,
    PROPOSED_METHODS,
    ScenarioConfig,
    SweepSpec,
    collect_columns,
    collect_trials,
    point_config,
    summarize_columns,
    summarize_records,
    sweep,
)
from irsrelay.metrics import system_rate


def hexes(values):
    return [float(value).hex() for value in values]


@pytest.mark.parametrize(
    "m, n, trials, chunks",
    [
        (4, 16, 1, 1),
        (4, 16, 59, 1),
        (4, 16, 120, 1),  # the cap's edge: one chunk of 120
        (4, 16, 121, 2),  # chunks of 61 and 60
        (16, 160, 17, 2),  # chunks of 9 and 8
    ],
)
def test_table_columns_summarize_as_the_records(m, n, trials, chunks):
    configs = [
        ScenarioConfig(method=method, m=m, n=n, trials=trials) for method in METHODS
    ]
    assert -(-trials // harness._chunk_trials(configs)) == chunks
    for config, columns, records in zip(
        configs, collect_columns(configs), collect_trials(configs)
    ):
        assert hexes(summarize_columns(columns, config.method)) == hexes(
            summarize_records(records)
        )
        assert columns.seeds == [record.seed for record in records]
        for name in ("rate_r", "rate_d", "rate_s"):
            column = getattr(columns, name)
            assert column.dtype == np.float64 and column.flags.c_contiguous
            expected = [getattr(record.result, name) for record in records]
            assert hexes(column) == hexes(expected)
        iterations = zip(columns.iterations_r.tolist(), columns.iterations_d.tolist())
        assert list(iterations) == [record.result.iterations for record in records]


@pytest.mark.parametrize(
    "axis, values", [("snr_db", (0.0, 15.0, 30.0)), ("distance_d", (20.0, 70.0))]
)
def test_sweep_points_summarize_as_the_records(axis, values):
    spec = SweepSpec(
        ScenarioConfig(m=4, n=16, trials=7),
        axis,
        values,
        ("ais", "nsp-fixed-phase", "irses", "baseline-irs-only"),
    )
    for point in sweep(spec).points:
        records = collect_trials(point_config(spec, point.axis_value, point.method))
        got = (
            point.mean_rate_r,
            point.mean_rate_d,
            point.mean_rate_s,
            point.stderr_rate_s,
        )
        assert hexes(got) == hexes(summarize_records(records))
        assert point.trials == 7


#: collect_columns of ais, nsp and irses at base seed 0, one line per
#: (method, m, n, trial), as computed when the alternations iterated on
#: angles (an arctan2 per alignment, an exp per applied phase vector); the
#: unit-phasor iterates reach the same rates to a few ulps, and no stop
#: may move
PINNED_STOPS = Path(__file__).with_name("pinned_stops.csv")
STOP_SHAPES = ((16, 160, 120), (4, 16, 300), (50, 200, 20))
STOP_RATE_DRIFT = 4e-15


def test_unit_phasor_iterates_stop_where_the_angle_iterates_stopped():
    with PINNED_STOPS.open(newline="") as pinned:
        rows = list(csv.DictReader(pinned))
    got = []
    for m, n, trials in STOP_SHAPES:
        configs = [
            ScenarioConfig(method=method, m=m, n=n, trials=trials, base_seed=0)
            for method in PROPOSED_METHODS
        ]
        for config, columns in zip(configs, collect_columns(configs)):
            got += [
                (config.method, m, n, trial, *values)
                for trial, values in enumerate(
                    zip(
                        columns.rate_r.tolist(),
                        columns.rate_d.tolist(),
                        columns.iterations_r.tolist(),
                        columns.iterations_d.tolist(),
                    )
                )
            ]
    keys = [(r["method"], int(r["m"]), int(r["n"]), int(r["trial"])) for r in rows]
    assert [entry[:4] for entry in got] == keys
    iterations = [(int(r["iterations_r"]), int(r["iterations_d"])) for r in rows]
    assert [entry[6:] for entry in got] == iterations
    pinned = np.array([(float(r["rate_r"]), float(r["rate_d"])) for r in rows])
    rates = np.array([entry[4:6] for entry in got])
    np.testing.assert_allclose(rates, pinned, rtol=STOP_RATE_DRIFT, atol=0.0)


def test_a_table_builds_no_per_trial_record(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the table path made a per-trial object")

    monkeypatch.setattr(harness, "TrialRecord", refuse)
    monkeypatch.setattr(harness, "RateResult", refuse)
    settings = cli.parse_config(
        overrides={"m": "4", "n": "16", "trials": "5", "methods": ",".join(METHODS)},
        env={},
    )
    assert len(cli.build_run_table(settings).rows) == len(METHODS)
    settings["values"] = (0.0, 30.0)
    assert len(cli.build_sweep_table("sweep-snr", settings).rows) == 2
    with pytest.raises(AssertionError):
        collect_trials(ScenarioConfig(m=4, n=16, trials=1))


#: (rate_r, rate_d) pairs: unequal either way, equal, signed zeros and NaNs
HOPS = [
    (1.0, 2.0),
    (2.0, 1.0),
    (1.5, 1.5),
    (0.0, -0.0),
    (-0.0, 0.0),
    (math.nan, 1.0),
    (1.0, math.nan),
    (math.nan, math.nan),
]


def test_end_to_end_rate_is_half_the_min_of_the_hops(monkeypatch):
    # one ais table of one chunk: the first _alternate call is its first
    # slot, the second its second slot; each gets a column of given rates
    hops = iter(np.array(HOPS).T)

    def given(hop, power, noises, *args):
        rates = next(hops)[:, np.newaxis]
        return rates, np.ones(rates.shape, dtype=np.intp)

    monkeypatch.setattr(harness, "_alternate", given)
    config = ScenarioConfig(method="ais", m=4, n=16, trials=len(HOPS))
    (columns,) = collect_columns([config])
    assert hexes(columns.rate_s) == hexes(system_rate(r, d) for r, d in HOPS)
    assert hexes(columns.rate_s) == hexes(0.5 * min(r, d) for r, d in HOPS)


def nan_first_slots(monkeypatch):
    """Make every ``_alternate`` solve return NaN rates."""
    original = harness._alternate

    def nan_rates(*args, **kwargs):
        rates, iterations = original(*args, **kwargs)
        return np.full_like(rates, np.nan), iterations

    monkeypatch.setattr(harness, "_alternate", nan_rates)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--trials", "3"], "method ais"),
        (["sweep-snr", "--trials", "2", "--values", "0,10"], "snr_db=0.0, method ais"),
    ],
)
def test_a_nan_table_exits_2_and_writes_nothing(
    monkeypatch, capsys, tmp_path, argv, named
):
    nan_first_slots(monkeypatch)
    out = tmp_path / "table.csv"
    argv = [*argv, "--set", "methods=ais", "--set", "m=4", "--set", "n=16"]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"irsrelay: error: {named}: non-finite") == 2


def test_summarize_columns_rejects_a_non_finite_summary():
    config = ScenarioConfig(method="ais", m=4, n=16, trials=3)
    (columns,) = collect_columns([config])
    records = collect_trials(config)
    assert summarize_columns(columns, "ais") == summarize_records(records)
    for name in ("rate_r", "rate_d", "rate_s"):
        broken = columns._replace(**{name: getattr(columns, name).copy()})
        getattr(broken, name)[1] = math.inf
        with pytest.raises(RuntimeError, match="ais: non-finite") as excinfo:
            with np.errstate(invalid="ignore"):  # the deviations of inf
                summarize_columns(broken, "ais")
        assert not isinstance(excinfo.value, ValueError)

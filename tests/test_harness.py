import dataclasses
import pickle
from collections import Counter

import numpy as np
import pytest

from irsrelay import channel, harness
from irsrelay.cli import DEFAULT_VALUES, SWEEP_AXIS_BY_SUBCOMMAND
from irsrelay.errors import ConfigError
from irsrelay.harness import (
    METHODS,
    SOLVES,
    ScenarioConfig,
    SweepSpec,
    collect_trials,
    point_config,
    run_trial,
    summarize_records,
    sweep,
    trial_seed,
)

from conftest import draw_links, make_channels


def small_config(**overrides):
    base = dict(m=2, n=4, snr_db=30.0, trials=4, base_seed=0, epsilon=1e-3)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_method_roster():
    assert set(METHODS) == {
        "ais",
        "nsp",
        "irses",
        "ais-fixed-phase",
        "nsp-fixed-phase",
        "irses-fixed-phase",
        "baseline-single-antenna",
        "baseline-irs-only",
        "baseline-relay-only",
    }


def test_trial_seed_deterministic_and_distinct():
    assert trial_seed(1, 2) == trial_seed(1, 2)
    seeds = {trial_seed(0, t) for t in range(100)}
    assert len(seeds) == 100
    assert trial_seed(0, 1) != trial_seed(1, 0)


def test_scenario_config_validation():
    with pytest.raises(ConfigError):
        small_config(method="gradient")
    with pytest.raises(ConfigError):
        small_config(method="nsp", m=1)
    with pytest.raises(ConfigError):
        small_config(method="irses", m=3, n=4)  # 3 does not divide 4
    with pytest.raises(ConfigError):
        small_config(trials=0)
    with pytest.raises(ConfigError):
        small_config(epsilon=0.0)
    with pytest.raises(ConfigError):
        small_config(base_seed=-1)
    with pytest.raises(ConfigError):
        small_config(snr_db=float("inf"))  # zero noise variance
    # counts, seeds and indices are whole numbers, checked before any draw
    for field, value in [
        ("m", 2.5),
        ("m", 2.0),
        ("n", 4.5),
        ("trials", 2.5),
        ("base_seed", 1.5),
        ("base_seed", 1.0),
    ]:
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            small_config(**{field: value})
    with pytest.raises(ConfigError, match="trial_index must be an integer"):
        run_trial(small_config(), 1.5)
    with pytest.raises(ConfigError, match="must be an integer"):
        trial_seed(0, 1.5)
    assert small_config(m=np.int64(2), trials=np.uint8(4)).trials == 4


def test_run_trial_deterministic():
    config = small_config(method="ais")
    a = run_trial(config, 3)
    b = run_trial(config, 3)
    c = run_trial(config, 4)
    assert a.result == b.result and a.seed == b.seed
    assert a.result.rate_s != c.result.rate_s


def test_run_trial_half_duplex_composition():
    for method in ("ais", "nsp", "irses", "ais-fixed-phase", "nsp-fixed-phase",
                   "irses-fixed-phase", "baseline-single-antenna",
                   "baseline-relay-only"):
        record = run_trial(small_config(method=method), 0)
        r = record.result
        assert r.rate_s <= r.rate_r / 2.0 + 1e-12
        assert r.rate_s <= r.rate_d / 2.0 + 1e-12
        assert abs(r.rate_s - 0.5 * min(r.rate_r, r.rate_d)) <= 1e-12


def test_irs_only_is_single_hop():
    record = run_trial(small_config(method="baseline-irs-only"), 0)
    r = record.result
    # one hop: no half pre-log, all three reported rates coincide
    assert r.rate_s == r.rate_r == r.rate_d
    ch = make_channels(m=2, n=4, seed=record.seed)
    amp = float(np.sum(np.abs(ch.h_id) * np.abs(ch.h_si)))
    expected = np.log2(1.0 + 10.0 * amp**2 / small_config().noise_variance_watt)
    assert abs(r.rate_s - expected) <= 1e-9 * expected


def test_relay_only_matches_matched_filter_bound_and_ignores_n():
    config = small_config(method="baseline-relay-only")
    record = run_trial(config, 1)
    ch = make_channels(m=2, n=4, seed=record.seed)
    noise = config.noise_variance_watt
    r_hop1 = np.log2(1.0 + 10.0 * np.linalg.norm(ch.h_sr) ** 2 / noise)
    r_hop2 = np.log2(1.0 + 10.0 * np.linalg.norm(ch.h_rd) ** 2 / noise)
    expected = 0.5 * min(r_hop1, r_hop2)
    assert abs(record.result.rate_s - expected) <= 1e-9 * expected
    grown = run_trial(small_config(method="baseline-relay-only", n=16), 1)
    assert abs(grown.result.rate_s - record.result.rate_s) <= 1e-12


def test_optimized_beats_fixed_phase_on_same_seed():
    # flat phases are feasible for the alternating and grouping optimizers,
    # so those two dominate trial by trial
    for base in ("ais", "irses"):
        for t in range(4):
            opt = run_trial(small_config(method=base, m=2, n=4), t)
            fixed = run_trial(small_config(method=base + "-fixed-phase", m=2, n=4), t)
            assert opt.result.rate_r >= fixed.result.rate_r - 1e-9


def test_nsp_optimization_grows_reflected_branch():
    # the null-space alternation maximizes the reflected branch only; its
    # composite with the direct branch need not dominate trial by trial
    from irsrelay.beamforming import PhaseShiftVector, nsp_max_rp_mrc

    config = small_config(method="nsp")
    for t in range(6):
        ch = make_channels(m=2, n=4, seed=trial_seed(0, t))
        opt = nsp_max_rp_mrc(ch, 10.0, config.noise_variance_watt)
        flat = nsp_max_rp_mrc(ch, 10.0, config.noise_variance_watt,
                              phases=PhaseShiftVector(np.zeros(4)))
        def reflected(sol):
            g = ch.H_ir @ (sol.theta1.phasors * ch.h_si)
            return abs(np.vdot(sol.u_ri.weights, g))
        assert reflected(opt) >= reflected(flat) - 1e-9


def test_baseline_single_antenna_is_m1_ais():
    config = small_config(method="baseline-single-antenna", m=8)
    reduced = small_config(method="ais", m=1)
    for t in range(3):
        baseline = run_trial(config, t)
        direct = run_trial(reduced, t)
        assert baseline.result.method == "baseline-single-antenna"
        assert abs(baseline.result.rate_s - direct.result.rate_s) <= 1e-12
        assert abs(baseline.result.rate_r - direct.result.rate_r) <= 1e-12


def test_methods_share_channels_at_same_trial():
    # common random numbers: the forward hop is method-independent
    rates_d = set()
    for method in ("ais", "nsp", "irses"):
        record = run_trial(small_config(method=method), 2)
        rates_d.add(round(record.result.rate_d, 12))
    assert len(rates_d) == 1


def test_collect_trials_worker_count_invariant():
    config = small_config(method="irses", trials=8)
    serial = collect_trials(config, workers=1)
    threaded = collect_trials(config, workers=5)
    assert [r.result for r in serial] == [r.result for r in threaded]
    assert [r.trial_index for r in serial] == list(range(8))


def _count_calls(monkeypatch, name, keys):
    """Count what calls of ``harness.<name>`` serve, by each of ``keys(*args)``."""
    counts = Counter()
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        counts.update(keys(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return counts


def _smaller(corner, stack):
    """Whether ``corner`` is a proper corner of ``stack``: some block is smaller."""
    return any(
        getattr(corner, name).shape != block.shape for name, block in vars(stack).items()
    )


def _record_draws(monkeypatch):
    """Record the (m, seeds, served, links) of each stack the engine solves on.

    A draw's links are drawn by ``harness.sample_links`` from its trial
    seeds, a hop at a time, and every draw is solved on its corner of the
    stack, ``Links.corner``; a draw served from a larger one, as at m = 1,
    is a proper corner of the stack just drawn (``served`` is true).
    Returns the calls and the bytes of every first-hop direct link drawn or
    served, which tell a first-hop solve from a second-hop one.
    """
    calls, first_links = [], set()
    draw = harness.sample_links
    corner = harness.Links.corner

    def record(m, seeds, stack, served):
        calls.append((m, tuple(seeds), served, frozenset(vars(stack))))
        first_links.update(row.tobytes() for row in getattr(stack, "h_sr", ()))
        return stack

    def drawn(geometry, budget, m, n, seeds, names):
        return record(m, seeds, draw(geometry, budget, m, n, seeds, names), False)

    def cornered(stack, m, n):
        view = corner(stack, m, n)
        return record(m, calls[-1][1], view, True) if _smaller(view, stack) else view

    monkeypatch.setattr(harness, "sample_links", drawn)
    monkeypatch.setattr(harness.Links, "corner", cornered)
    return calls, first_links


def _drawn_once(calls, count):
    """``count`` distinct (seed, m) pairs drawn or served, each link in one call.

    No call holds both surface matrices: a draw holds one hop's at a time.
    """
    drawn = [
        (seed, m, link)
        for m, seeds, _, links in calls
        for seed in seeds
        for link in links
    ]
    pairs = {(seed, m) for seed, m, _ in drawn}
    one_matrix = not any({"H_ir", "H_ri"} <= links for *_, links in calls)
    return len(drawn) == len(set(drawn)) and len(pairs) == count and one_matrix


def _record_solves(monkeypatch, first_links):
    """Record (trials solved, noise levels) of each solve the engine runs.

    The engine calls the rates forms ``_alternate`` (``ais`` on the first
    hop, the second slot on the second), ``_nsp`` and ``_irses``, each on
    one hop's blocks of a stack of trials.  A trial is told by the bytes of
    its direct link, one per row; calls are listed by solve.
    """
    calls = {"ais": [], "nsp": [], "irses": [], "second": []}
    for name in ("_alternate", "_nsp", "_irses"):
        original = getattr(harness, name)

        def recorded(hop, power, noises, *args, name=name, original=original):
            trials = tuple(row.tobytes() for row in hop[0])
            solve = name[1:]
            if name == "_alternate":
                solve = "ais" if trials[0] in first_links else "second"
            calls[solve].append((trials, tuple(noises)))
            return original(hop, power, noises, *args)

        monkeypatch.setattr(harness, name, recorded)
    return calls


def _solved_once(calls):
    """Every trial of ``calls`` solved in exactly one of them."""
    trials = [trial for solved, _ in calls for trial in solved]
    return len(trials) == len(set(trials))


def test_shared_draws_and_second_slots_change_no_record(monkeypatch):
    check_shared_solves(monkeypatch, chunk=None)


def test_shared_solves_run_once_per_chunk_and_key(monkeypatch):
    # chunks of 2 trials: the 3 trials take two batched calls per key
    check_shared_solves(monkeypatch, chunk=2)


def check_shared_solves(monkeypatch, chunk):
    methods = ("ais", "nsp", "irses", "ais-fixed-phase", "baseline-single-antenna")
    configs = [small_config(method=m, m=8, n=32, trials=3) for m in methods]
    alone = [collect_trials(c) for c in configs]
    if chunk is not None:
        monkeypatch.setattr(harness, "_chunk_trials", lambda configs: chunk)
    chunks = -(-3 // (chunk or harness._chunk_trials(configs)))
    draws, first_links = _record_draws(monkeypatch)
    solves = _record_solves(monkeypatch, first_links)
    together = collect_trials(configs)
    assert together == alone
    # one stacked draw per chunk and hop, at m=8 for the first four methods;
    # the single-antenna baseline's m=1 stack is served from it, as its
    # leading antenna; each (trial, m, link) drawn or served in one of them
    hop = [(8, False), (1, True)]
    assert [(m, served) for m, _, served, _ in draws] == 2 * hop * chunks
    assert _drawn_once(draws, 6)
    # every (trial, key) solved exactly once, by one batched call per
    # (chunk, key) with the key's one noise level; the ais key and the
    # second slot have one key per m
    noise = (configs[0].noise_variance_watt,)
    for solve, keys in (("ais", 2), ("nsp", 1), ("irses", 1), ("second", 2)):
        assert len(solves[solve]) == keys * chunks
        assert sum(len(solved) for solved, _ in solves[solve]) == keys * 3
    for calls in solves.values():
        assert _solved_once(calls)
        assert {noises for _, noises in calls} == {noise}


def test_the_engine_draws_a_hop_at_a_time_the_bits_of_the_whole_draw(monkeypatch):
    # every block a chunk draws, or serves at m = 1, is that of the whole
    # draw of its trials, bit for bit; the first pass holds no H_ri and the
    # second no H_ir, and the second reads the element links of the first
    methods = ("ais", "irses", "baseline-single-antenna", "baseline-irs-only")
    configs = [small_config(method=m, m=4, n=16, trials=5) for m in methods]
    blocks = []
    draw, corner = harness.sample_links, harness.Links.corner

    def drawn(geometry, budget, m, n, seeds, names):
        links = draw(geometry, budget, m, n, seeds, names)
        blocks.append((m, list(seeds), vars(links)))
        return links

    def cornered(stack, m, n):
        served = corner(stack, m, n)
        if _smaller(served, stack):
            blocks.append((m, blocks[-1][1], vars(served)))
        return served

    monkeypatch.setattr(harness, "sample_links", drawn)
    monkeypatch.setattr(harness.Links, "corner", cornered)
    collect_trials(configs)
    assert [(m, sorted(links)) for m, _, links in blocks] == [
        (4, ["H_ir", "h_id", "h_si", "h_sr"]),
        (1, ["H_ir", "h_id", "h_si", "h_sr"]),
        (4, ["H_ri", "h_rd"]),
        (1, ["H_ri", "h_id", "h_rd"]),
    ]
    for m, seeds, links in blocks:
        whole = draw_links(m, 16, seeds)
        for name, block in links.items():
            assert block.tobytes() == getattr(whole, name).tobytes()


def test_a_trial_alone_gets_the_record_it_gets_among_others():
    # run_trial draws and solves one trial as a chunk of one, from its own
    # keys: its record is the one the trials drawn together give it
    config = small_config(method="irses", m=4, n=16, trials=3)
    together = collect_trials(config)
    assert [run_trial(config, k) for k in range(3)] == together


def test_each_base_seed_and_trial_count_is_evaluated_alone(monkeypatch):
    # configurations of one (base seed, trial count) share their trials; each
    # such group is cut into chunks of consecutive trials and evaluated
    # alone, every draw holding exactly its chunk's trials, and each
    # configuration's columns are its own, bit for bit, in input order
    cases = [("ais", 0, 5), ("irses", 1, 5), ("nsp", 0, 3), ("ais", 1, 3)]
    configs = [
        small_config(method=method, m=4, n=16, base_seed=base_seed, trials=trials)
        for method, base_seed, trials in cases
    ]
    alone = [harness.collect_columns([config]) for config in configs]
    events = []
    evaluate, draw = harness._evaluate_chunk, harness.sample_links

    def evaluated(plans, seeds):
        events.append(("chunk", list(seeds)))
        return evaluate(plans, seeds)

    def drawn(geometry, budget, m, n, seeds, names):
        events.append(("draw", list(seeds)))
        return draw(geometry, budget, m, n, seeds, names)

    monkeypatch.setattr(harness, "_chunk_trials", lambda configs: 2)
    monkeypatch.setattr(harness, "_evaluate_chunk", evaluated)
    monkeypatch.setattr(harness, "sample_links", drawn)
    together = harness.collect_columns(configs)
    assert len(together) == len(configs)
    for columns, (own,) in zip(together, alone):
        assert columns.seeds == own.seeds
        for array, expected in zip(columns[1:], own[1:]):
            assert array.dtype == expected.dtype
            assert array.tobytes() == expected.tobytes()
    # 5 trials make chunks of 1, 2 and 2 trials, 3 trials chunks of 1 and
    # 2: one call per chunk per group, the groups in order of appearance
    cuts = {5: [(0, 1), (1, 3), (3, 5)], 3: [(0, 1), (1, 3)]}
    expected = [
        [trial_seed(base_seed, k) for k in range(start, stop)]
        for _, base_seed, trials in cases
        for start, stop in cuts[trials]
    ]
    assert [seeds for kind, seeds in events if kind == "chunk"] == expected
    # two draws a chunk, one per hop, each of exactly the chunk's trials
    chunk = None
    for kind, seeds in events:
        if kind == "chunk":
            chunk = seeds
        else:
            assert seeds == chunk
    assert [kind for kind, _ in events].count("draw") == 2 * len(expected)


def test_sweep_shares_draws_across_snr_points(monkeypatch):
    config = small_config(method="ais", trials=3)
    spec = SweepSpec(
        config=config, axis="snr_db", values=(0.0, 20.0), methods=("ais", "irses")
    )
    alone = [
        summarize_records(collect_trials(point_config(spec, value, method)))
        for value in spec.values
        for method in spec.methods
    ]
    draws, first_links = _record_draws(monkeypatch)
    solves = _record_solves(monkeypatch, first_links)
    partitions = _count_calls(
        monkeypatch,
        "_irses_assignments",
        lambda n, m, seeds: list(seeds),
    )
    together = sweep(spec).points
    assert [(p.mean_rate_r, p.mean_rate_d, p.mean_rate_s, p.stderr_rate_s)
            for p in together] == alone
    # the three trials make one chunk: one stacked draw of every trial per hop
    assert len(draws) == 2 and _drawn_once(draws, 3)
    # one noise-free solve per trial serves both SNR points: the three
    # trials make one chunk, solved by one batched call per key
    noises = tuple(
        point_config(spec, v, "ais").noise_variance_watt for v in spec.values
    )
    assert not solves["nsp"]
    for solve in ("ais", "second", "irses"):
        calls = solves[solve]
        assert len(calls) == 1
        assert _solved_once(calls)
        assert sum(len(solved) for solved, _ in calls) == 3
        assert {levels for _, levels in calls} == {noises}
    assert sorted(partitions.values()) == [1] * 3  # one partition per trial


def _assert_columns_equal(columns, expected):
    assert columns.seeds == expected.seeds
    for array, own in zip(columns[1:], expected[1:], strict=True):
        assert array.dtype == own.dtype
        assert array.tobytes() == own.tobytes()


@pytest.mark.parametrize("subcommand, trials", [("sweep-n", 12), ("sweep-m", 10)])
def test_n_and_m_sweeps_draw_once_per_pass(monkeypatch, subcommand, trials):
    # a sweep over n or m draws only its largest point, one call a hop per
    # chunk, and solves every point on its corner of that stack: each
    # point's columns, iterations included, are those it gets alone, for
    # every method valid there (here all nine).  The trials make 2 chunks
    axis = SWEEP_AXIS_BY_SUBCOMMAND[subcommand]
    spec = SweepSpec(ScenarioConfig(trials=trials), axis, DEFAULT_VALUES[subcommand])
    configs = [
        point_config(spec, value, method)
        for value in spec.values
        for method in METHODS
    ]
    assert len(configs) == len(spec.values) * len(METHODS)
    assert -(-trials // harness._chunk_trials(configs)) == 2
    alone = [harness.collect_columns([config])[0] for config in configs]
    draws = _count_calls(monkeypatch, "sample_links", lambda *args: ["draw"])
    together = harness.collect_columns(configs)
    assert draws == {"draw": 2 * 2}
    for columns, expected in zip(together, alone, strict=True):
        _assert_columns_equal(columns, expected)


def test_fixed_phase_nsp_is_one_solve_whatever_the_loop_controls(monkeypatch):
    # nsp at fixed phases takes one step, so configurations that differ
    # only in epsilon or max_iter share its key and one solve per chunk
    configs = [
        small_config(method="nsp-fixed-phase", m=4, n=16, trials=3, **controls)
        for controls in ({}, {"epsilon": 1e-1}, {"max_iter": 3})
    ]
    plans = harness.solve_plans(configs)
    assert len({plan.solves["first"][0] for plan in plans}) == 1
    solves = _count_calls(monkeypatch, "_nsp", lambda hop, *args: [len(hop[0])])
    first, *others = harness.collect_columns(configs)
    assert solves == {3: 1}
    for columns in others:
        _assert_columns_equal(columns, first)


def test_plans_pickle_and_evaluate_as_the_originals():
    # one group of all nine methods at two SNR points: the single-antenna
    # baseline's draw is served from the others', and every key serves both
    # levels
    configs = [
        ScenarioConfig(method=method, m=4, n=16, snr_db=snr_db, trials=3)
        for snr_db in (0.0, 30.0)
        for method in METHODS
    ]
    plans = harness.solve_plans(configs)
    copies = pickle.loads(pickle.dumps(plans))
    assert all(
        len(levels) == 2 for plan in plans for _, levels, *_ in plan.solves.values()
    )
    seeds = [trial_seed(0, k) for k in range(3)]
    original = harness._evaluate_chunk(plans, seeds)
    copied = harness._evaluate_chunk(copies, seeds)
    assert list(copied) == list(original)
    for key, arrays in original.items():
        for array, copy in zip(arrays, copied[key], strict=True):
            assert array.dtype == copy.dtype
            assert array.tobytes() == copy.tobytes()


# every field a solve may declare, and a value other than the default
DECLARABLE = {
    "epsilon": 1e-3,
    "max_iter": 7,
    "nsp_mode": "literal",
    "irses_mode": "full",
    "combining": "printed",
    "snr_db": 0.0,
}


@pytest.mark.parametrize("name", SOLVES)
def test_a_solve_key_holds_exactly_its_declared_fields(name):
    # a solve's key changes with each field it declares and with no other,
    # and its run binds the draw's inputs and the same values; every method
    # naming the solve gets the same key from one configuration and draw:
    # the three fixed-phase methods share "fixed-second", for one
    _, fields, _ = SOLVES[name]
    assert set(fields) <= set(DECLARABLE) - {"snr_db"}
    named = [method for method, spec in METHODS.items() if name in spec.solves]
    assert named
    keys = set()
    for method in named:
        config = ScenarioConfig(method=method, m=4, n=16, trials=1)
        kind = "first" if METHODS[method].solves[0] == name else "second"
        key, _, run = harness._solves(config, 0)[kind]
        assert key == (name, 0, *(getattr(config, field) for field in fields))
        assert run.args == (harness._channel_inputs(config), *key[2:])
        keys.add(key)
        for field, value in DECLARABLE.items():
            other = harness._solves(dataclasses.replace(config, **{field: value}), 0)
            assert (other[kind][0] != key) == (field in fields)
    assert len(keys) == 1


def test_collect_trials_rejects_workers_below_one():
    with pytest.raises(ConfigError):
        collect_trials(small_config(), workers=0)


def test_summarize_records_stderr():
    config = small_config(method="ais", trials=6)
    records = collect_trials(config)
    rates = np.array([r.result.rate_s for r in records])
    mean_r, mean_d, mean_s, stderr = summarize_records(records)
    assert abs(mean_s - rates.mean()) <= 1e-12
    assert abs(stderr - rates.std(ddof=1) / np.sqrt(6.0)) <= 1e-12
    only = summarize_records(records[:1])
    assert only[3] == 0.0


def test_stderr_shrinks_like_sqrt_trials():
    base = small_config(method="ais", trials=100)
    quadrupled = dataclasses.replace(base, trials=400)
    stderr_small = summarize_records(collect_trials(base, workers=8))[3]
    stderr_large = summarize_records(collect_trials(quadrupled, workers=8))[3]
    ratio = stderr_large / stderr_small
    assert 0.4 <= ratio <= 0.6  # 1/sqrt(4) within 20%


def test_sweep_spec_validation():
    config = small_config(method="ais")
    with pytest.raises(ConfigError):
        SweepSpec(config=config, axis="power", values=(1.0, 2.0))
    with pytest.raises(ConfigError):
        SweepSpec(config=config, axis="snr_db", values=())
    with pytest.raises(ConfigError):
        SweepSpec(config=config, axis="snr_db", values=(10.0, 10.0))
    with pytest.raises(ConfigError):
        SweepSpec(config=config, axis="snr_db", values=(20.0, 10.0))
    with pytest.raises(ConfigError):
        SweepSpec(config=config, axis="n", values=(4.5,))
    with pytest.raises(ConfigError):
        SweepSpec(config=config, axis="distance_d", values=(0.0, 50.0))
    with pytest.raises(ConfigError):
        SweepSpec(config=config, axis="distance_d", values=(50.0, 100.0))
    with pytest.raises(ConfigError):
        SweepSpec(config=config, axis="snr_db", values=(0.0,), methods=("fft",))


def test_sweep_spec_rejects_a_repeated_method_naming_it():
    config = small_config(method="ais")
    with pytest.raises(ConfigError, match="'nsp' is listed twice"):
        SweepSpec(config, "snr_db", (0.0,), methods=("nsp", "ais", "nsp"))


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("axis", ["snr_db", "n", "m", "distance_d"])
def test_sweep_spec_rejects_a_non_finite_value_naming_its_axis(axis, value):
    # a library caller gets the CLI's configuration error, not int()'s
    # OverflowError or ValueError, nor a sweep that fails in its first solve
    config = small_config(method="ais")
    with pytest.raises(ConfigError, match=f"axis '{axis}' needs finite values"):
        SweepSpec(config, axis, (4.0, value))


def test_a_sweep_plan_checks_each_distinct_links_once(monkeypatch):
    # the default sweep-snr table: 7 points x (ais, nsp, irses), one
    # geometry and one budget, so two distinct link sets, a hop each
    checked = _count_calls(monkeypatch, "check_links", lambda g, b, links: [links])
    scaled = []
    scale = channel.link_scale
    monkeypatch.setattr(
        channel, "link_scale", lambda *args: scaled.append(args[2]) or scale(*args)
    )
    spec = SweepSpec(
        ScenarioConfig(), "snr_db", tuple(range(0, 31, 5)), ("ais", "nsp", "irses")
    )
    harness.solve_plans(
        [point_config(spec, v, method) for v in spec.values for method in spec.methods]
    )
    assert checked == Counter([harness._FIRST_LINKS, harness._SECOND_LINKS])
    assert scaled == [*harness._FIRST_LINKS, *harness._SECOND_LINKS]


def test_point_config_moves_each_axis():
    config = small_config(method="ais")
    snr = point_config(SweepSpec(config=config, axis="snr_db", values=(12.0,)),
                       12.0, "ais")
    assert snr.snr_db == 12.0
    n = point_config(SweepSpec(config=config, axis="n", values=(8.0,)), 8.0, "ais")
    assert n.n == 8
    m = point_config(SweepSpec(config=config, axis="m", values=(4.0,)), 4.0, "ais")
    assert m.m == 4
    spec = SweepSpec(config=config, axis="distance_d", values=(30.0,))
    moved = point_config(spec, 30.0, "ais")
    assert moved.geometry.pos_rs == (30.0, 0.0)
    assert moved.geometry.pos_irs == (30.0, 10.0)
    assert moved.geometry.pos_s == (0.0, 0.0)
    assert moved.geometry.pos_d == (100.0, 0.0)


def test_sweep_single_value_equals_direct_average():
    config = small_config(method="nsp", trials=5)
    spec = SweepSpec(config=config, axis="snr_db", values=(25.0,))
    result = sweep(spec)
    assert len(result.points) == 1
    point = result.point(25.0, "nsp")
    direct = summarize_records(
        collect_trials(dataclasses.replace(config, snr_db=25.0))
    )
    assert abs(point.mean_rate_s - direct[2]) <= 1e-12
    assert point.trials == 5


def test_sweep_rate_increases_with_snr():
    config = small_config(method="ais", trials=30)
    spec = SweepSpec(config=config, axis="snr_db", values=(0.0, 10.0, 20.0, 30.0))
    result = sweep(spec, workers=8)
    curve = [result.point(v, "ais").mean_rate_s for v in spec.values]
    assert all(b > a for a, b in zip(curve, curve[1:]))


def test_sweep_multi_method_ordering_and_lookup():
    config = small_config(method="ais", trials=3)
    spec = SweepSpec(
        config=config, axis="snr_db", values=(0.0, 10.0), methods=("ais", "irses")
    )
    result = sweep(spec)
    labels = [(p.axis_value, p.method) for p in result.points]
    assert labels == [(0.0, "ais"), (0.0, "irses"), (10.0, "ais"), (10.0, "irses")]
    with pytest.raises(KeyError):
        result.point(5.0, "ais")

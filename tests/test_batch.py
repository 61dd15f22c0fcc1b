"""The engine's stacked solves and chunks equal one trial at a time, bit for bit.

``ais``, ``nsp`` and the second slot iterate on stacks of trials, each
(trial, noise level) stopping on its own rule; NSP's set-up and direct
branch, ``irses`` and the fixed-phase slots are closed forms on the same
stacks; ``collect_trials`` draws and solves the trials chunk by chunk.  None
of it may change a bit of any rate or iteration count the one-trial solvers
give, and the checks of the one-trial rules (warnings on zero paths, errors
on non-finite or zero channels) must hold inside a stack.
"""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from irsrelay import beamforming, harness
from irsrelay.beamforming import (
    PhaseShiftVector,
    _Stops,
    ais_max_rp,
    irses_max_rp_mrc,
    irses_partition,
    nsp_max_rp_mrc,
    second_slot_optimize,
    ur_update_ais,
)
from irsrelay.channel import LINK_STREAMS, ChannelSet
from irsrelay.errors import (
    ConfigError,
    DegenerateChannelError,
    DegenerateElementWarning,
    TraceDipError,
)
from irsrelay.harness import ScenarioConfig, collect_trials, run_trial
from irsrelay.metrics import rate_from_power

from conftest import (
    NOISE_30DB,
    P_R,
    P_S,
    ais_rates,
    draw_links,
    irses_rates,
    make_channels,
    nsp_rates,
    rate_pairs,
    second_slot_rates,
    solution_pairs,
    stack,
)
from test_per_noise import noise_levels

#: (method, m, n, options): both nsp modes (literal needs m > n), both
#: combinings and fixed phases, both irses modes and fixed phases, the
#: fixed-phase and single-hop baselines, and the single-antenna baseline at
#: m = 1
METHODS = (
    ("ais", 8, 16, {}),
    ("nsp", 8, 16, {}),
    ("nsp", 8, 4, {"nsp_mode": "literal"}),
    ("nsp", 8, 16, {"combining": "printed"}),
    ("nsp-fixed-phase", 8, 16, {}),
    ("irses", 8, 16, {}),
    ("irses", 8, 16, {"irses_mode": "full"}),
    ("irses-fixed-phase", 8, 16, {}),
    ("ais-fixed-phase", 8, 16, {}),
    ("baseline-single-antenna", 8, 16, {}),
    ("baseline-irs-only", 8, 16, {}),
    ("baseline-relay-only", 8, 16, {}),
)

#: at epsilon 1e-6 and 8 iterations, the 0 dB levels stop on the rate rule
#: after 3 to 8 iterations and the 30 dB ones mostly on the cap; at base
#: seed 1 the first four and the first seven 30 dB ais trials stop on the
#: cap and off it, in both slots (at base seed 0 the first four all reach
#: the cap in the first slot)
EPSILON, MAX_ITER, BASE_SEED = 1e-6, 8, 1


def configs(trials):
    return [
        ScenarioConfig(
            method=method, m=m, n=n, snr_db=snr, trials=trials,
            epsilon=EPSILON, max_iter=MAX_ITER, base_seed=BASE_SEED, **options,
        )
        for snr in (0.0, 30.0)
        for method, m, n, options in METHODS
    ]


@pytest.fixture
def chunk(monkeypatch):
    """A byte budget that makes chunks of a few trials (7); their count."""
    monkeypatch.setattr(harness, "CHUNK_BYTES", 22_000)
    size = harness._chunk_trials(configs(1))
    assert 1 < size < 10
    return size


@pytest.mark.parametrize("count", ["one trial", "one chunk", "one chunk + 1"])
def test_collect_trials_equals_one_plan_less_run_trial_per_trial(chunk, count):
    trials = {"one trial": 1, "one chunk": chunk, "one chunk + 1": chunk + 1}[count]
    cases = configs(trials)
    together = collect_trials(cases)
    alone = [[run_trial(config, k) for k in range(trials)] for config in cases]
    assert together == alone
    if trials > 1:
        # the first chunk (the shorter of two, if the trials do not split
        # evenly) holds trials that stop at different iterations and on the
        # cap, first slot and second
        first = trials // -(-trials // chunk)
        first_chunk = [r.result.iterations for r in together[len(METHODS)][:first]]
        for slot in (0, 1):
            stops = {iterations[slot] for iterations in first_chunk}
            assert MAX_ITER in stops and len(stops) >= 2


def zero_first(block):
    block[0] = 0.0


def zero_all(block):
    block[...] = 0.0


def overflow(block):
    block *= 1e300


def with_block(channels, name, change):
    blocks = {key: np.array(getattr(channels, key)) for key in LINK_STREAMS}
    change(blocks[name])
    return ChannelSet(**blocks)


def per_level(scalar):
    """``scalar`` on one trial at each noise level: its per-level solutions."""

    def solve(channels, power, levels):
        return tuple(scalar(channels, power, noise) for noise in levels)

    return solve


#: (rates form, one-trial solver, element link, direct link) per hop
SOLVERS = {
    "ais": (ais_rates, per_level(ais_max_rp), "h_si", "h_sr"),
    "nsp": (nsp_rates, per_level(nsp_max_rp_mrc), "h_si", "h_sr"),
    "second-slot": (
        second_slot_rates, per_level(second_slot_optimize), "h_id", "h_rd",
    ),
}

LEVELS = (NOISE_30DB, 100 * NOISE_30DB)


def trials_with(name, change):
    """Three draws at (4, 16); the middle one's block ``name`` changed."""
    sets = [make_channels(4, 16, seed=seed) for seed in range(3)]
    sets[1] = with_block(sets[1], name, change)
    return sets


@pytest.mark.parametrize("solver", SOLVERS)
def test_zero_path_in_one_trial_warns_and_leaves_the_others_alone(solver):
    form, alone, element_link, _ = SOLVERS[solver]
    sets = trials_with(element_link, zero_first)
    with pytest.warns(DegenerateElementWarning):
        together = form(stack(sets), P_S, LEVELS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateElementWarning)
        singles = [alone(channels, P_S, LEVELS) for channels in sets]
    assert rate_pairs(together) == solution_pairs(singles)


def one_path(block):
    block[1:] = 0.0


@pytest.mark.parametrize("solver", SOLVERS)
def test_a_trial_that_stopped_before_the_copy_warns_no_more(solver):
    # the middle trial keeps one reflected path: each iterate it runs warns
    # once about the others, and it stops on the second while the other two
    # run on; with more than 3/8 of the stack still running, the loop
    # multiplies the whole stack, the stopped row among it, and copies
    # nothing, but checks and warns on the running rows alone
    form, alone, element_link, _ = SOLVERS[solver]
    sets = trials_with(element_link, one_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        together = form(stack(sets), P_S, LEVELS)
    counts = together[1].tolist()
    stopped = max(counts[1])
    running = [max(counts[trial]) for trial in (0, 2)]
    assert stopped == 2 < min(running)
    assert [w.category for w in caught] == [DegenerateElementWarning] * stopped
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateElementWarning)
        singles = [alone(channels, P_S, LEVELS) for channels in sets]
    assert rate_pairs(together) == solution_pairs(singles)


def test_non_finite_block_in_a_stack_raises_config_error():
    # a stack is drawn checked (sample_links); a trial's blocks are checked
    # when they make a ChannelSet
    channels = make_channels(4, 16, seed=1)
    blocks = {key: np.array(getattr(channels, key)) for key in LINK_STREAMS}
    blocks["H_ir"][0, 0] = np.nan
    with pytest.raises(ConfigError):
        ChannelSet(**blocks)


@pytest.mark.parametrize("solver", SOLVERS)
def test_overflowing_trial_raises_config_error_as_alone(solver):
    form, alone, _, _ = SOLVERS[solver]
    matrix = "H_ri" if solver == "second-slot" else "H_ir"
    sets = trials_with(matrix, overflow)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises((ConfigError, np.linalg.LinAlgError)) as single:
            alone(sets[1], P_S, LEVELS)
        with pytest.raises(single.type):
            form(stack(sets), P_S, LEVELS)


@pytest.mark.parametrize("solver", SOLVERS)
def test_zero_direct_link_raises_degenerate_channel_error_as_alone(solver):
    form, alone, _, direct_link = SOLVERS[solver]
    sets = trials_with(direct_link, zero_all)
    with pytest.raises(DegenerateChannelError):
        alone(sets[1], P_S, LEVELS)
    with pytest.raises(DegenerateChannelError):
        form(stack(sets), P_S, LEVELS)


def test_a_channel_set_is_one_trial_and_rejects_stacked_blocks():
    # a stack of trials is Links, which only the engine's rates forms solve
    links = stack([make_channels(4, 16, seed=seed) for seed in range(2)])
    with pytest.raises(ConfigError):
        ChannelSet(**vars(links))
    for name in LINK_STREAMS:
        blocks = {key: getattr(links, key)[0] for key in LINK_STREAMS}
        blocks[name] = getattr(links, name)
        with pytest.raises(ConfigError):
            ChannelSet(**blocks)


def test_chunk_holds_the_trials_its_limits_allow():
    # beyond one trial, 16 (11mn / 8 + 2m + 2n) bytes per trial of the
    # largest draw within CHUNK_BYTES: one hop's surface matrix, the 3/8 of
    # it a loop copies, and four vectors; at most CHUNK_TRIALS trials
    def size(*configs):
        return harness._chunk_trials(configs)

    assert size(ScenarioConfig(m=16, n=160)) == 16
    assert size(ScenarioConfig(m=50, n=200)) == 5
    assert size(ScenarioConfig(m=4, n=16)) == harness.CHUNK_TRIALS
    assert size(ScenarioConfig(m=64, n=1024)) == 1
    # a chunk holds one draw at a time: m = 1 for the single-antenna
    # baseline is a smaller draw beside the m = 8 one, and so are other
    # geometries
    base = ScenarioConfig(m=8, n=128)
    assert size(base) == 1 + harness.CHUNK_BYTES // 26880
    single = ScenarioConfig(m=8, n=128, method="baseline-single-antenna")
    assert size(base, single) == size(single, base) == size(base)
    distances = [
        harness.point_config(
            harness.SweepSpec(base, "distance_d", (20.0, 40.0, 60.0)), d, "ais"
        )
        for d in (20.0, 40.0, 60.0)
    ]
    assert size(*distances) == size(base)


@pytest.mark.parametrize("full_chunks", [1, 2])
def test_chunks_are_as_few_and_even_as_the_limit_allows(monkeypatch, full_chunks):
    # one trial more than ``full_chunks`` chunks hold: one chunk more, and
    # the trials spread over all of them, no two lengths more than one apart
    methods = ("ais", "nsp", "baseline-single-antenna", "baseline-relay-only")
    monkeypatch.setattr(harness, "CHUNK_BYTES", 30_000)
    cases = [config for config in configs(1) if config.method in methods]
    limit = harness._chunk_trials(cases)
    assert limit > 2
    trials = full_chunks * limit + 1
    cases = [dataclasses.replace(config, trials=trials) for config in cases]
    length = lambda plans, seeds: len(seeds)  # noqa: E731
    lengths = count_calls(monkeypatch, harness, "_evaluate_chunk", length)
    together = collect_trials(cases)
    lengths = lengths[:]  # run_trial below evaluates chunks of its own
    assert len(lengths) == full_chunks + 1 and sum(lengths) == trials
    assert max(lengths) <= limit and max(lengths) - min(lengths) <= 1
    assert together == [[run_trial(config, k) for k in range(trials)] for config in cases]


def test_a_stopped_row_is_copied_once_for_all_its_levels():
    # levels that stop on one iterate of a row share one kept copy of it,
    # and the copy owns its data: the stack's arrays may change or go
    stops = _Stops(2, (1.0, 2.0, 4.0), 1e-4, max_iter=1)
    live = np.arange(6.0).reshape(2, 3)
    assert stops.record([1.0, 2.0], (live,)) == []
    assert stops.column(2).tolist() == [[0, 0, 0], [1, 1, 1]]
    assert len(stops.kept) == 2
    for row, (part, power) in enumerate(stops.kept):
        assert part.base is None and power == [1.0, 2.0][row]
    live[...] = -1.0
    assert stops.kept[1][0].tolist() == [3.0, 4.0, 5.0]
    # a rates form keeps no rate per iterate: after 50 iterates, each a bit
    # above the last (rates 1, 2, ..., 50), it holds the stopped rate and
    # count and no list of 50; with traces it keeps them, and its results
    # give the stop's iterate (none was kept) and trace
    def longest(value):
        if not isinstance(value, (list, tuple)):
            return 0
        return max([len(value), *map(longest, value)])

    for traces in (False, True):
        stops = _Stops(1, (1.0,), 1e-4, max_iter=50, traces=traces)
        for k in range(1, 51):
            assert stops.record([2.0**k - 1.0], ()) == ([] if k == 50 else None)
        assert stops.stopped == [[(50.0, 50, None)]] and stops.kept == []
        assert (longest(list(vars(stops).values())) == 50) == traces
        results = stops.results()
        assert [part.tolist() for part in results[:2]] == [[[50.0]], [[50]]]
        assert len(results) == 2 + traces
        if traces:
            assert results[2] == [[(None, tuple(float(k) for k in range(1, 51)))]]


def test_a_rates_form_keeps_no_iterate(monkeypatch):
    # the engine's alternations keep only rates and counts: after a chunk
    # of 120 trials at (4, 16), at four levels, no stop kept a copy or an
    # index, in either hop
    made = []

    class Recorded(_Stops):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(beamforming, "_Stops", Recorded)
    seeds = [harness.trial_seed(0, k) for k in range(120)]
    channels = draw_links(4, 16, seeds)
    levels = noise_levels(0, 10, 20, 30)
    for hop, power in ((beamforming._FIRST_HOP, P_S), (beamforming._SECOND_HOP, P_R)):
        results = beamforming._alternate(hop(channels), power, levels, EPSILON, MAX_ITER)
        assert [part.shape for part in results] == [(120, 4), (120, 4)]
    assert len(made) == 2
    for stops in made:
        assert stops.kept == [] and stops.history is None
        assert all(stop[2] is None for trial in stops.stopped for stop in trial)
        assert len(stops.stopped) == 120


@pytest.mark.parametrize("loop", ["ais", "second-slot", "nsp", "nsp-fixed", "irses"])
def test_traces_add_each_stop_and_change_no_bit(loop):
    # with traces, a loop returns the same rate and count bits and one
    # (iterate, trace) per (trial, level), the trace one rate per iteration;
    # the alternations' and irses' last rate is the rate itself, nsp's the
    # reflected branch's before its combining
    seeds = [harness.trial_seed(0, k) for k in range(3)]
    links = draw_links(4, 16, seeds)
    first, levels = beamforming._FIRST_HOP(links), noise_levels(0, 30)
    fixed = PhaseShiftVector(np.zeros(16))
    assignments = beamforming._irses_assignments(16, 4, seeds)
    nsp = ("effective", "snr-sum", None if loop == "nsp" else fixed)
    run = {
        "ais": lambda traces: beamforming._alternate(
            first, P_S, levels, EPSILON, MAX_ITER, traces
        ),
        "second-slot": lambda traces: beamforming._alternate(
            beamforming._SECOND_HOP(links), P_R, levels, EPSILON, MAX_ITER, traces
        ),
        "nsp": lambda traces: beamforming._nsp(
            first, P_S, levels, EPSILON, MAX_ITER, *nsp, traces
        ),
        "irses": lambda traces: beamforming._irses(
            first, P_S, levels, assignments, "idealized", "snr-sum", None, traces
        ),
    }[loop.removesuffix("-fixed")]
    rates, counts, stopped = run(True)
    assert rate_pairs((rates, counts)) == rate_pairs(run(False))
    assert [len(levels) for levels in stopped] == [2, 2, 2]
    for trial in zip(rates.tolist(), counts.tolist(), stopped):
        for rate, count, (iterate, trace) in zip(*trial):
            assert iterate is not None and len(trace) == count
            if not loop.startswith("nsp"):
                assert trace[-1] == rate


#: nsp and irses: per case, trial 0's rate and receive power at its last
#: level as float.hex(), and a digest of every rate, power, trace, phase and
#: weight of trials 0..31 (make_channels(m, n, seed=trial),
#: irses_partition(n, m, trial)) at 0 dB and 30 dB, irses also at one
#: per-antenna level, from the one-trial solvers.  Computed from the draws
#: keyed by Philox, the solvers' unit-phasor alignment and NSP's
#: closed-form projections off one direction; the rates forms give their
#: rates in stacks of 1, 3 and 32.  After a change meant to move these
#: numbers, recompute them and state the drift.
STACKED_PINNED = {
    "nsp-effective": (
        "0x1.aaf18feb794e0p+0", "0x1.64b5b28acdc8bp-5", "6add702c6c637d2d",
    ),
    "nsp-effective-printed": (
        "0x1.e1e52f27ba616p-1", "0x1.2d81d6bd7719cp-6", "24e0ebc17f5a6b20",
    ),
    "nsp-literal": ("0x1.a4ad2364972e4p+0", "0x1.5bf36e4cd320cp-5", "b3bd02c04eb831a9"),
    "nsp-literal-printed": (
        "0x1.3e444869a7cf1p+0", "0x1.c007a12fb8fc8p-6", "6f8ad9459696e934",
    ),
    "nsp-fixed-phases": (
        "0x1.b0b3254966db9p+0", "0x1.6ce2e65ac58dap-5", "22e4bf4ed73acc25",
    ),
    "irses-idealized": (
        "0x1.0b3564a400ca8p+1", "0x1.063adfea755afp-4", "e7e84f35474edbc0",
    ),
    "irses-full": ("0x1.01690351cc92ep+1", "0x1.f0f0c8accb54cp-5", "d7118536a9d404f4"),
    "irses-printed": (
        "0x1.afa16a434e793p-1", "0x1.5d66b05e7f266p-6", "c22193acbff02681",
    ),
    "irses-fixed-phases": (
        "0x1.ca59fb48fc7c7p+0", "0x1.6107015516ecfp-5", "57fa894d2d79d777",
    ),
}

#: (solver, (m, n), options) of each pinned case; literal mode needs m > n
STACKED_CASES = {
    "nsp-effective": ("nsp", (4, 16), {}),
    "nsp-effective-printed": ("nsp", (4, 16), {"combining": "printed"}),
    "nsp-literal": ("nsp", (8, 4), {"mode": "literal"}),
    "nsp-literal-printed": (
        "nsp", (8, 4), {"mode": "literal", "combining": "printed"},
    ),
    "nsp-fixed-phases": ("nsp", (4, 16), {"phases": PhaseShiftVector(np.zeros(16))}),
    "irses-idealized": ("irses", (4, 16), {}),
    "irses-full": ("irses", (4, 16), {"interference_mode": "full"}),
    "irses-printed": ("irses", (4, 16), {"combining": "printed"}),
    "irses-fixed-phases": ("irses", (4, 16), {"phases": PhaseShiftVector(np.zeros(16))}),
}

PINNED_TRIALS = 32


def solution_digest(per_trial):
    digest = hashlib.sha256()
    for levels in per_trial:
        for solution in levels:
            digest.update(solution.rate_r.hex().encode())
            digest.update(float(solution.receive_power_watt).hex().encode())
            digest.update("".join(rate.hex() for rate in solution.trace).encode())
            digest.update(solution.theta1.angles.tobytes())
            for beamformer in (solution.u_rs, solution.u_ri):
                if beamformer is not None:
                    digest.update(beamformer.weights.tobytes())
            if solution.mrc_weights is not None:
                digest.update(solution.mrc_weights.tobytes())
    return digest.hexdigest()[:16]


#: per solver: its rates form and its one-trial solver
FORMS = {
    "ais": (ais_rates, ais_max_rp),
    "second-slot": (second_slot_rates, second_slot_optimize),
    "nsp": (nsp_rates, nsp_max_rp_mrc),
    "irses": (irses_rates, irses_max_rp_mrc),
}


def one_trial_solutions(solver, m, n, options, trials, levels, *loop):
    """Each trial's tuple of per-level solutions from the one-trial solver.

    ``loop`` is the alternations' (epsilon, max_iter); irses takes the
    trial's partition in its place.
    """
    scalar = FORMS[solver][1]
    solutions = []
    for trial in trials:
        channels = make_channels(m, n, seed=trial)
        extra = (irses_partition(n, m, trial),) if solver == "irses" else loop
        solutions.append(
            tuple(scalar(channels, P_S, noise, *extra, **options) for noise in levels)
        )
    return solutions


def stacked_rates(solver, m, n, options, trials, levels, *loop):
    """The rates form of ``solver`` on the stack of ``trials``' draws."""
    links = stack([make_channels(m, n, seed=trial) for trial in trials])
    if solver == "irses":
        loop = (np.stack([irses_partition(n, m, t).assignment for t in trials]),)
    return FORMS[solver][0](links, P_S, levels, *loop, **options)


@pytest.mark.parametrize("size", [1, 3, 32])
@pytest.mark.parametrize("name", STACKED_CASES)
def test_stacked_closed_forms_keep_the_pinned_bits(name, size):
    # the pins from the one-trial solvers; the rates forms on trials 0..31
    # in stacks of ``size`` (the last one shorter) give their rates
    solver, (m, n), options = STACKED_CASES[name]
    levels = noise_levels(0, 30)
    if solver == "irses":
        levels = (*levels, np.linspace(0.01, 0.04, m))
    trials = range(PINNED_TRIALS)
    solutions = one_trial_solutions(solver, m, n, options, trials, levels)
    last = solutions[0][-1]
    power = float(last.receive_power_watt)
    got = (last.rate_r.hex(), power.hex(), solution_digest(solutions))
    assert got == STACKED_PINNED[name]
    rates = []
    for start in range(0, PINNED_TRIALS, size):
        rows = trials[start : start + size]
        rates += rate_pairs(stacked_rates(solver, m, n, options, rows, levels))
    assert rates == solution_pairs(solutions)


#: the closed forms' levels: 30 dB, where the two-hop forms' powers are near
#: the noise, and 60 dB, where baseline-irs-only's is; there a rate keeps
#: most of its power's last bits
CLOSED_LEVELS = noise_levels(30, 60)

#: trials 0..114, then one trial per closed form (fixed first slot, relay
#: first hop, fixed second slot, relay second hop, irs-only) whose rate at
#: CLOSED_LEVELS a numpy square of its amplitude would change (the first
#: such seed from 115 up, each form's)
CLOSED_SEEDS = (*range(115), 319, 1144, 2587, 10296, 12343)

#: per closed form, a digest of its rates' float.hex() over CLOSED_SEEDS at
#: CLOSED_LEVELS, computed by the one-trial rules of closed_form_powers
CLOSED_PINNED = {
    "irs-only": "468ac43a9dabf17f",
    "relay-first": "6bdc83183ccc6c03",
    "relay-second": "f51d342ff80ad1b1",
    "fixed-first": "6d010db538baab71",
    "fixed-second": "14c105a124d60872",
}

#: the closed forms the trial engine runs on a chunk's stack, by name
CLOSED_FORMS = {
    "irs-only": lambda c: beamforming._irs_only(c, P_S, CLOSED_LEVELS),
    "relay-first": lambda c: beamforming._matched_direct(c.h_sr, P_S, CLOSED_LEVELS),
    "relay-second": lambda c: beamforming._matched_direct(c.h_rd, P_R, CLOSED_LEVELS),
    "fixed-first": lambda c: beamforming._fixed_first_slot(c, P_S, CLOSED_LEVELS),
    "fixed-second": lambda c: beamforming._fixed_second_slot(c, P_R, CLOSED_LEVELS),
}


def closed_form_powers(channels):
    """Each closed form's power on one trial, by the one-trial rules.

    Each amplitude is summed, normed or matched on its trial alone and
    squared as a Python float.
    """
    zeros = np.zeros(channels.n)
    u_r = ur_update_ais(channels, PhaseShiftVector(zeros)).weights
    first = channels.h_sr + channels.H_ir @ channels.h_si
    second = channels.h_rd + channels.H_ri @ channels.h_id
    irs = float(np.sum(np.abs(channels.h_id) * np.abs(channels.h_si)))
    return {
        "irs-only": P_S * irs**2,
        "relay-first": P_S * float(np.linalg.norm(channels.h_sr)) ** 2,
        "relay-second": P_R * float(np.linalg.norm(channels.h_rd)) ** 2,
        "fixed-first": P_S * float(np.abs(np.vdot(u_r, first))) ** 2,
        "fixed-second": P_R * float(np.linalg.norm(second)) ** 2,
    }


@pytest.mark.parametrize("size", [1, 3, 120])
def test_stacked_closed_forms_keep_the_one_trial_bits(size):
    # the trials solved in stacks of ``size``; a vecdot for irs-only's sum
    # or a numpy square of any amplitude changes some rate
    sets = [make_channels(4, 16, seed=seed) for seed in CLOSED_SEEDS]
    expected = {name: [] for name in CLOSED_FORMS}
    for channels in sets:
        for name, power in closed_form_powers(channels).items():
            rates = [rate_from_power(power, noise).hex() for noise in CLOSED_LEVELS]
            expected[name].append(rates)
    got = {name: [] for name in CLOSED_FORMS}
    for start in range(0, len(sets), size):
        channels = stack(sets[start : start + size])
        for name, form in CLOSED_FORMS.items():
            rates, iterations = form(channels)
            assert iterations.tolist() == [[1] * len(CLOSED_LEVELS)] * len(rates)
            got[name] += [[rate.hex() for rate in row] for row in rates.tolist()]
    assert got == expected
    digests = {
        name: hashlib.sha256("".join(sum(rows, [])).encode()).hexdigest()[:16]
        for name, rows in expected.items()
    }
    assert digests == CLOSED_PINNED


#: every rates form the trial engine calls, by case: (solver, (m, n),
#: options); literal mode needs m > n
RATES_CASES = {
    "ais": ("ais", (4, 16), {}),
    "second-slot": ("second-slot", (4, 16), {}),
    **STACKED_CASES,
    "irses-full-printed": (
        "irses", (4, 16), {"interference_mode": "full", "combining": "printed"},
    ),
    "nsp-literal-fixed-phases": (
        "nsp", (8, 4), {"mode": "literal", "phases": PhaseShiftVector(np.zeros(4))},
    ),
}


@pytest.mark.parametrize("name", RATES_CASES)
def test_rates_forms_equal_their_solutions_bit_for_bit(name):
    # the engine's rates forms against the rate and iteration count of
    # each (trial, level)'s solution object; at epsilon 1e-6 and 8
    # iterations the levels of a trial stop on different iterates, some on
    # the cap
    solver, (m, n), options = RATES_CASES[name]
    levels = noise_levels(0, 10, 20, 30)
    loop = (EPSILON, MAX_ITER)
    rates = stacked_rates(solver, m, n, options, range(8), levels, *loop)
    # the rates forms give a (trials, levels) array of rates and one of
    # iteration counts
    rate_array, count_array = rates
    assert rate_array.dtype == np.float64 and rate_array.shape == (8, len(levels))
    assert count_array.shape == rate_array.shape
    pairs = rate_pairs(rates)
    objects = one_trial_solutions(solver, m, n, options, range(8), levels, *loop)
    assert pairs == solution_pairs(objects)
    if solver in ("ais", "second-slot", "nsp") and "phases" not in options:
        counts = {count for trial in pairs for _, count in trial}
        assert MAX_ITER in counts and len(counts) >= 3
        assert any(len({count for _, count in trial}) > 1 for trial in pairs)


def dip_one_trial(monkeypatch):
    """Make ``beamforming._powers`` report a falling power for one trial.

    From its second call on, the first row's power is halved on every call,
    so that row's trace dips on its second iterate.
    """
    original = beamforming._powers
    calls = []

    def dipping(p_watt, weights, channels):
        powers = original(p_watt, weights, channels)
        calls.append(None)
        if len(calls) > 1:
            powers[0] *= 0.5 ** len(calls)
        return powers

    monkeypatch.setattr(beamforming, "_powers", dipping)


def test_a_dipping_trace_fails_collect_trials(monkeypatch):
    dip_one_trial(monkeypatch)
    config = ScenarioConfig(method="ais", m=4, n=16, trials=3, epsilon=1e-12)
    with pytest.raises(TraceDipError):
        collect_trials(config)


def test_a_dipping_trace_exits_with_the_runtime_error_code(monkeypatch, capsys):
    from irsrelay import cli

    args = ["run", "--set", "m=4", "--set", "n=16", "--set", "trials=3"]
    assert cli.main(args) == 0  # the same run, without the dip
    capsys.readouterr()
    dip_one_trial(monkeypatch)
    assert cli.main(args) == 2
    assert "trace decreased" in capsys.readouterr().err


def zero_antenna(channels, antenna):
    """``channels`` with no first-hop signal at relay antenna ``antenna``."""
    blocks = {key: np.array(getattr(channels, key)) for key in LINK_STREAMS}
    blocks["h_sr"][antenna] = 0.0
    blocks["H_ir"][antenna] = 0.0
    return ChannelSet(**blocks)


def test_irses_zero_antenna_warns_once_per_affected_trial_in_a_stack():
    sets = [make_channels(4, 16, seed=seed) for seed in range(4)]
    sets[0], sets[2] = zero_antenna(sets[0], 1), zero_antenna(sets[2], 3)
    partitions = [irses_partition(16, 4, seed) for seed in range(4)]
    assignments = np.stack([partition.assignment for partition in partitions])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        together = irses_rates(stack(sets), P_S, LEVELS, assignments)
    assert [str(w.message) for w in caught] == [
        "1 antenna(s) with zero combined signal; MRC weight set to 1"
    ] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateElementWarning)
        singles = [
            tuple(irses_max_rp_mrc(channels, P_S, noise, partition) for noise in LEVELS)
            for channels, partition in zip(sets, partitions)
        ]
    assert rate_pairs(together) == solution_pairs(singles)


def test_irses_batch_needs_one_partition_per_trial():
    links = stack([make_channels(4, 16, seed=seed) for seed in range(2)])
    with pytest.raises(ConfigError, match="assignment"):
        irses_rates(links, P_S, LEVELS, irses_partition(16, 4, 0).assignment[None])


def count_calls(monkeypatch, module, name, record):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_every_method_solves_once_per_chunk_and_key(chunk, monkeypatch):
    # all nine methods: nsp and irses with and without fixed phases are two
    # keys each, the fixed-phase methods share one fixed second slot, and
    # no trial is evaluated alone
    from irsrelay import metrics

    cases = [
        ScenarioConfig(method=method, m=8, n=16, trials=1, epsilon=EPSILON)
        for method in harness.METHODS
    ]
    size = harness._chunk_trials(cases)
    assert size > 1
    cases = [dataclasses.replace(config, trials=2 * size + 1) for config in cases]
    # the rates forms take one hop's blocks, the fixed slots the links of
    # their hop
    hop_rows = lambda hop, *rest: len(hop[0])  # noqa: E731
    first_rows = lambda channels, *rest: len(channels.h_sr)  # noqa: E731
    second_rows = lambda channels, *rest: len(channels.h_rd)  # noqa: E731
    solves = {
        name: count_calls(monkeypatch, harness, name, rows)
        for name, rows in (
            ("_alternate", hop_rows),
            ("_nsp", hop_rows),
            ("_irses", hop_rows),
            ("_fixed_first_slot", first_rows),
            ("_fixed_second_slot", second_rows),
        )
    }
    alone = [
        count_calls(monkeypatch, module, name, lambda *args: 1)
        for module, name in (
            (harness, "ur_update_ais"),
            (harness, "receive_power_ais"),
            (beamforming, "ur_update_ais"),
            (metrics, "receive_power_ais"),
        )
    ]
    collect_trials(cases)
    # 2 * size + 1 trials take three chunks, shortest first, their lengths
    # at most one apart
    chunks = [(2 * size + 1 + k) // 3 for k in range(3)]
    # ais and the second slot once per m: 8, and 1 for the single-antenna
    # baseline
    assert sorted(solves["_alternate"]) == sorted(4 * chunks)
    assert sorted(solves["_nsp"]) == sorted(2 * chunks)
    assert sorted(solves["_irses"]) == sorted(2 * chunks)
    assert solves["_fixed_first_slot"] == chunks
    assert solves["_fixed_second_slot"] == chunks
    assert not any(alone)


def test_nsp_start_phases_in_slices_of_the_stack_change_no_bit(monkeypatch):
    # the relaxed start phases are built a few trials at a time when a
    # trial's surface matrix is large; slices of 2 of a stack of 5 here
    sets = [make_channels(4, 16, seed=seed) for seed in range(5)]
    whole = rate_pairs(nsp_rates(stack(sets), P_S, LEVELS))
    monkeypatch.setattr(beamforming, "START_PHASE_BYTES", 2 * sets[0].H_ir.nbytes)
    assert rate_pairs(nsp_rates(stack(sets), P_S, LEVELS)) == whole

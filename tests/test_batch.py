"""Batched solvers and chunked evaluation equal one trial at a time, bit for bit.

``ais``, ``nsp`` and the second slot iterate on stacks of trials, each
(trial, noise level) stopping on its own rule; ``collect_trials`` draws and
solves the trials chunk by chunk.  Neither may change a bit of any record,
and the checks of the one-trial loop (warnings on zero paths, errors on
non-finite or zero channels) must hold inside a stack.
"""

import warnings

import numpy as np
import pytest

from irsrelay import harness
from irsrelay.beamforming import (
    ais_max_rp_batch,
    ais_max_rp_per_noise,
    nsp_max_rp_mrc_batch,
    nsp_max_rp_mrc_per_noise,
    second_slot_optimize_batch,
    second_slot_optimize_per_noise,
)
from irsrelay.channel import LINK_STREAMS, ChannelSet, stack_channels
from irsrelay.errors import (
    ConfigError,
    DegenerateChannelError,
    DegenerateElementWarning,
)
from irsrelay.harness import ScenarioConfig, collect_trials, run_trial

from conftest import NOISE_30DB, P_S, make_channels
from test_per_noise import assert_identical

#: (method, m, n, options): both nsp modes (literal needs m > n) and fixed
#: phases, irses, the fixed-phase and single-hop baselines, and the
#: single-antenna baseline at m = 1
METHODS = (
    ("ais", 8, 16, {}),
    ("nsp", 8, 16, {}),
    ("nsp", 8, 4, {"nsp_mode": "literal"}),
    ("nsp-fixed-phase", 8, 16, {}),
    ("irses", 8, 16, {}),
    ("ais-fixed-phase", 8, 16, {}),
    ("baseline-single-antenna", 8, 16, {}),
    ("baseline-relay-only", 8, 16, {}),
)

#: at epsilon 1e-6 and 8 iterations, the 0 dB levels stop on the rate rule
#: after 3 to 8 iterations and the 30 dB ones mostly on the cap
EPSILON, MAX_ITER = 1e-6, 8


def configs(trials):
    return [
        ScenarioConfig(
            method=method, m=m, n=n, snr_db=snr, trials=trials,
            epsilon=EPSILON, max_iter=MAX_ITER, **options,
        )
        for snr in (0.0, 30.0)
        for method, m, n, options in METHODS
    ]


@pytest.fixture
def chunk(monkeypatch):
    """A byte budget that makes chunks of a few trials; their count."""
    monkeypatch.setattr(harness, "CHUNK_BYTES", 30_000)
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
        # the first chunk holds trials that stop at different iterations
        # and on the cap, first slot and second
        first_chunk = [r.result.iterations for r in together[len(METHODS)][:chunk]]
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


#: (batched solver, one-trial solver, element link, direct link) per hop
SOLVERS = {
    "ais": (ais_max_rp_batch, ais_max_rp_per_noise, "h_si", "h_sr"),
    "nsp": (nsp_max_rp_mrc_batch, nsp_max_rp_mrc_per_noise, "h_si", "h_sr"),
    "second-slot": (
        second_slot_optimize_batch, second_slot_optimize_per_noise, "h_id", "h_rd",
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
    batch, alone, element_link, _ = SOLVERS[solver]
    sets = trials_with(element_link, zero_first)
    with pytest.warns(DegenerateElementWarning):
        together = batch(stack_channels(sets), P_S, LEVELS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateElementWarning)
        for channels, solutions in zip(sets, together):
            for mixed, single in zip(solutions, alone(channels, P_S, LEVELS)):
                assert_identical(mixed, single)


def test_non_finite_block_in_a_stack_raises_config_error():
    sets = [make_channels(4, 16, seed=seed) for seed in range(3)]
    blocks = {key: np.stack([getattr(c, key) for c in sets]) for key in LINK_STREAMS}
    blocks["H_ir"][1, 0, 0] = np.nan
    with pytest.raises(ConfigError):
        ChannelSet(**blocks)


@pytest.mark.parametrize("solver", SOLVERS)
def test_overflowing_trial_raises_config_error_as_alone(solver):
    batch, alone, _, _ = SOLVERS[solver]
    matrix = "H_ri" if solver == "second-slot" else "H_ir"
    sets = trials_with(matrix, overflow)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises((ConfigError, np.linalg.LinAlgError)) as single:
            alone(sets[1], P_S, LEVELS)
        with pytest.raises(single.type):
            batch(stack_channels(sets), P_S, LEVELS)


@pytest.mark.parametrize("solver", SOLVERS)
def test_zero_direct_link_raises_degenerate_channel_error_as_alone(solver):
    batch, alone, _, direct_link = SOLVERS[solver]
    sets = trials_with(direct_link, zero_all)
    with pytest.raises(DegenerateChannelError):
        alone(sets[1], P_S, LEVELS)
    with pytest.raises(DegenerateChannelError):
        batch(stack_channels(sets), P_S, LEVELS)


def test_batched_solvers_take_stacks_and_one_trial_solvers_one_trial():
    channels = make_channels(4, 16, seed=0)
    with pytest.raises(ConfigError):
        ais_max_rp_batch(channels, P_S, LEVELS)
    with pytest.raises(ConfigError):
        ais_max_rp_per_noise(stack_channels([channels]), P_S, LEVELS)


def test_chunk_holds_the_trials_its_limits_allow():
    # beyond one trial, 16 (2m + 2n + 2mn) bytes per trial and draw within
    # CHUNK_BYTES, and at most CHUNK_TRIALS trials
    def size(*configs):
        return harness._chunk_trials(configs)

    assert size(ScenarioConfig(m=16, n=160)) == 4
    assert size(ScenarioConfig(m=50, n=200)) == 2
    assert size(ScenarioConfig(m=4, n=16)) == harness.CHUNK_TRIALS
    assert size(ScenarioConfig(m=64, n=1024)) == 1
    # every distinct draw of a trial counts: m = 1 for the single-antenna
    # baseline, another base seed draws again
    base = ScenarioConfig(m=8, n=64)
    assert size(base) == 1 + harness.CHUNK_BYTES // 18688
    single = ScenarioConfig(m=8, n=64, method="baseline-single-antenna")
    assert size(base, single) == 1 + harness.CHUNK_BYTES // (18688 + 4128)
    assert size(base, ScenarioConfig(m=8, n=64, base_seed=1)) == (
        1 + harness.CHUNK_BYTES // (2 * 18688)
    )

import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import irsrelay
from irsrelay import harness
from irsrelay.channel import (
    LINK_STREAMS,
    ChannelSet,
    Geometry,
    LinkBudget,
    Links,
    dbi_to_amplitude_gain,
    keyed_generators,
    link_keys,
    pathloss_amplitude,
    sample_channels,
    sample_channels_batch,
    sample_links,
    seed_states,
    stream_seed,
)
from irsrelay.errors import ConfigError
from irsrelay.harness import trial_seed

from conftest import make_channels

# closed-form E|entry|^2 = d^-alpha * 10^((g_tx+g_rx)/10) per link, default
# geometry (0,0)/(50,0)/(50,10)/(100,0), alpha=2.4, gains 5/5/2/0 dBi
EXPECTED_SECOND_MOMENT = {
    "h_sr": 8.365116420730e-04,
    "H_ir": 1.258925411794e-02,
    "h_si": 2.523666614196e-04,
    "h_rd": 4.192489557876e-04,
    "h_id": 1.264829488967e-04,
    "H_ri": 1.258925411794e-02,
}


def test_pathloss_amplitude_values():
    assert pathloss_amplitude(1.0, 2.4) == 1.0
    assert pathloss_amplitude(4.0, 2.0) == 0.25
    assert abs(pathloss_amplitude(100.0, 2.4) - 3.981071705534973e-3) < 1e-15


def test_pathloss_amplitude_domain():
    with pytest.raises(ValueError):
        pathloss_amplitude(0.0, 2.4)
    with pytest.raises(ValueError):
        pathloss_amplitude(-1.0, 2.4)
    with pytest.raises(ValueError):
        pathloss_amplitude(10.0, 0.0)


def test_dbi_to_amplitude_gain_values():
    assert dbi_to_amplitude_gain(0.0, 0.0) == 1.0
    assert abs(dbi_to_amplitude_gain(10.0, 10.0) - 10.0) < 1e-12
    assert abs(dbi_to_amplitude_gain(5.0, 2.0) - 2.2387211385683394) < 1e-12


def test_dbi_to_amplitude_gain_rejects_non_finite():
    with pytest.raises(ValueError):
        dbi_to_amplitude_gain(float("nan"), 0.0)
    with pytest.raises(ValueError):
        dbi_to_amplitude_gain(0.0, float("inf"))


def test_geometry_distances():
    geom = Geometry()
    assert geom.d_sr == 50.0
    assert geom.d_rd == 50.0
    assert geom.d_ir == 10.0
    assert geom.d_ri == 10.0
    assert abs(geom.d_si - math.sqrt(2600.0)) < 1e-12
    assert abs(geom.d_id - math.sqrt(2600.0)) < 1e-12


def test_geometry_rejects_coincident_nodes():
    with pytest.raises(ConfigError):
        Geometry(pos_s=(50.0, 0.0))  # on top of the relay


def test_link_budget_validation():
    with pytest.raises(ConfigError):
        LinkBudget(alpha=0.0)
    with pytest.raises(ConfigError):
        LinkBudget(p_s_watt=0.0)


def test_stream_seed_deterministic_and_distinct():
    assert stream_seed(3, 5) == stream_seed(3, 5)
    seen = {stream_seed(a, b) for a in range(8) for b in range(8)}
    assert len(seen) == 64
    with pytest.raises(ConfigError):
        stream_seed(-1, 0)


def test_sample_channels_shapes():
    ch = make_channels(m=2, n=3, seed=0)
    assert ch.h_sr.shape == (2,)
    assert ch.H_ir.shape == (2, 3)
    assert ch.h_si.shape == (3,)
    assert ch.h_rd.shape == (2,)
    assert ch.h_id.shape == (3,)
    assert ch.H_ri.shape == (2, 3)
    assert ch.m == 2 and ch.n == 3


def test_sample_channels_deterministic():
    a = make_channels(m=3, n=5, seed=42)
    b = make_channels(m=3, n=5, seed=42)
    c = make_channels(m=3, n=5, seed=43)
    for name in ("h_sr", "H_ir", "h_si", "h_rd", "h_id", "H_ri"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(getattr(a, name), getattr(c, name))


def test_sample_channels_validation():
    with pytest.raises(ConfigError):
        make_channels(m=0, n=3, seed=0)
    with pytest.raises(ConfigError):
        make_channels(m=3, n=0, seed=0)
    with pytest.raises(ConfigError):
        make_channels(m=3, n=3, seed=-1)


def test_channel_blocks_are_read_only_views():
    # one draw is shared by every method of a trial, so no solver may write it
    H_ir = np.ones((2, 3), dtype=np.complex128)
    vectors = dict(h_sr=np.ones(2), h_si=np.ones(3), h_rd=np.ones(2), h_id=np.ones(3))
    channels = ChannelSet(H_ir=H_ir, H_ri=np.ones((2, 3)), **vectors)
    with pytest.raises(ValueError):
        channels.H_ir[0, 0] = 2.0
    with pytest.raises(ValueError):
        make_channels(m=2, n=3, seed=0).h_sr[0] = 0.0
    assert H_ir.flags.writeable  # the caller's own array is left as it was
    H_ir[0, 0] = 2.0
    assert channels.H_ir[0, 0] == 2.0


def test_leading_entries_stable_as_array_grows():
    # common-random-numbers discipline: growing the antenna count must not
    # disturb the channels an existing antenna already sees
    small = make_channels(m=1, n=4, seed=7)
    large = make_channels(m=50, n=4, seed=7)
    assert np.array_equal(small.h_sr[0:1], large.h_sr[0:1])
    assert np.array_equal(small.h_rd[0:1], large.h_rd[0:1])
    assert np.array_equal(small.H_ir[0], large.H_ir[0])
    assert np.array_equal(small.H_ri[0], large.H_ri[0])
    assert np.array_equal(small.h_si, large.h_si)
    assert np.array_equal(small.h_id, large.h_id)


#: seeds per stacked draw of the moment tests: each seed's row is what
#: make_channels draws for it alone (test_stacked_draws_are_pinned_...)
MOMENT_STACK = 4_000


def one_by_one_draws(trials):
    """Draws m = n = 1 of seeds 0..trials-1, as stacks of MOMENT_STACK seeds."""
    for start in range(0, trials, MOMENT_STACK):
        seeds = range(start, min(start + MOMENT_STACK, trials))
        yield sample_channels_batch(Geometry(), LinkBudget(), 1, 1, seeds)


def test_second_moment_matches_link_budget():
    trials = 100_000
    sums = {name: 0.0 for name in EXPECTED_SECOND_MOMENT}
    for stack in one_by_one_draws(trials):
        for name in sums:
            sums[name] += float(np.sum(np.abs(getattr(stack, name)) ** 2))
    for name, expected in EXPECTED_SECOND_MOMENT.items():
        mean = sums[name] / trials
        assert abs(mean - expected) / expected < 0.02, (
            f"{name}: empirical {mean:.6e} vs closed form {expected:.6e}"
        )


def test_entry_phases_uniform():
    ch = make_channels(m=100, n=100, seed=1)
    phases = np.mod(np.angle(ch.H_ir).ravel(), 2.0 * np.pi)
    result = stats.kstest(phases, "uniform", args=(0.0, 2.0 * np.pi))
    assert result.pvalue > 0.01, f"phase uniformity rejected, p={result.pvalue:.4f}"


def test_real_imag_parts_independent_scale():
    # each entry is CN(0, s^2): real and imag parts each carry s^2 / 2
    trials = 20_000
    re_sum = im_sum = 0.0
    for stack in one_by_one_draws(trials):
        re_sum += float(np.sum(stack.h_sr.real ** 2))
        im_sum += float(np.sum(stack.h_sr.imag ** 2))
    half = EXPECTED_SECOND_MOMENT["h_sr"] / 2.0
    assert abs(re_sum / trials - half) / half < 0.05
    assert abs(im_sum / trials - half) / half < 0.05


# sha256 over the six stacked blocks' bytes (in LINK_STREAMS order) of the
# stack of trials 0..k-1 of base seed 0, by ((m, n), k), as drawn one trial
# at a time by sample_channels before draws were stacked
PINNED_STACKS = {
    ((1, 16), 1): "4fd01df6f6b102c16d3880a84f4df07555923d0f22ee2ec582ae8a436f657887",
    ((1, 16), 3): "9ece3184745f734a2528c4e29728dd0673eabd786958430a8ea997c84b9607f8",
    ((1, 16), 32): "450276285118a0e7571fbc2786b23e46932eaf5aa16194afa9fc4e6b1d852379",
    ((3, 7), 1): "ae36246fdef175f627445e19d8753ea64b1611867df382a26e7d953d34c60ada",
    ((3, 7), 3): "026e99679b108820fac81896e487c4d963b4293336a1b69fb5e1fde1000f90d9",
    ((3, 7), 32): "8089222205b888d1e5ec9cce233e2ee48272ded781b9a42fc56815d575829031",
    ((4, 16), 1): "963bf9934cdb84e68684097e082d3a51d6dac927a668e8d80e41ddfdde0487ff",
    ((4, 16), 3): "4c785075bcca0021add79690263ee73bdf2d066337f9bfebabe71e0ba03323e2",
    ((4, 16), 32): "369913bb1e9c025335047198dfb0b1430984226e005edc80a7235b5ec28daf72",
    ((16, 160), 1): "cb50daf9e7423c89a9cf84bbfeadbf07f2f6016503f716a830d7402cdb1cc392",
    ((16, 160), 3): "a127d9b15b11cbf9def5f04319cac1fcf7f055d1b8fc79599abad6e981f949d9",
    ((16, 160), 32): "cec1ad7f4ffa8b034f723a32763ad716dfd2d57b5f15cd69c4065d7645f83ec1",
    ((50, 200), 1): "19415d5c134f831cf6eba6089c60f52ddba577465ef457cf379bda2eb2bd5011",
    ((50, 200), 3): "a31b8f71ce8a931a59cd1e583ffa2f1d5246e50ad62b9fd4c876cc1d97df42c4",
    ((50, 200), 32): "f8d6b404e435967773c85fea8f05c41e61e605657c6f9f472d44643311533038",
}

#: h_sr[0] of trial 0, the same at every m
PINNED_H_SR_0 = ("0x1.8795ddbe0823fp-6", "-0x1.d3947652d2661p-6")


@pytest.mark.parametrize("m, n, trials", [(*size, k) for size, k in PINNED_STACKS])
def test_stacked_draws_are_pinned_and_equal_one_trial_draws(m, n, trials):
    seeds = [trial_seed(0, t) for t in range(trials)]
    stack = sample_channels_batch(Geometry(), LinkBudget(), m, n, seeds)
    digest = hashlib.sha256()
    for name in LINK_STREAMS:
        digest.update(getattr(stack, name).tobytes())
    assert digest.hexdigest() == PINNED_STACKS[(m, n), trials]
    first = complex(stack.h_sr[0, 0])
    assert (first.real.hex(), first.imag.hex()) == PINNED_H_SR_0
    for row, seed in enumerate(seeds):
        alone = sample_channels(Geometry(), LinkBudget(), m, n, seed)
        for name in LINK_STREAMS:
            block = getattr(alone, name)
            assert block.shape == getattr(stack, name).shape[1:]
            assert block.tobytes() == getattr(stack, name)[row].tobytes()


@pytest.mark.parametrize("m, n, seed", [(0, 3, 0), (3, 0, 0), (3, 3, -1)])
def test_stacked_and_one_trial_draws_reject_the_same_input(m, n, seed):
    with pytest.raises(ConfigError) as alone:
        sample_channels(Geometry(), LinkBudget(), m, n, seed)
    with pytest.raises(ConfigError) as stacked:
        sample_channels_batch(Geometry(), LinkBudget(), m, n, [5, seed])
    assert str(stacked.value) == str(alone.value)


def numpy_states(entropy, words):
    return np.random.SeedSequence(entropy).generate_state(words, np.uint64)


#: entropies of 1 to 6 words, with the edge values of a word and of a seed
EDGE_ENTROPIES = [
    (0,),
    (2**32 - 1,),
    (2**32,),
    (2**64 - 1,),
    (2**200,),  # seven words
    (5, 0),
    (2**64 - 1, 6),
    (2**32, 2**32 - 1, 1),
    (2**96, 7),  # a base seed of four words: five words in all
    (1, 2, 3, 4, 5, 6),
    (2**64 - 1, 2**64 - 1, 2**64 - 1),
    (),
]


@pytest.mark.parametrize("entropy", EDGE_ENTROPIES)
@pytest.mark.parametrize("words", [1, 2])
def test_batched_hash_equals_seed_sequence_on_edge_values(entropy, words):
    states = seed_states(list(entropy), words)
    assert states.shape == (1, words) and states.dtype == np.uint64
    assert states[0].tolist() == numpy_states(entropy, words).tolist()
    # one key is hashed by SeedSequence itself; two take the vectorised pass
    if entropy:
        twice = seed_states([[part, part] for part in entropy], words)
        assert twice.tolist() == 2 * [numpy_states(entropy, words).tolist()]


def test_batched_hash_equals_seed_sequence_on_random_keys():
    # 2,400 keys in each layout the engine and the public functions hash:
    # per-key parts of one or two words mixed in one call, a shared part of
    # any size, and per-key values of 2**64 or more
    rng = np.random.default_rng(20261019)
    seeds = rng.integers(0, 2**64, 2_400, dtype=np.uint64)
    seeds[::7] >>= 32  # one-word seeds among two-word ones
    seeds[::11] = 0
    small = rng.integers(0, 2**40, 2_400, dtype=np.uint64)
    huge = [int(seed) << int(shift) for seed, shift in zip(seeds, small % 150)]
    layouts = [
        [seeds],
        [seeds, 6],
        [seeds, small],
        [2**100 + 3, small],
        [seeds, 2**70, small.tolist()],
        [huge, small],
    ]
    for parts in layouts:
        for words in (1, 2):
            states = seed_states(parts, words)
            for k, state in enumerate(states):
                entropy = tuple(p if isinstance(p, int) else int(p[k]) for p in parts)
                assert state.tolist() == numpy_states(entropy, words).tolist(), entropy


@pytest.mark.parametrize(
    "parts", [[-1], [0, -1], [[3, -1]], [np.array([2, -1])], [np.array([1.0])]]
)
def test_batched_hash_rejects_negative_and_non_integer_parts(parts):
    with pytest.raises(ConfigError):
        seed_states(parts)


def test_stream_seed_is_the_batched_hash_of_one_key():
    for entropy in EDGE_ENTROPIES:
        assert stream_seed(*entropy) == int(numpy_states(entropy, 1)[0])


def test_keyed_generators_are_philox_seeded_by_their_key_states():
    seeds = [0, 1, 2**63, 2**64 - 1]
    keys = seed_states([seeds, 4], 2)
    for seed, rng in zip(seeds, keyed_generators(keys)):
        fresh = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 4))))
        assert rng.standard_normal(9).tobytes() == fresh.standard_normal(9).tobytes()
        assert rng.permutation(13).tolist() == fresh.permutation(13).tolist()


def test_importing_the_cli_loads_no_random_module():
    # the generators are made inside each call: a module-level one would
    # load numpy.random, and its start-up cost, into every process
    code = "import sys, irsrelay.cli; print('numpy.random' in sys.modules)"
    package_root = str(Path(irsrelay.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.stdout.strip() == "False"


def test_concurrent_draws_get_the_serial_bits():
    seeds = list(range(40, 52))
    serial = sample_channels_batch(Geometry(), LinkBudget(), 4, 16, seeds)
    expected = {name: getattr(serial, name).tobytes() for name in LINK_STREAMS}
    results, errors = [], []
    barrier = threading.Barrier(2)

    def draw():
        try:
            barrier.wait(timeout=10)
            for _ in range(25):
                stack = sample_channels_batch(Geometry(), LinkBudget(), 4, 16, seeds)
                results.append(
                    {name: getattr(stack, name).tobytes() for name in LINK_STREAMS}
                )
        except Exception as error:  # reported below, from the main thread
            errors.append(error)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 50 and all(result == expected for result in results)


@pytest.mark.parametrize("m, n", [(4, 16), (16, 160)])
def test_a_served_one_antenna_draw_equals_its_own_draw(m, n):
    # the engine serves the m = 1 draw from the Links of a multi-antenna one
    seeds = [harness.trial_seed(3, k) for k in range(6)]
    stack = Links(**vars(sample_channels_batch(Geometry(), LinkBudget(), m, n, seeds)))
    for subset in (seeds, seeds[1:4], [seeds[4], seeds[0]]):
        served = harness._leading_antenna(stack, seeds, subset)
        drawn = sample_channels_batch(Geometry(), LinkBudget(), 1, n, subset)
        for name in LINK_STREAMS:
            block = getattr(served, name)
            assert block.tobytes() == getattr(drawn, name).tobytes()
            assert block.flags.c_contiguous and not block.flags.writeable
            assert not np.shares_memory(block, getattr(stack, name))


@pytest.mark.parametrize("m, n", [(4, 16), (16, 160)])
def test_links_drawn_a_hop_at_a_time_equal_the_whole_draw(m, n):
    # the trial engine draws a draw's links in two calls, on one hash of
    # its stream keys: what the first slots read, then H_ri; each block is
    # the whole draw's, bit for bit, in a buffer of its own
    seeds = [trial_seed(5, k) for k in range(7)]
    whole = sample_channels_batch(Geometry(), LinkBudget(), m, n, seeds)
    keys = link_keys(seeds)
    assert keys.shape == (len(LINK_STREAMS), len(seeds), 2)
    hops = [("h_sr", "H_ir", "h_si", "h_rd", "h_id"), ("H_ri",)]
    drawn = [
        sample_links(Geometry(), LinkBudget(), m, n, keys, names) for names in hops
    ]
    both = {**vars(drawn[0]), **vars(drawn[1])}
    assert list(both) == list(LINK_STREAMS)
    for name, block in both.items():
        assert block.tobytes() == getattr(whole, name).tobytes()
        assert block.base is None and not block.flags.writeable
    # the one-antenna draw served from them: the leading antenna of every
    # link, on consecutive rows and on others, in either hop's call
    links = Links(**both)
    for rows in (slice(1, 4), [4, 0]):
        picked = seeds[rows] if isinstance(rows, slice) else [seeds[k] for k in rows]
        served = links.rows(rows, m=1)
        alone = sample_channels_batch(Geometry(), LinkBudget(), 1, n, picked)
        for name in LINK_STREAMS:
            block = getattr(served, name)
            assert block.tobytes() == getattr(alone, name).tobytes()
            assert block.flags.c_contiguous and not block.flags.writeable
            assert not np.shares_memory(block, both[name])

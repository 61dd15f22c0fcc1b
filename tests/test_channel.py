import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from irsrelay.channel import (
    LINK_STREAMS,
    ChannelSet,
    Geometry,
    LinkBudget,
    dbi_to_amplitude_gain,
    pathloss_amplitude,
    sample_channels,
    sample_channels_batch,
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

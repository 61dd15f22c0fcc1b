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
    pathloss_amplitude,
    sample_channels,
    sample_channels_batch,
    sample_links,
    stream_seed,
    stream_seeds,
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


@pytest.mark.parametrize("seed, index", [(2**64, 0), (0, 2**64), (-1, 0), (0, -1)])
def test_seeds_and_stream_indices_outside_one_word_are_rejected(seed, index):
    # a Philox key is two 64-bit words: seeds in [0, 2**64) only
    with pytest.raises(ConfigError, match=r"must lie in \[0, 2\*\*64\)"):
        stream_seed(seed, index)
    if seed != 0:
        with pytest.raises(ConfigError, match=r"\[0, 2\*\*64\)"):
            sample_channels(Geometry(), LinkBudget(), 2, 3, seed)


def test_the_largest_seed_is_accepted():
    top = 2**64 - 1
    assert 0 <= stream_seed(top, top) < 2**64
    channels = sample_channels(Geometry(), LinkBudget(), 2, 3, top)
    assert np.isfinite(channels.H_ir).all()


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


def assert_leading_entries_kept(small, large, m, n):
    """Every link of ``small`` (drawn at m, n) is the leading part of ``large``'s."""
    for name in LINK_STREAMS:
        grown = getattr(large, name)
        if name in ("H_ir", "H_ri"):
            kept = grown[..., :m, :n]
        else:
            kept = grown[..., : n if name in ("h_si", "h_id") else m]
        assert getattr(small, name).tobytes() == kept.tobytes(), name


def test_leading_entries_stable_as_array_grows():
    # common-random-numbers discipline: growing the antenna or element count
    # must not disturb the channels an existing antenna or element already
    # sees, for one trial, for a stack and for the links drawn a hop at a time
    small = make_channels(m=1, n=4, seed=7)
    large = make_channels(m=50, n=4, seed=7)
    assert_leading_entries_kept(small, large, 1, 4)
    for (m, n), (big_m, big_n) in (((4, 8), (6, 16)), ((1, 1), (16, 160))):
        small = make_channels(m=m, n=n, seed=7)
        assert_leading_entries_kept(small, make_channels(big_m, big_n, seed=7), m, n)
        seeds = [trial_seed(2, k) for k in range(5)]
        assert_leading_entries_kept(
            sample_channels_batch(Geometry(), LinkBudget(), m, n, seeds),
            sample_channels_batch(Geometry(), LinkBudget(), big_m, big_n, seeds),
            m,
            n,
        )
        names = tuple(LINK_STREAMS)[::-1]
        assert_leading_entries_kept(
            sample_links(Geometry(), LinkBudget(), m, n, seeds, names),
            sample_links(Geometry(), LinkBudget(), big_m, big_n, seeds, names),
            m,
            n,
        )


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
# stack of trials 0..k-1 of base seed 0, by ((m, n), k), as drawn by the
# Philox keys of (trial seed, link) and each antenna's own counter
PINNED_STACKS = {
    ((1, 16), 1): "a52b1d8ab4656470be1d8d55a98f08d6ce2851318f9934ee2a7cb6c17a242edc",
    ((1, 16), 3): "229b773b3aad26f512609f82467eb871b55a761cb7d2d5e1b3a2ebdb65f1ff5f",
    ((1, 16), 32): "7620dc475772a46c691b9601d9c157171050b51f7528b575b5c83a72ac6745ec",
    ((3, 7), 1): "e55155fcb65227d8b44c79fdb522b59ae9b4a22691626435b4be435617017fa8",
    ((3, 7), 3): "94de53955c1c960164cf7e291f5ffaa3f3ca1e7eeef5d32247261fd5e81b7b7c",
    ((3, 7), 32): "dbdf76fdcdf04fcac0e7451d55411fd884e82709d4a5a38de83429445350fb7d",
    ((4, 16), 1): "0d2fa4c92ab118001a8611c328398afd66ffb349c237853cfb028adcca071a98",
    ((4, 16), 3): "b16f2679d7edaa6b7c1b46d67790b3f1f8830fc011a3657115c839fe488cb0a4",
    ((4, 16), 32): "65e290cdeee404a97373e70d9264b0c33638984aa5335e6c30b70c00ac0758e0",
    ((16, 160), 1): "0ac0b58d77ba6049e4efcfecf5ed063249231617def11f8a16ac7680b3402ebb",
    ((16, 160), 3): "c5ec801d2a7662bd171f29829534a6cba96eafff93f3c21e7f1cfba4335079be",
    ((16, 160), 32): "938c3c5c756afc4cf1325ed0935f64dad2f820481d6176de1f35c8ca590d26dc",
    ((50, 200), 1): "8112eea4db928c39007e19aa902167ee4b7392edb15785d9f2d1f3a27c46a596",
    ((50, 200), 3): "da41d4e2dc518b0887971cdc21d5540a98f8f4b417716259604fd487a251f707",
    ((50, 200), 32): "b20de20197bb6acd4f42f81f9dde06f898510cddb376a4ad06cd54e33b71c320",
}

#: h_sr[0] of trial 0, the same at every m
PINNED_H_SR_0 = ("0x1.1ebc6b588edcep-6", "-0x1.5bd15b6da585ap-6")


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


@pytest.mark.parametrize(
    "m, n, seed", [(0, 3, 0), (3, 0, 0), (3, 3, -1), (3, 3, 2**64)]
)
def test_stacked_and_one_trial_draws_reject_the_same_input(m, n, seed):
    with pytest.raises(ConfigError) as alone:
        sample_channels(Geometry(), LinkBudget(), m, n, seed)
    with pytest.raises(ConfigError) as stacked:
        sample_channels_batch(Geometry(), LinkBudget(), m, n, [5, seed])
    assert str(stacked.value) == str(alone.value)


def fresh(first, second, row=0):
    """A new ``Generator(Philox)`` at key (first, second), counter (0, row, 0, 0)."""
    key = np.array([first, second], dtype=np.uint64)
    counter = np.array([0, row, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


#: key words at the edges of a 32-bit and of a 64-bit word
EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def test_keyed_generators_are_fresh_philox_at_their_key_and_row():
    keys = [(seed, index) for seed in EDGE_WORDS for index in (0, 4, 2**64 - 1)]
    rows = 3
    steps = keyed_generators(keys, rows)
    for key in keys:
        for row in range(rows):
            rng, reference = next(steps), fresh(*key, row)
            normals = reference.standard_normal(9)
            assert rng.standard_normal(9).tobytes() == normals.tobytes()
            assert rng.permutation(13).tolist() == reference.permutation(13).tolist()
    assert next(steps, None) is None


def test_stream_seed_is_the_first_philox_word_at_its_key():
    pairs = [(seed, index) for seed in EDGE_WORDS for index in EDGE_WORDS]
    for seed, index in pairs:
        expected = fresh(seed, index).bit_generator.random_raw()
        assert stream_seed(seed, index) == expected
    for seed in EDGE_WORDS:
        one_by_one = [stream_seed(seed, index) for index in EDGE_WORDS]
        assert stream_seeds(seed, EDGE_WORDS) == one_by_one


def test_every_link_row_is_a_fresh_philox_stream_at_its_key_and_row():
    # link L of seed s: its antenna r (a vector is one row) is drawn at key
    # (s, L) from counter (0, r, 0, 0), interleaved real and imaginary
    # standard normals scaled by the link's amplitude over sqrt(2)
    budget, geometry, m, n = LinkBudget(), Geometry(), 3, 5
    scales = {
        "h_sr": (geometry.d_sr, budget.gain_s_dbi, budget.gain_rs_dbi),
        "H_ir": (geometry.d_ir, budget.gain_irs_dbi, budget.gain_rs_dbi),
        "h_si": (geometry.d_si, budget.gain_s_dbi, budget.gain_irs_dbi),
        "h_rd": (geometry.d_rd, budget.gain_rs_dbi, budget.gain_d_dbi),
        "h_id": (geometry.d_id, budget.gain_irs_dbi, budget.gain_d_dbi),
        "H_ri": (geometry.d_ri, budget.gain_rs_dbi, budget.gain_irs_dbi),
    }
    for seed in (0, 9, 2**64 - 1):
        channels = sample_channels(geometry, budget, m, n, seed)
        for name, link in LINK_STREAMS.items():
            dist, g_tx, g_rx = scales[name]
            scale = pathloss_amplitude(dist, budget.alpha) * dbi_to_amplitude_gain(
                g_tx, g_rx
            )
            block = np.atleast_2d(getattr(channels, name))
            for row, entries in enumerate(block):
                pairs = fresh(seed, link, row).standard_normal((len(entries), 2))
                expected = (pairs[:, 0] + 1j * pairs[:, 1]) * (scale / math.sqrt(2.0))
                assert entries.tobytes() == expected.tobytes(), (seed, name, row)


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
    # the engine serves every draw, the m = 1 one among them, from the Links
    # of a draw that contains it, as read-only views of its leading corner
    seeds = [harness.trial_seed(3, k) for k in range(6)]
    stack = Links(**vars(sample_channels_batch(Geometry(), LinkBudget(), m, n, seeds)))
    for corner in [(1, n), (1, 1), (m // 2, n), (m, n // 4), (m - 1, n - 3), (m, n)]:
        served = stack.corner(*corner)
        drawn = sample_channels_batch(Geometry(), LinkBudget(), *corner, seeds)
        for name in LINK_STREAMS:
            block = getattr(served, name)
            assert block.tobytes() == getattr(drawn, name).tobytes()
            assert not block.flags.writeable
            assert np.shares_memory(block, getattr(stack, name))


@pytest.mark.parametrize("m, n", [(4, 16), (16, 160)])
def test_links_drawn_a_hop_at_a_time_equal_the_whole_draw(m, n):
    # the trial engine draws a draw's links in two calls: what the first
    # slots read, then H_ri; each block is the whole draw's, bit for bit, in
    # a buffer of its own
    seeds = [trial_seed(5, k) for k in range(7)]
    whole = sample_channels_batch(Geometry(), LinkBudget(), m, n, seeds)
    hops = [("h_sr", "H_ir", "h_si", "h_rd", "h_id"), ("H_ri",)]
    drawn = [
        sample_links(Geometry(), LinkBudget(), m, n, seeds, names) for names in hops
    ]
    both = {**vars(drawn[0]), **vars(drawn[1])}
    assert list(both) == list(LINK_STREAMS)
    for name, block in both.items():
        assert block.tobytes() == getattr(whole, name).tobytes()
        assert block.base is None and not block.flags.writeable
    # the one-antenna draw served from them: the leading antenna of every
    # link, in either hop's call, viewed in place
    served = Links(**both).corner(1, n)
    alone = sample_channels_batch(Geometry(), LinkBudget(), 1, n, seeds)
    for name in LINK_STREAMS:
        block = getattr(served, name)
        assert block.tobytes() == getattr(alone, name).tobytes()
        assert not block.flags.writeable
        assert np.shares_memory(block, both[name])

import numpy as np
import pytest

from irsrelay import beamforming
from irsrelay.beamforming import (
    Partition,
    PhaseShiftVector,
    irses_max_rp_mrc,
    irses_partition,
)
from irsrelay.channel import PARTITION_STREAM, ChannelSet
from irsrelay.errors import ConfigError

from conftest import (
    NOISE_30DB,
    P_S,
    irses_rates,
    make_channels,
    manual_channels,
    stack,
)


def aligned_amplitudes(ch, partition, theta):
    """Per-antenna combined amplitude using only each antenna's own group."""
    contrib = ch.H_ir * (np.exp(1j * theta.angles) * ch.h_si)[np.newaxis, :]
    own = ch.h_sr.astype(complex).copy()
    for antenna in range(ch.m):
        own[antenna] += contrib[antenna, partition.elements_of(antenna)].sum()
    return np.abs(own)


def test_partition_even_disjoint_cover():
    part = irses_partition(n=4, m=2, seed=0)
    groups = [set(part.elements_of(a).tolist()) for a in range(2)]
    assert len(groups[0]) == len(groups[1]) == 2
    assert groups[0].isdisjoint(groups[1])
    assert groups[0] | groups[1] == {0, 1, 2, 3}
    assert part.k == 2 and part.m == 2 and part.n == 4


def test_partition_deterministic_in_seed():
    a = irses_partition(n=12, m=3, seed=5)
    b = irses_partition(n=12, m=3, seed=5)
    assert np.array_equal(a.assignment, b.assignment)
    others = [irses_partition(n=12, m=3, seed=s).assignment for s in range(6, 12)]
    assert any(not np.array_equal(a.assignment, o) for o in others)


def test_partitions_are_drawn_as_from_one_fresh_philox_each():
    # the reference: one Philox and Generator per seed, keyed by the seed
    # and the partition's stream index; the trial engine draws a stack's
    # assignments with one generator
    seeds = [0, 1, 5, 2**32, 2**63, 2**64 - 1]
    for n, m in ((4, 2), (16, 4), (160, 16)):
        batched = beamforming._irses_assignments(n, m, seeds)
        for seed, assignment in zip(seeds, batched):
            key = np.array([seed, PARTITION_STREAM], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            expected = np.empty(n, dtype=np.intp)
            expected[rng.permutation(n)] = np.repeat(np.arange(m), n // m)
            assert assignment.tolist() == expected.tolist()
            assert irses_partition(n, m, seed).assignment.tolist() == expected.tolist()


def test_partition_requires_divisibility():
    with pytest.raises(ConfigError):
        irses_partition(n=5, m=2, seed=0)
    with pytest.raises(ConfigError):
        irses_partition(n=4, m=0, seed=0)
    with pytest.raises(ConfigError):
        irses_partition(n=4, m=2, seed=-1)
    with pytest.raises(ConfigError, match=r"\[0, 2\*\*64\)"):
        irses_partition(n=4, m=2, seed=2**64)
    for n, m, seed in [(4.0, 2, 0), (4, 2.0, 0), (4, 2, 1.5)]:
        with pytest.raises(ConfigError, match="must be an integer"):
            irses_partition(n=n, m=m, seed=seed)


def test_partition_type_rejects_uneven_assignment():
    with pytest.raises(ConfigError):
        Partition(np.array([0, 0, 0, 1]))


@pytest.mark.parametrize("assignment", [[0.5, 1.7], [0, 0, 1, 1.9], [0.0, 1.0]])
def test_partition_type_rejects_non_integer_assignment(assignment):
    # an entry is never truncated to an antenna index: [0.5, 1.7] is no [0, 1]
    with pytest.raises(ConfigError, match="must hold integers"):
        Partition(np.array(assignment))
    assert Partition(np.array([0, 1, 1, 0])).assignment.tolist() == [0, 1, 1, 0]


def test_irses_real_positive_channels_stay_unrotated():
    ch = manual_channels(h_sr=np.ones(2), H_ir=np.ones((2, 4)), h_si=np.ones(4))
    part = irses_partition(n=4, m=2, seed=3)
    sol = irses_max_rp_mrc(ch, P_S, NOISE_30DB, part)
    assert np.allclose(sol.theta1.angles, 0.0, atol=1e-15)
    # every antenna sees its direct path plus two unit cascades: amplitude 3
    amps = aligned_amplitudes(ch, part, sol.theta1)
    assert np.allclose(amps, 3.0, atol=1e-12)
    snr = P_S * np.sum(amps**2) / NOISE_30DB
    assert abs(2.0**sol.rate_r - 1.0 - snr) <= 1e-12 * snr


def test_irses_amplitudes_add_coherently():
    for seed in range(25):
        ch = make_channels(m=3, n=9, seed=seed)
        part = irses_partition(n=9, m=3, seed=seed)
        sol = irses_max_rp_mrc(ch, P_S, NOISE_30DB, part)
        amps = aligned_amplitudes(ch, part, sol.theta1)
        gains = np.abs(ch.H_ir) * np.abs(ch.h_si)[np.newaxis, :]
        expected = np.abs(ch.h_sr).astype(float)
        for antenna in range(3):
            expected[antenna] += gains[antenna, part.elements_of(antenna)].sum()
        assert np.max(np.abs(amps - expected) / expected) <= 1e-12


def test_irses_printed_rate_matches_from_scratch_evaluation():
    for seed in range(25):
        ch = make_channels(m=2, n=4, seed=seed)
        part = irses_partition(n=4, m=2, seed=seed)
        sol = irses_max_rp_mrc(ch, P_S, NOISE_30DB, part, combining="printed")
        amps = aligned_amplitudes(ch, part, sol.theta1)
        expected = np.log2(
            1.0 + P_S * np.sum(amps**4) / np.sum(amps**2 * NOISE_30DB)
        )
        assert abs(sol.rate_r - expected) <= 1e-9 * expected


def test_irses_snr_sum_combining_identity():
    for seed in range(25):
        ch = make_channels(m=2, n=4, seed=seed)
        part = irses_partition(n=4, m=2, seed=seed)
        sol = irses_max_rp_mrc(ch, P_S, NOISE_30DB, part)
        amps = aligned_amplitudes(ch, part, sol.theta1)
        snr = P_S * np.sum(amps**2) / NOISE_30DB
        assert abs(2.0**sol.rate_r - 1.0 - snr) <= 1e-12 * snr


def test_irses_mrc_weights_unit_modulus():
    ch = make_channels(m=2, n=6, seed=4)
    part = irses_partition(n=6, m=2, seed=4)
    sol = irses_max_rp_mrc(ch, P_S, NOISE_30DB, part)
    assert sol.mrc_weights.shape == (2,)
    assert np.allclose(np.abs(sol.mrc_weights), 1.0, atol=1e-12)
    assert sol.partition is part
    assert sol.iterations == 1


def test_irses_per_antenna_noise_vector():
    ch = make_channels(m=2, n=4, seed=6)
    part = irses_partition(n=4, m=2, seed=6)
    noise = np.array([0.02, 0.08])
    sol = irses_max_rp_mrc(ch, P_S, noise, part)
    amps = aligned_amplitudes(ch, part, sol.theta1)
    snr = P_S * np.sum(amps**2 / noise)
    assert abs(2.0**sol.rate_r - 1.0 - snr) <= 1e-12 * snr
    with pytest.raises(ValueError):
        irses_max_rp_mrc(ch, P_S, np.array([0.02, 0.08, 0.05]), part)


def test_irses_full_mode_keeps_cross_group_leakage():
    for seed in range(10):
        ch = make_channels(m=2, n=8, seed=seed)
        part = irses_partition(n=8, m=2, seed=seed)
        sol = irses_max_rp_mrc(ch, P_S, NOISE_30DB, part, interference_mode="full")
        combined = ch.h_sr + ch.H_ir @ (np.exp(1j * sol.theta1.angles) * ch.h_si)
        snr = P_S * np.sum(np.abs(combined) ** 2) / NOISE_30DB
        assert abs(2.0**sol.rate_r - 1.0 - snr) <= 1e-12 * snr


def test_irses_partition_channel_mismatch():
    ch = make_channels(m=2, n=4, seed=0)
    with pytest.raises(ConfigError):
        irses_max_rp_mrc(ch, P_S, NOISE_30DB, irses_partition(n=6, m=2, seed=0))
    with pytest.raises(ConfigError):
        irses_max_rp_mrc(ch, P_S, NOISE_30DB, irses_partition(n=4, m=4, seed=0))
    with pytest.raises(ConfigError):
        irses_max_rp_mrc(ch, P_S, NOISE_30DB, irses_partition(n=4, m=2, seed=0),
                         interference_mode="none")


def test_irses_fixed_phases_override():
    ch = make_channels(m=2, n=4, seed=2)
    part = irses_partition(n=4, m=2, seed=2)
    flat = PhaseShiftVector(np.zeros(4))
    sol = irses_max_rp_mrc(ch, P_S, NOISE_30DB, part, phases=flat)
    assert np.allclose(sol.theta1.angles, 0.0, atol=1e-15)
    aligned = irses_max_rp_mrc(ch, P_S, NOISE_30DB, part)
    assert aligned.rate_r >= sol.rate_r - 1e-12


def test_irses_scale_covariance():
    c = 4.2
    for seed in range(10):
        ch = make_channels(m=2, n=8, seed=seed)
        part = irses_partition(n=8, m=2, seed=seed)
        scaled = ChannelSet(
            h_sr=c * ch.h_sr,
            H_ir=c * ch.H_ir,
            h_si=ch.h_si,
            h_rd=ch.h_rd,
            h_id=ch.h_id,
            H_ri=ch.H_ri,
        )
        base = irses_max_rp_mrc(ch, P_S, NOISE_30DB, part)
        moved = irses_max_rp_mrc(scaled, P_S, NOISE_30DB, part)
        assert np.max(np.abs(base.theta1.phasors - moved.theta1.phasors)) < 1e-9
        assert np.max(np.abs(base.mrc_weights - moved.mrc_weights)) < 1e-9
        ratio = moved.receive_power_watt / base.receive_power_watt
        assert abs(ratio - c**2) < 1e-9 * c**2


@pytest.mark.parametrize("form", ["scalar", "batch"])
def test_irses_rejects_a_noise_vector_not_of_length_m(form):
    # checked once per solve, as a configuration problem naming the length
    # and m, not numpy's broadcast error
    ch = make_channels(m=4, n=4, seed=0)
    part = irses_partition(n=4, m=4, seed=0)
    with pytest.raises(ConfigError, match=r"m=4 values, got 3 \(shape \(3,\)\)"):
        if form == "scalar":
            irses_max_rp_mrc(ch, P_S, np.ones(3), part)
        else:
            links = stack([ch, make_channels(m=4, n=4, seed=1)])
            assignments = np.stack([part.assignment, part.assignment])
            irses_rates(links, P_S, (NOISE_30DB, np.ones(3)), assignments)

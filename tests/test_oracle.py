import numpy as np
import pytest

from irsrelay.beamforming import (
    ais_max_rp,
    brute_force_max_rp,
    wrap_angles,
)
from irsrelay.errors import ConfigError
from irsrelay.metrics import rate_from_power

from conftest import NOISE_30DB, P_S, make_channels, manual_channels


def circular_distance(a, b):
    d = abs(float(a) - float(b)) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def test_oracle_scalar_angle_within_one_grid_step():
    for seed in range(20):
        ch = make_channels(m=1, n=1, seed=seed)
        levels = 16
        oracle = brute_force_max_rp(ch, P_S, NOISE_30DB, grid_levels=levels)
        # the continuous optimum rotates the single cascade onto the direct path
        alignment = wrap_angles(
            np.angle(ch.h_sr[0]) - np.angle(ch.H_ir[0, 0] * ch.h_si[0])
        )
        assert circular_distance(oracle.theta.angles[0], alignment) <= (
            np.pi / levels + 1e-12
        )


def test_oracle_tie_break_keeps_first_grid_point():
    # two levels, real channels: theta=0 strictly beats theta=pi
    ch = manual_channels(h_sr=[2.0], H_ir=[[1.0]], h_si=[1.0])
    oracle = brute_force_max_rp(ch, P_S, NOISE_30DB, grid_levels=2)
    assert oracle.theta.angles[0] == 0.0
    # no direct path: theta=0 and theta=pi tie, lexicographic first wins
    ch = manual_channels(h_sr=[0.0], H_ir=[[1.0]], h_si=[1.0])
    oracle = brute_force_max_rp(ch, P_S, NOISE_30DB, grid_levels=2)
    assert oracle.theta.angles[0] == 0.0


def test_oracle_enumeration_guard():
    ch = make_channels(m=2, n=30, seed=0)
    with pytest.raises(ConfigError):
        brute_force_max_rp(ch, P_S, NOISE_30DB, grid_levels=2)
    with pytest.raises(ConfigError):
        brute_force_max_rp(make_channels(m=2, n=2, seed=0), P_S, NOISE_30DB,
                           grid_levels=1)


def test_oracle_output_self_consistent():
    for seed in range(10):
        ch = make_channels(m=3, n=3, seed=seed)
        oracle = brute_force_max_rp(ch, P_S, NOISE_30DB, grid_levels=8)
        combined = ch.h_sr + ch.H_ir @ (oracle.theta.phasors * ch.h_si)
        # matched receive vector: power is p_s * ||combined||^2
        expected_power = P_S * np.linalg.norm(combined) ** 2
        assert abs(oracle.receive_power_watt - expected_power) <= 1e-9 * expected_power
        assert abs(
            oracle.rate_r - rate_from_power(oracle.receive_power_watt, NOISE_30DB)
        ) <= 1e-12
        assert abs(np.linalg.norm(oracle.u_r.weights) - 1.0) <= 1e-12


def test_oracle_never_beats_alternating_solver():
    for seed in range(100):
        ch = make_channels(m=2, n=2, seed=seed)
        sol = ais_max_rp(ch, P_S, NOISE_30DB, epsilon=1e-10, max_iter=300)
        oracle = brute_force_max_rp(ch, P_S, NOISE_30DB, grid_levels=16)
        assert oracle.rate_r <= sol.rate_r + 1e-9


def test_oracle_improves_with_grid_resolution():
    ch = make_channels(m=2, n=3, seed=11)
    coarse = brute_force_max_rp(ch, P_S, NOISE_30DB, grid_levels=4)
    fine = brute_force_max_rp(ch, P_S, NOISE_30DB, grid_levels=16)
    assert fine.rate_r >= coarse.rate_r - 1e-12


@pytest.mark.parametrize(
    "power, noise",
    [
        (P_S, np.nan),
        (P_S, np.inf),
        (P_S, 0.0),
        (P_S, -1.0),
        (np.nan, NOISE_30DB),
        (np.inf, NOISE_30DB),
        (-1.0, NOISE_30DB),
    ],
)
def test_oracle_rejects_what_the_solvers_reject(power, noise):
    # a NaN noise used to give a NaN rate, a negative one a bare ValueError
    ch = make_channels(m=4, n=4, seed=0)
    with pytest.raises(ConfigError):
        brute_force_max_rp(ch, power, noise, grid_levels=2)

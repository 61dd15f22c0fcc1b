import numpy as np
import pytest

from irsrelay.errors import ConfigError
from irsrelay.metrics import (
    FlopsEstimate,
    RateResult,
    flops_ais,
    flops_irses,
    flops_nsp,
    noise_variance_for_snr,
    rate_from_power,
    receive_power_ais,
    system_rate,
)

from conftest import P_S, make_channels


def test_rate_from_power_values():
    assert rate_from_power(3.0, 1.0) == 2.0
    assert rate_from_power(0.0, 0.5) == 0.0
    assert abs(rate_from_power(1.0, 1.0) - 1.0) < 1e-15


def test_rate_from_power_domain():
    with pytest.raises(ValueError):
        rate_from_power(1.0, 0.0)
    with pytest.raises(ValueError):
        rate_from_power(-1.0, 1.0)


def test_system_rate_half_min():
    assert system_rate(2.0, 4.0) == 1.0
    assert system_rate(4.0, 2.0) == 1.0
    assert system_rate(0.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        system_rate(-0.1, 1.0)


def test_system_rate_symmetric_and_lipschitz():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b, d = rng.uniform(0.0, 10.0, size=3)
        assert system_rate(a, b) == system_rate(b, a)
        # perturbing one hop by d moves the result by at most d/2
        assert abs(system_rate(a + d, b) - system_rate(a, b)) <= d / 2 + 1e-15


def test_noise_variance_for_snr():
    assert abs(noise_variance_for_snr(30.0, 10.0, 10.0) - 0.02) < 1e-15
    assert abs(noise_variance_for_snr(0.0, 10.0, 10.0) - 20.0) < 1e-12
    with pytest.raises(ValueError):
        noise_variance_for_snr(10.0, 0.0, 10.0)


def test_receive_power_matches_manual_evaluation():
    ch = make_channels(m=3, n=4, seed=9)
    rng = np.random.default_rng(9)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=4)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u /= np.linalg.norm(u)
    combined = ch.h_sr + ch.H_ir @ (np.exp(1j * theta) * ch.h_si)
    manual = P_S * abs(np.vdot(u, combined)) ** 2
    assert abs(receive_power_ais(ch, theta, u, P_S) - manual) < 1e-12 * manual


def test_receive_power_shape_checks():
    ch = make_channels(m=3, n=4, seed=9)
    with pytest.raises(ConfigError):
        receive_power_ais(ch, np.zeros(3), np.ones(3) / np.sqrt(3.0), P_S)
    with pytest.raises(ConfigError):
        receive_power_ais(ch, np.zeros(4), np.ones(4) / 2.0, P_S)


@pytest.mark.parametrize("power", [np.nan, np.inf, -1.0])
def test_receive_power_rejects_the_powers_the_solvers_reject(power):
    ch = make_channels(m=3, n=4, seed=9)
    with pytest.raises(ConfigError, match="power must be finite and non-negative"):
        receive_power_ais(ch, np.zeros(4), np.ones(3) / np.sqrt(3.0), power)


# hand-evaluated polynomial values, m=n=l1=l2=1 and (m,n,l3,l4)=(2,2,1,1):
#   ais : 1*(1+8+5+24-2) + 21 + 7 + 7                      = 71
#   nsp : 8+32+32+56+28-4+88+10+12                          = 262
#   irses (m=2,k=2,n=4,l5=1): 60+16+20 + (144+4+12)         = 256
def test_flops_hand_values():
    assert flops_ais(1, 1, 1, 1).flops == 71
    assert flops_nsp(2, 2, 1, 1).flops == 262
    assert flops_irses(2, 2, 4, 1).flops == 256


def test_flops_counts_are_positive_integers():
    est = flops_ais(16, 160, 3, 3)
    assert isinstance(est.flops, int) and est.flops > 0
    assert est.method == "ais" and est.m == 16 and est.n == 160
    assert flops_nsp(16, 160, 3, 3).flops > 0
    assert flops_irses(16, 10, 160, 3).flops > 0


def test_flops_domain_errors():
    for bad in (0, -2):
        with pytest.raises(ValueError):
            flops_ais(bad, 10, 1, 1)
        with pytest.raises(ValueError):
            flops_nsp(2, 10, bad, 1)
        with pytest.raises(ValueError):
            flops_irses(2, bad, 10, 1)


def test_flops_ordering_at_reference_sizes():
    for n in range(100, 1001, 100):
        ais = flops_ais(50, n, 3, 3).flops
        nsp = flops_nsp(50, n, 3, 3).flops
        irses = flops_irses(50, n // 50, n, 3).flops
        assert ais > nsp > irses


def test_flops_dominant_terms():
    # ais ~ l2*n^4, nsp ~ n^3, irses ~ 18*l5*m*n for large n
    m, l = 50, 3
    n = 200_000
    assert abs(flops_ais(m, n, l, l).flops / (l * n**4) - 1.0) < 0.01
    assert abs(flops_nsp(m, n, l, l).flops / n**3 - 1.0) < 0.05
    assert abs(flops_irses(m, n // m, n, l).flops / (18 * l * m * n) - 1.0) < 0.01


def test_rate_result_validation():
    result = RateResult(method="ais", rate_r=2.0, rate_d=1.0, rate_s=0.5)
    assert result.rate_s == 0.5
    with pytest.raises(ValueError):
        RateResult(method="ais", rate_r=-1.0, rate_d=1.0, rate_s=0.5)


def test_flops_estimate_validation():
    with pytest.raises(ValueError):
        FlopsEstimate(method="ais", m=1, n=1, iterations=(1,), flops=0)


@pytest.mark.parametrize(
    "power, noise",
    [
        (1.0, np.nan),
        (1.0, np.inf),
        (1.0, 0.0),
        (1.0, -1.0),
        (np.inf, 1.0),
        (np.nan, 1.0),
        (-np.inf, 1.0),
        (-1.0, 1.0),
    ],
)
def test_rate_from_power_rejects_what_the_solvers_reject(power, noise):
    # finite power >= 0 and finite noise > 0, as every solver checks them
    with pytest.raises(ConfigError):
        rate_from_power(power, noise)

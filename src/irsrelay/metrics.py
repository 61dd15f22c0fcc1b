"""Rate, receive-power, SNR bookkeeping, and operation-count formulas."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .errors import ConfigError


@dataclass(frozen=True)
class RateResult:
    """Per-trial rates in bits/s/Hz for one method.

    ``rate_r`` is the first-hop (relay decode) rate, ``rate_d`` the
    second-hop (destination) rate; ``rate_s`` is the end-to-end rate of the
    half-duplex system, half the bottleneck rate.  ``iterations`` holds the
    alternation count used in each time slot.
    """

    method: str
    rate_r: float
    rate_d: float
    rate_s: float
    iterations: tuple[int, int] = (1, 1)

    def __post_init__(self) -> None:
        if self.rate_r < 0.0 or self.rate_d < 0.0 or self.rate_s < 0.0:
            raise ValueError("rates must be non-negative")


@dataclass(frozen=True)
class FlopsEstimate:
    """Closed-form floating-point operation count for one method."""

    method: str
    m: int
    n: int
    iterations: tuple[int, ...]
    flops: int

    def __post_init__(self) -> None:
        if self.flops <= 0:
            raise ValueError(f"flops count must be positive, got {self.flops}")


def receive_power_ais(
    channels: ChannelSet,
    theta1: np.ndarray,
    u_r: np.ndarray,
    p_s_watt: float,
) -> float:
    """Receive power at the relay after combining, in watts.

    The surface applies per-element phase rotations ``exp(j*theta1)`` to the
    source-to-surface signal; the relay combines direct and reflected paths
    with the unit-norm vector ``u_r``.
    """
    theta1 = np.asarray(theta1, dtype=np.float64)
    u_r = np.asarray(u_r, dtype=np.complex128)
    if theta1.shape != (channels.n,):
        raise ValueError(f"theta1 must have shape ({channels.n},), got {theta1.shape}")
    if u_r.shape != (channels.m,):
        raise ValueError(f"u_r must have shape ({channels.m},), got {u_r.shape}")
    combined = channels.h_sr + channels.H_ir @ (np.exp(1j * theta1) * channels.h_si)
    return float(p_s_watt * np.abs(np.vdot(u_r, combined)) ** 2)


def _check_levels(noise_variances: tuple, p_watt: float) -> None:
    """Reject noise levels or a power that no rate can be made of.

    There must be at least one level, each finite and positive (a scalar,
    or ``irses``' per-antenna vector), and the power finite and
    non-negative.  The solvers check once per solve, never per iterate.
    """
    if not noise_variances:
        raise ConfigError("need at least one noise variance")
    for noise in noise_variances:
        levels = np.asarray(noise, dtype=np.float64)
        if not (np.isfinite(levels).all() and (levels > 0.0).all()):
            raise ConfigError(
                f"noise variance must be finite and positive, got {noise}"
            )
    if not (np.isfinite(p_watt) and p_watt >= 0.0):
        raise ConfigError(f"power must be finite and non-negative, got {p_watt}")


def rate_from_power(power_watt: float, noise_variance_watt: float) -> float:
    """Spectral efficiency log2(1 + power/noise) in bits/s/Hz.

    The power must be finite and non-negative and the noise variance finite
    and positive, as for the solvers; :class:`ConfigError` otherwise.
    """
    _check_levels((noise_variance_watt,), power_watt)
    return float(np.log2(1.0 + power_watt / noise_variance_watt))


def system_rate(rate_r: float, rate_d: float) -> float:
    """End-to-end rate of the two-slot decode-and-forward system.

    The relay must decode before it forwards, and each hop occupies half the
    channel uses, hence half the smaller hop rate.
    """
    if rate_r < 0.0 or rate_d < 0.0:
        raise ValueError("hop rates must be non-negative")
    return 0.5 * min(rate_r, rate_d)


def noise_variance_for_snr(snr_db: float, p_s_watt: float, p_r_watt: float) -> float:
    """Noise variance that realizes a target SNR = (P_s + P_r) / sigma^2."""
    if p_s_watt <= 0.0 or p_r_watt <= 0.0:
        raise ValueError("transmit powers must be positive")
    return (p_s_watt + p_r_watt) / 10.0 ** (snr_db / 10.0)


def _check_counts(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def flops_ais(m: int, n: int, l1: int, l2: int) -> FlopsEstimate:
    """Operation count of the alternating co-design with full-array combining.

    ``l1`` and ``l2`` are the alternation counts in the first and second
    time slots.  Dominant term for large n is l2 * n**4.
    """
    _check_counts(m=m, n=n, l1=l1, l2=l2)
    total = (
        l2 * (n**4 + 8 * m * n**3 + 5 * n**3 + 24 * m * n**2 - 2 * n**2)
        + (3 * l1 + 18 * l2) * m * n
        + (5 * l1 + 2 * l2) * m
        + (4 * l1 + 3 * l2) * n
    )
    return FlopsEstimate("ais", m, n, (l1, l2), int(total))


def flops_nsp(m: int, n: int, l3: int, l4: int) -> FlopsEstimate:
    """Operation count of the null-space-separation method plus MRC.

    ``l3`` and ``l4`` are the alternation counts in the first and second
    time slots.  Dominant term for large n is n**3.
    """
    _check_counts(m=m, n=n, l3=l3, l4=l4)
    total = (
        n**3
        + 2 * (1 + l3) * m**3
        + 2 * (1 + l3) * m**2 * n
        + (4 + 3 * l3) * m * n**2
        + (4 + 3 * l3) * m**2
        - l3 * n**2
        - (1 - 5 * l3 - 18 * l4) * m * n
        - (1 - 4 * l3 - 2 * l4) * m
        + (1 + 2 * l3 + 3 * l4) * n
    )
    return FlopsEstimate("nsp", m, n, (l3, l4), int(total))


def flops_irses(m: int, k: int, n: int, l5: int) -> FlopsEstimate:
    """Operation count of the element-grouping method plus MRC.

    ``k`` is the group size n/m; ``l5`` is the alternation count in the
    second time slot (the first slot is closed-form).  Dominant term is m*n.
    """
    _check_counts(m=m, k=k, n=n, l5=l5)
    total = 15 * m * k + 8 * m + 10 * k + l5 * (18 * m * n + 2 * m + 3 * n)
    return FlopsEstimate("irses", m, n, (l5,), int(total))

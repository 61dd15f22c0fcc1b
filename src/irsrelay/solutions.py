"""The solvers' public API: the solutions of one trial.

Three first-slot strategies are implemented:

* :func:`ais_max_rp` alternates between closed-form phase alignment of every
  reflected path and a matched-filter receive beamformer over the full array.
* :func:`nsp_max_rp_mrc` separates the direct and reflected signals with
  null-space projections, optimizes them independently, and combines the two
  branches with maximum-ratio combining.
* :func:`irses_max_rp_mrc` assigns each surface element to one relay antenna
  (an even random partition), aligns each group to its antenna in closed form,
  and combines antennas with maximum-ratio combining.

The second slot (relay to destination via the surface) is optimized by
:func:`second_slot_optimize`: the alternation of :func:`ais_max_rp`, run on
the relay-to-destination links.  :func:`brute_force_max_rp` is an exhaustive
grid oracle for small instances, used by the test suite.

Each solver runs a loop or closed form of :mod:`~irsrelay.beamforming` on
its trial, a stack of one, with ``traces``, and builds its solution from
that level's (iterate, trace).  A table never imports this module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beamforming import (
    _FIRST_HOP,
    _SECOND_HOP,
    COMBINING_MODES,
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITER,
    IRSES_MODES,
    NSP_MODES,
    TRACE_SLACK,
    TWO_PI,
    PhaseShiftVector,
    _align,
    _alternate,
    _check_unit_norm,
    _hop_channel,
    _irses,
    _irses_assignments,
    _norms,
    _nsp,
    _projectors,
    _rank_one_projectors,
    _unit,
)
from .channel import ChannelSet, check_seed
from .errors import ConfigError, TraceDipError
from .metrics import _check_levels, rate_from_power, receive_power_ais


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm complex antenna weight vector."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.atleast_1d(np.asarray(self.weights, dtype=np.complex128))
        if weights.ndim != 1:
            raise ConfigError("beamformer weights must be one-dimensional")
        _check_unit_norm(_norms(weights[np.newaxis]))
        object.__setattr__(self, "weights", weights)

    @classmethod
    def normalized(cls, weights: np.ndarray) -> "Beamformer":
        """Scale ``weights`` to unit norm; zero vectors are rejected."""
        weights = np.atleast_1d(np.asarray(weights, dtype=np.complex128))
        if weights.ndim != 1:
            raise ConfigError("beamformer weights must be one-dimensional")
        return cls(_unit(weights[np.newaxis])[0])

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Partition:
    """Even assignment of surface elements to relay antennas.

    ``assignment[i]`` is the 0-based antenna index element ``i`` reflects to.
    Every antenna receives exactly ``k = n // m`` elements.
    """

    assignment: np.ndarray

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment)
        if assignment.dtype.kind not in "iu":  # no float is truncated
            raise ConfigError(f"assignment must hold integers, not {assignment.dtype}")
        assignment = assignment.astype(np.intp, copy=False)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ConfigError("partition assignment must be a non-empty vector")
        m = int(assignment.max()) + 1
        if assignment.min() < 0:
            raise ConfigError("partition assignment has negative antenna indices")
        counts = np.bincount(assignment, minlength=m)
        if not np.all(counts == counts[0]):
            raise ConfigError(
                f"partition is uneven: group sizes {counts.tolist()}"
            )
        object.__setattr__(self, "assignment", assignment)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def m(self) -> int:
        return int(self.assignment.max()) + 1

    @property
    def k(self) -> int:
        return self.n // self.m

    def elements_of(self, antenna: int) -> np.ndarray:
        """Indices of the surface elements mapped to ``antenna``."""
        return np.flatnonzero(self.assignment == antenna)


def _validated_trace(trace: tuple[float, ...]) -> tuple[float, ...]:
    # solvers build their traces as Python floats: checking the steps on
    # floats makes the same IEEE subtraction as an array diff would
    values = tuple(float(v) for v in trace)
    if not values:
        raise ConfigError("solution trace must contain at least one entry")
    if not all(math.isfinite(value) for value in values):
        raise ConfigError(f"solution trace must be finite, got {values}")
    if any(b - a < -TRACE_SLACK for a, b in zip(values, values[1:])):
        raise TraceDipError("alternation trace decreased beyond tolerance")
    return values


@dataclass(frozen=True)
class FirstSlotSolution:
    """Result of one first-slot co-design.

    ``trace`` holds the objective value (a rate in bits/s/Hz) after each full
    alternation step; its length is the iteration count.  Which beamformer
    fields are populated depends on the method: the full-array solver sets
    ``u_r``, the null-space method sets ``u_rs`` and ``u_ri``, the
    element-grouping method sets per-antenna ``mrc_weights`` and ``partition``.
    """

    method: str
    theta1: PhaseShiftVector
    receive_power_watt: float
    rate_r: float
    trace: tuple[float, ...]
    u_r: Beamformer | None = None
    u_rs: Beamformer | None = None
    u_ri: Beamformer | None = None
    mrc_weights: np.ndarray | None = None
    partition: Partition | None = None

    def __post_init__(self) -> None:
        if self.method not in ("ais", "nsp", "irses"):
            raise ConfigError(f"unknown first-slot method {self.method!r}")
        power = self.receive_power_watt
        if not 0.0 <= power < math.inf:
            raise ConfigError(f"receive power must be finite and >= 0, got {power}")
        if not 0.0 <= self.rate_r < math.inf:  # a NaN rate fails too
            raise ConfigError(f"rate must be finite and >= 0, got {self.rate_r}")
        object.__setattr__(self, "trace", _validated_trace(self.trace))

    @property
    def iterations(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class SecondSlotSolution:
    """Result of the relay-to-destination co-design."""

    theta2: PhaseShiftVector
    u_t: Beamformer
    rate_d: float
    trace: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate_d < math.inf:  # a NaN rate fails too
            raise ConfigError(f"rate must be finite and >= 0, got {self.rate_d}")
        object.__setattr__(self, "trace", _validated_trace(self.trace))

    @property
    def iterations(self) -> int:
        return len(self.trace)


def _hop(channels: ChannelSet, blocks: operator.attrgetter) -> tuple:
    """One hop's blocks of one trial, viewed as a stack of one."""
    direct, H, h = blocks(channels)
    return direct[None], H[None], h[None]


def theta_update_ais(channels: ChannelSet, u_r: Beamformer) -> PhaseShiftVector:
    """Optimal surface phases for a fixed receive beamformer.

    Rotates every cascaded source-surface-relay path so that it adds in phase
    with the direct path at the beamformer output.
    """
    hop = _hop(channels, _FIRST_HOP)
    return PhaseShiftVector(np.angle(_align(hop, u_r.weights[np.newaxis])[0]))


def ur_update_ais(channels: ChannelSet, theta1: PhaseShiftVector) -> Beamformer:
    """Matched-filter receive beamformer for fixed surface phases."""
    return Beamformer.normalized(_hop_channel(_FIRST_HOP(channels), theta1.phasors))


def ais_max_rp(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variance_watt: float,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FirstSlotSolution:
    """Alternating phase/beamformer co-design over the full receive array.

    Starts from the matched filter to the direct link and alternates
    :func:`theta_update_ais` and :func:`ur_update_ais` until the rate changes
    by at most ``epsilon`` between consecutive iterations (or ``max_iter`` is
    reached).  Each half-step is the exact maximizer given the other block,
    so the rate trace never decreases.
    """
    hop = _hop(channels, _FIRST_HOP)
    noise = (noise_variance_watt,)
    rates, _, stopped = _alternate(hop, p_s_watt, noise, epsilon, max_iter, True)
    (phasors, u, power), trace = stopped[0][0]
    return FirstSlotSolution(
        method="ais",
        theta1=PhaseShiftVector(np.angle(phasors)),
        receive_power_watt=float(power),
        rate_r=float(rates[0, 0]),
        trace=trace,
        u_r=Beamformer(u),
    )


def nsp_projector(A: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the complement of the column space of ``A``.

    Returns P = I - A (A^H A)^+ A^H, which satisfies P = P^H = P^2 and
    P A = 0 for any ``A`` including rank-deficient ones.  When the columns of
    ``A`` span the whole space the result is (numerically) the zero matrix;
    detecting that is the caller's job.  A vector ``a`` spans one direction,
    and P is ``I - â â^H`` with ``â = a / ||a||`` (:func:`_rank_one_projectors`),
    the identity for a zero ``a``; a matrix takes the pseudo-inverse
    (:func:`_projectors`).
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim == 1:
        return _rank_one_projectors(A[np.newaxis])[0]
    if A.ndim != 2:
        raise ConfigError("projector input must be a vector or matrix")
    return _projectors(A[np.newaxis])[0]


def nsp_max_rp_mrc(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variance_watt: float,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = NSP_MODES[0],
    combining: str = COMBINING_MODES[0],
    phases: PhaseShiftVector | None = None,
) -> FirstSlotSolution:
    """Null-space separation of direct and reflected signals, plus MRC.

    The reflected branch is maximized by alternating its receive vector
    (the normalized projection of the cascaded signal onto the null space of
    the direct channel) with phase alignment of the surface.  It starts from
    whichever gives the larger reflected branch: flat phases, or the phases
    of the principal right singular vector of P H_ir diag(h_si), with P the
    projector off the direct channel (the maximizer once the unit-modulus
    constraint is relaxed).  The direct branch uses a beamformer orthogonal
    to the reflected signal: ``mode`` "literal" projects off the whole
    surface-to-relay matrix (only possible with more antennas than
    elements), "effective" (default) projects off the one cascade direction
    that actually carries the converged reflected signal.

    ``combining`` picks how the two separated branches merge into one rate:
    "snr-sum" (default) adds the branch SNRs, the standard MRC result;
    "printed" evaluates the quartic-over-quadratic composite form for
    cross-checks against the closed-form expression it reproduces.

    ``phases`` skips the alternation and evaluates the given fixed surface
    phases (used for the fixed-phase ablation).

    ``trace`` records the reflected-branch rate the alternation maximizes;
    the returned ``rate_r`` is the MRC-combined rate of both branches.
    """
    hop = _hop(channels, _FIRST_HOP)
    options = (epsilon, max_iter, mode, combining, phases, True)
    rates, _, stopped = _nsp(hop, p_s_watt, (noise_variance_watt,), *options)
    (u_rs, u_ri, power, phasors), trace = stopped[0][0]
    return FirstSlotSolution(
        method="nsp",
        theta1=PhaseShiftVector(np.angle(phasors)) if phases is None else phases,
        receive_power_watt=power,
        rate_r=float(rates[0, 0]),
        trace=trace,
        u_rs=Beamformer(u_rs),
        u_ri=Beamformer(u_ri),
    )


def irses_partition(n: int, m: int, seed: int) -> Partition:
    """Uniformly random even assignment of ``n`` elements to ``m`` antennas.

    The permutation is ``Generator(Philox(key=(seed, PARTITION_STREAM)))``'s
    ``permutation(n)``: at a trial's seed, the partition its ``irses``
    methods use (:data:`~irsrelay.channel.PARTITION_STREAM`).

    Raises:
        ConfigError: if ``n``, ``m`` or ``seed`` is not an integer, ``m``
            does not divide ``n``, or ``seed`` lies outside ``[0, 2**64)``.
    """
    check_seed(seed)
    return Partition(_irses_assignments(n, m, [seed])[0])


def irses_max_rp_mrc(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variance_watt: float | np.ndarray,
    partition: Partition,
    interference_mode: str = IRSES_MODES[0],
    combining: str = COMBINING_MODES[0],
    phases: PhaseShiftVector | None = None,
) -> FirstSlotSolution:
    """Closed-form per-antenna phase alignment over an element partition.

    Each element rotates its reflection so the cascaded path arrives in phase
    with the direct path at its assigned antenna; antennas are then combined
    with per-antenna MRC weights.  ``interference_mode`` "idealized" (default)
    drops the signal each antenna receives from the other antennas' element
    groups (treated as averaging out over many elements); "full" keeps that
    leakage in the per-antenna amplitude.  ``combining`` is as in
    :func:`nsp_max_rp_mrc`.  ``noise_variance_watt`` may be a scalar or a
    per-antenna vector.  ``phases`` overrides the alignment with fixed surface
    phases (used for the fixed-phase ablation).

    This method is closed-form, so the trace always has length 1.
    """
    hop = _hop(channels, _FIRST_HOP)
    m, n = channels.m, channels.n
    if partition.n != n or partition.m != m:
        raise ConfigError(
            f"partition for (m={partition.m}, n={partition.n}) does not "
            f"match channels (m={m}, n={n})"
        )
    options = (partition.assignment[np.newaxis], interference_mode, combining, phases)
    rates, _, stopped = _irses(hop, p_s_watt, (noise_variance_watt,), *options, True)
    (phasors, weights, power), trace = stopped[0][0]
    return FirstSlotSolution(
        method="irses",
        theta1=PhaseShiftVector(np.angle(phasors)) if phases is None else phases,
        receive_power_watt=power,
        rate_r=float(rates[0, 0]),
        trace=trace,
        mrc_weights=weights,
        partition=partition,
    )


def second_slot_optimize(
    channels: ChannelSet,
    p_r_watt: float,
    noise_variance_watt: float,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SecondSlotSolution:
    """Transmit-side co-design for the relay-to-destination hop.

    This is the alternation of :func:`ais_max_rp` on the relay-to-destination
    links.  The surface applies exp(-j*theta2), so ``theta2`` holds the
    negated alignment phases.
    """
    hop = _hop(channels, _SECOND_HOP)
    noise = (noise_variance_watt,)
    rates, _, stopped = _alternate(hop, p_r_watt, noise, epsilon, max_iter, True)
    (phasors, u, _), trace = stopped[0][0]
    return SecondSlotSolution(
        theta2=PhaseShiftVector(np.angle(np.conj(phasors))),
        u_t=Beamformer(u),
        rate_d=float(rates[0, 0]),
        trace=trace,
    )


class OracleResult(NamedTuple):
    theta: PhaseShiftVector
    u_r: Beamformer
    receive_power_watt: float
    rate_r: float


#: enumeration guard for the exhaustive oracle
ORACLE_MAX_COMBINATIONS = 10**7

_ORACLE_CHUNK = 16384


def brute_force_max_rp(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variance_watt: float,
    grid_levels: int,
) -> OracleResult:
    """Exhaustive first-slot maximization over a uniform phase grid.

    Every element phase is restricted to {2*pi*k/grid_levels}; for each of
    the grid_levels**n combinations the receive beamformer is the matched
    filter, so the receive power is p_s times the squared norm of the
    combined channel.  Ties keep the first maximizer in lexicographic order
    of the grid indices.  Intended as a small-instance test oracle; the
    enumeration is capped at 10^7 combinations.  The power and the noise
    variance are checked as the solvers check them, once per call.
    """
    if grid_levels < 2:
        raise ConfigError(f"grid_levels must be >= 2, got {grid_levels}")
    _check_levels((noise_variance_watt,), p_s_watt)
    n = channels.n
    total = grid_levels**n
    if total > ORACLE_MAX_COMBINATIONS:
        raise ConfigError(
            f"{grid_levels}^{n} grid points exceed the enumeration cap"
        )
    level_phasors = np.exp(2j * np.pi * np.arange(grid_levels) / grid_levels)
    shape = (grid_levels,) * n
    best_power = -1.0
    best_index: tuple[int, ...] | None = None
    for start in range(0, total, _ORACLE_CHUNK):
        flat = np.arange(start, min(start + _ORACLE_CHUNK, total))
        grid_idx = np.stack(np.unravel_index(flat, shape), axis=1)
        phasors = level_phasors[grid_idx]
        combined = (phasors * channels.h_si) @ channels.H_ir.T + channels.h_sr
        powers = p_s_watt * np.sum(np.abs(combined) ** 2, axis=1)
        local = int(np.argmax(powers))
        if powers[local] > best_power:
            best_power = float(powers[local])
            best_index = tuple(int(k) for k in grid_idx[local])
    theta = PhaseShiftVector(TWO_PI * np.asarray(best_index) / grid_levels)
    u_r = ur_update_ais(channels, theta)
    power = receive_power_ais(channels, theta.angles, u_r.weights, p_s_watt)
    return OracleResult(
        theta=theta,
        u_r=u_r,
        receive_power_watt=power,
        rate_r=rate_from_power(power, noise_variance_watt),
    )


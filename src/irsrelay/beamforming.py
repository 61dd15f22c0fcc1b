"""Phase-shift and beamformer co-design for both hops of the relay network.

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

No iterate of an alternation reads the noise variance: it enters only the
rate trace and the stop.  So each iterative solver also has a ``_per_noise``
form that runs one alternation for several noise variances and stops each at
its own iterate; the scalar solver is its one-level case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSet
from .errors import (
    ConfigError,
    DegenerateChannelError,
    DegenerateElementWarning,
    ProjectorDegenerateError,
    TraceDipError,
)
from .metrics import rate_from_power, receive_power_ais

TWO_PI = 2.0 * np.pi

#: magnitudes below this are treated as exactly zero when normalizing
ZERO_NORM = 1e-30

#: relative singular-value cutoff for pseudo-inverses
PINV_RCOND = 1e-12

#: slack allowed when validating that an alternation trace never decreases
TRACE_SLACK = 1e-12

#: rate tolerance (bits/s/Hz) that stops an alternation, and its iteration cap
DEFAULT_EPSILON = 1e-4
DEFAULT_MAX_ITER = 50

#: accepted values of each mode switch; the first one is the default
COMBINING_MODES = ("snr-sum", "printed")
NSP_MODES = ("effective", "literal")
IRSES_MODES = ("idealized", "full")


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Map angles in radians onto [0, 2*pi)."""
    wrapped = np.mod(np.asarray(angles, dtype=np.float64), TWO_PI)
    # mod can return 2*pi for tiny negative inputs; fold that endpoint back
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)


def _checked_angles(angles: np.ndarray) -> np.ndarray:
    """Finite ``angles`` wrapped onto [0, 2*pi), as a phase vector stores them.

    The solvers iterate on these raw arrays and build one
    :class:`PhaseShiftVector` at the end; every iterate is checked here.
    """
    if not np.isfinite(angles).all():
        raise ConfigError("phase vector contains non-finite angles")
    return wrap_angles(angles)


def _check_unit_norm(weights: np.ndarray) -> None:
    norm = float(np.linalg.norm(weights))
    if abs(norm - 1.0) > 1e-12:
        raise ConfigError(f"beamformer norm must be 1, got {norm!r}")


def _unit(weights: np.ndarray) -> np.ndarray:
    """``weights`` scaled to unit norm, as a beamformer stores them.

    Zero vectors are rejected, and the result passes the unit-norm check of
    :class:`Beamformer` (the solvers call this on every iterate).
    """
    norm = float(np.linalg.norm(weights))
    if norm < ZERO_NORM:
        raise DegenerateChannelError("cannot normalize a zero beamformer")
    unit = weights / norm
    _check_unit_norm(unit)
    return unit


@dataclass(frozen=True)
class PhaseShiftVector:
    """Per-element reflection phases, stored normalized to [0, 2*pi)."""

    angles: np.ndarray

    def __post_init__(self) -> None:
        angles = np.atleast_1d(np.asarray(self.angles, dtype=np.float64))
        if angles.ndim != 1:
            raise ConfigError("phase vector must be one-dimensional")
        object.__setattr__(self, "angles", _checked_angles(angles))

    def __len__(self) -> int:
        return self.angles.shape[0]

    @property
    def phasors(self) -> np.ndarray:
        """Unit-modulus reflection coefficients exp(j*angle)."""
        return np.exp(1j * self.angles)


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm complex antenna weight vector."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.atleast_1d(np.asarray(self.weights, dtype=np.complex128))
        if weights.ndim != 1:
            raise ConfigError("beamformer weights must be one-dimensional")
        _check_unit_norm(weights)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def normalized(cls, weights: np.ndarray) -> "Beamformer":
        """Scale ``weights`` to unit norm; zero vectors are rejected."""
        return cls(_unit(np.atleast_1d(np.asarray(weights, dtype=np.complex128))))

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
        assignment = np.asarray(self.assignment, dtype=np.intp)
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
    values = np.asarray(trace, dtype=np.float64)
    if values.size == 0:
        raise ConfigError("solution trace must contain at least one entry")
    if np.any(np.diff(values) < -TRACE_SLACK):
        raise TraceDipError("alternation trace decreased beyond tolerance")
    return tuple(float(v) for v in values)


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
        if self.rate_r < 0.0:
            raise ConfigError("rate must be non-negative")
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
        if self.rate_d < 0.0:
            raise ConfigError("rate must be non-negative")
        object.__setattr__(self, "trace", _validated_trace(self.trace))

    @property
    def iterations(self) -> int:
        return len(self.trace)


def _check_iteration_controls(epsilon: float, max_iter: int) -> None:
    if not epsilon > 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")


def _path_row(H: np.ndarray, h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-element response (u^H H)_i * h_i of a hop's reflected paths."""
    return (np.conj(u) @ H) * h


def _aligned_angles(reference: complex, row: np.ndarray) -> np.ndarray:
    """Checked phases rotating each entry of ``row`` onto ``reference``'s phase.

    Entries with zero magnitude carry no signal; their phase is set to 0 and
    reported through :class:`DegenerateElementWarning`.
    """
    zero = np.abs(row) < ZERO_NORM
    angles = np.angle(reference) - np.angle(row)
    if zero.any():
        angles[zero] = 0.0
        warnings.warn(
            f"{int(zero.sum())} zero-magnitude cascaded path(s); phase set to 0",
            DegenerateElementWarning,
            stacklevel=3,
        )
    return _checked_angles(angles)


def _align(hop: tuple, u: np.ndarray) -> np.ndarray:
    """Phases aligning each reflected path with the direct path at ``u``.

    ``hop`` is one hop's (direct link, surface matrix H, element link h).
    """
    direct, H, h = hop
    return _aligned_angles(complex(np.vdot(u, direct)), _path_row(H, h, u))


def _hop_channel(hop: tuple, angles: np.ndarray) -> np.ndarray:
    """A hop's effective channel direct + H diag(exp(j*angles)) h."""
    direct, H, h = hop
    return direct + H @ (np.exp(1j * angles) * h)


def _check_noise_levels(noise_variances: tuple[float, ...]) -> None:
    if not noise_variances:
        raise ConfigError("need at least one noise variance")


def _extend_traces(
    traces: list[list[float]],
    stops: list,
    noise_variances: tuple[float, ...],
    power: float,
    epsilon: float,
    iterate: tuple,
) -> bool:
    """Append ``power``'s rate to the trace of every noise level still running.

    A level stops once its last two rates differ by at most ``epsilon``; its
    entry of ``stops`` then holds ``iterate``.  True when every level has
    stopped.
    """
    done = True
    for k, trace in enumerate(traces):
        if stops[k] is None:
            trace.append(rate_from_power(power, noise_variances[k]))
            if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= epsilon:
                stops[k] = iterate
            else:
                done = False
    return done


def _alternate(
    hop: tuple,
    p_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float,
    max_iter: int,
) -> list[tuple[np.ndarray, np.ndarray, float, list[float]]]:
    """:func:`ais_max_rp`'s loop on one hop, for several noise levels at once.

    No iterate reads the noise, which enters only each level's rate trace
    and its stop.  Returns (angles, weights, power, trace) per noise level,
    each at the iterate where that level stopped.
    """
    _check_iteration_controls(epsilon, max_iter)
    _check_noise_levels(noise_variances)
    traces: list[list[float]] = [[] for _ in noise_variances]
    stops: list = [None] * len(noise_variances)
    u = _unit(hop[0])  # the matched filter to the direct link
    for _ in range(max_iter):
        angles = _align(hop, u)
        combined = _hop_channel(hop, angles)
        u = _unit(combined)
        power = float(p_watt * np.abs(np.vdot(u, combined)) ** 2)
        if _extend_traces(
            traces, stops, noise_variances, power, epsilon, (angles, u, power)
        ):
            break
    last = (angles, u, power)  # where the levels still running hit max_iter
    return [(*(stop or last), trace) for stop, trace in zip(stops, traces)]


def theta_update_ais(channels: ChannelSet, u_r: Beamformer) -> PhaseShiftVector:
    """Optimal surface phases for a fixed receive beamformer.

    Rotates every cascaded source-surface-relay path so that it adds in phase
    with the direct path at the beamformer output.
    """
    hop = (channels.h_sr, channels.H_ir, channels.h_si)
    return PhaseShiftVector(_align(hop, u_r.weights))


def ur_update_ais(channels: ChannelSet, theta1: PhaseShiftVector) -> Beamformer:
    """Matched-filter receive beamformer for fixed surface phases."""
    hop = (channels.h_sr, channels.H_ir, channels.h_si)
    return Beamformer.normalized(_hop_channel(hop, theta1.angles))


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
    return ais_max_rp_per_noise(
        channels, p_s_watt, (noise_variance_watt,), epsilon, max_iter
    )[0]


def ais_max_rp_per_noise(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[FirstSlotSolution, ...]:
    """:func:`ais_max_rp` at each noise variance, from one alternation.

    The iterates do not depend on the noise, so they are computed once; each
    level's solution equals the one :func:`ais_max_rp` returns at it, bit
    for bit.
    """
    hop = (channels.h_sr, channels.H_ir, channels.h_si)
    return tuple(
        FirstSlotSolution(
            method="ais",
            theta1=PhaseShiftVector(angles),
            receive_power_watt=power,
            rate_r=trace[-1],
            trace=tuple(trace),
            u_r=Beamformer(u),
        )
        for angles, u, power, trace in _alternate(
            hop, p_s_watt, tuple(noise_variances), epsilon, max_iter
        )
    )


def nsp_projector(A: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the complement of the column space of ``A``.

    Returns P = I - A (A^H A)^+ A^H, which satisfies P = P^H = P^2 and
    P A = 0 for any ``A`` including rank-deficient ones.  When the columns of
    ``A`` span the whole space the result is (numerically) the zero matrix;
    detecting that is the caller's job.
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim == 1:
        A = A[:, np.newaxis]
    if A.ndim != 2:
        raise ConfigError("projector input must be a vector or matrix")
    m = A.shape[0]
    gram_inv = np.linalg.pinv(np.conj(A.T) @ A, rcond=PINV_RCOND)
    return np.eye(m, dtype=np.complex128) - A @ gram_inv @ np.conj(A.T)


def _nsp_start_phases(
    channels: ChannelSet, direct_null: np.ndarray
) -> PhaseShiftVector:
    """Start phases of the null-space alternation.

    The reflected branch at phasors v is ||B v|| with B = P H_ir diag(h_si).
    B's principal right singular vector maximizes it without the
    unit-modulus constraint; its phases, rotated so that its largest entry
    is real positive (a deterministic global phase), are one candidate and
    flat phases the other.  The larger branch wins, flat phases on a tie,
    so the start is never below the flat-phase branch.
    """
    relaxed = direct_null @ (channels.H_ir * channels.h_si)
    # B^H times the principal eigenvector of the m x m Gram matrix B B^H is
    # the principal right singular vector up to scale, without an n x n SVD
    gram = relaxed @ np.conj(relaxed.T)
    v = np.conj(relaxed.T) @ np.linalg.eigh(gram)[1][:, -1]
    angles = np.angle(v) - np.angle(v[np.argmax(np.abs(v))])
    singular = np.linalg.norm(relaxed @ np.exp(1j * angles))
    flat = np.linalg.norm(relaxed.sum(axis=1))
    return PhaseShiftVector(angles if singular > flat else np.zeros(channels.n))


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
    return nsp_max_rp_mrc_per_noise(
        channels,
        p_s_watt,
        (noise_variance_watt,),
        epsilon,
        max_iter,
        mode=mode,
        combining=combining,
        phases=phases,
    )[0]


def nsp_max_rp_mrc_per_noise(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = NSP_MODES[0],
    combining: str = COMBINING_MODES[0],
    phases: PhaseShiftVector | None = None,
) -> tuple[FirstSlotSolution, ...]:
    """:func:`nsp_max_rp_mrc` at each noise variance, from one alternation.

    The start phases, the projector off the direct channel and the
    iterates are computed once, and each level stops at its own iterate.
    Each level's solution equals the one :func:`nsp_max_rp_mrc` returns at
    it, bit for bit.
    """
    noise_variances = tuple(noise_variances)
    _check_iteration_controls(epsilon, max_iter)
    _check_noise_levels(noise_variances)
    if channels.m < 2:
        raise ConfigError("null-space separation needs at least 2 relay antennas")
    if mode not in NSP_MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if combining not in COMBINING_MODES:
        raise ConfigError(f"unknown combining {combining!r}")
    if mode == "literal" and channels.n >= channels.m:
        raise ProjectorDegenerateError(
            "literal mode projects off the full surface-to-relay matrix, "
            f"which spans the receive space for n={channels.n} >= m={channels.m}"
        )
    if phases is not None and len(phases) != channels.n:
        raise ConfigError("fixed phase vector length must equal n")

    direct_null = nsp_projector(channels.h_sr)
    H, h = channels.H_ir, channels.h_si

    theta = _nsp_start_phases(channels, direct_null) if phases is None else phases
    # the reflected branch alone: no direct term in the cascade
    cascade = H @ (theta.phasors * h)
    if phases is None:
        traces: list[list[float]] = [[] for _ in noise_variances]
        stops: list = [None] * len(noise_variances)
        for _ in range(max_iter):
            # projector applied twice as defined; idempotence makes it one
            u_ri = _unit(direct_null @ (direct_null @ cascade))
            # aligned to phase 0, as the direct path is projected off
            angles = _aligned_angles(1.0, _path_row(H, h, u_ri))
            # the next iteration starts from this cascade
            cascade = H @ (np.exp(1j * angles) * h)
            branch = abs(np.vdot(u_ri, cascade))
            if _extend_traces(
                traces,
                stops,
                noise_variances,
                p_s_watt * branch**2,
                epsilon,
                (angles, u_ri, cascade),
            ):
                break
        last = (angles, u_ri, cascade)  # where the levels still running hit max_iter
        iterates = [stop or last for stop in stops]
    else:
        u_ri = _unit(direct_null @ (direct_null @ cascade))
        power = p_s_watt * abs(np.vdot(u_ri, cascade)) ** 2
        traces = [[rate_from_power(power, noise)] for noise in noise_variances]
        iterates = [(phases.angles, u_ri, cascade)] * len(noise_variances)

    return tuple(
        _nsp_solution(channels, p_s_watt, iterate, trace, noise, mode, combining)
        for iterate, trace, noise in zip(iterates, traces, noise_variances)
    )


def _nsp_solution(
    channels: ChannelSet,
    p_s_watt: float,
    iterate: tuple,
    trace: list[float],
    noise_variance_watt: float,
    mode: str,
    combining: str,
) -> FirstSlotSolution:
    """:func:`nsp_max_rp_mrc`'s solution at one reflected-branch iterate.

    ``iterate`` holds the reflected branch's (angles, receive vector,
    cascade); the direct branch's beamformer is built here, off the
    reflected signal, and both branches are combined.
    """
    angles, u_ri, cascade = iterate
    if mode == "literal":
        surface_null = nsp_projector(channels.H_ir)
        direct_raw = surface_null @ (surface_null @ channels.h_sr)
    else:
        cascade_null = nsp_projector(cascade)
        direct_raw = cascade_null @ channels.h_sr
    if float(np.linalg.norm(direct_raw)) < 1e-12 * float(
        np.linalg.norm(channels.h_sr)
    ):
        raise ProjectorDegenerateError(
            "direct channel lies inside the projected-off subspace"
        )
    u_rs = Beamformer.normalized(direct_raw)

    branch_s = complex(np.vdot(u_rs.weights, channels.h_sr))
    branch_i = complex(np.vdot(u_ri, cascade))
    amp_s = abs(branch_s)
    amp_i = abs(branch_i)
    if combining == "snr-sum":
        power_eff = p_s_watt * (amp_s**2 + amp_i**2)
    else:
        merged = abs(branch_s + branch_i) ** 2
        if merged < ZERO_NORM:
            raise DegenerateChannelError("both separated branches vanished")
        power_eff = p_s_watt * (amp_s**4 + amp_i**4) / merged
    return FirstSlotSolution(
        method="nsp",
        theta1=PhaseShiftVector(angles),
        receive_power_watt=power_eff,
        rate_r=rate_from_power(power_eff, noise_variance_watt),
        trace=tuple(trace),
        u_rs=u_rs,
        u_ri=Beamformer(u_ri),
    )


def irses_partition(n: int, m: int, seed: int) -> Partition:
    """Uniformly random even assignment of ``n`` elements to ``m`` antennas."""
    if m < 1 or n < 1:
        raise ConfigError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if n % m != 0:
        raise ConfigError(f"antenna count {m} must divide element count {n}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    assignment = np.empty(n, dtype=np.intp)
    assignment[rng.permutation(n)] = np.repeat(np.arange(m, dtype=np.intp), n // m)
    return Partition(assignment)


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
    if interference_mode not in IRSES_MODES:
        raise ConfigError(f"unknown interference_mode {interference_mode!r}")
    if combining not in COMBINING_MODES:
        raise ConfigError(f"unknown combining {combining!r}")
    m, n = channels.m, channels.n
    if partition.n != n or partition.m != m:
        raise ConfigError(
            f"partition for (m={partition.m}, n={partition.n}) does not match "
            f"channels (m={m}, n={n})"
        )
    sigma2 = np.broadcast_to(
        np.asarray(noise_variance_watt, dtype=np.float64), (m,)
    ).copy()
    if np.any(sigma2 <= 0.0):
        raise ConfigError("noise variance must be positive")

    antenna = partition.assignment
    element = np.arange(n)
    if phases is None:
        angles = (
            np.angle(channels.h_sr)[antenna]
            - np.angle(channels.H_ir[antenna, element])
            - np.angle(channels.h_si)
        )
        theta = PhaseShiftVector(angles)
    else:
        if len(phases) != n:
            raise ConfigError("fixed phase vector length must equal n")
        theta = phases

    contrib = channels.H_ir[antenna, element] * theta.phasors * channels.h_si
    own = channels.h_sr.copy()
    np.add.at(own, antenna, contrib)
    if interference_mode == "idealized":
        amplitudes = np.abs(own)
    else:
        hop = (channels.h_sr, channels.H_ir, channels.h_si)
        amplitudes = np.abs(_hop_channel(hop, theta.angles))

    weights = np.ones(m, dtype=np.complex128)
    usable = np.abs(own) >= ZERO_NORM
    weights[usable] = np.conj(own[usable]) / np.abs(own[usable])
    if not np.all(usable):
        warnings.warn(
            f"{int((~usable).sum())} antenna(s) with zero combined signal; "
            "MRC weight set to 1",
            DegenerateElementWarning,
            stacklevel=2,
        )

    if combining == "snr-sum":
        snr = p_s_watt * float(np.sum(amplitudes**2 / sigma2))
        power_eff = p_s_watt * float(np.sum(amplitudes**2))
    else:
        denom = float(np.sum(amplitudes**2 * sigma2))
        if denom < ZERO_NORM:
            raise DegenerateChannelError("all antennas received zero signal")
        snr = p_s_watt * float(np.sum(amplitudes**4)) / denom
        power_eff = p_s_watt * float(np.sum(amplitudes**4)) / float(
            np.sum(amplitudes**2)
        )
    rate_r = float(np.log2(1.0 + snr))
    return FirstSlotSolution(
        method="irses",
        theta1=theta,
        receive_power_watt=power_eff,
        rate_r=rate_r,
        trace=(rate_r,),
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
    return second_slot_optimize_per_noise(
        channels, p_r_watt, (noise_variance_watt,), epsilon, max_iter
    )[0]


def second_slot_optimize_per_noise(
    channels: ChannelSet,
    p_r_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[SecondSlotSolution, ...]:
    """:func:`second_slot_optimize` at each noise variance, from one alternation.

    As in :func:`ais_max_rp_per_noise`, each level's solution equals the
    scalar one bit for bit.
    """
    hop = (channels.h_rd, channels.H_ri, channels.h_id)
    return tuple(
        SecondSlotSolution(
            theta2=PhaseShiftVector(-angles),
            u_t=Beamformer(u),
            rate_d=trace[-1],
            trace=tuple(trace),
        )
        for angles, u, _, trace in _alternate(
            hop, p_r_watt, tuple(noise_variances), epsilon, max_iter
        )
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
    enumeration is capped at 10^7 combinations.
    """
    if grid_levels < 2:
        raise ConfigError(f"grid_levels must be >= 2, got {grid_levels}")
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

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
rate trace and the stop.  Every solver runs on a stack of trials (a
:class:`~irsrelay.channel.ChannelSet` with a leading trial axis) for several
noise variances at once.  There is one loop per solver family: each (trial,
noise level) stops at its own iterate, and a trial leaves the stack once
all its levels have stopped.  The closed-form steps are stacked calls too:
NSP's projectors off the direct links, its relaxed start phases and its
direct branch at every stopped iterate, and all of
:func:`irses_max_rp_mrc`, whose noise-free part is computed once for every
level.  The ``_batch`` solvers expose this; the ``_per_noise`` forms are
their one-trial view and the scalar solvers their one-trial, one-level
view.  Every stacked operation runs the same floating-point operations per
trial as the one-trial case (the same BLAS or LAPACK call per slice, the
same elementwise loops), so a trial's solution does not depend on what it
is stacked with.

Each loop also has a private rates form, which the trial engine calls:
``_alternate`` (``ais`` on the first hop, the second slot on the second),
``_nsp`` and ``_irses`` on one hop's blocks of a stack of trials.  It runs
the same loop and the same checks on every iterate (finite angles in
:func:`_aligned_angles`, unit norms in :func:`_unit`, no dip of a rate
trace in ``_Stops``), but returns only a (rate, iterations) pair per
(trial, level): it builds no :class:`PhaseShiftVector`, :class:`Beamformer`
or solution object, and a stop copies no iterate, bar NSP's receive vector
and cascade, which its direct branch needs.  Each pair equals the rate and
iteration count of the solution the ``_batch`` form returns, bit for bit.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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

#: NSP's relaxed start phases make (T, m, n) temporaries of a stack of T
#: trials; they are built for as many trials at a time as keep one of them
#: within this many bytes (2 trials at (16, 160), a whole chunk of 32 at
#: (4, 16)).  Whole chunks of 4 trials at (16, 160) left a table's peak
#: memory about 0.35 MB higher.
START_PHASE_BYTES = 120_000

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
    """Finite ``angles`` wrapped onto [0, 2*pi), as a phase vector stores them."""
    if not np.isfinite(angles).all():
        raise ConfigError("phase vector contains non-finite angles")
    return wrap_angles(angles)


def _norms(stack: np.ndarray) -> list[float]:
    """Euclidean norm of each row of a stack of weight vectors.

    This is :func:`numpy.linalg.norm` of each row: it sums the squares of
    the strided real and imaginary parts with one BLAS dot each, and
    ``vecdot`` on the same strided views runs the same dot per row, so the
    bits agree (a contiguous copy of the parts would take another dot
    kernel and change them).  One row takes ``linalg.norm`` itself, which
    costs less.
    """
    if len(stack) == 1:
        return [float(np.linalg.norm(stack))]
    re, im = stack.real, stack.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)).tolist()


def _check_unit_norm(norms: list[float]) -> None:
    # the solvers check every iterate: a stack's few norms are checked as
    # floats, which costs less than array comparisons
    for norm in norms:
        if abs(norm - 1.0) > 1e-12:
            raise ConfigError(f"beamformer norm must be 1, got {norm!r}")


def _unit(weights: np.ndarray) -> np.ndarray:
    """Each row of a stack of weight vectors scaled to unit norm.

    Zero vectors are rejected, and every result passes the unit-norm check
    of :class:`Beamformer` (the solvers call this on every iterate).
    """
    norms = _norms(weights)
    if any(norm < ZERO_NORM for norm in norms):
        raise DegenerateChannelError("cannot normalize a zero beamformer")
    # a float divides one row faster than an array, with the same bits
    unit = weights / (norms[0] if len(norms) == 1 else np.array(norms)[:, np.newaxis])
    _check_unit_norm(_norms(unit))
    return unit


def _powers(p_watt: float, weights: np.ndarray, channels: np.ndarray) -> list[float]:
    """Received power ``p_watt |w^H c|^2`` of each row, as floats.

    The square is a float's ``** 2``, the C library's ``pow``, as in the
    scalar rule; numpy squares an array otherwise, which can differ in the
    last bit.
    """
    return [p_watt * amp**2 for amp in np.abs(np.vecdot(weights, channels)).tolist()]


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
    # solvers build their traces as Python floats: checking the steps on
    # floats makes the same IEEE subtraction as an array diff would
    values = tuple(float(v) for v in trace)
    if not values:
        raise ConfigError("solution trace must contain at least one entry")
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
    """Per-element response (u^H H)_i * h_i of a hop's reflected paths.

    ``H^T conj(u)`` on the transposed view runs the BLAS gemv of the
    one-trial ``conj(u) @ H`` on each trial (``np.vecmat`` does not).
    """
    row = np.matvec(H.mT, np.conj(u))
    row *= h
    return row


def _phase(z: np.ndarray) -> np.ndarray:
    """``np.angle(z)`` of a complex array, without its argument handling."""
    return np.arctan2(z.imag, z.real)


def _aligned_angles(reference: np.ndarray | float, rows: np.ndarray) -> np.ndarray:
    """Checked phases rotating each entry of ``rows`` onto the phase ``reference``.

    ``reference`` holds one phase in [-pi, pi] per row (trailing axis of
    length 1) or one for all.  The result is what :func:`_checked_angles`
    makes of the differences; the solvers iterate on such raw arrays and
    build one :class:`PhaseShiftVector` at the end, so every iterate is
    checked here.  Entries with zero magnitude carry no signal; their phase
    is set to 0 and reported through :class:`DegenerateElementWarning`,
    once per row.
    """
    zero = np.abs(rows) < ZERO_NORM
    angles = _phase(rows)
    np.subtract(reference, angles, out=angles)
    if np.count_nonzero(zero):
        angles[zero] = 0.0
        counts = zero.sum(axis=-1, keepdims=True)
        for count in counts[counts > 0]:
            warnings.warn(
                f"{int(count)} zero-magnitude cascaded path(s); phase set to 0",
                DegenerateElementWarning,
                stacklevel=3,
            )
    if np.count_nonzero(np.isfinite(angles)) != angles.size:
        raise ConfigError("phase vector contains non-finite angles")
    # two phases in [-pi, pi] differ by at most 2*pi, where the fmod inside
    # np.mod is exact: wrap_angles reduces to adding 2*pi below zero (and
    # 0 elsewhere, which turns -0 into +0), bit for bit; in place, so that
    # an iterate of a loop holds fewer (trials, n) temporaries
    angles += np.where(angles < 0.0, TWO_PI, 0.0)
    angles[angles >= TWO_PI] = 0.0
    return angles


def _align(hop: tuple, u: np.ndarray) -> np.ndarray:
    """Phases aligning each reflected path with the direct path at ``u``.

    ``hop`` is one hop's (direct link, surface matrix H, element link h),
    for one trial or with a leading trial axis.
    """
    direct, H, h = hop
    reference = _phase(np.vecdot(u, direct))[..., np.newaxis]
    return _aligned_angles(reference, _path_row(H, h, u))


def _hop_channel(hop: tuple, angles: np.ndarray) -> np.ndarray:
    """A hop's effective channel direct + H diag(exp(j*angles)) h."""
    direct, H, h = hop
    return direct + np.matvec(H, np.exp(1j * angles) * h)


#: the first and second hop's (direct link, surface matrix, element link)
_FIRST_HOP = operator.attrgetter("h_sr", "H_ir", "h_si")
_SECOND_HOP = operator.attrgetter("h_rd", "H_ri", "h_id")


def _hop(channels: ChannelSet, blocks: operator.attrgetter, stack: bool) -> tuple:
    """One hop's blocks with a leading trial axis.

    ``stack`` says whether ``channels`` is a stack of trials; one trial is
    viewed as a stack of one.
    """
    if (channels.h_sr.ndim == 2) != stack:
        raise ConfigError(
            "the batched solvers take a stack of trials, the others one trial"
        )
    direct, H, h = blocks(channels)
    return (direct, H, h) if stack else (direct[None], H[None], h[None])


def _check_noise_levels(noise_variances: tuple) -> None:
    if not noise_variances:
        raise ConfigError("need at least one noise variance")


class _Stops:
    """The rate traces of a batched alternation and where each one stops.

    Each iterate appends to the trace of every running (trial, noise level)
    the rate ``log2(1 + power / noise)`` of its trial's power, and raises
    :class:`TraceDipError` if that rate falls more than ``TRACE_SLACK``
    below the one before.  A level stops once its last two rates differ by
    at most ``epsilon``, or on the ``max_iter``-th, and keeps the parts of
    that iterate its loop asks for and its trace in ``stopped`` (the levels
    of a trial that stop on one iterate share one copy of them); a trial
    leaves the running ``rows`` once all its levels have stopped.  The
    traces are floats, as in the one-trial rule: a stack of one checks its
    few rates faster on floats than any array bookkeeping would.
    """

    def __init__(
        self,
        trials: int,
        noise_variances: tuple[float, ...],
        epsilon: float,
        max_iter: int,
    ) -> None:
        _check_iteration_controls(epsilon, max_iter)
        _check_noise_levels(noise_variances)
        for noise in noise_variances:
            if noise <= 0.0:
                raise ValueError(f"noise variance must be positive, got {noise}")
        self.noise = noise_variances
        self.epsilon = epsilon
        self.max_iter = max_iter
        levels = range(len(noise_variances))
        #: the trial of each running row, and its running (level, trace)s
        self.rows = list(range(trials))
        self.live = [[(level, []) for level in levels] for _ in self.rows]
        #: per trial and level, the (iterate, trace) it stopped at
        self.stopped: list[list] = [[None] * len(levels) for _ in self.rows]

    def record(self, powers: list[float], iterate: tuple) -> list[int] | None:
        """Take one iterate of the running rows, with a power per row.

        ``iterate`` holds per-row arrays, none for a loop that needs only
        the rates; a level that stops keeps its row of each, and the row's
        power.  Returns the rows that keep running when some leave (none
        once every level has stopped), else None.
        """
        if len(self.rows) == 1:
            # one array call per iterate would cost more than a few floats
            power = powers[0]
            rates = ([float(np.log2(1.0 + power / noise)) for noise in self.noise],)
        else:
            rates = np.log2(1.0 + np.divide.outer(powers, self.noise)).tolist()
        epsilon, max_iter = self.epsilon, self.max_iter
        stops = []
        for row, live in enumerate(self.live):
            row_rates = rates[row]
            for entry in live:
                level, trace = entry
                rate = row_rates[level]
                if trace and rate - trace[-1] < -TRACE_SLACK:
                    raise TraceDipError("alternation trace decreased beyond tolerance")
                trace.append(rate)
                if len(trace) == max_iter or (
                    len(trace) > 1 and abs(rate - trace[-2]) <= epsilon
                ):
                    stops.append((row, entry))
        if not stops:
            return None
        copies: dict[int, tuple] = {}
        for row, entry in stops:
            level, trace = entry
            if row not in copies:
                # one copy per row, shared by the levels that stop on this
                # iterate, so that the iterate's arrays of the stack can go
                parts = [part[row].copy() for part in iterate]
                copies[row] = (*parts, powers[row])
            self.stopped[self.rows[row]][level] = (copies[row], trace)
            self.live[row].remove(entry)
        keep = [row for row, live in enumerate(self.live) if live]
        if len(keep) == len(self.rows):
            return None
        self.rows = [self.rows[row] for row in keep]
        self.live = [self.live[row] for row in keep]
        return keep

    def results(self, solution=None) -> list[tuple]:
        """Per trial, one result per level, from where each level stopped.

        ``solution(iterate, trace)`` builds a level's result from its
        stopped iterate and its trace; without one, a level's result is its
        (rate, iterations) pair: the last rate of its trace and its length.
        """
        if solution is None:
            return [
                tuple((trace[-1], len(trace)) for _, trace in levels)
                for levels in self.stopped
            ]
        return [
            tuple(solution(iterate, tuple(trace)) for iterate, trace in levels)
            for levels in self.stopped
        ]


def _check_power(p_watt: float) -> None:
    # a trace's power is p_watt times a square
    if p_watt < 0.0:
        raise ValueError(f"power must be non-negative, got {p_watt}")


def _compact(blocks: tuple, keep: list[int], owned: bool) -> tuple:
    """Rows ``keep`` (ascending) of each block of a running stack, in order.

    A loop's first compaction copies them out of its input (``owned``
    false), which may be a shared read-only stack; later ones move them
    forward inside that copy and view its front, so no block is ever held
    twice.  Row ``keep[i] >= i`` is read before row ``i`` is written, and
    no later row reads row ``i``.
    """
    if not owned:
        return tuple(block[keep] for block in blocks)
    for block in blocks:
        for row, source in enumerate(keep):
            if row != source:
                block[row] = block[source]
    return tuple(block[: len(keep)] for block in blocks)


def _alternate(
    hop: tuple,
    p_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float,
    max_iter: int,
    solution=None,
) -> list[tuple]:
    """:func:`ais_max_rp`'s loop on one hop of a stack of trials.

    ``hop`` holds the (direct, H, h) blocks with a leading trial axis.  No
    iterate reads the noise, which enters only each level's rate trace and
    its stop.  Returns, per trial, one result per level: its (rate,
    iterations) pair, or ``solution(iterate, trace)`` built from the
    iterate's (angles, weights, power) when ``solution`` is given; only
    then does a stop keep a copy of its iterate.
    """
    direct, H, h = hop
    stops = _Stops(len(direct), tuple(noise_variances), epsilon, max_iter)
    _check_power(p_watt)
    u = _unit(direct)  # the matched filter to each direct link
    owned = False
    for _ in range(max_iter):
        angles = _align((direct, H, h), u)
        combined = _hop_channel((direct, H, h), angles)
        u = _unit(combined)
        keep = stops.record(
            _powers(p_watt, u, combined), (angles, u) if solution is not None else ()
        )
        if keep is not None:
            if not keep:
                break
            direct, H, h = _compact((direct, H, h), keep, owned)
            owned, u = True, u[keep]
    return stops.results(solution)


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
    for bit.  This is :func:`ais_max_rp_batch` on one trial.
    """
    hop = _hop(channels, _FIRST_HOP, stack=False)
    return _alternate(
        hop, p_s_watt, noise_variances, epsilon, max_iter, _ais_solution
    )[0]


def ais_max_rp_batch(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[tuple[FirstSlotSolution, ...]]:
    """:func:`ais_max_rp_per_noise` on each trial of a stack, in one loop.

    Returns one tuple of per-level solutions per trial; each equals what
    the one-trial solver returns on that trial, bit for bit.
    """
    hop = _hop(channels, _FIRST_HOP, stack=True)
    return _alternate(
        hop, p_s_watt, noise_variances, epsilon, max_iter, _ais_solution
    )


def _ais_solution(iterate: tuple, trace: tuple[float, ...]) -> FirstSlotSolution:
    angles, u, power = iterate
    return FirstSlotSolution(
        method="ais",
        theta1=PhaseShiftVector(angles),
        receive_power_watt=float(power),
        rate_r=trace[-1],
        trace=trace,
        u_r=Beamformer(u),
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
    return _projectors(A[np.newaxis])[0]


def _projectors(A: np.ndarray) -> np.ndarray:
    """:func:`nsp_projector` of each matrix of a stack, shape (T, m, k).

    ``pinv``, ``@`` and the transposes act slice by slice, with the same
    LAPACK and BLAS call per matrix as on one matrix.
    """
    gram_inv = np.linalg.pinv(np.conj(A.mT) @ A, rcond=PINV_RCOND)
    # I - A gram_inv A^H, subtracted in place: a stack holds one such array
    spanned = A @ gram_inv @ np.conj(A.mT)
    return np.subtract(np.eye(A.shape[-2], dtype=np.complex128), spanned, out=spanned)


def _nsp_start_phases(
    H: np.ndarray, h: np.ndarray, direct_null: np.ndarray
) -> np.ndarray:
    """Checked start phases of the null-space alternation on a stack of trials.

    The reflected branch at phasors v is ||B v|| with B = P H diag(h).
    B's principal right singular vector maximizes it without the
    unit-modulus constraint; its phases, rotated so that its largest entry
    is real positive (a deterministic global phase), are one candidate and
    flat phases the other.  The larger branch wins, flat phases on a tie,
    so the start is never below the flat-phase branch.
    """
    relaxed = direct_null @ (H * h[:, np.newaxis])
    relaxed_h = np.conj(relaxed.mT)
    # B^H times the principal eigenvector of the m x m Gram matrix B B^H is
    # the principal right singular vector up to scale, without an n x n SVD
    v = np.matvec(relaxed_h, np.linalg.eigh(relaxed @ relaxed_h)[1][..., -1])
    del relaxed_h  # one (T, m, n) temporary fewer for the rest
    peak = v[np.arange(len(v)), np.argmax(np.abs(v), axis=-1)]
    angles = np.angle(v) - np.angle(peak)[:, np.newaxis]
    singular = _norms(np.matvec(relaxed, np.exp(1j * angles)))
    flat = _norms(relaxed.sum(axis=-1))
    wins = np.array([s > f for s, f in zip(singular, flat)])
    return _checked_angles(np.where(wins[:, np.newaxis], angles, 0.0))


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
    it, bit for bit.  This is :func:`nsp_max_rp_mrc_batch` on one trial.
    """
    hop = _hop(channels, _FIRST_HOP, stack=False)
    options = (mode, combining, phases)
    return _nsp(
        hop, p_s_watt, noise_variances, epsilon, max_iter, *options, solutions=True
    )[0]


def nsp_max_rp_mrc_batch(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = NSP_MODES[0],
    combining: str = COMBINING_MODES[0],
    phases: PhaseShiftVector | None = None,
) -> list[tuple[FirstSlotSolution, ...]]:
    """:func:`nsp_max_rp_mrc_per_noise` on each trial of a stack, in one loop.

    Returns one tuple of per-level solutions per trial; each equals what
    the one-trial solver returns on that trial, bit for bit.
    """
    hop = _hop(channels, _FIRST_HOP, stack=True)
    options = (mode, combining, phases)
    return _nsp(
        hop, p_s_watt, noise_variances, epsilon, max_iter, *options, solutions=True
    )


def _nsp(
    hop: tuple,
    p_s_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float,
    max_iter: int,
    mode: str,
    combining: str,
    phases: PhaseShiftVector | None,
    solutions: bool = False,
) -> list[tuple]:
    """:func:`nsp_max_rp_mrc` on the first hop of a stack of trials.

    The projectors off the direct links and the start phases are built for
    the whole stack, the reflected branch iterates in one loop, and
    :func:`_nsp_results` closes out every stopped (trial, level) at once.
    Returns, per trial, one (rate, iterations) pair per level, or one
    :class:`FirstSlotSolution` per level with ``solutions``; a stop keeps
    its iterate's receive vector and cascade, and its angles only for a
    solution.
    """
    noise_variances = tuple(noise_variances)
    h_sr, H_ir, h_si = hop
    trials, m, n = H_ir.shape
    stops = _Stops(trials, noise_variances, epsilon, max_iter if phases is None else 1)
    _check_power(p_s_watt)
    if m < 2:
        raise ConfigError("null-space separation needs at least 2 relay antennas")
    if mode not in NSP_MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if combining not in COMBINING_MODES:
        raise ConfigError(f"unknown combining {combining!r}")
    if mode == "literal" and n >= m:
        raise ProjectorDegenerateError(
            "literal mode projects off the full surface-to-relay matrix, "
            f"which spans the receive space for n={n} >= m={m}"
        )
    if phases is not None and len(phases) != n:
        raise ConfigError("fixed phase vector length must equal n")

    direct_null = _projectors(h_sr[:, :, np.newaxis])
    if phases is None:
        step = max(1, START_PHASE_BYTES // H_ir[0].nbytes)
        parts = (H_ir, h_si, direct_null)
        angles = np.concatenate(
            [
                _nsp_start_phases(*(part[t : t + step] for part in parts))
                for t in range(0, trials, step)
            ]
        )
    else:
        angles = np.broadcast_to(phases.angles, (trials, n))
    # the reflected branch alone: no direct term in the cascade
    cascade = np.matvec(H_ir, np.exp(1j * angles) * h_si)
    if phases is not None:
        u_ri = _unit(np.matvec(direct_null, np.matvec(direct_null, cascade)))
        stops.record(
            _powers(p_s_watt, u_ri, cascade),
            (u_ri, cascade, angles) if solutions else (u_ri, cascade),
        )
    else:
        # the projectors are this loop's own: they move forward in place
        # from the first compaction on, the stack's rows once copied
        H, h, null = H_ir, h_si, direct_null
        owned = False
        for _ in range(max_iter):
            # projector applied twice as defined; idempotence makes it one
            u_ri = _unit(np.matvec(null, np.matvec(null, cascade)))
            # aligned to phase 0, as the direct path is projected off
            angles = _aligned_angles(0.0, _path_row(H, h, u_ri))
            # the next iteration starts from this cascade
            cascade = np.matvec(H, np.exp(1j * angles) * h)
            powers = _powers(p_s_watt, u_ri, cascade)
            keep = stops.record(
                powers, (u_ri, cascade, angles) if solutions else (u_ri, cascade)
            )
            if keep is not None:
                if not keep:
                    break
                H, h = _compact((H, h), keep, owned)
                (null,) = _compact((null,), keep, owned=True)
                owned, cascade = True, cascade[keep]
        # the direct branch needs none of the running rows
        del H, h, null, direct_null, parts
    return _nsp_results(hop, p_s_watt, stops, mode, combining, solutions)


def _nsp_results(
    hop: tuple,
    p_s_watt: float,
    stops: _Stops,
    mode: str,
    combining: str,
    solutions: bool,
) -> list[tuple]:
    """:func:`nsp_max_rp_mrc`'s results at the stopped reflected-branch iterates.

    Each stopped iterate holds the reflected branch's (receive vector,
    cascade), its angles for a solution, and its power, shared by the
    levels that stopped on it.  The direct branch's beamformer is built off
    the reflected signal for every distinct iterate of the stack at once,
    and both branches are combined.  The branch amplitudes are ``abs`` of
    Python complex numbers, as in the one-trial rule: numpy's complex
    ``abs`` can differ in the last bit.
    """
    h_sr, H_ir, _ = hop
    # the distinct stopped iterates, and the trial of each, in (trial,
    # level) order: the order the one-trial rule raises in
    distinct: dict[int, tuple] = {}
    for trial, levels in enumerate(stops.stopped):
        for iterate, _ in levels:
            distinct.setdefault(id(iterate), (trial, iterate))
    trials = [trial for trial, _ in distinct.values()]
    iterates = [iterate for _, iterate in distinct.values()]
    direct = h_sr[trials]
    u_ri = np.stack([iterate[0] for iterate in iterates])
    cascade = np.stack([iterate[1] for iterate in iterates])
    if mode == "literal":
        # off the whole surface matrix: one direct branch per trial
        surface_null = _projectors(H_ir)
        direct_raw = np.matvec(surface_null, np.matvec(surface_null, h_sr))[trials]
    else:
        direct_raw = np.matvec(_projectors(cascade[:, :, np.newaxis]), direct)
    for raw, reference in zip(_norms(direct_raw), _norms(direct)):
        if raw < 1e-12 * reference:
            raise ProjectorDegenerateError(
                "direct channel lies inside the projected-off subspace"
            )
        if raw < ZERO_NORM:
            break  # _unit rejects it, as the one-trial rule did next
    u_rs = _unit(direct_raw)
    branches = zip(np.vecdot(u_rs, direct).tolist(), np.vecdot(u_ri, cascade).tolist())
    closed = {}
    for iterate, u_s, (branch_s, branch_i) in zip(iterates, u_rs, branches):
        amp_s = abs(branch_s)
        amp_i = abs(branch_i)
        if combining == "snr-sum":
            power_eff = p_s_watt * (amp_s**2 + amp_i**2)
        else:
            merged = abs(branch_s + branch_i) ** 2
            if merged < ZERO_NORM:
                raise DegenerateChannelError("both separated branches vanished")
            power_eff = p_s_watt * (amp_s**4 + amp_i**4) / merged
        if solutions:
            u_i, _, angles = iterate[:3]
            closed[id(iterate)] = dict(
                theta1=PhaseShiftVector(angles),
                receive_power_watt=power_eff,
                u_rs=Beamformer(u_s),
                u_ri=Beamformer(u_i),
            )
        else:
            closed[id(iterate)] = power_eff
    if not solutions:
        return [
            tuple(
                (rate_from_power(closed[id(iterate)], noise), len(trace))
                for (iterate, trace), noise in zip(levels, stops.noise)
            )
            for levels in stops.stopped
        ]
    return [
        tuple(
            _nsp_solution(closed[id(iterate)], tuple(trace), noise)
            for (iterate, trace), noise in zip(levels, stops.noise)
        )
        for levels in stops.stopped
    ]


def _nsp_solution(closed: dict, trace: tuple, noise: float) -> FirstSlotSolution:
    """One level's solution from its iterate's closed-out fields."""
    rate_r = rate_from_power(closed["receive_power_watt"], noise)
    return FirstSlotSolution(method="nsp", rate_r=rate_r, trace=trace, **closed)


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
    return irses_max_rp_mrc_per_noise(
        channels,
        p_s_watt,
        (noise_variance_watt,),
        partition,
        interference_mode=interference_mode,
        combining=combining,
        phases=phases,
    )[0]


def irses_max_rp_mrc_per_noise(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variances: tuple,
    partition: Partition,
    interference_mode: str = IRSES_MODES[0],
    combining: str = COMBINING_MODES[0],
    phases: PhaseShiftVector | None = None,
) -> tuple[FirstSlotSolution, ...]:
    """:func:`irses_max_rp_mrc` at each noise variance (scalar or per antenna).

    The alignment, the per-antenna amplitudes and the MRC weights do not
    read the noise, so they are computed once; each level's solution equals
    the one :func:`irses_max_rp_mrc` returns at it, bit for bit.  This is
    :func:`irses_max_rp_mrc_batch` on one trial.
    """
    hop = _hop(channels, _FIRST_HOP, stack=False)
    options = (interference_mode, combining, phases)
    return _irses(
        hop, p_s_watt, noise_variances, [partition], *options, solutions=True
    )[0]


def irses_max_rp_mrc_batch(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variances: tuple,
    partitions: Sequence[Partition],
    interference_mode: str = IRSES_MODES[0],
    combining: str = COMBINING_MODES[0],
    phases: PhaseShiftVector | None = None,
) -> list[tuple[FirstSlotSolution, ...]]:
    """:func:`irses_max_rp_mrc_per_noise` on each trial of a stack, with its partition.

    Returns one tuple of per-level solutions per trial; each equals what
    the one-trial solver returns on that trial, bit for bit.
    """
    hop = _hop(channels, _FIRST_HOP, stack=True)
    options = (interference_mode, combining, phases)
    return _irses(
        hop, p_s_watt, noise_variances, partitions, *options, solutions=True
    )


def _irses(
    hop: tuple,
    p_s_watt: float,
    noise_variances: tuple,
    partitions: Sequence[Partition],
    interference_mode: str,
    combining: str,
    phases: PhaseShiftVector | None,
    solutions: bool = False,
) -> list[tuple]:
    """:func:`irses_max_rp_mrc`'s closed form on the first hop of a stack of trials.

    Trial ``t`` reads element ``i`` of antenna ``partitions[t]`` through
    (trial, antenna) fancy indices, and ``np.add.at`` adds each antenna's
    elements in element order, as on one trial.  A row's sum over the
    antennas is the one-trial sum of that row, bit for bit.  Returns, per
    trial, one (rate, 1) pair per level, or one :class:`FirstSlotSolution`
    per level with ``solutions``.
    """
    noise_variances = tuple(noise_variances)
    _check_noise_levels(noise_variances)
    if interference_mode not in IRSES_MODES:
        raise ConfigError(f"unknown interference_mode {interference_mode!r}")
    if combining not in COMBINING_MODES:
        raise ConfigError(f"unknown combining {combining!r}")
    h_sr, H_ir, h_si = hop
    trials, m, n = H_ir.shape
    if len(partitions) != trials:
        raise ConfigError(
            f"need one partition per trial, got {len(partitions)} for {trials}"
        )
    for partition in partitions:
        if partition.n != n or partition.m != m:
            raise ConfigError(
                f"partition for (m={partition.m}, n={partition.n}) does not match "
                f"channels (m={m}, n={n})"
            )
    sigma2s = [
        np.broadcast_to(np.asarray(noise, dtype=np.float64), (m,)).copy()
        for noise in noise_variances
    ]
    for sigma2 in sigma2s:
        if np.any(sigma2 <= 0.0):
            raise ConfigError("noise variance must be positive")

    trial = np.arange(trials)[:, np.newaxis]
    antenna = np.stack([partition.assignment for partition in partitions])
    own_paths = H_ir[trial, antenna, np.arange(n)]
    if phases is None:
        angles = _checked_angles(
            np.angle(h_sr)[trial, antenna] - np.angle(own_paths) - np.angle(h_si)
        )
    else:
        if len(phases) != n:
            raise ConfigError("fixed phase vector length must equal n")
        angles = phases.angles

    own = h_sr.copy()
    np.add.at(own, (trial, antenna), own_paths * np.exp(1j * angles) * h_si)
    if interference_mode == "idealized":
        amplitudes = np.abs(own)
    else:
        amplitudes = np.abs(_hop_channel(hop, angles))

    usable = np.abs(own) >= ZERO_NORM
    unusable = (m - np.count_nonzero(usable, axis=-1)).tolist()
    if solutions:
        weights = np.ones((trials, m), dtype=np.complex128)
        weights[usable] = np.conj(own[usable]) / np.abs(own[usable])

    squares = amplitudes**2
    square_sums = squares.sum(axis=-1).tolist()
    if combining == "snr-sum":
        snrs = [(squares / sigma2).sum(axis=-1).tolist() for sigma2 in sigma2s]
    else:
        fourth_sums = (amplitudes**4).sum(axis=-1).tolist()
        denoms = [(squares * sigma2).sum(axis=-1).tolist() for sigma2 in sigma2s]

    results = []
    for row in range(trials):
        if unusable[row]:
            warnings.warn(
                f"{unusable[row]} antenna(s) with zero combined signal; "
                "MRC weight set to 1",
                DegenerateElementWarning,
                stacklevel=3,
            )
        if solutions:
            theta = PhaseShiftVector(angles[row]) if phases is None else phases
        levels = []
        for level in range(len(sigma2s)):
            if combining == "snr-sum":
                snr = p_s_watt * snrs[level][row]
                power_eff = p_s_watt * square_sums[row]
            else:
                denom = denoms[level][row]
                if denom < ZERO_NORM:
                    raise DegenerateChannelError("all antennas received zero signal")
                snr = p_s_watt * fourth_sums[row] / denom
                power_eff = p_s_watt * fourth_sums[row] / square_sums[row]
            rate_r = float(np.log2(1.0 + snr))
            if not solutions:
                levels.append((rate_r, 1))
                continue
            levels.append(
                FirstSlotSolution(
                    method="irses",
                    theta1=theta,
                    receive_power_watt=power_eff,
                    rate_r=rate_r,
                    trace=(rate_r,),
                    mrc_weights=weights[row],
                    partition=partitions[row],
                )
            )
        results.append(tuple(levels))
    return results


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
    scalar one bit for bit.  This is :func:`second_slot_optimize_batch` on
    one trial.
    """
    hop = _hop(channels, _SECOND_HOP, stack=False)
    return _alternate(
        hop, p_r_watt, noise_variances, epsilon, max_iter, _second_slot_solution
    )[0]


def second_slot_optimize_batch(
    channels: ChannelSet,
    p_r_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[tuple[SecondSlotSolution, ...]]:
    """:func:`second_slot_optimize_per_noise` on each trial of a stack, in one loop."""
    hop = _hop(channels, _SECOND_HOP, stack=True)
    return _alternate(
        hop, p_r_watt, noise_variances, epsilon, max_iter, _second_slot_solution
    )


def _second_slot_solution(
    iterate: tuple, trace: tuple[float, ...]
) -> SecondSlotSolution:
    angles, u, _ = iterate
    return SecondSlotSolution(
        theta2=PhaseShiftVector(-angles),
        u_t=Beamformer(u),
        rate_d=trace[-1],
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

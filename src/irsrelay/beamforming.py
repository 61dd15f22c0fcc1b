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
level.  The ``_batch`` solvers expose this, and each scalar solver is the
same loop on one trial at one noise level.  Every stacked operation runs
the same floating-point operations per trial as the one-trial case (the
same BLAS or LAPACK call per slice, the same elementwise loops), so a
trial's solution does not depend on what it is stacked with.

Each loop also has a private rates form, which the trial engine calls:
``_alternate`` (``ais`` on the first hop, the second slot on the second),
``_nsp`` and ``_irses`` on one hop's blocks of a stack of trials.  It runs
the same loop and the same checks on every iterate (finite angles in
:func:`_aligned_angles`, unit norms in :func:`_unit`, no dip of a rate in
``_Stops``), but returns only a ``(trials, levels)`` array of rates and one
of iteration counts: it builds no :class:`PhaseShiftVector`,
:class:`Beamformer` or solution object, keeps no rate trace, and a stop
copies no array of its iterate, bar NSP's receive vector and cascade, which
its direct branch needs.  Each (trial, level) entry equals the rate and
iteration count of the solution the ``_batch`` form returns, bit for bit.
``_irses`` takes the trials' element partitions as one array of
assignments (:func:`_irses_assignments`), not as :class:`Partition`
objects.  The other closed forms the trial engine runs on a stack are here
too, beside the loops: ``_fixed_first_slot`` and ``_fixed_second_slot``
(the fixed-phase slots), ``_matched_direct`` (a hop of
``baseline-relay-only``) and ``_irs_only``.  They, ``_Stops`` on a stack and
NSP's results form every rate with one :func:`_rates` call.

A loop's input stack may be shared, read-only, with other solves.  The loop
multiplies the whole of it until at most :data:`COPY_SHARE` of its rows run
(or they hold at most :data:`COPY_BYTES`), the stopped rows multiplying
zeros, and only then copies the running rows; every check and warning reads
the running rows alone.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import (
    PARTITION_STREAM,
    ZERO_NORM,
    ChannelSet,
    Links,
    check_seed,
    keyed_generators,
)
from .errors import (
    ConfigError,
    DegenerateChannelError,
    DegenerateElementWarning,
    ProjectorDegenerateError,
    TraceDipError,
)
from .metrics import _check_levels, rate_from_power, receive_power_ais

TWO_PI = 2.0 * np.pi

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

#: a loop copies its running rows out of its input, a stack that other
#: solves share, once they are at most COPY_SHARE of it or hold at most
#: COPY_BYTES; until then it multiplies the whole stack, which costs more
#: time than a copy but no memory.  On a (16, 160) table of 16-trial chunks
#: (in-process, alternating, one BLAS thread), a share of 1/2 peaked at
#: 1.16 MB (tracemalloc), 3/8 at 1.07 MB and 1/4 at 0.98 MB; 3/8 and 1/2
#: ran 1-3% slower than copying at the first compaction, 1/4 5%, and never
#: copying 7%.  A small copy costs no memory worth saving: on the 60-trial
#: stacks of a (4, 16) table, 1 kB per trial, the loops ran 1-2% slower
#: when they multiplied around their finished rows.
COPY_SHARE = 0.375
COPY_BYTES = 64 * 1024

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


def _rates(powers: list[float], noises: tuple[float, ...]) -> np.ndarray:
    """The ``(rows, levels)`` rates ``log2(1 + power / noise)``, in one array call."""
    return np.log2(1.0 + np.divide.outer(powers, noises))


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


def _matvec(H: np.ndarray, x: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """``H x`` per trial, or per running row ``rows`` of a whole stack ``H``.

    ``x`` holds a vector per running row.  With ``rows``, the product runs
    on the whole stack, the rows that no longer run multiplying zeros, so
    that a loop need not copy its running rows out of a stack that other
    solves share; each running row's product is the same BLAS call as on a
    stack of the running rows alone.
    """
    if rows is None:
        return np.matvec(H, x)
    full = np.zeros((len(H), x.shape[-1]), dtype=x.dtype)
    full[rows] = x
    return np.matvec(H, full)[rows]


def _path_row(
    H: np.ndarray, h: np.ndarray, u: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Per-element response (u^H H)_i * h_i of a hop's reflected paths.

    ``H^T conj(u)`` on the transposed view runs the BLAS gemv of the
    one-trial ``conj(u) @ H`` on each trial (``np.vecmat`` does not).
    ``rows`` are the rows of ``H`` that ``h`` and ``u`` hold (:func:`_matvec`).
    """
    row = _matvec(H.mT, np.conj(u), rows)
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


def _align(hop: tuple, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Phases aligning each reflected path with the direct path at ``u``.

    ``hop`` is one hop's (direct link, surface matrix H, element link h),
    for one trial or with a leading trial axis; with ``rows``, ``H`` is a
    whole stack and the others its rows ``rows`` (:func:`_matvec`).
    """
    direct, H, h = hop
    reference = _phase(np.vecdot(u, direct))[..., np.newaxis]
    return _aligned_angles(reference, _path_row(H, h, u, rows))


def _hop_channel(
    hop: tuple, angles: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """A hop's effective channel direct + H diag(exp(j*angles)) h.

    ``rows`` are as in :func:`_align`.
    """
    direct, H, h = hop
    return direct + _matvec(H, np.exp(1j * angles) * h, rows)


#: the first and second hop's (direct link, surface matrix, element link)
_FIRST_LINKS = ("h_sr", "H_ir", "h_si")
_SECOND_LINKS = ("h_rd", "H_ri", "h_id")
_FIRST_HOP = operator.attrgetter(*_FIRST_LINKS)
_SECOND_HOP = operator.attrgetter(*_SECOND_LINKS)


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


class _Stops:
    """Where each (trial, noise level) of a batched alternation stops.

    Each iterate gives every running (trial, level) the rate
    ``log2(1 + power / noise)`` of its trial's power, and raises
    :class:`TraceDipError` if that rate falls more than ``TRACE_SLACK``
    below the one before.  A level stops once its last two rates differ by
    at most ``epsilon``, or on the ``max_iter``-th iterate, and keeps its
    rate, its iteration count and an index into ``kept`` in ``stopped``:
    the levels that stop on one iterate of a row share one copy of its
    parts, and an iterate of no parts (a rates form's) keeps nothing, its
    index None.  A trial leaves the running ``rows`` once all its levels
    have stopped.  Only for solutions is each trial's ``history`` kept, its
    rates at every iterate it ran, from which :meth:`traces` rebuilds the
    rate traces.  The rates are floats, as in the one-trial rule: on stacks
    of 1 to 16 rows, numpy's cost per call exceeds what an array of a few
    rates saves.
    """

    def __init__(
        self,
        trials: int,
        noise_variances: tuple[float, ...],
        epsilon: float,
        max_iter: int,
        traces: bool = False,
    ) -> None:
        _check_iteration_controls(epsilon, max_iter)
        self.noise = noise_variances
        self.epsilon = epsilon
        self.max_iter = max_iter
        levels = len(noise_variances)
        self.count = 0  # iterates recorded, each by every running row
        #: the trial of each running row, its running levels and last rates;
        #: no rate dips below -inf or settles on it
        self.rows = list(range(trials))
        self.live = [list(range(levels)) for _ in self.rows]
        self.last = [[-math.inf] * levels] * trials  # replaced, never changed
        #: per trial and level, its (rate, iteration count, kept index)
        self.stopped: list[list] = [[None] * levels for _ in self.rows]
        self.kept: list[tuple] = []
        self.history = [[] for _ in self.rows] if traces else None

    def record(self, powers: list[float], iterate: tuple) -> list[int] | None:
        """Take one iterate of the running rows, with a power per row.

        ``iterate`` holds per-row arrays, none for a loop that needs only
        the rates; a level that stops keeps its row of each, and the row's
        power, if there are any.  Returns the rows that keep running when
        some leave (none once every level has stopped), else None.
        """
        if len(self.rows) == 1:
            # one array call per iterate would cost more than a few floats
            power = powers[0]
            rates = ([float(np.log2(1.0 + power / noise)) for noise in self.noise],)
        else:
            rates = _rates(powers, self.noise).tolist()
        self.count += 1
        epsilon, last, final = self.epsilon, self.last, self.count == self.max_iter
        stops: dict[int, list[int]] = {}
        for row, levels in enumerate(self.live):
            now, before = rates[row], last[row]
            if self.history is not None:
                self.history[self.rows[row]].append(now)
            for level in levels:
                step = now[level] - before[level]
                if step < -TRACE_SLACK:
                    raise TraceDipError("alternation trace decreased beyond tolerance")
                if final or abs(step) <= epsilon:
                    stops.setdefault(row, []).append(level)
        self.last = rates
        if not stops:
            return None
        for row, levels in stops.items():
            index = None
            if iterate:
                # one copy per row, shared by the levels that stop on this
                # iterate, so that the iterate's arrays of the stack can go
                self.kept.append((*[part[row].copy() for part in iterate], powers[row]))
                index = len(self.kept) - 1
            trial = self.rows[row]
            for level in levels:
                self.stopped[trial][level] = (rates[row][level], self.count, index)
                self.live[row].remove(level)
        keep = [row for row, levels in enumerate(self.live) if levels]
        if len(keep) == len(self.rows):
            return None
        self.rows = [self.rows[row] for row in keep]
        self.live = [self.live[row] for row in keep]
        self.last = [rates[row] for row in keep]
        return keep

    def column(self, field: int) -> np.ndarray:
        """The ``(trials, levels)`` array of one field of ``stopped``."""
        return np.array([[stop[field] for stop in levels] for levels in self.stopped])

    def traces(self) -> list[list[tuple[float, ...]]]:
        """Per trial and level, its rates, one per iterate up to its stop."""
        return [
            [trace[:count] for trace, (_, count, _) in zip(zip(*ran), levels)]
            for ran, levels in zip(self.history, self.stopped)
        ]

    def results(self, solution=None) -> list[tuple] | tuple[np.ndarray, np.ndarray]:
        """Per trial, one result per level, from where each level stopped.

        ``solution(iterate, trace)`` builds a level's result from its kept
        iterate and its trace.  Without one, the results are a ``(trials,
        levels)`` array of rates and one of iteration counts.
        """
        if solution is None:
            return self.column(0), self.column(1)
        return [
            tuple(solution(self.kept[stop[2]], trace) for stop, trace in zip(*trial))
            for trial in zip(self.stopped, self.traces())
        ]


def _compact(block: np.ndarray, keep: list[int]) -> np.ndarray:
    """Rows ``keep`` (ascending) of a loop's own array, moved to its front.

    The front is a view, so the array is never held twice.  Row
    ``keep[i] >= i`` is read before row ``i`` is written, and no later row
    reads row ``i``.
    """
    for row, source in enumerate(keep):
        if row != source:
            block[row] = block[source]
    return block[: len(keep)]


class _Surface(NamedTuple):
    """A loop's surface matrices: the stack ``H`` and which of its rows run.

    While ``rows`` is an index, ``H`` is the loop's input, a read-only stack
    that other solves may share, and the loop multiplies the whole of it
    (:func:`_matvec`); once ``rows`` is None, ``H`` holds exactly the
    running rows.
    """

    H: np.ndarray
    rows: np.ndarray | None = None
    owned: bool = False

    def keep(self, keep: list[int]) -> "_Surface":
        """The surface once only rows ``keep`` of the running ones run.

        The running rows are copied out of the input once they are at most
        :data:`COPY_SHARE` of it or hold at most :data:`COPY_BYTES`; later
        compactions move them forward inside that copy.
        """
        if self.owned:
            return _Surface(_compact(self.H, keep), None, True)
        rows = np.array(keep) if self.rows is None else self.rows[keep]
        share = len(rows) <= COPY_SHARE * len(self.H)
        if share or len(rows) * self.H[0].nbytes <= COPY_BYTES:
            return _Surface(self.H[rows], None, True)
        return _Surface(self.H, rows)


def _alternate(
    hop: tuple,
    p_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float,
    max_iter: int,
    solution=None,
) -> list[tuple] | tuple[np.ndarray, np.ndarray]:
    """:func:`ais_max_rp`'s loop on one hop of a stack of trials.

    ``hop`` holds the (direct, H, h) blocks with a leading trial axis.  No
    iterate reads the noise, which enters only each level's rate trace and
    its stop.  Returns ``(trials, levels)`` arrays of rates and iteration
    counts, or, when ``solution`` is given, per trial one
    ``solution(iterate, trace)`` per level, built from the iterate's
    (angles, weights, power); only then does a stop keep a copy of its
    iterate.
    """
    direct, H, h = hop
    traces = solution is not None
    stops = _Stops(len(direct), tuple(noise_variances), epsilon, max_iter, traces)
    _check_levels(stops.noise, p_watt)
    u = _unit(direct)  # the matched filter to each direct link
    surface = _Surface(H)
    for _ in range(max_iter):
        angles = _align((direct, surface.H, h), u, surface.rows)
        combined = _hop_channel((direct, surface.H, h), angles, surface.rows)
        u = _unit(combined)
        keep = stops.record(_powers(p_watt, u, combined), (angles, u) if traces else ())
        if keep is not None:
            if not keep:
                break
            direct, h, u = direct[keep], h[keep], u[keep]
            surface = surface.keep(keep)
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
    hop = _hop(channels, _FIRST_HOP, stack=False)
    return _alternate(
        hop, p_s_watt, (noise_variance_watt,), epsilon, max_iter, _ais_solution
    )[0][0]


def ais_max_rp_batch(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[tuple[FirstSlotSolution, ...]]:
    """:func:`ais_max_rp` on each trial of a stack at each noise variance.

    The iterates do not depend on the noise, so one loop serves every
    level, and each (trial, level) stops at its own iterate.  Returns one
    tuple of per-level solutions per trial; each equals what
    :func:`ais_max_rp` returns on that trial at that level, bit for bit.
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
    hop = _hop(channels, _FIRST_HOP, stack=False)
    noise = (noise_variance_watt,)
    options = (mode, combining, phases)
    return _nsp(hop, p_s_watt, noise, epsilon, max_iter, *options, solutions=True)[0][0]


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
    """:func:`nsp_max_rp_mrc` on each trial of a stack at each noise variance.

    The projectors off the direct links, the start phases and the iterates
    are computed once for every level, and each (trial, level) stops at its
    own iterate.  Returns one tuple of per-level solutions per trial; each
    equals what :func:`nsp_max_rp_mrc` returns on that trial at that level,
    bit for bit.
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
) -> list[tuple] | tuple[np.ndarray, np.ndarray]:
    """:func:`nsp_max_rp_mrc` on the first hop of a stack of trials.

    The projectors off the direct links and the start phases are built for
    the whole stack, the reflected branch iterates in one loop, and
    :func:`_nsp_results` closes out every stopped (trial, level) at once.
    Returns ``(trials, levels)`` arrays of rates and iteration counts, or,
    with ``solutions``, per trial one :class:`FirstSlotSolution` per level;
    a stop keeps its iterate's receive vector and cascade, and its angles
    only for a solution.
    """
    noise_variances = tuple(noise_variances)
    h_sr, H_ir, h_si = hop
    trials, m, n = H_ir.shape
    stops = _Stops(
        trials, noise_variances, epsilon, max_iter if phases is None else 1, solutions
    )
    _check_levels(noise_variances, p_s_watt)
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
        h, null, surface = h_si, direct_null, _Surface(H_ir)
        for _ in range(max_iter):
            # projector applied twice as defined; idempotence makes it one
            u_ri = _unit(np.matvec(null, np.matvec(null, cascade)))
            # aligned to phase 0, as the direct path is projected off
            angles = _aligned_angles(0.0, _path_row(surface.H, h, u_ri, surface.rows))
            # the next iteration starts from this cascade
            cascade = _matvec(surface.H, np.exp(1j * angles) * h, surface.rows)
            powers = _powers(p_s_watt, u_ri, cascade)
            keep = stops.record(
                powers, (u_ri, cascade, angles) if solutions else (u_ri, cascade)
            )
            if keep is not None:
                if not keep:
                    break
                h, cascade = h[keep], cascade[keep]
                null = _compact(null, keep)
                surface = surface.keep(keep)
        # the direct branch needs none of the running rows
        del h, null, surface, direct_null, parts
    return _nsp_results(hop, p_s_watt, stops, mode, combining, solutions)


def _nsp_results(
    hop: tuple,
    p_s_watt: float,
    stops: _Stops,
    mode: str,
    combining: str,
    solutions: bool,
) -> list[tuple] | tuple[np.ndarray, np.ndarray]:
    """:func:`nsp_max_rp_mrc`'s results at the stopped reflected-branch iterates.

    Each iterate ``stops`` kept holds the reflected branch's (receive
    vector, cascade), its angles for a solution, and its power, shared by
    the levels that stopped on it.  The direct branch's beamformer is built
    off the reflected signal for every kept iterate of the stack at once,
    and both branches are combined.  The branch amplitudes are ``abs`` of
    Python complex numbers, as in the one-trial rule: numpy's complex
    ``abs`` can differ in the last bit.  Every (trial, level)'s rate
    ``log2(1 + power / noise)`` is one array operation (:func:`_rates`).
    """
    h_sr, H_ir, _ = hop
    # each kept iterate and its trial, visited in (trial, level) order: the
    # order the one-trial rule raises in
    first: dict[int, int] = {}
    for trial, levels in enumerate(stops.stopped):
        for _, _, index in levels:
            first.setdefault(index, trial)
    order, trials = list(first), list(first.values())
    iterates = [stops.kept[index] for index in order]
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
    # by kept index: every kept iterate is some level's
    powers, fields = [0.0] * len(order), [None] * len(order)
    for index, u_s, (branch_s, branch_i) in zip(order, u_rs, branches):
        amp_s = abs(branch_s)
        amp_i = abs(branch_i)
        if combining == "snr-sum":
            power_eff = p_s_watt * (amp_s**2 + amp_i**2)
        else:
            merged = abs(branch_s + branch_i) ** 2
            if merged < ZERO_NORM:
                raise DegenerateChannelError("both separated branches vanished")
            power_eff = p_s_watt * (amp_s**4 + amp_i**4) / merged
        powers[index] = power_eff
        if solutions:
            u_i, _, angles = stops.kept[index][:3]
            fields[index] = dict(
                theta1=PhaseShiftVector(angles),
                receive_power_watt=power_eff,
                u_rs=Beamformer(u_s),
                u_ri=Beamformer(u_i),
            )
    levels = np.arange(len(stops.noise))
    rates = _rates(powers, stops.noise)[stops.column(2), levels]
    if not solutions:
        return rates, stops.column(1)
    return [
        tuple(
            FirstSlotSolution(method="nsp", rate_r=rate, trace=trace, **fields[stop[2]])
            for stop, trace, rate in zip(*per_trial)
        )
        for per_trial in zip(stops.stopped, stops.traces(), rates.tolist())
    ]


def _check_partition_sizes(n: int, m: int) -> None:
    if m < 1 or n < 1:
        raise ConfigError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if n % m != 0:
        raise ConfigError(f"antenna count {m} must divide element count {n}")


def irses_partition(n: int, m: int, seed: int) -> Partition:
    """Uniformly random even assignment of ``n`` elements to ``m`` antennas.

    The permutation is ``Generator(Philox(key=(seed, PARTITION_STREAM)))``'s
    ``permutation(n)``: at a trial's seed, the partition its ``irses``
    methods use (:data:`~irsrelay.channel.PARTITION_STREAM`).

    Raises:
        ConfigError: if ``m`` does not divide ``n``, or ``seed`` lies
            outside ``[0, 2**64)``.
    """
    _check_partition_sizes(n, m)
    check_seed(seed)
    return irses_partitions(n, m, [seed])[0]


def irses_partitions(n: int, m: int, seeds: Sequence[int]) -> list[Partition]:
    """:func:`irses_partition` of each of ``seeds``, with one generator."""
    return [Partition(assignment) for assignment in _irses_assignments(n, m, seeds)]


def _irses_assignments(n: int, m: int, seeds: Sequence[int]) -> np.ndarray:
    """The assignments of :func:`irses_partitions`, one ``(len(seeds), n)`` array.

    Row ``k`` is the ``k``-th partition's assignment, bit for bit; no
    :class:`Partition` is built, as the trial engine reads only the rows.
    """
    _check_partition_sizes(n, m)
    groups = np.repeat(np.arange(m, dtype=np.intp), n // m)
    assignments = np.empty((len(seeds), n), dtype=np.intp)
    keys = ((seed, PARTITION_STREAM) for seed in seeds)
    for assignment, rng in zip(assignments, keyed_generators(keys)):
        assignment[rng.permutation(n)] = groups
    return assignments


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
    hop = _hop(channels, _FIRST_HOP, stack=False)
    noise = (noise_variance_watt,)
    options = (interference_mode, combining, phases)
    return _irses(hop, p_s_watt, noise, [partition], *options, solutions=True)[0][0]


def irses_max_rp_mrc_batch(
    channels: ChannelSet,
    p_s_watt: float,
    noise_variances: tuple,
    partitions: Sequence[Partition],
    interference_mode: str = IRSES_MODES[0],
    combining: str = COMBINING_MODES[0],
    phases: PhaseShiftVector | None = None,
) -> list[tuple[FirstSlotSolution, ...]]:
    """:func:`irses_max_rp_mrc` on each trial of a stack, with its partition.

    Each noise variance is a scalar or a per-antenna vector.  The
    alignment, the per-antenna amplitudes and the MRC weights do not read
    the noise, so they are computed once for every level.  Returns one
    tuple of per-level solutions per trial; each equals what
    :func:`irses_max_rp_mrc` returns on that trial at that level, bit for
    bit.
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
    partitions: Sequence[Partition] | np.ndarray,
    interference_mode: str,
    combining: str,
    phases: PhaseShiftVector | None,
    solutions: bool = False,
) -> list[tuple] | tuple[np.ndarray, np.ndarray]:
    """:func:`irses_max_rp_mrc`'s closed form on the first hop of a stack of trials.

    Trial ``t`` reads element ``i`` of antenna ``partitions[t]`` through
    (trial, antenna) fancy indices, and ``np.add.at`` adds each antenna's
    elements in element order, as on one trial.  A row's sum over the
    antennas is the one-trial sum of that row, bit for bit, and every
    (trial, level)'s rate is one array operation.  With ``solutions``,
    ``partitions`` holds a :class:`Partition` per trial and the result is,
    per trial, one :class:`FirstSlotSolution` per level; otherwise it holds
    their assignments as one ``(trials, n)`` array
    (:func:`_irses_assignments`), and the result is ``(trials, levels)``
    arrays of rates and of iteration counts, all 1.
    """
    noise_variances = tuple(noise_variances)
    _check_levels(noise_variances, p_s_watt)
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
    if solutions:
        for partition in partitions:
            if partition.n != n or partition.m != m:
                raise ConfigError(
                    f"partition for (m={partition.m}, n={partition.n}) does not "
                    f"match channels (m={m}, n={n})"
                )
        antenna = np.stack([partition.assignment for partition in partitions])
    else:
        antenna = partitions
        if antenna.shape != (trials, n):
            raise ConfigError(
                f"need a (trials, n) = {(trials, n)} assignment, got {antenna.shape}"
            )
    sigma2s = []
    for noise in noise_variances:
        sigma2 = np.asarray(noise, dtype=np.float64)
        if sigma2.shape not in ((), (1,), (m,)):
            raise ConfigError(
                f"a per-antenna noise variance needs m={m} values, "
                f"got {sigma2.size} (shape {sigma2.shape})"
            )
        sigma2s.append(np.broadcast_to(sigma2, (m,)).copy())

    trial = np.arange(trials)[:, np.newaxis]
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

    squares = amplitudes**2
    square_sums = squares.sum(axis=-1)
    if combining == "snr-sum":
        snrs = np.stack([(squares / s2).sum(axis=-1) for s2 in sigma2s], axis=-1)
        snr = p_s_watt * snrs
        degenerate = trials
    else:
        fourth_sums = (amplitudes**4).sum(axis=-1)
        denoms = np.stack([(squares * s2).sum(axis=-1) for s2 in sigma2s], axis=-1)
        # the first trial with a level that no antenna serves raises, after
        # the warnings of the trials before it and its own
        vanished = np.flatnonzero((denoms < ZERO_NORM).any(axis=-1))
        degenerate = int(vanished[0]) if len(vanished) else trials
        snr = p_s_watt * fourth_sums[:, np.newaxis] / denoms
    for count in unusable[: degenerate + 1]:
        if count:
            warnings.warn(
                f"{count} antenna(s) with zero combined signal; "
                "MRC weight set to 1",
                DegenerateElementWarning,
                stacklevel=3,
            )
    if degenerate < trials:
        raise DegenerateChannelError("all antennas received zero signal")
    rates = np.log2(1.0 + snr)
    if not solutions:
        return rates, np.ones(rates.shape, dtype=np.intp)

    weights = np.ones((trials, m), dtype=np.complex128)
    weights[usable] = np.conj(own[usable]) / np.abs(own[usable])
    if combining == "snr-sum":
        powers = (p_s_watt * square_sums).tolist()
    else:
        powers = (p_s_watt * fourth_sums / square_sums).tolist()
    results = []
    for row, (trial_rates, power_eff) in enumerate(zip(rates.tolist(), powers)):
        theta = PhaseShiftVector(angles[row]) if phases is None else phases
        results.append(
            tuple(
                FirstSlotSolution(
                    method="irses",
                    theta1=theta,
                    receive_power_watt=power_eff,
                    rate_r=rate_r,
                    trace=(rate_r,),
                    mrc_weights=weights[row],
                    partition=partitions[row],
                )
                for rate_r in trial_rates
            )
        )
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
    hop = _hop(channels, _SECOND_HOP, stack=False)
    return _alternate(
        hop, p_r_watt, (noise_variance_watt,), epsilon, max_iter, _second_slot_solution
    )[0][0]


def second_slot_optimize_batch(
    channels: ChannelSet,
    p_r_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[tuple[SecondSlotSolution, ...]]:
    """:func:`second_slot_optimize` on each trial of a stack at each noise variance.

    As in :func:`ais_max_rp_batch`, one loop serves every level, and each
    (trial, level)'s solution equals the scalar one bit for bit.
    """
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


def _closed_rates(
    powers: list[float], noises: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """A closed form's results on a stack of trials, from each trial's power.

    ``(trials, levels)`` arrays of rates (:func:`_rates`) and of iteration
    counts, as the loops' rates forms give them; a closed form takes one
    step.
    """
    rates = _rates(powers, noises)
    return rates, np.ones(rates.shape, dtype=np.intp)


def _fixed_first_slot(
    channels: Links, p_s_watt: float, noises: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """``ais-fixed-phase``'s first slot on a stack of trials, per noise level.

    Identity reflection phases; the receive beamformer is the matched
    filter to the resulting first-hop channel.
    """
    n = channels.h_si.shape[-1]
    combined = _hop_channel(_FIRST_HOP(channels), np.zeros(n))
    return _closed_rates(_powers(p_s_watt, _unit(combined), combined), noises)


def _matched_direct(
    direct: np.ndarray, p_watt: float, noises: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """A matched-filter hop's rates on a stack of its channels, per level.

    The matched filter collects each channel's whole power: a direct link of
    ``baseline-relay-only``, which has no surface, or a hop channel at fixed
    phases.
    """
    return _closed_rates([p_watt * norm**2 for norm in _norms(direct)], noises)


def _fixed_second_slot(
    channels: Links, p_r_watt: float, noises: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-phase second slot on a stack of trials, per noise level.

    Identity reflection phases; the transmit beamformer is still matched,
    so the power is that of the whole second-hop channel.
    """
    n = channels.h_id.shape[-1]
    return _matched_direct(
        _hop_channel(_SECOND_HOP(channels), np.zeros(n)), p_r_watt, noises
    )


def _irs_only(
    channels: Links, p_s_watt: float, noises: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """``baseline-irs-only`` on a stack of trials, per noise level.

    One hop S -> IRS -> D with element-wise alignment: every cascaded path
    adds in phase, so the amplitude is the sum of the path magnitudes.
    ``np.sum`` along the trailing axis adds each trial's as on one trial
    (``vecdot`` would not), and the square is a float's, as in
    :func:`_powers`.
    """
    amplitudes = np.sum(np.abs(channels.h_id) * np.abs(channels.h_si), axis=-1)
    return _closed_rates([p_s_watt * amp**2 for amp in amplitudes.tolist()], noises)


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

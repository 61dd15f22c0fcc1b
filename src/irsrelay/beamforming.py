"""Phase-shift and beamformer co-design for both hops: the loops and closed forms.

This module holds what a table runs: one loop per solver family and every
closed form, on stacks of trials.  The public solvers, their solution
types and the grid oracle are in :mod:`~irsrelay.solutions`, which runs
these loops; their names resolve here too, on first use, so that a process
that only builds tables never imports that module.

No iterate of an alternation reads the noise variance: it enters only the
rate trace and the stop.  Every loop runs on a stack of trials (one hop's
blocks with a leading trial axis) for several noise variances at once:
each (trial, noise level) stops at its own iterate, and a trial leaves the
stack once all its levels have stopped.  The closed-form steps are stacked
calls too: NSP's projectors off the direct links, its relaxed start phases
and its direct branch at every stopped iterate, and all of ``_irses``,
whose noise-free part is computed once for every level.  Every stacked
operation runs the same floating-point operations per trial as the
one-trial case (the same BLAS or LAPACK call per slice, the same
elementwise loops), so a trial's result does not depend on what it is
stacked with.

NSP projects off one direction at a time: the reflected branch off each
trial's direct link, and, by default, the direct link off the converged
cascade.  Each is the closed form ``I - â â^H`` with ``â = a / ||a||``, as
a matrix where a loop applies it (:func:`_rank_one_projectors`) and as
``x - â (â^H x)`` where it is applied once (:func:`_project_off`); no SVD
runs.  Only literal mode's projector off the whole surface matrix, a space
of more than one column, takes the pseudo-inverse (:func:`_projectors`).

Every solver iterates on the surface's unit phasors ``e = exp(j*theta)``,
never on angles: the closed-form alignment of a reflected path ``row`` onto
a reference phasor ``r`` is ``r * conj(row) / |row|``
(:func:`_aligned_phasors`), and a hop's channel applies ``e`` as it is, so
no loop calls ``arctan2`` or ``exp``.  Angles exist only in
:class:`PhaseShiftVector`, built from ``np.angle`` of a solution's final
phasors.

Each loop (``_alternate``: ``ais`` on the first hop, the second slot on
the second; ``_nsp``; ``_irses``) returns its rates form, ``(trials,
levels)`` arrays of rates and iteration counts, all a table reads, and
checks every iterate (finite unit phasors in :func:`_aligned_phasors`, unit
norms in :func:`_unit`, no dip of a rate in ``_Stops``).  A stop copies no
array of its iterate, bar NSP's receive vector and cascade.  With
``traces``, a loop also returns ``stopped[t][l] = (iterate, trace)``: the
iterate each (trial, level) stopped on and its rate trace, from which the
solvers of :mod:`~irsrelay.solutions` build their objects on a stack of
one.  The rates and counts are the same bits either way.  ``_irses`` takes
the trials' element partitions as one array of assignments
(:func:`_irses_assignments`).  The other closed forms the trial engine
runs on a stack are here too, beside the loops:
``_fixed_first_slot`` and ``_fixed_second_slot`` (the fixed-phase slots),
``_matched_direct`` (a hop of ``baseline-relay-only``) and ``_irs_only``.
They, ``_Stops`` on a stack and NSP's results form every rate with one
array call of :func:`~irsrelay.metrics._rate`, the package's one rate rule.

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

from .channel import PARTITION_STREAM, ZERO_NORM, Links, check_integer, keyed_generators
from .errors import (
    ConfigError,
    DegenerateChannelError,
    DegenerateElementWarning,
    ProjectorDegenerateError,
    TraceDipError,
)
from .metrics import _check_levels, _rate

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
        if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
            raise ConfigError(f"beamformer norm must be 1, got {norm!r}")


def _unit(weights: np.ndarray) -> np.ndarray:
    """Each row of a stack of weight vectors scaled to unit norm.

    Zero vectors and vectors with a non-finite entry are rejected, before
    any division, and every result passes the unit-norm check of a
    beamformer (the solvers call this on every iterate).
    """
    norms = _norms(weights)
    if not all(norm < math.inf for norm in norms):  # NaN compares False
        raise ConfigError(f"beamformer weights must be finite, got norms {norms}")
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
        if not np.isfinite(angles).all():
            raise ConfigError("phase vector contains non-finite angles")
        object.__setattr__(self, "angles", wrap_angles(angles))

    def __len__(self) -> int:
        return self.angles.shape[0]

    @property
    def phasors(self) -> np.ndarray:
        """Unit-modulus reflection coefficients exp(j*angle)."""
        return np.exp(1j * self.angles)


def _check_iteration_controls(epsilon: float, max_iter: int) -> None:
    if not epsilon > 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    check_integer(max_iter, "max_iter")
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


def _checked_phasors(phasors: np.ndarray) -> np.ndarray:
    """``phasors``, once every entry is finite, as a phase vector's angles must be."""
    if np.count_nonzero(np.isfinite(phasors)) != phasors.size:
        raise ConfigError("phase vector contains non-finite phasors")
    return phasors


def _unit_phasors(z: np.ndarray) -> np.ndarray:
    """``z / |z|`` entrywise, and 1 where ``z`` is 0, the phasor of ``np.angle(0)``.

    The division is a product with the reciprocal magnitudes, so that a NaN
    entry gives NaN without a floating-point warning; the caller's check
    rejects it.
    """
    magnitudes = np.abs(z)
    zero = magnitudes == 0.0
    magnitudes[zero] = 1.0
    phasors = z * np.reciprocal(magnitudes, out=magnitudes)
    phasors[zero] = 1.0
    return phasors


def _aligned_phasors(reference: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """Checked unit phasors rotating each entry of ``rows`` onto ``reference``.

    ``reference`` holds one unit phasor per row (trailing axis of length 1),
    or is None for phase 0.  Entry ``i``'s phasor is ``reference *
    conj(rows[i]) / |rows[i]|``, written over ``rows``; the solvers iterate
    on such arrays and build one :class:`PhaseShiftVector` at the end, so
    every iterate is checked here.  Entries with zero magnitude carry no
    signal; their phasor is set to 1 and reported through
    :class:`DegenerateElementWarning`, once per row.
    """
    magnitudes = np.abs(rows)
    zero = magnitudes < ZERO_NORM
    degenerate = np.count_nonzero(zero)
    if degenerate:
        magnitudes[zero] = 1.0  # no division by zero below
    phasors = np.conjugate(rows, out=rows)
    phasors *= np.reciprocal(magnitudes, out=magnitudes)
    if reference is not None:
        phasors *= reference
    if degenerate:
        phasors[zero] = 1.0
        counts = zero.sum(axis=-1, keepdims=True)
        for count in counts[counts > 0]:
            warnings.warn(
                f"{int(count)} zero-magnitude cascaded path(s); phase set to 0",
                DegenerateElementWarning,
                stacklevel=3,
            )
    return _checked_phasors(phasors)


def _align(hop: tuple, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Unit phasors aligning each reflected path with the direct path at ``u``.

    ``hop`` is one hop's (direct link, surface matrix H, element link h),
    with a leading trial axis; with ``rows``, ``H`` is a whole stack and the
    others its rows ``rows`` (:func:`_matvec`).  The reference is the unit
    phasor of ``u^H direct``, 1 where that is 0.
    """
    direct, H, h = hop
    reference = _unit_phasors(np.vecdot(u, direct))[:, np.newaxis]
    return _aligned_phasors(reference, _path_row(H, h, u, rows))


def _hop_channel(
    hop: tuple, phasors: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """A hop's effective channel direct + H diag(phasors) h.

    ``rows`` are as in :func:`_align`.
    """
    direct, H, h = hop
    return direct + _matvec(H, phasors * h, rows)


#: the first and second hop's (direct link, surface matrix, element link)
_FIRST_LINKS = ("h_sr", "H_ir", "h_si")
_SECOND_LINKS = ("h_rd", "H_ri", "h_id")
_FIRST_HOP = operator.attrgetter(*_FIRST_LINKS)
_SECOND_HOP = operator.attrgetter(*_SECOND_LINKS)


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
    have stopped.  Only with ``traces`` is each trial's ``history`` kept,
    its rates at every iterate it ran, from which :meth:`results` cuts each
    level's rate trace.  The rates are floats, as in the one-trial rule: on
    stacks of 1 to 16 rows, numpy's cost per call exceeds what an array of
    a few rates saves.
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
            rates = ([float(_rate(power / noise)) for noise in self.noise],)
        else:
            rates = _rate(np.divide.outer(powers, self.noise)).tolist()
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

    def results(self, rates=None, iterates=None) -> tuple:
        """The ``(trials, levels)`` arrays of rates and of iteration counts.

        The rates are ``rates``, or else those the levels stopped at.  With
        ``traces``, a third result is ``stopped[t][l] = (iterate, trace)``:
        the iterate (by kept index, in ``iterates`` or else ``kept``; None
        if none was kept) and the rates up to the stop.
        """
        rates = self.column(0) if rates is None else rates
        if self.history is None:
            return rates, self.column(1)
        iterates = self.kept if iterates is None else iterates
        stopped = [
            [
                (None if index is None else iterates[index], trace[:count])
                for trace, (_, count, index) in zip(zip(*ran), levels)
            ]
            for ran, levels in zip(self.history, self.stopped)
        ]
        return rates, self.column(1), stopped


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
    traces: bool = False,
) -> tuple:
    """``ais_max_rp``'s loop on one hop of a stack of trials.

    ``hop`` holds the (direct, H, h) blocks with a leading trial axis.  No
    iterate reads the noise, which enters only each level's rate trace and
    its stop.  Returns ``(trials, levels)`` arrays of rates and iteration
    counts, and, with ``traces``, each level's (iterate, trace)
    (:meth:`_Stops.results`), the iterate being (phasors, weights, power);
    only then does a stop keep a copy of its iterate.
    """
    direct, H, h = hop
    stops = _Stops(len(direct), tuple(noise_variances), epsilon, max_iter, traces)
    _check_levels(stops.noise, p_watt)
    u = _unit(direct)  # the matched filter to each direct link
    surface = _Surface(H)
    for _ in range(max_iter):
        phasors = _align((direct, surface.H, h), u, surface.rows)
        combined = _hop_channel((direct, surface.H, h), phasors, surface.rows)
        u = _unit(combined)
        iterate = (phasors, u) if traces else ()
        keep = stops.record(_powers(p_watt, u, combined), iterate)
        if keep is not None:
            if not keep:
                break
            direct, h, u = direct[keep], h[keep], u[keep]
            surface = surface.keep(keep)
    return stops.results()


def _projectors(A: np.ndarray) -> np.ndarray:
    """:func:`nsp_projector` of each matrix of a stack, shape (T, m, k).

    ``pinv``, ``@`` and the transposes act slice by slice, with the same
    LAPACK and BLAS call per matrix as on one matrix.  Only a space of more
    than one column needs this: projecting off one direction is a closed
    form (:func:`_rank_one_projectors`, :func:`_project_off`).
    """
    gram_inv = np.linalg.pinv(np.conj(A.mT) @ A, rcond=PINV_RCOND)
    # I - A gram_inv A^H, subtracted in place: a stack holds one such array
    spanned = A @ gram_inv @ np.conj(A.mT)
    return np.subtract(np.eye(A.shape[-2], dtype=np.complex128), spanned, out=spanned)


def _directions(a: np.ndarray) -> np.ndarray:
    """Each row of a stack of vectors over its norm (:func:`_norms`).

    A zero row stays zero, so that projecting off it projects off nothing,
    as the pseudo-inverse's cutoff does.  The division is elementwise, so a
    row's bits do not depend on the stack.
    """
    norms = np.array(_norms(a))[:, np.newaxis]
    return np.divide(a, norms, out=np.zeros_like(a), where=norms != 0.0)


def _rank_one_projectors(a: np.ndarray) -> np.ndarray:
    """The projector ``I - â â^H`` off each row ``a`` of a stack, shape (T, m, m).

    This is :func:`_projectors` of each row as one column, in closed form:
    an outer product per row, no SVD.
    """
    unit = _directions(a)
    spanned = unit[:, :, np.newaxis] * np.conj(unit[:, np.newaxis, :])
    return np.subtract(np.eye(a.shape[-1], dtype=np.complex128), spanned, out=spanned)


def _project_off(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` projected off the same row of ``a``: ``x - â (â^H x)``.

    :func:`_rank_one_projectors` applied to ``x`` without building a matrix.
    """
    unit = _directions(a)
    return x - unit * np.vecdot(unit, x)[:, np.newaxis]


def _nsp_start_phases(
    H: np.ndarray, h: np.ndarray, direct_null: np.ndarray
) -> np.ndarray:
    """Checked start phasors of the null-space alternation on a stack of trials.

    The reflected branch at phasors e is ||B e|| with B = P H diag(h).
    B's principal right singular vector v maximizes it without the
    unit-modulus constraint; its unit phasors ``v / |v|``, rotated by
    ``conj(p) / |p|`` of its largest entry p so that this entry is real
    positive (a deterministic global phase), are one candidate and flat
    phasors (all 1) the other.  The larger branch wins, flat phasors on a
    tie, so the start is never below the flat-phase branch.
    """
    # a contiguous copy: ``H * h`` on a strided corner would also buffer H
    relaxed = H.copy()
    relaxed *= h[:, np.newaxis]
    relaxed = direct_null @ relaxed
    relaxed_h = np.conj(relaxed.mT)
    # B^H times the principal eigenvector of the m x m Gram matrix B B^H is
    # the principal right singular vector up to scale, without an n x n SVD
    v = np.matvec(relaxed_h, np.linalg.eigh(relaxed @ relaxed_h)[1][..., -1])
    del relaxed_h  # one (T, m, n) temporary fewer for the rest
    peak = v[np.arange(len(v)), np.argmax(np.abs(v), axis=-1)]
    phasors = _unit_phasors(v) * np.conj(_unit_phasors(peak))[:, np.newaxis]
    singular = _norms(np.matvec(relaxed, phasors))
    flat = _norms(relaxed.sum(axis=-1))
    wins = np.array([s > f for s, f in zip(singular, flat)])
    return _checked_phasors(np.where(wins[:, np.newaxis], phasors, 1.0))


def _nsp(
    hop: tuple,
    p_s_watt: float,
    noise_variances: tuple[float, ...],
    epsilon: float,
    max_iter: int,
    mode: str,
    combining: str,
    phases: PhaseShiftVector | None,
    traces: bool = False,
) -> tuple:
    """``nsp_max_rp_mrc``'s loop on the first hop of a stack of trials.

    The projectors off the direct links and the start phases are built for
    the whole stack, the reflected branch iterates in one loop, and
    :func:`_nsp_results` closes out every stopped (trial, level) at once.
    Returns ``(trials, levels)`` arrays of rates and iteration counts, and,
    with ``traces``, each level's (iterate, trace); a stop keeps its
    iterate's receive vector and cascade, and its phasors only with
    ``traces``.
    """
    noise_variances = tuple(noise_variances)
    h_sr, H_ir, h_si = hop
    trials, m, n = H_ir.shape
    stops = _Stops(
        trials, noise_variances, epsilon, max_iter if phases is None else 1, traces
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

    direct_null = _rank_one_projectors(h_sr)
    if phases is None:
        step = max(1, START_PHASE_BYTES // H_ir[0].nbytes)
        parts = (H_ir, h_si, direct_null)
        phasors = np.concatenate(
            [
                _nsp_start_phases(*(part[t : t + step] for part in parts))
                for t in range(0, trials, step)
            ]
        )
    else:
        phasors = phases.phasors
    # the reflected branch alone: no direct term in the cascade
    cascade = np.matvec(H_ir, phasors * h_si)
    if phases is not None:
        u_ri = _unit(np.matvec(direct_null, np.matvec(direct_null, cascade)))
        stops.record(_powers(p_s_watt, u_ri, cascade), (u_ri, cascade))
    else:
        # the projectors are this loop's own: they move forward in place
        h, null, surface = h_si, direct_null, _Surface(H_ir)
        for _ in range(max_iter):
            # projector applied twice as defined; idempotence makes it one
            u_ri = _unit(np.matvec(null, np.matvec(null, cascade)))
            # aligned to phase 0, as the direct path is projected off
            row = _path_row(surface.H, h, u_ri, surface.rows)
            phasors = _aligned_phasors(None, row)
            # the next iteration starts from this cascade
            cascade = _matvec(surface.H, phasors * h, surface.rows)
            powers = _powers(p_s_watt, u_ri, cascade)
            keep = stops.record(
                powers, (u_ri, cascade, phasors) if traces else (u_ri, cascade)
            )
            if keep is not None:
                if not keep:
                    break
                h, cascade = h[keep], cascade[keep]
                null = _compact(null, keep)
                surface = surface.keep(keep)
        # the direct branch needs none of the running rows
        del h, null, surface, direct_null, parts
    return _nsp_results(hop, p_s_watt, stops, mode, combining, phases)


def _nsp_results(
    hop: tuple,
    p_s_watt: float,
    stops: _Stops,
    mode: str,
    combining: str,
    phases: PhaseShiftVector | None,
) -> tuple:
    """``nsp_max_rp_mrc``'s results at the stopped reflected-branch iterates.

    Each iterate ``stops`` kept holds the reflected branch's (receive
    vector, cascade), its phasors when ``stops`` keeps traces and the
    alternation ran (not at fixed ``phases``), and its power, shared by the
    levels that stopped on it.  The direct branch's beamformer is built
    off the reflected signal for every kept iterate of the stack at once,
    and both branches are combined.  The branch amplitudes are ``abs`` of
    Python complex numbers, as in the one-trial rule: numpy's complex
    ``abs`` can differ in the last bit.  Every (trial, level)'s rate
    ``log2(1 + power / noise)`` is one array operation (:func:`_rate`).
    With traces, a level's iterate is (direct and reflected receive
    vectors, combined power, phasors), the phasors None at fixed ``phases``.
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
        direct_raw = _project_off(cascade, direct)
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
    powers, closed = [0.0] * len(order), [None] * len(order)
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
        if stops.history is not None:
            kept = stops.kept[index]
            phasors = kept[2] if phases is None else None
            closed[index] = (u_s, kept[0], power_eff, phasors)
    levels = np.arange(len(stops.noise))
    rates = _rate(np.divide.outer(powers, stops.noise))[stops.column(2), levels]
    return stops.results(rates, closed)


def _irses_assignments(n: int, m: int, seeds: Sequence[int]) -> np.ndarray:
    """The assignments of ``irses_partition`` at each of ``seeds``, one array.

    Row ``k`` of the ``(len(seeds), n)`` array is the assignment of
    ``seeds[k]``'s partition, bit for bit; no partition object is built, as
    the trial engine reads only the rows.
    """
    check_integer(n, "element count n")
    check_integer(m, "antenna count m")
    if m < 1 or n < 1:
        raise ConfigError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if n % m != 0:
        raise ConfigError(f"antenna count {m} must divide element count {n}")
    groups = np.repeat(np.arange(m, dtype=np.intp), n // m)
    assignments = np.empty((len(seeds), n), dtype=np.intp)
    keys = ((seed, PARTITION_STREAM) for seed in seeds)
    for assignment, rng in zip(assignments, keyed_generators(keys)):
        assignment[rng.permutation(n)] = groups
    return assignments


def _irses(
    hop: tuple,
    p_s_watt: float,
    noise_variances: tuple,
    antenna: np.ndarray,
    interference_mode: str,
    combining: str,
    phases: PhaseShiftVector | None,
    traces: bool = False,
) -> tuple:
    """``irses_max_rp_mrc``'s closed form on the first hop of a stack of trials.

    ``antenna`` holds the trials' element partitions as one ``(trials, n)``
    array of assignments (:func:`_irses_assignments`).  Trial ``t`` reads
    element ``i`` of antenna ``antenna[t, i]`` through (trial, antenna)
    fancy indices, and ``np.add.at`` adds each antenna's elements in
    element order, as on one trial.  A row's sum over the antennas is the
    one-trial sum of that row, bit for bit, and every (trial, level)'s rate
    is one array operation.  The result is ``(trials, levels)`` arrays of
    rates and of iteration counts, all 1, and, with ``traces``, each
    level's (iterate, trace): the trial's (phasors, MRC weights, power),
    the phasors the fixed ones at ``phases``, and the one rate.
    """
    noise_variances = tuple(noise_variances)
    _check_levels(noise_variances, p_s_watt)
    if interference_mode not in IRSES_MODES:
        raise ConfigError(f"unknown interference_mode {interference_mode!r}")
    if combining not in COMBINING_MODES:
        raise ConfigError(f"unknown combining {combining!r}")
    h_sr, H_ir, h_si = hop
    trials, m, n = H_ir.shape
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
        # the direct path's unit phasor at the element's antenna, times the
        # conjugate of its path's and its element link's
        paths = np.conj(_unit_phasors(own_paths) * _unit_phasors(h_si))
        phasors = _checked_phasors(paths * _unit_phasors(h_sr)[trial, antenna])
    else:
        if len(phases) != n:
            raise ConfigError("fixed phase vector length must equal n")
        phasors = phases.phasors

    own = h_sr.copy()
    np.add.at(own, (trial, antenna), own_paths * phasors * h_si)
    if interference_mode == "idealized":
        amplitudes = np.abs(own)
    else:
        amplitudes = np.abs(_hop_channel(hop, phasors))

    usable = np.abs(own) >= ZERO_NORM
    unusable = (m - np.count_nonzero(usable, axis=-1)).tolist()

    squares = amplitudes**2
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
    rates, counts = _rate(snr), np.ones(snr.shape, dtype=np.intp)
    if not traces:
        return rates, counts

    weights = np.ones((trials, m), dtype=np.complex128)
    weights[usable] = np.conj(own[usable]) / np.abs(own[usable])
    square_sums = squares.sum(axis=-1)
    if combining == "snr-sum":
        powers = (p_s_watt * square_sums).tolist()
    else:
        powers = (p_s_watt * fourth_sums / square_sums).tolist()
    iterates = zip(np.broadcast_to(phasors, (trials, n)), weights, powers)
    stopped = [
        [(iterate, (rate,)) for rate in row]
        for iterate, row in zip(iterates, rates.tolist())
    ]
    return rates, counts, stopped


def _closed_rates(
    powers: list[float], noises: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """A closed form's results on a stack of trials, from each trial's power.

    ``(trials, levels)`` arrays of rates (:func:`_rate`) and of iteration
    counts, as the loops' rates forms give them; a closed form takes one
    step.
    """
    rates = _rate(np.divide.outer(powers, noises))
    return rates, np.ones(rates.shape, dtype=np.intp)


def _fixed_first_slot(
    channels: Links, p_s_watt: float, noises: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """``ais-fixed-phase``'s first slot on a stack of trials, per noise level.

    Identity reflection phases; the receive beamformer is the matched
    filter to the resulting first-hop channel.
    """
    n = channels.h_si.shape[-1]
    combined = _hop_channel(_FIRST_HOP(channels), np.ones(n))
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
        _hop_channel(_SECOND_HOP(channels), np.ones(n)), p_r_watt, noises
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


def __getattr__(name: str):
    # the solutions' public names, and the oracle's cap, moved to
    # irsrelay.solutions, which is imported when one is first read (PEP 562)
    from . import _HOMES

    if name not in (*_HOMES["solutions"], "ORACLE_MAX_COMBINATIONS"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import solutions

    return getattr(solutions, name)

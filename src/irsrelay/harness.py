"""Deterministic Monte Carlo experiment engine.

A scenario is evaluated trial by trial: each trial derives its own seed from
``(base_seed, trial_index)``, samples one :class:`~irsrelay.channel.ChannelSet`,
runs the configured first-slot method plus the second-slot optimizer, and
reports per-slot and end-to-end rates.  Sweeps repeat this over an axis
(SNR, element count, antenna count, or relay position) and aggregate mean
rate and standard error per axis value and method.  A table is averaged
from each configuration's :class:`Columns` (:func:`collect_columns`), the
rates and iteration counts of its trials as arrays in trial order;
:func:`collect_trials` and :func:`run_trial` build a :class:`TrialRecord`
per trial from the same columns.

Several configurations (the methods of a table, the points of a sweep) are
evaluated together, chunk-major and, within a chunk, draw-major and
hop-major: the trial indices are cut into chunks, and for each chunk every
distinct set of channel inputs is drawn in turn, a stack of the chunk's
trials, in two passes (:func:`~irsrelay.channel.sample_links`).  The first
draws the links that the solves reading no ``H_ri`` need (the first slots,
``baseline-irs-only``, ``baseline-relay-only``) and runs them; then every
block the second pass does not read, ``H_ir`` above all, is dropped, and
the second draws ``H_ri`` for the second slots.  Each solve keyed on the
draw (same solver and inputs but the noise, shared by several
configurations) runs once on the stack, for every noise level it serves
(every SNR point of a sweep): the alternations as one batched loop, each
(trial, level) stopping at its own iterate, and the closed forms
(``irses``, the fixed-phase slots, the baselines' hops) as stacked calls.
Every solve is :mod:`~irsrelay.beamforming`'s: this module plans, draws
and averages, and forms no hop's rate itself.
A loop multiplies the shared stack until at most
:data:`~irsrelay.beamforming.COPY_SHARE` of its rows run, and copies only
those.  The solvers' private rates forms keep only a ``(trials, levels)``
array of rates and one of iteration counts per solve, which is all a table
reads, and the stack is dropped before the next draw is made.  Each
configuration's columns are then read out of those arrays, a slice of each
when the configurations share the chunk's trials (one map of their rows),
nothing drawn or solved again and no per-trial object made.  A chunk holds
at most as many trials as keep one hop of its largest draw, and the loops'
copy of it, within :data:`CHUNK_BYTES` of what one trial holds, and at
most :data:`CHUNK_TRIALS`: a property of the draws' sizes, not a setting,
that bounds the memory a chunk holds.  The trials are cut into as few chunks as
that limit allows, of lengths at most one apart.  Every result is a pure
function of the configuration and trial index, so tables are reproducible
bit for bit whatever else is evaluated alongside, whatever the chunk and
whatever the worker count.

Random streams are keyed by Philox itself, with no hash
(:mod:`~irsrelay.channel`): a table derives its trial seeds with one
generator per base seed, positioned at each (base seed, trial index) in
turn; a draw's links are drawn from the trial seeds, a row at a time; and
a chunk draws its ``irses`` partitions from them once per (n, m), each
trial's that of :func:`~irsrelay.beamforming.irses_partition` at its seed.
A one-antenna draw (``baseline-single-antenna``) is not drawn when another
draw of the chunk has the same trials and other inputs at more antennas: it
is the leading antenna of that stack, served as a copy of those rows, pass
by pass.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .beamforming import (
    COPY_SHARE,
    _FIRST_HOP,
    _FIRST_LINKS,
    _SECOND_HOP,
    _SECOND_LINKS,
    COMBINING_MODES,
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITER,
    IRSES_MODES,
    NSP_MODES,
    PhaseShiftVector,
    _alternate,
    _check_iteration_controls,
    _fixed_first_slot,
    _fixed_second_slot,
    _irs_only,
    _irses,
    _irses_assignments,
    _matched_direct,
    _nsp,
)
from .channel import (
    LINK_STREAMS,
    Geometry,
    LinkBudget,
    Links,
    check_seed,
    sample_links,
    stream_seed,
    stream_seeds,
)
from .errors import ConfigError
from .metrics import RateResult, noise_variance_for_snr

# The benchmark's trace points (perfbench/tracing.py) wrap the one-trial
# sampler, the scalar solvers, the one-seed partition, the one-trial
# fixed-phase helpers and the scalar rate under these names; the trial
# engine draws with sample_links, calls the solvers' rates forms, draws
# partition assignments with _irses_assignments and runs beamforming's
# closed forms on a chunk's stack.
from .channel import sample_channels  # noqa: F401
from .beamforming import (  # noqa: F401
    ais_max_rp,
    irses_max_rp_mrc,
    irses_partition,
    nsp_max_rp_mrc,
    second_slot_optimize,
    ur_update_ais,
)
from .metrics import rate_from_power, receive_power_ais  # noqa: F401


class Method(NamedTuple):
    """How a method evaluates a trial.

    ``trial`` is "two-hop", "irs-only" (one hop via the surface alone) or
    "relay-only" (both hops without the surface).  ``first_slot`` names the
    solver of a two-hop trial ("ais", "nsp" or "irses"); :func:`_solves`
    picks that solver's rates form by this name.
    """

    trial: str
    first_slot: str | None = None
    fixed_phase: bool = False
    m: int | None = None


#: every method by name, in table order; fixed-phase ablations pin the surface
#: phases of both slots to zero and still optimize the beamformers
METHODS = {
    "ais": Method("two-hop", "ais"),
    "nsp": Method("two-hop", "nsp"),
    "irses": Method("two-hop", "irses"),
    "ais-fixed-phase": Method("two-hop", "ais", fixed_phase=True),
    "nsp-fixed-phase": Method("two-hop", "nsp", fixed_phase=True),
    "irses-fixed-phase": Method("two-hop", "irses", fixed_phase=True),
    # the same alternating design with a single relay antenna
    "baseline-single-antenna": Method("two-hop", "ais", m=1),
    "baseline-irs-only": Method("irs-only"),
    "baseline-relay-only": Method("relay-only"),
}

PROPOSED_METHODS = ("ais", "nsp", "irses")

SWEEP_AXES = ("snr_db", "n", "m", "distance_d")


@dataclass(frozen=True)
class ScenarioConfig:
    """One complete experiment configuration.

    ``snr_db`` is the ratio of total transmit power to noise variance; the
    noise variance used by every solver is derived from it, see
    :func:`~irsrelay.metrics.noise_variance_for_snr`.
    """

    geometry: Geometry = Geometry()
    budget: LinkBudget = LinkBudget()
    m: int = 16
    n: int = 160
    method: str = "ais"
    snr_db: float = 30.0
    trials: int = 500
    base_seed: int = 0
    epsilon: float = DEFAULT_EPSILON
    max_iter: int = DEFAULT_MAX_ITER
    nsp_mode: str = NSP_MODES[0]
    irses_mode: str = IRSES_MODES[0]
    combining: str = COMBINING_MODES[0]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        check_seed(self.base_seed, "base_seed")
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; choose from {', '.join(METHODS)}"
            )
        _check_iteration_controls(self.epsilon, self.max_iter)
        if self.nsp_mode not in NSP_MODES:
            raise ConfigError(f"unknown nsp_mode {self.nsp_mode!r}")
        if self.irses_mode not in IRSES_MODES:
            raise ConfigError(f"unknown irses_mode {self.irses_mode!r}")
        if self.combining not in COMBINING_MODES:
            raise ConfigError(f"unknown combining {self.combining!r}")
        method = METHODS[self.method]
        m = method.m or self.m
        if method.first_slot == "nsp" and m < 2:
            raise ConfigError("nsp methods need m >= 2")
        if method.first_slot == "irses" and self.n % m != 0:
            raise ConfigError(
                f"irses methods need m to divide n, got m={m}, n={self.n}"
            )
        try:
            noise = self.noise_variance_watt
        except OverflowError:  # 10 ** (snr_db / 10) beyond the float range
            noise = 0.0
        except ZeroDivisionError:  # 10 ** (snr_db / 10) underflows to 0
            noise = math.inf
        if not 0.0 < noise < math.inf:
            raise ConfigError(
                f"snr_db={self.snr_db} gives noise variance {noise}; "
                "it must be finite and positive"
            )

    @property
    def noise_variance_watt(self) -> float:
        return noise_variance_for_snr(
            self.snr_db, self.budget.p_s_watt, self.budget.p_r_watt
        )


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one Monte Carlo trial, reproducible from (config, index)."""

    trial_index: int
    seed: int
    result: RateResult


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Per-trial channel seed derived from the experiment base seed."""
    return stream_seed(base_seed, trial_index)


#: a chunk's limits.  Beyond one trial's draws, which evaluating trial by
#: trial holds too, a chunk may hold CHUNK_BYTES of one hop of one draw and
#: the loops' working rows: a chunk draws its channel inputs one at a time
#: and each hop by hop, solves everything keyed on that hop and drops its
#: surface matrix before the next is drawn, keeping only an array of rates
#: and one of iteration counts per solve, a column per noise level.  A
#: loop multiplies the shared matrix until at most COPY_SHARE of its rows
#: run, then copies those.  So a trial at (m, n) takes 16 ((1 + COPY_SHARE)
#: mn + 2m + 2n) bytes, one surface matrix, the loops' copy and four
#: vectors, once per base seed drawn at those inputs: a chunk holds up to
#: 16 trials at (16, 160) and 5 at (50, 200), however many geometries a
#: sweep draws.  Small draws are bounded by the trial count instead: at
#: (4, 16) what the budget leaves out grows with the trials too (the
#: draws' vectors, the loops' temporaries and per-trial stop records), and
#: a table of all nine methods peaks at 0.62 MB (tracemalloc) as one chunk
#: of 120 trials but at 0.97 MB as one chunk of 240, beyond the 0.75 MB
#: bound of tests/test_memory.py.  Longer stacks iterate faster but raise
#: the peak memory of a table build.
CHUNK_BYTES = 960_000
CHUNK_TRIALS = 120


def _channel_inputs(config: ScenarioConfig) -> tuple:
    """Everything a trial's channel draw depends on but its seed."""
    method = METHODS[config.method]
    return (method.m or config.m, config.n, config.geometry, config.budget)


def _chunk_trials(configs: Sequence[ScenarioConfig]) -> int:
    """The most trials a chunk may hold: as many as keep it within its limits.

    The largest draw sets the limit: a draw's stack holds a row per trial
    and base seed drawn at its channel inputs.
    """
    base_seeds: dict[tuple, set[int]] = {}
    for config in configs:
        base_seeds.setdefault(_channel_inputs(config), set()).add(config.base_seed)
    itemsize = np.dtype(np.complex128).itemsize
    per_trial = max(
        (
            len(seeds) * itemsize * (int((1 + COPY_SHARE) * m * n) + 2 * (m + n))
            for (m, n, *_), seeds in base_seeds.items()
        ),
        default=0,
    )
    return min(CHUNK_TRIALS, 1 + CHUNK_BYTES // max(1, per_trial))


def _trial_seeds(
    trials: Sequence[tuple[ScenarioConfig, Sequence[int]]],
) -> dict[tuple[int, int], int]:
    """The seed of each (base seed, trial index) of ``trials``.

    ``trials`` holds (configuration, trial indices) pairs; each seed is
    :func:`trial_seed`'s, and a table derives all of a base seed's at once.
    """
    indices: dict[int, dict[int, None]] = {}
    for config, ks in trials:
        indices.setdefault(config.base_seed, {}).update(dict.fromkeys(ks))
    seeds: dict[tuple[int, int], int] = {}
    for base, ks in indices.items():
        seeds.update(zip(((base, k) for k in ks), stream_seeds(base, ks)))
    return seeds


def _assignments(made: dict, seeds: list[int], n: int, m: int) -> np.ndarray:
    """The ``irses`` element assignments of trials ``seeds`` at (n, m), a row each.

    Each trial's is drawn once per chunk and kept in ``made`` for the other
    solves of the chunk that use it: by (n, m), the row of each trial and
    the drawn rows.
    """
    rows, assignments = made.get((n, m), ({}, None))
    missing = [seed for seed in seeds if seed not in rows]
    if missing:
        drawn = _irses_assignments(n, m, missing)
        if assignments is not None:
            drawn = np.concatenate([assignments, drawn])
        rows = {**rows, **{seed: len(rows) + k for k, seed in enumerate(missing)}}
        made[n, m] = rows, drawn
        assignments = drawn
    return assignments[_rows(list(rows), seeds)]


def _solves(config: ScenarioConfig, draw: int) -> dict[str, tuple]:
    """The solves in one trial of ``config``, by kind.

    ``"first"`` and ``"second"`` are the first- and second-slot solves of a
    two-hop method, the closed-form fixed-phase slots included, and the
    hops of ``baseline-relay-only``; ``baseline-irs-only`` has one
    ``"first"`` solve, its single hop.  Each is a (key, links, run) triple:
    ``run(partitions, seeds, channels, noises)`` solves the trials ``seeds``
    at once on their stacked ``channels``, which hold at least the links
    named in ``links`` (``partitions(seeds, n, m)`` gives their ``irses``
    element assignments, a row per trial), and returns ``(trials, levels)``
    arrays of rates and of iteration counts, a column per noise variance
    in the order of ``noises``; the key, led by the solver's name, holds every
    input of the solve except the trial seed and the noise, the channel
    inputs as the number ``draw`` they have among the configurations
    planned together.  Configurations with equal keys share one solve per
    trial for all their noise levels: the three fixed-phase methods, for
    one, share their second slot.
    """
    method = METHODS[config.method]
    p_s, p_r = config.budget.p_s_watt, config.budget.p_r_watt
    if method.trial == "irs-only":
        return {
            "first": (
                ("irs-only", draw),
                ("h_si", "h_id"),
                lambda partitions, seeds, channels, noises: _irs_only(
                    channels, p_s, noises
                ),
            )
        }
    if method.trial == "relay-only":
        return {
            "first": (
                ("relay-first", draw),
                ("h_sr",),
                lambda partitions, seeds, channels, noises: _matched_direct(
                    channels.h_sr, p_s, noises
                ),
            ),
            "second": (
                ("relay-second", draw),
                ("h_rd",),
                lambda partitions, seeds, channels, noises: _matched_direct(
                    channels.h_rd, p_r, noises
                ),
            ),
        }
    eps, max_iter = config.epsilon, config.max_iter
    zeros = PhaseShiftVector(np.zeros(config.n)) if method.fixed_phase else None
    solves = {}
    if method.first_slot == "ais" and method.fixed_phase:
        solves["first"] = (
            ("ais-fixed-phase", draw),
            _FIRST_LINKS,
            lambda partitions, seeds, channels, noises: _fixed_first_slot(
                channels, p_s, noises
            ),
        )
    elif method.first_slot == "ais":
        solves["first"] = (
            ("ais", draw, eps, max_iter),
            _FIRST_LINKS,
            lambda partitions, seeds, channels, noises: _alternate(
                _FIRST_HOP(channels), p_s, noises, eps, max_iter
            ),
        )
    elif method.first_slot == "nsp":
        options = (config.nsp_mode, config.combining, zeros)
        variant = (config.nsp_mode, config.combining, method.fixed_phase)
        solves["first"] = (
            ("nsp", draw, eps, max_iter, *variant),
            _FIRST_LINKS,
            lambda partitions, seeds, channels, noises: _nsp(
                _FIRST_HOP(channels), p_s, noises, eps, max_iter, *options
            ),
        )
    elif method.first_slot == "irses":
        m, n = _channel_inputs(config)[:2]
        options = (config.irses_mode, config.combining, zeros)
        variant = (config.irses_mode, config.combining, method.fixed_phase)
        solves["first"] = (
            ("irses", draw, *variant),
            _FIRST_LINKS,
            lambda partitions, seeds, channels, noises: _irses(
                _FIRST_HOP(channels),
                p_s,
                noises,
                partitions(seeds, n, m),
                *options,
            ),
        )
    if method.fixed_phase:
        solves["second"] = (
            ("fixed-second", draw),
            _SECOND_LINKS,
            lambda partitions, seeds, channels, noises: _fixed_second_slot(
                channels, p_r, noises
            ),
        )
    else:
        solves["second"] = (
            ("second", draw, eps, max_iter),
            _SECOND_LINKS,
            lambda partitions, seeds, channels, noises: _alternate(
                _SECOND_HOP(channels), p_r, noises, eps, max_iter
            ),
        )
    return solves


class Plan(NamedTuple):
    """A configuration's draw and solves, planned with other configurations.

    ``draw`` numbers its channel inputs ``channels`` (:func:`_channel_inputs`)
    among the distinct ones of the configurations planned together; the
    drawn channels and the solve keys name them by that number, so that
    reading a configuration's columns hashes no configuration.  ``solves``
    maps each kind of :func:`_solves` to the solve's (key, noise levels,
    links, run, level): the levels are the noise variances its key serves
    among the configurations, and ``levels[level]`` is the configuration's
    own.
    """

    draw: int
    channels: tuple
    solves: dict[str, tuple]


def solve_plans(configs: Sequence[ScenarioConfig]) -> list[Plan]:
    """Each configuration's :class:`Plan`, planned across ``configs``.

    Nothing here depends on the trial, so one plan serves every trial.
    """
    draws: dict[tuple, int] = {}
    inputs = [_channel_inputs(config) for config in configs]
    solves = [
        _solves(config, draws.setdefault(channels, len(draws)))
        for config, channels in zip(configs, inputs)
    ]
    noises = [config.noise_variance_watt for config in configs]
    levels: dict[tuple, dict[float, None]] = {}
    for noise, kinds in zip(noises, solves):
        for key, *_ in kinds.values():
            levels.setdefault(key, {})[noise] = None
    return [
        Plan(
            draws[channels],
            channels,
            {
                kind: (
                    key,
                    tuple(levels[key]),
                    links,
                    run,
                    list(levels[key]).index(noise),
                )
                for kind, (key, links, run) in kinds.items()
            },
        )
        for noise, channels, kinds in zip(noises, inputs, solves)
    ]


def _rows(drawn: list[int], seeds: list[int]) -> slice | list[int]:
    """The rows of a stack drawn for trials ``drawn`` that hold trials ``seeds``.

    A run of consecutive rows is a slice, so that it views the stack.
    """
    start = drawn.index(seeds[0])
    if drawn[start : start + len(seeds)] == seeds:
        return slice(start, start + len(seeds))
    row = {seed: k for k, seed in enumerate(drawn)}
    return [row[seed] for seed in seeds]


def _served_draws(draws: dict[int, list]) -> dict[int, int]:
    """The one-antenna draws that another draw serves: by source, the served.

    A draw at m = 1 is, bit for bit, the leading antenna of a draw at more
    antennas of the same seeds and other inputs
    (:func:`~irsrelay.channel.sample_links`): the single-antenna baseline's
    trials are served from the other methods' draw, as a copy of those
    rows, pass by pass, instead of drawn again.  Making the copy holds it beside its
    source, and at m = 1 it is a small part of it.
    """
    serves = {}
    for number, ((m, *inputs), seeds, _) in draws.items():
        if m != 1:
            continue
        for source, ((m_source, *inputs_source), drawn, _) in draws.items():
            covered = seeds.keys() <= drawn.keys()
            if m_source > 1 and inputs_source == inputs and covered:
                serves[source] = number
                break
    return serves


def _leading_antenna(stack: Links, drawn: list[int], seeds: list[int]) -> Links:
    """The m = 1 draw of trials ``seeds``, served from a stack drawn for ``drawn``."""
    return stack.rows(_rows(drawn, seeds), m=1)


def _passes(solves: dict) -> tuple[dict, dict]:
    """``solves`` in the order they run on a draw, one hop's matrix at a time.

    The first pass holds every solve that reads no ``H_ri``: the first
    slots, ``baseline-irs-only`` and ``baseline-relay-only``; the second,
    the second slots, which do.
    """
    return tuple(
        {key: solve for key, solve in solves.items() if ("H_ri" in solve[1]) == second}
        for second in (False, True)
    )


def _solve_draw(
    stack: Links, drawn: list[int], solves: dict, partitions, shared: dict
) -> None:
    """Run every solve keyed on one draw, each once for all its trials and levels.

    A solve of a subset of the drawn trials takes their rows of the links
    it reads, a view when they are consecutive rows (other base seeds,
    shorter tables).  ``shared`` keeps, by key, the solve's trials (each
    seed's row) and its rate and iteration-count arrays.
    """
    for key, (levels, links, run, seeds) in solves.items():
        order = list(seeds)
        if order == drawn:
            channels = stack
        else:
            own = Links(**{name: getattr(stack, name) for name in links})
            channels = own.rows(_rows(drawn, order))
        shared[key] = (seeds, *run(partitions, order, channels, levels))
        del channels


def _union(rows: dict, more: dict) -> dict:
    """Trials ``rows`` and then those of ``more`` not among them, by row.

    ``rows`` itself when it holds every trial, so that the configurations
    of a table share one map of their chunk's trials.
    """
    if more is rows or more.keys() <= rows.keys():
        return rows
    return {seed: row for row, seed in enumerate({**rows, **more})}


def _evaluate_chunk(jobs: Sequence[tuple]) -> dict:
    """Draw and solve a chunk of trials, draw by draw and hop by hop.

    ``jobs`` holds (configuration, its plan, its trials) triples, the
    trials a map of each trial seed to its row, in trial order; jobs of the
    same trials share one map.  Each distinct draw is drawn and solved in
    two passes (:func:`_passes`): the first draws the links its solves read
    but ``H_ri`` and runs them, then drops every block the second does not
    read, ``H_ir`` first of all, before drawing ``H_ri`` for the second
    slots.  Each block is bit for bit the
    one the whole draw holds.  Every planned key is solved once for all the
    drawn trials that need it and all its noise levels, and a draw is
    dropped before the next is made.  A one-antenna draw is served from a
    larger one, pass by pass (:func:`_served_draws`).  The result maps each
    plan's solve key, which stands for every input but the trial seed and
    the noise, to the solve's trials (a map of each seed to its row) and
    its ``(trials, levels)`` arrays of rates and of iteration counts, a
    column per noise level in the order of the plan's levels.
    """
    draws: dict[int, list] = {}
    for config, plan, seeds in jobs:
        if not seeds:
            continue
        draw = draws.setdefault(plan.draw, [plan.channels, seeds, {}])
        draw[1] = _union(draw[1], seeds)
        solves = draw[2]
        for key, levels, links, run, _ in plan.solves.values():
            solved = solves.get(key)
            rows = seeds if solved is None else _union(solved[3], seeds)
            solves[key] = (levels, links, run, rows)
    serves = _served_draws(draws)
    served = set(serves.values())
    shared: dict = {}
    partitions = functools.partial(_assignments, {})
    for number, ((m, n, geometry, budget), drawn, solves) in draws.items():
        if number in served:
            continue
        drawn = list(drawn)
        _, seeds, served_solves = draws.get(serves.get(number), (None, {}, {}))
        seeds = list(seeds)
        blocks: dict[str, np.ndarray] = {}
        for own, other in zip(_passes(solves), _passes(served_solves)):
            reads = [links for _, links, *_ in (*own.values(), *other.values())]
            read = [name for name in LINK_STREAMS if any(name in r for r in reads)]
            # what this pass does not read goes before its draw is made: the
            # first pass's surface matrix above all
            blocks = {name: blocks[name] for name in read if name in blocks}
            missing = [name for name in read if name not in blocks]
            blocks.update(vars(sample_links(geometry, budget, m, n, drawn, missing)))
            stack = Links(**blocks)
            if other:
                # the served copy is solved and dropped before its source's
                # solves run, so that the source's working memory is not
                # added to it
                copy = _leading_antenna(stack, drawn, seeds)
                _solve_draw(copy, seeds, other, partitions, shared)
                del copy
            _solve_draw(stack, drawn, own, partitions, shared)
            del stack
        # the next draw is made once this one is dropped
        del blocks
    return shared


class Columns(NamedTuple):
    """A configuration's trials as columns, in trial order.

    ``seeds`` are the trial seeds; ``rate_r`` and ``rate_d`` the first- and
    second-hop rates, ``rate_s`` the end-to-end rate, and ``iterations_r``
    and ``iterations_d`` each slot's iteration count: float64 and integer
    arrays, one entry per trial, what a :class:`TrialRecord` holds.
    """

    seeds: list[int]
    rate_r: np.ndarray
    rate_d: np.ndarray
    rate_s: np.ndarray
    iterations_r: np.ndarray
    iterations_d: np.ndarray


def _columns(plan: Plan, chunks: list[tuple]) -> Columns:
    """A configuration's :class:`Columns` from its chunks' solves.

    ``chunks`` holds, per chunk in trial order, the configuration's trials
    (a map of each seed to its row) and the chunk's solves
    (:func:`_evaluate_chunk`).  The end-to-end rate is half the smaller
    hop's, ``min(rate_r, rate_d)`` taken as Python's ``min`` takes it (the
    first unless the second is smaller); ``baseline-irs-only`` has one hop,
    with no half pre-log, and every rate is that hop's.
    """
    parts = {kind: ([], []) for kind in plan.solves}
    seeds: list[int] = []
    for rows, shared in chunks:
        seeds += rows
        for kind, (key, *_, level) in plan.solves.items():
            solved, rates, iterations = shared[key]
            picked = slice(None) if solved is rows else [solved[s] for s in rows]
            parts[kind][0].append(rates[picked, level])
            parts[kind][1].append(iterations[picked, level])
    rate_r, iterations_r = (np.concatenate(part) for part in parts["first"])
    if "second" not in parts:
        rate_d = rate_s = rate_r
        iterations_d = iterations_r
    else:
        rate_d, iterations_d = (np.concatenate(part) for part in parts["second"])
        rate_s = 0.5 * np.where(rate_d < rate_r, rate_d, rate_r)
    if (rate_r < 0.0).any() or (rate_d < 0.0).any() or (rate_s < 0.0).any():
        raise ValueError("rates must be non-negative")
    return Columns(seeds, rate_r, rate_d, rate_s, iterations_r, iterations_d)


def collect_columns(
    configs: Sequence[ScenarioConfig], workers: int | None = None
) -> list[Columns]:
    """Run all trials of several configurations together, as columns.

    Returns each configuration's :class:`Columns`, in sequence order.
    Evaluation is serial and chunk-major: the trial indices are cut into as
    few chunks as :func:`_chunk_trials` allows, of lengths at most one
    apart, and for each chunk every distinct channel draw is made once,
    stacked, and in turn, in two hop-major passes: each planned solve that
    reads no ``H_ri`` runs on the first, then ``H_ir`` is dropped and
    ``H_ri`` drawn for the second slots.  Each solve runs once over the
    chunk's trials that need it, for all the noise levels that share it
    (the SNR points of a sweep, say), keeping an array of rates and one of
    iteration counts per (trial, level); a loop defers its first
    compaction, multiplying the whole shared stack until at most
    ``COPY_SHARE`` (3/8) of its rows run, and copies only those.  The stack
    is dropped before the next draw.  Each configuration's columns are then
    read out of those arrays, without drawing or solving anything again,
    and no per-trial object is made.  Sharing and chunking change no bit of
    any entry.

    ``workers`` is accepted for compatibility and must be at least 1; it
    does not change the evaluation or any result.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    configs = list(configs)
    plans = solve_plans(configs)
    seeds = _trial_seeds([(cfg, range(cfg.trials)) for cfg in configs])
    chunks: list[list[tuple]] = [[] for _ in configs]
    trials = max((c.trials for c in configs), default=0)
    count = -(-trials // _chunk_trials(configs))
    for chunk in range(count):
        start, stop = chunk * trials // count, (chunk + 1) * trials // count
        # one map of the chunk's trials per base seed and length, shared by
        # every configuration and solve of those trials
        maps: dict[tuple[int, int], dict[int, int]] = {}
        jobs = []
        for cfg, plan in zip(configs, plans):
            end = min(stop, cfg.trials)
            rows = maps.get((cfg.base_seed, end))
            if rows is None:
                ks = range(start, end)
                rows = maps[cfg.base_seed, end] = {
                    seeds[cfg.base_seed, k]: row for row, k in enumerate(ks)
                }
            jobs.append((cfg, plan, rows))
        # a chunk's draws are dropped inside _evaluate_chunk; what it returns,
        # each solve's arrays of rates and iteration counts, is kept until
        # the columns are read
        shared = _evaluate_chunk(jobs)
        for (_, _, rows), out in zip(jobs, chunks):
            if rows:
                out.append((rows, shared))
    return [_columns(plan, out) for plan, out in zip(plans, chunks)]


def _records(config: ScenarioConfig, columns: Columns, first: int) -> list[TrialRecord]:
    """The records of ``config``'s trials in ``columns``, indexed from ``first``.

    Each holds its trial's entries of every column.
    """
    return [
        TrialRecord(k, seed, RateResult(config.method, r, d, s, (i_r, i_d)))
        for k, seed, r, d, s, i_r, i_d in zip(
            range(first, first + len(columns.seeds)),
            columns.seeds,
            *(column.tolist() for column in columns[1:]),
        )
    ]


def run_trial(config: ScenarioConfig, trial_index: int) -> TrialRecord:
    """Evaluate one Monte Carlo trial of the configured method.

    The trial is drawn and solved alone, as a chunk of one, for its own
    noise level; its record is what :func:`collect_trials` makes of the same
    trial evaluated with any others.
    """
    if trial_index < 0:
        raise ConfigError(f"trial_index must be >= 0, got {trial_index}")
    plan = solve_plans([config])[0]
    rows = {trial_seed(config.base_seed, trial_index): 0}
    shared = _evaluate_chunk([(config, plan, rows)])
    return _records(config, _columns(plan, [(rows, shared)]), trial_index)[0]


def collect_trials(
    config: ScenarioConfig | Sequence[ScenarioConfig], workers: int | None = None
) -> list[TrialRecord] | list[list[TrialRecord]]:
    """Run all trials of one configuration, or of several together.

    Given one configuration, returns its records in trial order.  Given a
    sequence, returns one such list per configuration, in sequence order.
    The trials are evaluated together by :func:`collect_columns`, and each
    record is built from its trial's entries of the columns.  ``workers``
    is as there.
    """
    configs = [config] if isinstance(config, ScenarioConfig) else list(config)
    records = [
        _records(cfg, columns, 0)
        for cfg, columns in zip(configs, collect_columns(configs, workers))
    ]
    return records[0] if isinstance(config, ScenarioConfig) else records


@dataclass(frozen=True)
class SweepSpec:
    """A one-axis parameter sweep evaluated for one or more methods."""

    config: ScenarioConfig
    axis: str
    values: tuple[float, ...]
    methods: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown axis {self.axis!r}; choose from {', '.join(SWEEP_AXES)}"
            )
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ConfigError("sweep values must be non-empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        object.__setattr__(self, "values", values)
        methods = tuple(self.methods) or (self.config.method,)
        for method in methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}")
        object.__setattr__(self, "methods", methods)
        if self.axis in ("n", "m"):
            for v in values:
                if v != int(v) or v < 1:
                    raise ConfigError(
                        f"axis {self.axis!r} needs positive integers, got {v}"
                    )
        if self.axis == "distance_d":
            span = math.dist(self.config.geometry.pos_s, self.config.geometry.pos_d)
            for v in values:
                if not 0.0 < v < span:
                    raise ConfigError(
                        f"relay distance must lie strictly between 0 and {span}, "
                        f"got {v}"
                    )


def point_config(spec: SweepSpec, value: float, method: str) -> ScenarioConfig:
    """Materialize the configuration for one (axis value, method) grid point."""
    base = dataclasses.replace(spec.config, method=method)
    if spec.axis == "snr_db":
        return dataclasses.replace(base, snr_db=float(value))
    if spec.axis == "n":
        return dataclasses.replace(base, n=int(value))
    if spec.axis == "m":
        return dataclasses.replace(base, m=int(value))
    # distance axis: relay and surface move together parallel to the S-D
    # line, each keeping its own lateral offset
    g = spec.config.geometry
    moved = dataclasses.replace(
        g,
        pos_rs=(g.pos_s[0] + float(value), g.pos_rs[1]),
        pos_irs=(g.pos_s[0] + float(value), g.pos_irs[1]),
    )
    return dataclasses.replace(base, geometry=moved)


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated rates for one (axis value, method) grid point."""

    axis_value: float
    method: str
    mean_rate_r: float
    mean_rate_d: float
    mean_rate_s: float
    stderr_rate_s: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    points: tuple[SweepPoint, ...]

    def point(self, axis_value: float, method: str) -> SweepPoint:
        for p in self.points:
            if p.axis_value == axis_value and p.method == method:
                return p
        raise KeyError((axis_value, method))


def _summary(
    rate_r: np.ndarray, rate_d: np.ndarray, rate_s: np.ndarray
) -> tuple[float, float, float, float]:
    """Mean per-slot/system rates and the standard error of the system rate."""
    if rate_s.size > 1:
        stderr = float(np.std(rate_s, ddof=1) / math.sqrt(rate_s.size))
    else:
        stderr = 0.0
    return (
        float(np.mean(rate_r)),
        float(np.mean(rate_d)),
        float(np.mean(rate_s)),
        stderr,
    )


def summarize_records(records: list[TrialRecord]) -> tuple[float, float, float, float]:
    """Mean per-slot/system rates and the standard error of the system rate."""
    return _summary(
        np.array([r.result.rate_r for r in records]),
        np.array([r.result.rate_d for r in records]),
        np.array([r.result.rate_s for r in records]),
    )


def summarize_columns(columns: Columns, name: str) -> tuple[float, float, float, float]:
    """:func:`summarize_records` of the records ``columns`` hold, from the columns.

    A table must not report what is not a number: a mean or standard error
    that is not finite raises :class:`RuntimeError`, naming ``name`` (the
    method, or the sweep point).
    """
    summary = _summary(columns.rate_r, columns.rate_d, columns.rate_s)
    if not all(math.isfinite(value) for value in summary):
        raise RuntimeError(
            f"{name}: non-finite mean rate or standard error "
            f"(mean_rate_r, mean_rate_d, mean_rate_s, stderr_rate_s) = {summary}"
        )
    return summary


def sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate the whole sweep grid; deterministic for any worker count.

    All grid points go through one :func:`collect_columns` call, so a
    trial's channels are drawn, and on an SNR axis its solvers run, once for
    every point that shares them.
    """
    grid = [
        (value, method, point_config(spec, value, method))
        for value in spec.values
        for method in spec.methods
    ]
    per_point = collect_columns([cfg for _, _, cfg in grid], workers=workers)
    points = tuple(
        SweepPoint(
            value,
            method,
            *summarize_columns(columns, f"{spec.axis}={value!r}, method {method}"),
            cfg.trials,
        )
        for (value, method, cfg), columns in zip(grid, per_point)
    )
    return SweepResult(spec=spec, points=points)

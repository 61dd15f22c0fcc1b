"""Deterministic Monte Carlo experiment engine.

A scenario is evaluated trial by trial: each trial derives its own seed from
``(base_seed, trial_index)``, samples one :class:`~irsrelay.channel.ChannelSet`,
runs the solve its method names for each hop, and reports per-slot and
end-to-end rates.  Sweeps repeat this over an axis (SNR, element count,
antenna count, or relay position) and aggregate mean rate and standard
error per axis value and method.  A table is averaged from each
configuration's :class:`Columns` (:func:`collect_columns`), the rates and
iteration counts of its trials as arrays in trial order;
:func:`collect_trials` and :func:`run_trial` build a :class:`TrialRecord`
per trial from the same columns.

The solves are data.  :data:`SOLVES` gives each, by name, the links it
reads, the configuration fields it reads beyond its draw's inputs and the
noise, and a module-level rates function that calls one of
:mod:`~irsrelay.beamforming`'s rates forms; a :class:`Method` of
:data:`METHODS` names its solves.  A solve's key is its name, its draw and
those fields' values, and it runs as its function bound to exactly these
(:func:`_solves`): configurations of equal keys share one solve, and plans
pickle.  This module plans, draws and averages, and forms no hop's rate
itself.

Several configurations (the methods of a table, the points of a sweep) are
evaluated together, a group at a time: configurations of one base seed and
trial count share their trials, cut into chunks of consecutive trials.  For
each chunk every source draw is drawn in turn, a stack of the chunk's
trials, in two passes, one hop's surface matrix at a time
(:func:`_evaluate_chunk`).  Each key runs once on the whole stack, for every
noise level it serves (every SNR point of a sweep): the alternations as one
batched loop, each (trial, level) stopping at its own iterate, and the
closed forms as stacked calls.  The rates forms keep only a ``(trials,
levels)`` array of rates and one of iteration counts per solve, which is all
a table reads, and each configuration's columns are a column of each of
those arrays, nothing drawn or solved again and no per-trial object made.
How many trials a chunk holds is a property of the draws' sizes, not a
setting, that bounds the memory it holds (:data:`CHUNK_BYTES`).  Every
result is a pure function of the configuration and trial index, so tables
are reproducible bit for bit whatever else is evaluated alongside, whatever
the chunk and whatever the worker count.

Random streams are keyed by Philox itself, with no hash
(:mod:`~irsrelay.channel`): a group derives its trial seeds with one
generator, positioned at each (base seed, trial index) in turn; a draw's
links are drawn from the trial seeds, a row at a time; and a chunk draws
its ``irses`` partitions from them once per (n, m), each trial's that of
:func:`~irsrelay.solutions.irses_partition` at its seed.  So a draw is
the leading corner of any draw of the same geometry and budget at as many
antennas and elements or more, and a chunk draws only the largest of them,
its source (:func:`_sources`): the points of an ``n`` or ``m`` sweep and
the single-antenna baseline are solved on their corners of its stack, as
views.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
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
    check_links,
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
# closed forms on a chunk's stack.  The solvers' names resolve on first
# read (__getattr__), so that a table never imports irsrelay.solutions.
from .channel import sample_channels  # noqa: F401
from .metrics import rate_from_power, receive_power_ais  # noqa: F401

_TRACED_SOLVERS = (
    "ais_max_rp", "irses_max_rp_mrc", "irses_partition", "nsp_max_rp_mrc",
    "second_slot_optimize", "ur_update_ais",
)


def __getattr__(name: str):
    if name not in _TRACED_SOLVERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import solutions

    return getattr(solutions, name)


class Method(NamedTuple):
    """How a method evaluates a trial: the solve of each hop, and its antennas.

    ``solves`` names, in :data:`SOLVES`, the first hop's solve and the
    second's; ``baseline-irs-only`` has one hop, S -> IRS -> D.  ``m``, when
    set, is the relay's antenna count in place of the configuration's.
    """

    solves: tuple[str, ...]
    m: int | None = None


#: every method by name, in table order; fixed-phase ablations pin the surface
#: phases of both slots to zero and still optimize the beamformers
METHODS = {
    "ais": Method(("ais", "second")),
    "nsp": Method(("nsp", "second")),
    "irses": Method(("irses", "second")),
    "ais-fixed-phase": Method(("ais-fixed-phase", "fixed-second")),
    "nsp-fixed-phase": Method(("nsp-fixed-phase", "fixed-second")),
    "irses-fixed-phase": Method(("irses-fixed-phase", "fixed-second")),
    # the same alternating design with a single relay antenna
    "baseline-single-antenna": Method(("ais", "second"), m=1),
    "baseline-irs-only": Method(("irs-only",)),
    # both hops without the surface
    "baseline-relay-only": Method(("relay-first", "relay-second")),
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
        first = method.solves[0].removesuffix("-fixed-phase")
        if first == "nsp" and m < 2:
            raise ConfigError("nsp methods need m >= 2")
        if first == "irses" and self.n % m != 0:
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
#: vectors: a chunk holds up to 16 trials at (16, 160) and 5 at (50, 200),
#: however many geometries a sweep draws.  Small draws are bounded by the
#: trial count instead: at (4, 16) what the budget leaves out grows with
#: the trials too (the draws' vectors, the loops' temporaries and per-trial
#: stop records), and a table of all nine methods peaks at 0.62 MB
#: (tracemalloc) as one chunk of 120 trials but at 0.97 MB as one chunk of
#: 240, beyond the 0.75 MB bound of tests/test_memory.py.  Longer stacks
#: iterate faster but raise the peak memory of a table build.
CHUNK_BYTES = 960_000
CHUNK_TRIALS = 120


class _Inputs(NamedTuple):
    """Everything a trial's channel draw depends on but its seed."""

    m: int
    n: int
    geometry: Geometry
    budget: LinkBudget


def _channel_inputs(config: ScenarioConfig) -> _Inputs:
    method = METHODS[config.method]
    return _Inputs(method.m or config.m, config.n, config.geometry, config.budget)


def _chunk_trials(configs: Sequence[ScenarioConfig]) -> int:
    """The most trials a chunk may hold: as many as keep it within its limits.

    The largest draw sets the limit: a draw's stack holds a row per trial.
    """
    itemsize = np.dtype(np.complex128).itemsize
    per_trial = max(
        (
            itemsize * (int((1 + COPY_SHARE) * m * n) + 2 * (m + n))
            for m, n, *_ in map(_channel_inputs, configs)
        ),
        default=0,
    )
    return min(CHUNK_TRIALS, 1 + CHUNK_BYTES // max(1, per_trial))


def _run_ais(inputs, eps, max_iter, partitions, channels, noises):
    p_s = inputs.budget.p_s_watt
    return _alternate(_FIRST_HOP(channels), p_s, noises, eps, max_iter)


def _run_nsp(inputs, eps, max_iter, mode, combining, partitions, channels, noises):
    options = (eps, max_iter, mode, combining, None)
    return _nsp(_FIRST_HOP(channels), inputs.budget.p_s_watt, noises, *options)


def _run_nsp_fixed(inputs, mode, combining, partitions, channels, noises):
    # one step at zero phases, which the loop's controls do not change
    phases = PhaseShiftVector(np.zeros(inputs.n))
    options = (DEFAULT_EPSILON, DEFAULT_MAX_ITER, mode, combining, phases)
    return _nsp(_FIRST_HOP(channels), inputs.budget.p_s_watt, noises, *options)


def _run_irses(inputs, mode, combining, partitions, channels, noises, fixed=False):
    phases = PhaseShiftVector(np.zeros(inputs.n)) if fixed else None
    options = (partitions(inputs.n, inputs.m), mode, combining, phases)
    return _irses(_FIRST_HOP(channels), inputs.budget.p_s_watt, noises, *options)


def _run_fixed_first(inputs, partitions, channels, noises):
    return _fixed_first_slot(channels, inputs.budget.p_s_watt, noises)


def _run_second(inputs, eps, max_iter, partitions, channels, noises):
    p_r = inputs.budget.p_r_watt
    return _alternate(_SECOND_HOP(channels), p_r, noises, eps, max_iter)


def _run_fixed_second(inputs, partitions, channels, noises):
    return _fixed_second_slot(channels, inputs.budget.p_r_watt, noises)


def _run_irs_only(inputs, partitions, channels, noises):
    return _irs_only(channels, inputs.budget.p_s_watt, noises)


def _run_relay_first(inputs, partitions, channels, noises):
    return _matched_direct(channels.h_sr, inputs.budget.p_s_watt, noises)


def _run_relay_second(inputs, partitions, channels, noises):
    return _matched_direct(channels.h_rd, inputs.budget.p_r_watt, noises)


_LOOP_FIELDS = ("epsilon", "max_iter")
_NSP_FIELDS = ("nsp_mode", "combining")
_IRSES_FIELDS = ("irses_mode", "combining")

#: every solve by name: (links, fields, rates).  ``links`` are the links it
#: reads, ``fields`` the :class:`ScenarioConfig` fields it reads beyond its
#: draw's inputs (:class:`_Inputs`) and the noise, and ``rates(inputs,
#: *values, partitions, channels, noises)`` its module-level rates function,
#: which calls a rates form of beamforming by its name in this module, as a
#: test may replace it.  The fixed-phase forms of ``nsp`` and ``irses``
#: pin the surface phases to zero; ``nsp``'s then takes one step, so it
#: reads no loop control.
SOLVES = {
    "ais": (_FIRST_LINKS, _LOOP_FIELDS, _run_ais),
    "nsp": (_FIRST_LINKS, (*_LOOP_FIELDS, *_NSP_FIELDS), _run_nsp),
    "irses": (_FIRST_LINKS, _IRSES_FIELDS, _run_irses),
    "ais-fixed-phase": (_FIRST_LINKS, (), _run_fixed_first),
    "nsp-fixed-phase": (_FIRST_LINKS, _NSP_FIELDS, _run_nsp_fixed),
    "irses-fixed-phase": (_FIRST_LINKS, _IRSES_FIELDS, partial(_run_irses, fixed=True)),
    "second": (_SECOND_LINKS, _LOOP_FIELDS, _run_second),
    "fixed-second": (_SECOND_LINKS, (), _run_fixed_second),
    "irs-only": (("h_si", "h_id"), (), _run_irs_only),
    "relay-first": (("h_sr",), (), _run_relay_first),
    "relay-second": (("h_rd",), (), _run_relay_second),
}


def _solves(config: ScenarioConfig, draw: int) -> dict[str, tuple]:
    """The solves in one trial of ``config``, by kind.

    ``"first"`` and ``"second"`` are the solves its method names
    (:data:`SOLVES`), one per hop; ``baseline-irs-only`` has only a first.
    Each is a (key, links, run) triple.  ``run(partitions, channels, noises)``
    is the solve's rates function bound to its draw's inputs and its declared
    fields' values, and to nothing else: it solves a chunk's trials at once
    on their stacked ``channels``, which hold at least the links ``links``
    (``partitions(n, m)`` gives their ``irses`` element assignments, a row
    per trial), and returns ``(trials, levels)`` arrays of rates and of
    iteration counts, a column per noise variance in the order of
    ``noises``.  The key is the solve's name, ``draw`` (the number of its
    channel inputs among the configurations planned together) and the same
    values: every input of the solve but the trial seed and the noise.
    Configurations with equal keys share one solve per trial for all their
    noise levels: the three fixed-phase methods, for one, share their second
    slot.
    """
    inputs = _channel_inputs(config)
    solves = {}
    for kind, name in zip(("first", "second"), METHODS[config.method].solves):
        links, fields, rates = SOLVES[name]
        values = [getattr(config, field) for field in fields]
        solves[kind] = ((name, draw, *values), links, partial(rates, inputs, *values))
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

    Nothing here depends on the trial, so one plan serves every trial.  A
    plan holds plain values and the module-level functions of
    :data:`SOLVES` (:func:`_solves`), so it pickles.  The links each solve
    reads, and the cascades through the surface among them, are checked
    here, before anything is drawn (:func:`~irsrelay.channel.check_links`):
    each distinct (geometry, budget, links) once, in configuration order,
    so that the first bad configuration raises.
    """
    draws: dict[tuple, int] = {}
    inputs = [_channel_inputs(config) for config in configs]
    solves = [
        _solves(config, draws.setdefault(channels, len(draws)))
        for config, channels in zip(configs, inputs)
    ]
    checks = dict.fromkeys(
        (config.geometry, config.budget, links)
        for config, kinds in zip(configs, solves)
        for _, links, _ in kinds.values()
    )
    for geometry, budget, links in checks:
        check_links(geometry, budget, links)
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


def _sources(draws: dict[int, _Inputs]) -> dict[int, int]:
    """Each draw's source: the draw whose stack serves it, by number.

    A draw at ``(m, n)`` is, bit for bit, the leading corner of a draw at
    more antennas, elements or both of the same seeds, geometry and budget
    (:func:`~irsrelay.channel.sample_links`).  Its source is the draw of
    largest ``m * n`` among those that contain it, itself included, the
    first of equal ones: the points of an ``n`` or ``m`` sweep and the
    single-antenna baseline are served from the largest draw.  A source is
    its own source.
    """
    return {
        number: max(
            (
                other
                for other, big in draws.items()
                if big.m >= inputs.m and big.n >= inputs.n and big[2:] == inputs[2:]
            ),
            key=lambda other: draws[other].m * draws[other].n,
        )
        for number, inputs in draws.items()
    }


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


def _evaluate_chunk(plans: Sequence[Plan], seeds: list[int]) -> dict:
    """Draw and solve the trials ``seeds``, source by source and hop by hop.

    ``plans`` are the plans of configurations that share these trials.
    Only a source draw is drawn (:func:`_sources`), in two passes
    (:func:`_passes`): the first draws the links that its draws' first
    passes read and runs them, then drops every block the second does not
    read, ``H_ir`` first of all, before drawing ``H_ri`` for the second
    slots.  Each block is bit for bit the one the whole draw holds, and
    each draw's solves run on its corner of the stack
    (:meth:`~irsrelay.channel.Links.corner`), views that copy nothing.
    Every planned key is solved once on all the trials, for all its noise
    levels, and a source is dropped before the next is drawn.  The
    ``irses`` assignments of the trials are drawn once per (n, m).  The
    result maps each plan's solve key, which stands for every input but
    the trial seed and the noise, to the solve's ``(trials, levels)``
    arrays of rates and of iteration counts, a column per noise level in
    the order of the plan's levels.
    """
    draws: dict[int, tuple] = {}
    for plan in plans:
        solves = draws.setdefault(plan.draw, (plan.channels, {}))[1]
        for key, levels, links, run, _ in plan.solves.values():
            solves[key] = (levels, links, run)
    sources = _sources({number: inputs for number, (inputs, _) in draws.items()})
    shared: dict = {}
    assignments: dict[tuple[int, int], np.ndarray] = {}

    def partitions(n: int, m: int) -> np.ndarray:
        if (n, m) not in assignments:
            assignments[n, m] = _irses_assignments(n, m, seeds)
        return assignments[n, m]

    for source in dict.fromkeys(sources.values()):
        m, n, geometry, budget = draws[source][0]
        served = [draws[number] for number in draws if sources[number] == source]
        blocks: dict[str, np.ndarray] = {}
        for hop in range(2):
            passes = [(inputs, _passes(solves)[hop]) for inputs, solves in served]
            reads = [links for _, solves in passes for _, links, _ in solves.values()]
            read = [name for name in LINK_STREAMS if any(name in r for r in reads)]
            # what this pass does not read goes before its draw is made: the
            # first pass's surface matrix above all
            blocks = {name: blocks[name] for name in read if name in blocks}
            missing = [name for name in read if name not in blocks]
            blocks.update(vars(sample_links(geometry, budget, m, n, seeds, missing)))
            stack = Links(**blocks)
            for inputs, solves in passes:
                corner = stack.corner(inputs.m, inputs.n)
                for key, (levels, _, run) in solves.items():
                    shared[key] = run(partitions, corner, levels)
            del stack, corner
        # the next source is drawn once this one is dropped
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


def _columns(plan: Plan, seeds: list[int], chunks: list[dict]) -> Columns:
    """A configuration's :class:`Columns` from its chunks' solves.

    ``seeds`` are the configuration's trial seeds and ``chunks`` the solves
    of its chunks in trial order (:func:`_evaluate_chunk`).  The end-to-end
    rate is half the smaller hop's, ``min(rate_r, rate_d)`` taken as
    Python's ``min`` takes it (the first unless the second is smaller);
    ``baseline-irs-only`` has one hop, with no half pre-log, and every rate
    is that hop's.
    """
    parts = {kind: ([], []) for kind in plan.solves}
    for shared in chunks:
        for kind, (key, *_, level) in plan.solves.items():
            rates, iterations = shared[key]
            parts[kind][0].append(rates[:, level])
            parts[kind][1].append(iterations[:, level])
    rate_r, iterations_r = (np.concatenate(part) for part in parts["first"])
    if "second" not in parts:
        rate_d = rate_s = rate_r
        iterations_d = iterations_r
    else:
        rate_d, iterations_d = (np.concatenate(part) for part in parts["second"])
        rate_s = 0.5 * np.where(rate_d < rate_r, rate_d, rate_r)
    if (rate_r < 0.0).any() or (rate_d < 0.0).any() or (rate_s < 0.0).any():
        raise ValueError("rates must be non-negative")
    return Columns(list(seeds), rate_r, rate_d, rate_s, iterations_r, iterations_d)


def collect_columns(
    configs: Sequence[ScenarioConfig], workers: int | None = None
) -> list[Columns]:
    """Run all trials of several configurations together, as columns.

    Returns each configuration's :class:`Columns`, in sequence order.
    Configurations of one base seed and trial count share their trials and
    are evaluated together, a group at a time, once every group is planned
    (:func:`solve_plans`).  Evaluation is serial and chunk-major: a group's
    trials are cut into as few chunks of consecutive trials as
    :func:`_chunk_trials` allows, of lengths at most one apart, and each
    chunk draws its source draws, hop by hop, and runs each solve once, for
    all the noise levels that share it (:func:`_evaluate_chunk`).  A loop
    defers its first compaction, multiplying the whole shared stack until at
    most ``COPY_SHARE`` (3/8) of its rows run, and copies only those.  Each
    configuration's columns are then read out of the solves' arrays,
    without drawing or solving anything again, and no per-trial object is
    made.  Grouping, sharing, serving and chunking change no bit of any
    entry.

    ``workers`` is accepted for compatibility and must be at least 1; it
    does not change the evaluation or any result.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    configs = list(configs)
    groups: dict[tuple[int, int], list[int]] = {}
    for k, config in enumerate(configs):
        groups.setdefault((config.base_seed, config.trials), []).append(k)
    planned = [
        (base_seed, trials, members, solve_plans([configs[k] for k in members]))
        for (base_seed, trials), members in groups.items()
    ]
    columns: dict[int, Columns] = {}
    for base_seed, trials, members, plans in planned:
        seeds = stream_seeds(base_seed, range(trials))
        count = -(-trials // _chunk_trials([configs[k] for k in members]))
        chunks = []
        for chunk in range(count):
            start, stop = chunk * trials // count, (chunk + 1) * trials // count
            # a chunk's draws are dropped inside _evaluate_chunk; what it
            # returns, each solve's arrays of rates and iteration counts, is
            # kept until the columns are read
            chunks.append(_evaluate_chunk(plans, seeds[start:stop]))
        for k, plan in zip(members, plans):
            columns[k] = _columns(plan, seeds, chunks)
    return [columns[k] for k in range(len(configs))]


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
    (plan,) = solve_plans([config])
    seeds = [trial_seed(config.base_seed, trial_index)]
    shared = _evaluate_chunk([plan], seeds)
    return _records(config, _columns(plan, seeds, [shared]), trial_index)[0]


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
        for index, method in enumerate(methods):
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}")
            if method in methods[:index]:
                raise ConfigError(f"method {method!r} is listed twice")
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

"""Deterministic Monte Carlo experiment engine.

A scenario is evaluated trial by trial: each trial derives its own seed from
``(base_seed, trial_index)``, samples one :class:`~irsrelay.channel.ChannelSet`,
runs the configured first-slot method plus the second-slot optimizer, and
reports per-slot and end-to-end rates.  Sweeps repeat this over an axis
(SNR, element count, antenna count, or relay position) and aggregate mean
rate and standard error per axis value and method.

Several configurations (the methods of a table, the points of a sweep) are
evaluated together, chunk-major: the trial indices are cut into chunks, and
for each chunk every distinct channel draw is made once and held once, by
one :func:`~irsrelay.channel.sample_channels_batch` call that draws a stack
of the chunk's trials of which each trial's channels are a view.  Each
solve shared by several configurations (same solver and inputs but the
noise) then runs once per chunk on that stack, for every noise level it
serves (every SNR point of a sweep): the alternations as one batched loop,
each (trial, level) stopping at its own iterate, and the closed forms
(``irses``, the fixed-phase slots) as stacked calls.  The records are then
assembled from what the chunk solved, nothing drawn or solved again.  A
chunk holds at most as many trials as keep its stacked draws within
:data:`CHUNK_BYTES` of what one trial holds, and at most
:data:`CHUNK_TRIALS`: a property of the draws' sizes, not a setting, that
bounds the memory a chunk holds.  The trials are cut into as few chunks as
that limit allows, of lengths at most one apart.  Every result
is a pure function of the configuration and trial index, so tables are
reproducible bit for bit whatever else is evaluated alongside, whatever the
chunk and whatever the worker count.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .beamforming import (
    COMBINING_MODES,
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITER,
    IRSES_MODES,
    NSP_MODES,
    PhaseShiftVector,
    _check_iteration_controls,
    _hop_channel,
    _norms,
    _powers,
    _unit,
    ais_max_rp_batch,
    irses_max_rp_mrc_batch,
    irses_partition,
    nsp_max_rp_mrc_batch,
    second_slot_optimize_batch,
)
from .channel import (
    ChannelSet,
    Geometry,
    LinkBudget,
    sample_channels_batch,
    stack_channels,
    stream_seed,
)
from .errors import ConfigError
from .metrics import RateResult, noise_variance_for_snr, rate_from_power, system_rate

# The benchmark's trace points (perfbench/tracing.py) wrap the one-trial
# sampler, the scalar solvers and the one-trial fixed-phase helpers under
# these names; the trial engine draws with sample_channels_batch, calls the
# batched solvers and evaluates fixed phases on a chunk's stack.
from .channel import sample_channels  # noqa: F401
from .beamforming import (  # noqa: F401
    ais_max_rp,
    irses_max_rp_mrc,
    nsp_max_rp_mrc,
    second_slot_optimize,
    ur_update_ais,
)
from .metrics import receive_power_ais  # noqa: F401


class Method(NamedTuple):
    """How a method evaluates a trial.

    ``trial`` is "two-hop", "irs-only" (one hop via the surface alone) or
    "relay-only" (both hops without the surface).  ``first_slot`` names the
    solver of a two-hop trial; it is looked up in this module at call time.
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

#: substream index for the element-partition draw (0..5 are the channel links)
PARTITION_STREAM = 6


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
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
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


class FixedFirstSlot(NamedTuple):
    """A fixed-phase first slot at one noise level: one closed-form step."""

    rate_r: float
    iterations: int = 1


class FixedSecondSlot(NamedTuple):
    """A fixed-phase second slot at one noise level: one closed-form step."""

    rate_d: float
    iterations: int = 1


def _fixed_first_slot(
    channels: ChannelSet, p_s_watt: float, noises: tuple[float, ...]
) -> list[tuple[FixedFirstSlot, ...]]:
    """``ais-fixed-phase``'s first slot on a stack of trials, per noise level.

    Identity reflection phases; the receive beamformer is the matched
    filter to the resulting first-hop channel.
    """
    hop = (channels.h_sr, channels.H_ir, channels.h_si)
    combined = _hop_channel(hop, np.zeros(channels.n))
    return [
        tuple(FixedFirstSlot(rate_from_power(power, noise)) for noise in noises)
        for power in _powers(p_s_watt, _unit(combined), combined)
    ]


def _fixed_second_slot(
    channels: ChannelSet, p_r_watt: float, noises: tuple[float, ...]
) -> list[tuple[FixedSecondSlot, ...]]:
    """The fixed-phase second slot on a stack of trials, per noise level.

    Identity reflection phases; the transmit beamformer is still matched,
    so the power is that of the whole second-hop channel.
    """
    hop = (channels.h_rd, channels.H_ri, channels.h_id)
    return [
        tuple(
            FixedSecondSlot(rate_from_power(p_r_watt * norm**2, noise))
            for noise in noises
        )
        for norm in _norms(_hop_channel(hop, np.zeros(channels.n)))
    ]


#: a chunk's limits.  Beyond one trial's draws, which evaluating trial by
#: trial holds too, a chunk may hold CHUNK_BYTES of stacked draws; a trial at
#: (m, n) stacks 16 (2m + 2n + 2mn) bytes per distinct draw, so a chunk holds
#: up to 8 trials at (16, 160) and 3 at (50, 200).  Small draws are bounded by
#: the trial count instead, as every solution of a chunk (a few kB each) is
#: held until its records are made.  Longer stacks iterate faster but raise
#: the peak memory of a table build.  The draw holds one copy of its stack
#: and a loop one copy of its running rows: 8 trials at (16, 160) add about
#: 0.2 MB to a table's peak over 4 trials held twice, 4 held once 0.25 MB
#: less.
CHUNK_BYTES = 660_000
CHUNK_TRIALS = 32


def _channel_inputs(config: ScenarioConfig) -> tuple:
    """Everything a trial's channel draw depends on but its seed."""
    method = METHODS[config.method]
    return (method.m or config.m, config.n, config.geometry, config.budget)


def _chunk_trials(configs: Sequence[ScenarioConfig]) -> int:
    """The most trials a chunk may hold: as many as keep it within its limits."""
    draws = {(config.base_seed, *_channel_inputs(config)) for config in configs}
    itemsize = np.dtype(np.complex128).itemsize
    per_trial = sum(itemsize * 2 * (m + n + m * n) for _, m, n, *_ in draws)
    return min(CHUNK_TRIALS, 1 + CHUNK_BYTES // max(1, per_trial))


def _trial_seed(shared: dict, base_seed: int, trial_index: int) -> int:
    key = ("seed", base_seed, trial_index)
    if key not in shared:
        shared[key] = trial_seed(base_seed, trial_index)
    return shared[key]


def _partition(shared: dict, seed: int, n: int, m: int):
    key = ("partition", seed, n, m)
    if key not in shared:
        shared[key] = irses_partition(n, m, stream_seed(seed, PARTITION_STREAM))
    return shared[key]


def _draw(shared: dict, draw: int, channels: tuple, seeds: list[int]) -> None:
    """Draw trials ``seeds`` once at ``channels``, the inputs numbered ``draw``.

    One :func:`~irsrelay.channel.sample_channels_batch` call draws them as
    one stack, and each trial's ChannelSet is a view of its rows.
    """
    m, n, geometry, budget = channels
    stack = sample_channels_batch(geometry, budget, m, n, seeds)
    shared[("stack", draw)] = (stack, seeds)
    for row, seed in enumerate(seeds):
        shared[(seed, draw)] = stack.trial(row)


def _stacked(shared: dict, seeds: list[int], draw: int) -> ChannelSet:
    """The channels of trials ``seeds`` drawn as ``draw``, as one stack."""
    stack, drawn = shared.get(("stack", draw), (None, None))
    if seeds == drawn:
        return stack
    return stack_channels([shared[(seed, draw)] for seed in seeds])


def _solves(config: ScenarioConfig, draw: int) -> dict[str, tuple]:
    """The solves in one trial of ``config``, by kind.

    ``"first"`` and ``"second"`` are the first- and second-slot solves of a
    two-hop method, the closed-form fixed-phase slots included.  Each is a
    (key, run) pair: ``run(shared, seeds, noises)`` solves the drawn trials
    ``seeds`` at once, on their stacked channels, and returns, per trial,
    one solution per noise variance (an object with the slot's ``rate_r``
    or ``rate_d`` and its ``iterations``); the key, led by the solver's
    name, holds every input of the solve except the trial seed and the
    noise, the channel inputs as the number ``draw`` they have among the
    configurations planned together.  Configurations with equal keys share
    one solve per trial for all their noise levels: the three fixed-phase
    methods, for one, share their second slot.
    """
    method = METHODS[config.method]
    if method.trial != "two-hop":
        return {}
    eps, max_iter = config.epsilon, config.max_iter
    p_s, p_r = config.budget.p_s_watt, config.budget.p_r_watt
    zeros = PhaseShiftVector(np.zeros(config.n)) if method.fixed_phase else None

    def stack(shared: dict, seeds: list[int]) -> ChannelSet:
        return _stacked(shared, seeds, draw)

    solves = {}
    if method.first_slot == "ais" and method.fixed_phase:
        solves["first"] = (
            ("ais-fixed-phase", draw),
            lambda shared, seeds, noises: _fixed_first_slot(
                stack(shared, seeds), p_s, noises
            ),
        )
    elif method.first_slot == "ais":
        solves["first"] = (
            ("ais", draw, eps, max_iter),
            lambda shared, seeds, noises: ais_max_rp_batch(
                stack(shared, seeds), p_s, noises, eps, max_iter
            ),
        )
    elif method.first_slot == "nsp":
        options = dict(mode=config.nsp_mode, combining=config.combining, phases=zeros)
        variant = (config.nsp_mode, config.combining, method.fixed_phase)
        solves["first"] = (
            ("nsp", draw, eps, max_iter, *variant),
            lambda shared, seeds, noises: nsp_max_rp_mrc_batch(
                stack(shared, seeds), p_s, noises, eps, max_iter, **options
            ),
        )
    elif method.first_slot == "irses":
        m, n = _channel_inputs(config)[:2]
        options = dict(
            interference_mode=config.irses_mode,
            combining=config.combining,
            phases=zeros,
        )
        variant = (config.irses_mode, config.combining, method.fixed_phase)
        solves["first"] = (
            ("irses", draw, *variant),
            lambda shared, seeds, noises: irses_max_rp_mrc_batch(
                stack(shared, seeds),
                p_s,
                noises,
                [_partition(shared, seed, n, m) for seed in seeds],
                **options,
            ),
        )
    if method.fixed_phase:
        solves["second"] = (
            ("fixed-second", draw),
            lambda shared, seeds, noises: _fixed_second_slot(
                stack(shared, seeds), p_r, noises
            ),
        )
    else:
        solves["second"] = (
            ("second", draw, eps, max_iter),
            lambda shared, seeds, noises: second_slot_optimize_batch(
                stack(shared, seeds), p_r, noises, eps, max_iter
            ),
        )
    return solves


class Plan(NamedTuple):
    """A configuration's draw and solves, planned with other configurations.

    ``draw`` numbers its channel inputs ``channels`` (:func:`_channel_inputs`)
    among the distinct ones of the configurations planned together; the
    drawn channels and the solve keys name them by that number, so that
    assembling a record hashes no configuration.  ``solves`` maps each kind
    of :func:`_solves` to the solve's (key, noise levels, run): the levels
    are the noise variances its key serves among the configurations,
    ``noise`` among them.
    """

    noise: float
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
        for key, _ in kinds.values():
            levels.setdefault(key, {})[noise] = None
    return [
        Plan(
            noise,
            draws[channels],
            channels,
            {kind: (key, tuple(levels[key]), run) for kind, (key, run) in kinds.items()},
        )
        for noise, channels, kinds in zip(noises, inputs, solves)
    ]


def _evaluate_chunk(jobs: Sequence[tuple]) -> dict:
    """Draw and solve a chunk of trials; what was shared, by key.

    ``jobs`` holds (configuration, its plan, its trial indices) triples.
    Each distinct draw is made once, and each planned key is solved once
    for all the drawn trials that need it and all its noise levels.  The
    result holds the trial seeds, the element partitions of ``irses``
    methods, and the channel draws and the solves on them, keyed by the
    trial seed and the plan's draw number or solve key, which stand for
    every other input (the noise aside).
    """
    shared: dict = {}
    draws: dict[int, tuple] = {}
    solves: dict[tuple, tuple] = {}
    for config, plan, indices in jobs:
        if not indices:
            continue
        seeds = dict.fromkeys(
            _trial_seed(shared, config.base_seed, k) for k in indices
        )
        draws.setdefault(plan.draw, (plan.channels, {}))[1].update(seeds)
        for key, levels, run in plan.solves.values():
            solves.setdefault(key, (levels, run, {}))[2].update(seeds)
    for draw, (channels, seeds) in draws.items():
        _draw(shared, draw, channels, list(seeds))
    for key, (levels, run, seeds) in solves.items():
        seeds = list(seeds)
        for seed, solutions in zip(seeds, run(shared, seeds, levels)):
            shared[(seed, key)] = dict(zip(levels, solutions))
    return shared


def _record(
    config: ScenarioConfig, plan: Plan, trial_index: int, shared: dict
) -> TrialRecord:
    """Trial ``trial_index`` of ``config``, assembled from ``shared``.

    ``shared`` is what :func:`_evaluate_chunk` drew and solved for the
    trial's chunk under ``plan``, the configuration's entry of
    :func:`solve_plans`; it is only read here.
    """
    method = METHODS[config.method]
    seed = shared[("seed", config.base_seed, trial_index)]
    noise = plan.noise
    p_s = config.budget.p_s_watt
    p_r = config.budget.p_r_watt
    if method.trial == "irs-only":
        # one hop S -> IRS -> D with element-wise alignment: no 1/2 pre-log,
        # and the per-hop fields all equal the single-hop rate
        channels = shared[(seed, plan.draw)]
        amplitude = float(np.sum(np.abs(channels.h_id) * np.abs(channels.h_si)))
        rate = rate_from_power(p_s * amplitude**2, noise)
        result = RateResult(config.method, rate, rate, rate, (1, 1))
        return TrialRecord(trial_index, seed, result)
    if method.trial == "relay-only":
        channels = shared[(seed, plan.draw)]
        rate_r = rate_from_power(p_s * float(np.linalg.norm(channels.h_sr)) ** 2, noise)
        rate_d = rate_from_power(p_r * float(np.linalg.norm(channels.h_rd)) ** 2, noise)
        iterations = (1, 1)
    else:
        first = shared[(seed, plan.solves["first"][0])][noise]
        second = shared[(seed, plan.solves["second"][0])][noise]
        rate_r, rate_d = first.rate_r, second.rate_d
        iterations = (first.iterations, second.iterations)
    result = RateResult(
        config.method, rate_r, rate_d, system_rate(rate_r, rate_d), iterations
    )
    return TrialRecord(trial_index, seed, result)


def run_trial(config: ScenarioConfig, trial_index: int) -> TrialRecord:
    """Evaluate one Monte Carlo trial of the configured method.

    The trial is drawn and solved alone, as a chunk of one, for its own
    noise level; its record is what :func:`collect_trials` makes of the same
    trial evaluated with any others.
    """
    if trial_index < 0:
        raise ConfigError(f"trial_index must be >= 0, got {trial_index}")
    plan = solve_plans([config])[0]
    shared = _evaluate_chunk([(config, plan, [trial_index])])
    return _record(config, plan, trial_index, shared)


def collect_trials(
    config: ScenarioConfig | Sequence[ScenarioConfig], workers: int | None = None
) -> list[TrialRecord] | list[list[TrialRecord]]:
    """Run all trials of one configuration, or of several together.

    Given one configuration, returns its records in trial order.  Given a
    sequence, returns one such list per configuration, in sequence order.
    Evaluation is serial and chunk-major: the trial indices are cut into as
    few chunks as :func:`_chunk_trials` allows, of lengths at most one
    apart, and for each chunk every
    distinct channel draw is made once, stacked, and each planned solve
    runs once over the chunk's trials that need it, for all the noise
    levels that share it (the SNR points of a sweep, say).  Each record of
    the chunk is then assembled from what was shared, without drawing or
    solving anything again.  Sharing and chunking change no bit of any
    record.

    ``workers`` is accepted for compatibility and must be at least 1; it
    does not change the evaluation or any result.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    configs = [config] if isinstance(config, ScenarioConfig) else list(config)
    plans = solve_plans(configs)
    records: list[list[TrialRecord]] = [[] for _ in configs]
    trials = max((c.trials for c in configs), default=0)
    chunks = -(-trials // _chunk_trials(configs))
    for chunk in range(chunks):
        indices = range(chunk * trials // chunks, (chunk + 1) * trials // chunks)
        shared = _evaluate_chunk(
            [
                (cfg, plan, [k for k in indices if k < cfg.trials])
                for cfg, plan in zip(configs, plans)
            ]
        )
        for trial_index in indices:
            for cfg, plan, out in zip(configs, plans, records):
                if trial_index < cfg.trials:
                    out.append(_record(cfg, plan, trial_index, shared))
        # the next chunk is drawn and solved once this one is dropped
        del shared
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


def summarize_records(records: list[TrialRecord]) -> tuple[float, float, float, float]:
    """Mean per-slot/system rates and the standard error of the system rate."""
    rates_r = np.array([r.result.rate_r for r in records])
    rates_d = np.array([r.result.rate_d for r in records])
    rates_s = np.array([r.result.rate_s for r in records])
    if rates_s.size > 1:
        stderr = float(np.std(rates_s, ddof=1) / math.sqrt(rates_s.size))
    else:
        stderr = 0.0
    return (
        float(np.mean(rates_r)),
        float(np.mean(rates_d)),
        float(np.mean(rates_s)),
        stderr,
    )


def sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate the whole sweep grid; deterministic for any worker count.

    All grid points go through one :func:`collect_trials` call, so a trial's
    channels are drawn, and on an SNR axis its solvers run, once for every
    point that shares them.
    """
    grid = [
        (value, method, point_config(spec, value, method))
        for value in spec.values
        for method in spec.methods
    ]
    per_point = collect_trials([cfg for _, _, cfg in grid], workers=workers)
    points = tuple(
        SweepPoint(value, method, *summarize_records(records), cfg.trials)
        for (value, method, cfg), records in zip(grid, per_point)
    )
    return SweepResult(spec=spec, points=points)

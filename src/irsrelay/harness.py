"""Deterministic Monte Carlo experiment engine.

A scenario is evaluated trial by trial: each trial derives its own seed from
``(base_seed, trial_index)``, samples one :class:`~irsrelay.channel.ChannelSet`,
runs the configured first-slot method plus the second-slot optimizer, and
reports per-slot and end-to-end rates.  Sweeps repeat this over an axis
(SNR, element count, antenna count, or relay position) and aggregate mean
rate and standard error per axis value and method.

Several configurations (the methods of a table, the points of a sweep) are
evaluated together, trial-major: trial ``k`` of every configuration runs
before trial ``k + 1`` of any, and they share trial ``k``'s channel draw,
element partition and iterative solves wherever these agree.  No solver
iterate reads the noise, so one solve serves every noise level (every SNR
point of a sweep), each stopping at its own iterate.  Every result is a pure
function of the configuration and trial index, so tables are reproducible
bit for bit whatever else is evaluated alongside and whatever the worker
count.
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
    ais_max_rp_per_noise,
    irses_max_rp_mrc,
    irses_partition,
    nsp_max_rp_mrc_per_noise,
    second_slot_optimize_per_noise,
    ur_update_ais,
)

# The benchmark's trace points (perfbench/tracing.py) wrap the scalar solvers
# under these names; the trial engine calls their ``_per_noise`` forms.
from .beamforming import ais_max_rp, nsp_max_rp_mrc, second_slot_optimize  # noqa: F401
from .channel import ChannelSet, Geometry, LinkBudget, sample_channels, stream_seed
from .errors import ConfigError
from .metrics import (
    RateResult,
    noise_variance_for_snr,
    rate_from_power,
    receive_power_ais,
    system_rate,
)


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


def _fixed_second_slot_rate(
    channels: ChannelSet, p_r_watt: float, noise_variance_watt: float
) -> float:
    # identity reflection phases; the transmit beamformer is still matched
    combined = channels.h_rd + channels.H_ri @ channels.h_id
    power = p_r_watt * float(np.linalg.norm(combined)) ** 2
    return rate_from_power(power, noise_variance_watt)


def _solves(config: ScenarioConfig) -> dict[str, tuple]:
    """The iterative solves in one trial of ``config``, by kind.

    ``"first"`` and ``"second"`` are the first- and second-slot solves of a
    two-hop method.  Each is a (key, run) pair: ``run(channels, noises)``
    returns one solution per noise variance, and the key, led by the
    solver's name, holds every input of the solve except the trial seed and
    the noise.  Configurations with equal keys share one solve per trial
    for all their noise levels.
    """
    method = METHODS[config.method]
    if method.trial != "two-hop":
        return {}
    channels = (method.m or config.m, config.n, config.geometry, config.budget)
    eps, max_iter = config.epsilon, config.max_iter
    p_s, p_r = config.budget.p_s_watt, config.budget.p_r_watt
    solves = {}
    if method.first_slot == "ais" and not method.fixed_phase:
        solves["first"] = (
            ("ais", channels, eps, max_iter),
            lambda ch, noises: ais_max_rp_per_noise(ch, p_s, noises, eps, max_iter),
        )
    elif method.first_slot == "nsp":
        options = dict(
            mode=config.nsp_mode,
            combining=config.combining,
            phases=PhaseShiftVector(np.zeros(config.n)) if method.fixed_phase else None,
        )
        variant = (config.nsp_mode, config.combining, method.fixed_phase)
        solves["first"] = (
            ("nsp", channels, eps, max_iter, *variant),
            lambda ch, noises: nsp_max_rp_mrc_per_noise(
                ch, p_s, noises, eps, max_iter, **options
            ),
        )
    if not method.fixed_phase:
        solves["second"] = (
            ("second", channels, eps, max_iter),
            lambda ch, noises: second_slot_optimize_per_noise(
                ch, p_r, noises, eps, max_iter
            ),
        )
    return solves


def solve_plans(configs: Sequence[ScenarioConfig]) -> list[dict[str, tuple]]:
    """Each configuration's iterative solves, planned across ``configs``.

    One dict per configuration maps each kind of :func:`_solves` to the
    solve's (key, noise levels, run): the levels are the noise variances
    its key serves among ``configs``, its own among them.  Nothing here
    depends on the trial, so one plan serves every trial.
    """
    solves = [_solves(config) for config in configs]
    levels: dict[tuple, dict[float, None]] = {}
    for config, kinds in zip(configs, solves):
        for key, _ in kinds.values():
            levels.setdefault(key, {})[config.noise_variance_watt] = None
    return [
        {kind: (key, tuple(levels[key]), run) for kind, (key, run) in kinds.items()}
        for kinds in solves
    ]


def _shared_solve(
    solve: tuple, channels: ChannelSet, seed: int, noise: float, shared: dict
):
    """The solution at ``noise`` of one planned solve on trial ``seed``.

    ``solve`` is a (key, noise levels, run) entry of :func:`solve_plans`.
    The solutions are shared under the trial seed and the key; on a miss
    the solver runs once for every level that ``shared`` lacks.
    """
    key, levels, run = solve
    solutions = shared.setdefault((seed, key), {})
    if noise not in solutions:
        noises = tuple(v for v in levels if v not in solutions)
        solutions.update(zip(noises, run(channels, noises)))
    return solutions[noise]


def _first_slot(
    config: ScenarioConfig,
    method: Method,
    channels: ChannelSet,
    seed: int,
    noise: float,
    shared: dict,
    plan: dict[str, tuple],
) -> tuple[float, int]:
    """First-hop rate and iteration count of a two-hop method's solver."""
    p_s = config.budget.p_s_watt
    if method.first_slot == "ais" and method.fixed_phase:
        phases = PhaseShiftVector(np.zeros(config.n))
        u_r = ur_update_ais(channels, phases)
        power = receive_power_ais(channels, phases.angles, u_r.weights, p_s)
        return rate_from_power(power, noise), 1
    if method.first_slot == "irses":
        partition = ("partition", seed, config.n, channels.m)
        if partition not in shared:
            shared[partition] = irses_partition(
                config.n, channels.m, stream_seed(seed, PARTITION_STREAM)
            )
        first = irses_max_rp_mrc(
            channels,
            p_s,
            noise,
            shared[partition],
            interference_mode=config.irses_mode,
            combining=config.combining,
            phases=PhaseShiftVector(np.zeros(config.n)) if method.fixed_phase else None,
        )
    else:
        first = _shared_solve(plan["first"], channels, seed, noise, shared)
    return first.rate_r, first.iterations


def run_trial(
    config: ScenarioConfig,
    trial_index: int,
    *,
    shared: dict | None = None,
    plan: dict[str, tuple] | None = None,
) -> TrialRecord:
    """Evaluate one Monte Carlo trial of the configured method.

    ``shared`` holds what other configurations evaluated at the same trial
    index may reuse: the channel draw, keyed by everything it depends on,
    the element partition of ``irses`` methods, and the iterative solves on
    those channels, keyed by their inputs without the noise.  ``plan`` is
    the configuration's entry of :func:`solve_plans` (by default, planned
    alone): a solve runs once for every noise level its plan lists, each
    stopping at its own iterate.  ``shared`` is filled on first use; a
    result does not depend on whether, or with which noise levels, anything
    was shared.
    """
    if trial_index < 0:
        raise ConfigError(f"trial_index must be >= 0, got {trial_index}")
    shared = {} if shared is None else shared
    plan = solve_plans([config])[0] if plan is None else plan
    method = METHODS[config.method]
    seed = trial_seed(config.base_seed, trial_index)
    m = method.m or config.m
    draw = (seed, m, config.n, config.geometry, config.budget)
    if draw not in shared:
        shared[draw] = sample_channels(config.geometry, config.budget, m, config.n, seed)
    channels = shared[draw]
    noise = config.noise_variance_watt
    p_s = config.budget.p_s_watt
    p_r = config.budget.p_r_watt
    if method.trial == "irs-only":
        # one hop S -> IRS -> D with element-wise alignment: no 1/2 pre-log,
        # and the per-hop fields all equal the single-hop rate
        amplitude = float(np.sum(np.abs(channels.h_id) * np.abs(channels.h_si)))
        rate = rate_from_power(p_s * amplitude**2, noise)
        result = RateResult(config.method, rate, rate, rate, (1, 1))
        return TrialRecord(trial_index, seed, result)
    if method.trial == "relay-only":
        rate_r = rate_from_power(p_s * float(np.linalg.norm(channels.h_sr)) ** 2, noise)
        rate_d = rate_from_power(p_r * float(np.linalg.norm(channels.h_rd)) ** 2, noise)
        iterations = (1, 1)
    else:
        rate_r, iterations_1 = _first_slot(
            config, method, channels, seed, noise, shared, plan
        )
        if method.fixed_phase:
            rate_d = _fixed_second_slot_rate(channels, p_r, noise)
            iterations = (iterations_1, 1)
        else:
            second = _shared_solve(plan["second"], channels, seed, noise, shared)
            rate_d = second.rate_d
            iterations = (iterations_1, second.iterations)
    result = RateResult(
        config.method, rate_r, rate_d, system_rate(rate_r, rate_d), iterations
    )
    return TrialRecord(trial_index, seed, result)


def collect_trials(
    config: ScenarioConfig | Sequence[ScenarioConfig], workers: int | None = None
) -> list[TrialRecord] | list[list[TrialRecord]]:
    """Run all trials of one configuration, or of several together.

    Given one configuration, returns its records in trial order.  Given a
    sequence, returns one such list per configuration, in sequence order.
    Evaluation is serial and trial-major: every configuration's trial ``k``
    runs before any trial ``k + 1``, and they share trial ``k``'s channel
    draws, element partitions and iterative solves wherever their inputs
    other than the noise agree.  Each solve runs once per trial for all the
    noise levels that share it (the SNR points of a sweep, say).  Sharing
    changes no bit of any record.

    ``workers`` is accepted for compatibility and must be at least 1; it
    does not change the evaluation or any result.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    configs = [config] if isinstance(config, ScenarioConfig) else list(config)
    plans = solve_plans(configs)
    records: list[list[TrialRecord]] = [[] for _ in configs]
    for trial_index in range(max((c.trials for c in configs), default=0)):
        shared: dict = {}
        for cfg, plan, out in zip(configs, plans, records):
            if trial_index < cfg.trials:
                out.append(run_trial(cfg, trial_index, shared=shared, plan=plan))
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

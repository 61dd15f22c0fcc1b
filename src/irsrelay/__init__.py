"""Link-level simulator for a reflecting-surface-assisted relay network.

A multi-antenna decode-and-forward relay listens to a source through both a
direct link and a passive reflecting surface, then forwards to the
destination over the mirrored pair of links.  The library co-designs the
surface phase shifts and the relay receive/transmit beamformers with three
strategies of decreasing cost (alternating ascent, null-space separation,
element grouping), and wraps them in a deterministic Monte Carlo harness
for rate sweeps over SNR, surface size, antenna count, and relay position.

Each public name is imported from its module on first use (PEP 562), so
``import irsrelay`` loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

#: every public name, by the module that defines it
_HOMES = {
    "beamforming": ("PhaseShiftVector", "wrap_angles"),
    "solutions": (
        "Beamformer", "FirstSlotSolution", "OracleResult", "Partition",
        "SecondSlotSolution", "ais_max_rp", "ais_max_rp_batch",
        "brute_force_max_rp", "irses_max_rp_mrc", "irses_max_rp_mrc_batch",
        "irses_partition", "irses_partitions", "nsp_max_rp_mrc",
        "nsp_max_rp_mrc_batch", "nsp_projector", "second_slot_optimize",
        "second_slot_optimize_batch", "theta_update_ais", "ur_update_ais",
    ),
    "channel": (
        "ChannelSet", "Geometry", "LinkBudget", "dbi_to_amplitude_gain",
        "pathloss_amplitude", "sample_channels", "sample_channels_batch",
        "stack_channels", "stream_seed",
    ),
    "errors": (
        "ConfigError", "DegenerateChannelError", "DegenerateElementWarning",
        "ProjectorDegenerateError", "TraceDipError",
    ),
    "harness": (
        "METHODS", "PROPOSED_METHODS", "Columns", "ScenarioConfig", "SweepPoint",
        "SweepResult", "SweepSpec", "TrialRecord", "collect_columns",
        "collect_trials", "run_trial", "summarize_columns", "summarize_records",
        "sweep", "trial_seed",
    ),
    "metrics": (
        "FlopsEstimate", "RateResult", "flops_ais", "flops_irses", "flops_nsp",
        "noise_variance_for_snr", "rate_from_power", "receive_power_ais",
        "system_rate",
    ),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Link-level simulator for a reflecting-surface-assisted relay network.

A multi-antenna decode-and-forward relay listens to a source through both a
direct link and a passive reflecting surface, then forwards to the
destination over the mirrored pair of links.  The library co-designs the
surface phase shifts and the relay receive/transmit beamformers with three
strategies of decreasing cost (alternating ascent, null-space separation,
element grouping), and wraps them in a deterministic Monte Carlo harness
for rate sweeps over SNR, surface size, antenna count, and relay position.
"""

__version__ = "0.1.0"

from .beamforming import (
    Beamformer,
    FirstSlotSolution,
    OracleResult,
    Partition,
    PhaseShiftVector,
    SecondSlotSolution,
    ais_max_rp,
    brute_force_max_rp,
    irses_max_rp_mrc,
    irses_partition,
    nsp_max_rp_mrc,
    nsp_projector,
    second_slot_optimize,
    theta_update_ais,
    ur_update_ais,
    wrap_angles,
)
from .channel import (
    ChannelSet,
    Geometry,
    LinkBudget,
    dbi_to_amplitude_gain,
    pathloss_amplitude,
    sample_channels,
    stream_seed,
)
from .errors import (
    ConfigError,
    DegenerateChannelError,
    DegenerateElementWarning,
    ProjectorDegenerateError,
    TraceDipError,
)
from .harness import (
    METHODS,
    PROPOSED_METHODS,
    ScenarioConfig,
    SweepPoint,
    SweepResult,
    SweepSpec,
    TrialRecord,
    collect_trials,
    run_trial,
    summarize_records,
    sweep,
    trial_seed,
)
from .metrics import (
    FlopsEstimate,
    RateResult,
    flops_ais,
    flops_irses,
    flops_nsp,
    noise_variance_for_snr,
    rate_from_power,
    receive_power_ais,
    system_rate,
)

__all__ = [
    "__version__",
    "Beamformer",
    "ChannelSet",
    "ConfigError",
    "DegenerateChannelError",
    "DegenerateElementWarning",
    "FirstSlotSolution",
    "FlopsEstimate",
    "Geometry",
    "LinkBudget",
    "METHODS",
    "OracleResult",
    "PROPOSED_METHODS",
    "Partition",
    "PhaseShiftVector",
    "ProjectorDegenerateError",
    "RateResult",
    "ScenarioConfig",
    "SecondSlotSolution",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "TraceDipError",
    "TrialRecord",
    "ais_max_rp",
    "brute_force_max_rp",
    "collect_trials",
    "dbi_to_amplitude_gain",
    "flops_ais",
    "flops_irses",
    "flops_nsp",
    "irses_max_rp_mrc",
    "irses_partition",
    "noise_variance_for_snr",
    "nsp_max_rp_mrc",
    "nsp_projector",
    "pathloss_amplitude",
    "rate_from_power",
    "receive_power_ais",
    "run_trial",
    "sample_channels",
    "second_slot_optimize",
    "stream_seed",
    "summarize_records",
    "sweep",
    "system_rate",
    "theta_update_ais",
    "trial_seed",
    "ur_update_ais",
    "wrap_angles",
]

"""Channel generation for the two-hop relay network with a reflecting surface.

The network has four nodes: a source S, a relay RS with ``m`` receive/transmit
antennas, a passive reflecting surface IRS with ``n`` elements, and a
destination D.  Every link is modeled as flat Rayleigh fading: independent
circularly-symmetric complex Gaussian entries of unit variance, scaled by a
distance-based amplitude attenuation and by the endpoint antenna gains.

:func:`sample_channels_batch` draws several trials at once, as one stack of
all six links with a leading trial axis; each trial's rows are bit for bit
what :func:`sample_channels`, its one-trial view, draws for that seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError

Point = tuple[float, float]

#: stream indices for the six per-trial random substreams, one per link
LINK_STREAMS = {
    "h_sr": 0,
    "H_ir": 1,
    "h_si": 2,
    "h_rd": 3,
    "h_id": 4,
    "H_ri": 5,
}


def stream_seed(*parts: int) -> int:
    """Mix integer parts into a single 64-bit seed.

    Used to derive per-trial (and, inside :func:`sample_channels`, per-link)
    seeds from a base seed without correlated streams.
    """
    for part in parts:
        if part < 0:
            raise ConfigError("seed components must be non-negative integers")
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Geometry:
    """Planar node positions in meters.

    Defaults put the source at the origin, the destination 100 m away on the
    same horizontal line, and the relay mid-way with the surface mounted 10 m
    above it.
    """

    pos_s: Point = (0.0, 0.0)
    pos_rs: Point = (50.0, 0.0)
    pos_irs: Point = (50.0, 10.0)
    pos_d: Point = (100.0, 0.0)

    def __post_init__(self) -> None:
        for name, dist in self.link_distances().items():
            if not dist > 0.0:
                raise ConfigError(f"link distance {name} must be positive, got {dist}")

    @property
    def d_sr(self) -> float:
        return math.dist(self.pos_s, self.pos_rs)

    @property
    def d_si(self) -> float:
        return math.dist(self.pos_s, self.pos_irs)

    @property
    def d_ir(self) -> float:
        return math.dist(self.pos_irs, self.pos_rs)

    @property
    def d_rd(self) -> float:
        return math.dist(self.pos_rs, self.pos_d)

    @property
    def d_id(self) -> float:
        return math.dist(self.pos_irs, self.pos_d)

    @property
    def d_ri(self) -> float:
        return math.dist(self.pos_rs, self.pos_irs)

    def link_distances(self) -> dict[str, float]:
        return {
            "d_sr": self.d_sr,
            "d_si": self.d_si,
            "d_ir": self.d_ir,
            "d_rd": self.d_rd,
            "d_id": self.d_id,
        }


@dataclass(frozen=True)
class LinkBudget:
    """Scalar link-budget parameters.

    ``alpha`` is the path-loss exponent applied to received power, so the
    amplitude attenuation over distance ``d`` is ``d ** (-alpha / 2)``.
    Antenna gains are in dBi and folded into the channel amplitudes; the
    surface elements default to 0 dBi.  Powers are in watts.
    """

    alpha: float = 2.4
    gain_s_dbi: float = 5.0
    gain_rs_dbi: float = 5.0
    gain_d_dbi: float = 2.0
    gain_irs_dbi: float = 0.0
    p_s_watt: float = 10.0
    p_r_watt: float = 10.0

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if not self.p_s_watt > 0.0:
            raise ConfigError(f"p_s_watt must be positive, got {self.p_s_watt}")
        if not self.p_r_watt > 0.0:
            raise ConfigError(f"p_r_watt must be positive, got {self.p_r_watt}")


@dataclass(eq=False)
class ChannelSet:
    """One realization of all six links, or a stack of several trials' ones.

    Shapes: ``h_sr`` and ``h_rd`` are length-``m`` vectors, ``h_si`` and
    ``h_id`` are length-``n`` vectors, ``H_ir`` and ``H_ri`` are ``m x n``
    matrices.  ``H_ir`` maps surface elements to relay antennas on the first
    hop, ``H_ri`` is the relay-to-surface link used on the second hop.  A
    stack puts one more, leading trial axis on every block; the batched
    solvers take stacks, and :meth:`trial` views one trial's rows.

    The six blocks are stored as read-only views, so one draw can be shared
    by several solvers and none of them can change it for the others; the
    arrays passed in stay writable.
    """

    h_sr: np.ndarray
    H_ir: np.ndarray
    h_si: np.ndarray
    h_rd: np.ndarray
    h_id: np.ndarray
    H_ri: np.ndarray

    def __post_init__(self) -> None:
        for name in LINK_STREAMS:
            block = np.asarray(getattr(self, name), dtype=np.complex128).view()
            block.flags.writeable = False
            setattr(self, name, block)
        if self.h_sr.ndim not in (1, 2):
            raise ConfigError("h_sr and h_rd must be length-m vectors")
        *lead, m = self.h_sr.shape
        n = self.h_si.shape[-1] if self.h_si.ndim else -1
        if self.h_rd.shape != (*lead, m):
            raise ConfigError("h_sr and h_rd must be length-m vectors")
        if self.h_si.shape != (*lead, n) or self.h_id.shape != (*lead, n):
            raise ConfigError("h_si and h_id must be length-n vectors")
        if self.H_ir.shape != (*lead, m, n) or self.H_ri.shape != (*lead, m, n):
            raise ConfigError("H_ir and H_ri must have shape (m, n)")
        for name in LINK_STREAMS:
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"channel block {name} contains non-finite entries")

    @property
    def m(self) -> int:
        return self.h_sr.shape[-1]

    @property
    def n(self) -> int:
        return self.h_si.shape[-1]

    def trial(self, index: int) -> "ChannelSet":
        """Trial ``index`` of a stack, as a ChannelSet viewing its rows.

        The rows of a checked stack need no second check.
        """
        if self.h_sr.ndim != 2:
            raise ConfigError("only a stack of trials has trials to view")
        view = object.__new__(type(self))
        view.__dict__.update(
            (name, getattr(self, name)[index]) for name in LINK_STREAMS
        )
        return view


def stack_channels(channel_sets: Sequence[ChannelSet]) -> ChannelSet:
    """Several trials' channels as one stack, each block on a leading trial axis."""
    return ChannelSet(
        **{
            name: np.stack([getattr(channels, name) for channels in channel_sets])
            for name in LINK_STREAMS
        }
    )


def pathloss_amplitude(distance_m: float, alpha: float) -> float:
    """Amplitude attenuation over ``distance_m`` for path-loss exponent ``alpha``.

    The received amplitude decays as ``d ** (-alpha / 2)``, i.e. received
    power decays as ``d ** (-alpha)``.
    """
    if not distance_m > 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    if not alpha > 0.0:
        raise ValueError(f"path-loss exponent must be positive, got {alpha}")
    return float(distance_m) ** (-alpha / 2.0)


def dbi_to_amplitude_gain(gain_tx_dbi: float, gain_rx_dbi: float) -> float:
    """Combined endpoint antenna gain as an amplitude factor.

    Power gains add in dB, and the amplitude factor is the square root of the
    linear power gain: ``10 ** ((g_tx + g_rx) / 20)``.
    """
    if not (math.isfinite(gain_tx_dbi) and math.isfinite(gain_rx_dbi)):
        raise ValueError("antenna gains must be finite")
    return 10.0 ** ((gain_tx_dbi + gain_rx_dbi) / 20.0)


def sample_channels_batch(
    geometry: Geometry,
    budget: LinkBudget,
    m: int,
    n: int,
    seeds: Sequence[int],
) -> ChannelSet:
    """Draw one Rayleigh realization of all six links per seed, as one stack.

    Row ``k`` of every block is what :func:`sample_channels` draws for
    ``seeds[k]``, bit for bit.  Each (seed, link) keeps its own substream,
    which fills that seed's row of the link's stack.  All six links live in
    one complex buffer, and the draws go straight into its real and
    imaginary parts, so no second buffer of float draws is ever held; the
    scaling ``scale * (re + 1j * im) / sqrt(2)`` runs on it a step at a
    time, in place, each link's scale on its own stack.  The stack is
    checked once.
    """
    if m < 1:
        raise ConfigError(f"antenna count m must be >= 1, got {m}")
    if n < 1:
        raise ConfigError(f"element count n must be >= 1, got {n}")
    for seed in seeds:
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
    links = {
        "h_sr": (geometry.d_sr, budget.gain_s_dbi, budget.gain_rs_dbi, (m,)),
        "H_ir": (geometry.d_ir, budget.gain_irs_dbi, budget.gain_rs_dbi, (m, n)),
        "h_si": (geometry.d_si, budget.gain_s_dbi, budget.gain_irs_dbi, (n,)),
        "h_rd": (geometry.d_rd, budget.gain_rs_dbi, budget.gain_d_dbi, (m,)),
        "h_id": (geometry.d_id, budget.gain_irs_dbi, budget.gain_d_dbi, (n,)),
        "H_ri": (geometry.d_ri, budget.gain_rs_dbi, budget.gain_irs_dbi, (m, n)),
    }
    # each link's stack is a contiguous run of the buffer, trial-major
    trials = len(seeds)
    spans, stop = {}, 0
    for name, (*_, shape) in links.items():
        spans[name] = slice(stop, stop + trials * math.prod(shape))
        stop = spans[name].stop
    values = np.empty(stop, dtype=np.complex128)
    # each complex entry is its (re, im) pair of floats
    parts = values.view(np.float64).reshape(stop, 2)
    for name, (*_, shape) in links.items():
        rows = parts[spans[name]].reshape(trials, *shape, 2)
        for row, seed in enumerate(seeds):
            ss = np.random.SeedSequence((int(seed), LINK_STREAMS[name]))
            rng = np.random.Generator(np.random.Philox(ss))
            # interleaved real/imag draws keep leading entries stable when m grows
            rng.standard_normal(shape + (2,), out=rows[row])
    blocks: dict[str, np.ndarray] = {}
    for name, (dist, g_tx, g_rx, shape) in links.items():
        block = values[spans[name]]
        block *= pathloss_amplitude(dist, budget.alpha) * dbi_to_amplitude_gain(g_tx, g_rx)
        blocks[name] = block.reshape(trials, *shape)
    values /= np.sqrt(2.0)
    return ChannelSet(**blocks)


def sample_channels(
    geometry: Geometry,
    budget: LinkBudget,
    m: int,
    n: int,
    seed: int,
) -> ChannelSet:
    """Draw one Rayleigh realization of all six links.

    Each link uses its own counter-based substream derived from
    ``(seed, link index)``, so the realization is reproducible bit-for-bit
    and individual links do not shift when unrelated dimensions change.
    This is :func:`sample_channels_batch` on one seed, viewed as one trial.

    Args:
        geometry: node positions.
        budget: path-loss exponent and antenna gains.
        m: relay antenna count (>= 1).
        n: surface element count (>= 1).
        seed: non-negative integer seed.

    Returns:
        A :class:`ChannelSet` with entries of per-link standard deviation
        ``pathloss_amplitude(d, alpha) * dbi_to_amplitude_gain(g_tx, g_rx)``.
    """
    return sample_channels_batch(geometry, budget, m, n, [seed]).trial(0)

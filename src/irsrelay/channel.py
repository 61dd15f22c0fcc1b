"""Channel generation for the two-hop relay network with a reflecting surface.

The network has four nodes: a source S, a relay RS with ``m`` receive/transmit
antennas, a passive reflecting surface IRS with ``n`` elements, and a
destination D.  Every link is modeled as flat Rayleigh fading: independent
circularly-symmetric complex Gaussian entries of unit variance, scaled by a
distance-based amplitude attenuation and by the endpoint antenna gains.

:func:`sample_channels_batch` draws several trials at once, as one stack of
all six links with a leading trial axis; each trial's rows are bit for bit
what :func:`sample_channels`, its one-trial view, draws for that seed alone.
:func:`sample_links` draws some of those links, as :class:`Links`, from the
trials' seeds: the trial engine draws a stack a hop at a time, so that it
never holds both surface matrices, every block is bit for bit the whole
draw's, and a smaller draw is a corner of it (:meth:`Links.corner`).

Every random stream is numpy's counter-based Philox at a key of two 64-bit
words, with no hash in between (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011): a trial seed is the first word at key ``(base
seed, trial index)`` (:func:`stream_seed`), link ``L`` of trial seed ``s``
is drawn at key ``(s, L)``, each of its antennas from a counter of its own,
and the trial's ``irses`` element partition at key ``(s,
PARTITION_STREAM)``.  So every seed lies in ``[0, 2**64)``
(:func:`check_seed`), and growing ``m`` or ``n`` keeps the leading entries
of every link.  :func:`keyed_generators` positions one Philox generator at
each key and counter in turn instead of building a ``Philox`` and a
``Generator`` per stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

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

#: substream index of a trial's ``irses`` element partition, after the links'
PARTITION_STREAM = 6

#: magnitudes below this are treated as exactly zero when normalizing; a link
#: whose amplitude scale is below it is rejected when drawn, and a cascade
#: whose scale product is (:func:`check_links`)
ZERO_NORM = 1e-30

#: the two links each path through the surface multiplies: into the surface
#: and out of it, on the first hop, the second hop and ``baseline-irs-only``'s
CASCADES = (("H_ir", "h_si"), ("H_ri", "h_id"), ("h_si", "h_id"))

def check_seed(seed: int, name: str = "seed") -> None:
    """Reject a seed outside ``[0, 2**64)``, one word of a Philox key.

    Raises:
        ConfigError: naming ``name``.
    """
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must lie in [0, 2**64), got {seed}")


def keyed_generators(
    keys: Iterable[tuple[int, int]], rows: int = 1
) -> Iterator[np.random.Generator]:
    """One generator, positioned at each key and row in turn.

    A key is a pair of words in ``[0, 2**64)``; for each, in order, and each
    row ``r < rows`` the generator is ``Generator(Philox(key=key, counter=(0,
    r, 0, 0)))``, with an empty buffer.  Row ``r``'s stream starts at its
    own counter, so what it draws does not depend on how many words the rows
    before it took.  One ``Philox`` and one ``Generator`` are made per call,
    so concurrent calls share no state, and each step costs one state
    assignment.  Take each generator's draws before the next step.
    """
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    counters = [(0, row, 0, 0) for row in range(rows)]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counters[0], "key": (0, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    position = state["state"]
    for key in keys:
        position["key"] = key
        for counter in counters:
            position["counter"] = counter
            bit_generator.state = state
            yield rng


def stream_seeds(seed: int, indices: Iterable[int]) -> list[int]:
    """:func:`stream_seed` of ``seed`` and each of ``indices``, with one generator."""
    return [
        rng.bit_generator.random_raw()
        for rng in keyed_generators((seed, index) for index in indices)
    ]


def stream_seed(seed: int, index: int) -> int:
    """The 64-bit seed of substream ``index`` of ``seed``.

    It is the first word of Philox keyed by ``(seed, index)`` at counter 0:
    a counter-based generator needs no hash to derive independent streams
    (Salmon et al., SC 2011).  A trial's seed is that of ``(base seed,
    trial index)``.

    Raises:
        ConfigError: if ``seed`` or ``index`` lies outside ``[0, 2**64)``.
    """
    check_seed(seed)
    check_seed(index, "stream index")
    return stream_seeds(seed, [index])[0]


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

    @classmethod
    def _of(cls, blocks: dict) -> "ChannelSet":
        """A ChannelSet of checked, read-only blocks, which need no second check."""
        view = object.__new__(cls)
        view.__dict__.update(blocks)
        return view

    def trial(self, index: int) -> "ChannelSet":
        """Trial ``index`` of a stack, as a ChannelSet viewing its rows.

        The rows of a checked stack need no second check.
        """
        if self.h_sr.ndim != 2:
            raise ConfigError("only a stack of trials has trials to view")
        return self._of({name: getattr(self, name)[index] for name in LINK_STREAMS})


def _shapes(m: int, n: int) -> dict[str, tuple[int, ...]]:
    """Each link's shape in one trial at ``m`` antennas and ``n`` elements."""
    return dict(h_sr=(m,), H_ir=(m, n), h_si=(n,), h_rd=(m,), h_id=(n,), H_ri=(m, n))


class Links(SimpleNamespace):
    """Some links of a stack of trials, by name (:data:`LINK_STREAMS`).

    Each is a checked, read-only block with a leading trial axis, as a
    :class:`ChannelSet` holds it: :func:`sample_links` draws them a few
    links at a time, so that a stack need not hold both surface matrices.
    """

    def corner(self, m: int, n: int) -> "Links":
        """Each link's leading ``m`` antennas and ``n`` elements, as views.

        A stack drawn at ``(m, n)`` or more of either gives, bit for bit, the
        draw at ``(m, n)`` of the same seeds (:func:`sample_links`); the
        views are strided, read-only and copy nothing.
        """
        shapes = _shapes(m, n)
        return Links(
            **{
                name: block[(slice(None), *map(slice, shapes[name]))]
                for name, block in vars(self).items()
            }
        )


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


def link_scale(geometry: Geometry, budget: LinkBudget, name: str) -> float:
    """Amplitude scale of link ``name``: path loss times its antenna gains.

    Raises:
        ConfigError: if the scale is not finite or is below
            :data:`ZERO_NORM`, naming the link.
    """
    ends = {
        "h_sr": (geometry.d_sr, budget.gain_s_dbi, budget.gain_rs_dbi),
        "H_ir": (geometry.d_ir, budget.gain_irs_dbi, budget.gain_rs_dbi),
        "h_si": (geometry.d_si, budget.gain_s_dbi, budget.gain_irs_dbi),
        "h_rd": (geometry.d_rd, budget.gain_rs_dbi, budget.gain_d_dbi),
        "h_id": (geometry.d_id, budget.gain_irs_dbi, budget.gain_d_dbi),
        "H_ri": (geometry.d_ri, budget.gain_rs_dbi, budget.gain_irs_dbi),
    }
    dist, g_tx, g_rx = ends[name]
    try:
        scale = pathloss_amplitude(dist, budget.alpha) * dbi_to_amplitude_gain(
            g_tx, g_rx
        )
    except OverflowError:  # a factor beyond the float range
        scale = math.inf
    if not ZERO_NORM <= scale < math.inf:
        raise ConfigError(
            f"link {name}: amplitude scale {scale} (path loss times antenna "
            f"gains) must be finite and at least {ZERO_NORM}"
        )
    return scale


def check_links(geometry: Geometry, budget: LinkBudget, names: Sequence[str]) -> None:
    """Reject links ``names`` that no solve could tell from zero, before a draw.

    Each link's scale is checked in turn (:func:`link_scale`), and then each
    cascade of :data:`CASCADES` among ``names``: every path through the
    surface is the product of an entry of each of its two links, so with a
    scale product below :data:`ZERO_NORM` every path is about as small, the
    solvers set each element aside as carrying no signal, and a table would
    read the direct links' rates alone; one beyond the float range overflows
    every path.

    Raises:
        ConfigError: naming the first link, or else the first cascade, out
            of range.
    """
    scales = {name: link_scale(geometry, budget, name) for name in names}
    for into, out in CASCADES:
        if into in scales and out in scales:
            product = scales[into] * scales[out]
            if not ZERO_NORM <= product < math.inf:
                raise ConfigError(
                    f"cascade {into}*{out}: amplitude scale product {product:.3g} "
                    f"of its two links must be finite and at least {ZERO_NORM}"
                )


def sample_links(
    geometry: Geometry,
    budget: LinkBudget,
    m: int,
    n: int,
    seeds: Sequence[int],
    names: Sequence[str],
) -> Links:
    """Draw links ``names`` of one Rayleigh realization per seed.

    Row ``k`` of each link is, bit for bit, what :func:`sample_channels_batch`
    draws for ``seeds[k]``, so that the links of one draw may be drawn in
    several calls.  Link ``L`` of seed ``s`` is drawn from Philox keyed by
    ``(s, L)`` (:data:`LINK_STREAMS`); its antenna ``r`` (a vector is one
    row) from counter ``(0, r, 0, 0)`` (:func:`keyed_generators`), as
    interleaved real and imaginary standard normals.  A row's leading
    entries are the start of its own stream, so the draw at ``m`` antennas
    and ``n`` elements is, bit for bit, the leading ``m x n`` entries of a
    draw at more of either (:meth:`Links.corner`).  Each link is
    its own complex buffer, so that a caller may drop one and keep the
    others; the draws go straight into it and are scaled in place by
    ``scale / sqrt(2)``, one float.  Each block is checked once and
    returned read-only.

    Raises:
        ConfigError: if ``m`` or ``n`` is below 1, or a link's amplitude
            scale (path loss times antenna gains) is not finite or is below
            :data:`ZERO_NORM`, naming the link.
    """
    if m < 1:
        raise ConfigError(f"antenna count m must be >= 1, got {m}")
    if n < 1:
        raise ConfigError(f"element count n must be >= 1, got {n}")
    shapes = _shapes(m, n)
    blocks = {}
    for name in names:
        scale, shape = link_scale(geometry, budget, name), shapes[name]
        antennas, cols = shape if len(shape) == 2 else (1, *shape)
        block = np.empty((len(seeds), *shape), dtype=np.complex128)
        # each antenna's row of (re, im) float pairs from its own stream
        keys = ((seed, LINK_STREAMS[name]) for seed in seeds)
        streams = keyed_generators(keys, antennas)
        for row, rng in zip(block.view(np.float64).reshape(-1, cols, 2), streams):
            rng.standard_normal((cols, 2), out=row)
        block *= scale / math.sqrt(2.0)
        if not np.isfinite(block).all():
            raise ConfigError(f"channel block {name} contains non-finite entries")
        block.flags.writeable = False
        blocks[name] = block
    return Links(**blocks)


def sample_channels_batch(
    geometry: Geometry,
    budget: LinkBudget,
    m: int,
    n: int,
    seeds: Sequence[int],
) -> ChannelSet:
    """Draw one Rayleigh realization of all six links per seed, as one stack.

    Row ``k`` of every block is what :func:`sample_channels` draws for
    ``seeds[k]``, bit for bit: each (seed, link) keeps its own Philox key,
    and each antenna of a link its own counter (:func:`sample_links`).

    Raises:
        ConfigError: if a seed lies outside ``[0, 2**64)``, or as
            :func:`sample_links` does.
    """
    for seed in seeds:
        check_seed(seed)
    links = sample_links(geometry, budget, m, n, seeds, tuple(LINK_STREAMS))
    return ChannelSet._of(vars(links))


def sample_channels(
    geometry: Geometry,
    budget: LinkBudget,
    m: int,
    n: int,
    seed: int,
) -> ChannelSet:
    """Draw one Rayleigh realization of all six links.

    Each link uses its own counter-based substream keyed by ``(seed, link
    index)``, so the realization is reproducible bit for bit, and growing
    ``m`` or ``n`` keeps the leading entries of every link.
    This is :func:`sample_channels_batch` on one seed, viewed as one trial.

    Args:
        geometry: node positions.
        budget: path-loss exponent and antenna gains.
        m: relay antenna count (>= 1).
        n: surface element count (>= 1).
        seed: integer seed in ``[0, 2**64)``.

    Returns:
        A :class:`ChannelSet` with entries of per-link standard deviation
        ``pathloss_amplitude(d, alpha) * dbi_to_amplitude_gain(g_tx, g_rx)``.
    """
    return sample_channels_batch(geometry, budget, m, n, [seed]).trial(0)

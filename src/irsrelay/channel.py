"""Channel generation for the two-hop relay network with a reflecting surface.

The network has four nodes: a source S, a relay RS with ``m`` receive/transmit
antennas, a passive reflecting surface IRS with ``n`` elements, and a
destination D.  Every link is modeled as flat Rayleigh fading: independent
circularly-symmetric complex Gaussian entries of unit variance, scaled by a
distance-based amplitude attenuation and by the endpoint antenna gains.

:func:`sample_channels_batch` draws several trials at once, as one stack of
all six links with a leading trial axis; each trial's rows are bit for bit
what :func:`sample_channels`, its one-trial view, draws for that seed alone.
:func:`sample_links` draws some of those links, as :class:`Links`, from
keys hashed once by :func:`link_keys`: the trial engine draws a stack a hop
at a time, so that it never holds both surface matrices, and every block
is bit for bit the whole draw's.

Every random stream is keyed by numpy's ``SeedSequence`` hash of integer
parts: a trial seed by ``(base seed, trial index)``, a link's stream by
``(trial seed, link index)``.  :func:`seed_states` computes that hash for
many keys in one vectorised pass, bit for bit what ``SeedSequence`` gives
one key at a time, and :func:`keyed_generators` re-keys one Philox
generator per key instead of building a ``SeedSequence``, a ``Philox`` and
a ``Generator`` per stream: counter-based generators need no per-stream
object (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011).  The draws are the same bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterator, Sequence

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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words mixed from the entropy words, then expanded into the state
_MASK32 = 0xFFFF_FFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` (xor, multiplier) pairs of a hash-constant sequence.

    Each hash step xors with the running constant, advances it by ``mult``
    and multiplies by the advanced one; the sequence depends on no data.
    """
    pairs, const = [], init
    for _ in range(count):
        advanced = const * mult & _MASK32
        pairs.append((const, advanced))
        const = advanced
    return np.array(pairs, dtype=np.uint32).T


_POOL_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS * _POOL_WORDS)


def _cross_mix_constants() -> list[np.ndarray]:
    """Per source word, the constants mixing it into the other three words.

    Its own column gets (0, 0); the caller restores that column.
    """
    out = []
    for src in range(_POOL_WORDS):
        pairs = np.zeros((2, _POOL_WORDS), dtype=np.uint32)
        others = [dst for dst in range(_POOL_WORDS) if dst != src]
        start = _POOL_WORDS + (_POOL_WORDS - 1) * src
        pairs[:, others] = _POOL_CONSTANTS[:, start : start + _POOL_WORDS - 1]
        out.append(pairs)
    return out


_CROSS_MIX = _cross_mix_constants()


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


def _part_words(part) -> tuple[np.ndarray, int | np.ndarray]:
    """One part's 32-bit words, least significant first, and how many count.

    ``SeedSequence`` splits an integer into its words up to the highest
    nonzero one (0 is one word).  An int gives a (words,) row shared by
    every key; a sequence gives a (keys, words) array and a count per key,
    or one count when every key has the same.
    """
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if value < 0:
            raise ConfigError("seed components must be non-negative integers")
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return np.array(words, dtype=np.uint32), len(words)
    if isinstance(part, np.ndarray):
        if part.dtype.kind not in "iu" or part.dtype.kind == "i" and (part < 0).any():
            raise ConfigError("seed components must be non-negative integers")
        values = part.astype(np.uint64)
    else:
        try:
            values = np.asarray(part, dtype=np.uint64)
        except OverflowError:
            # a value of 2**64 or more, or a negative one: split them one by one
            ints = [int(v) for v in part]
            if min(ints) < 0:
                raise ConfigError("seed components must be non-negative integers")
            counts = np.array([max(1, -(-v.bit_length() // 32)) for v in ints])
            width = int(counts.max())
            words = [[v >> 32 * i & _MASK32 for i in range(width)] for v in ints]
            return np.array(words, dtype=np.uint32), counts
    high = values >> 32
    if not high.any():
        return values.astype(np.uint32)[:, None], 1
    words = np.stack([values, high], axis=1).astype(np.uint32)
    return words, 2 if high.all() else 1 + (high != 0)


def seed_states(parts: Sequence, words: int = 1) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(words, uint64)`` for many keys.

    Each of ``parts`` is a non-negative int, shared by every key, or a
    sequence of them, one per key; key ``k``'s entropy is the tuple of each
    part's value for ``k``.  Returns a (keys, words) uint64 array whose row
    ``k`` is, bit for bit, what numpy's ``SeedSequence`` gives key ``k``,
    computed in one vectorised pass over all keys: an entropy of at most four
    words is its zero-padded four-word form, and the words past the fourth
    are mixed in per key.  One key is hashed by ``SeedSequence`` itself.

    Raises:
        ConfigError: if a part is negative or not an integer.
    """
    columns = [_part_words(part) for part in parts]
    keys = max((len(w) for w, _ in columns if w.ndim == 2), default=1)
    if keys == 1:
        # numpy's own hash of one key costs a fifth of the vectorised pass
        counted = [w.reshape(-1)[: int(np.max(count))] for w, count in columns]
        entropy = np.concatenate([np.empty(0, dtype=np.uint32), *counted])
        state = np.random.SeedSequence(entropy).generate_state(words, np.uint64)
        return state[np.newaxis]
    return _hashed_states(columns, keys, words)


def _hashed_states(columns: list, keys: int, words: int) -> np.ndarray:
    """:func:`seed_states` of several keys, from their parts' words, in one pass."""
    width = sum(w.shape[-1] for w, _ in columns)
    entropy = np.zeros((keys, max(_POOL_WORDS, width)), dtype=np.uint32)
    lengths: int | np.ndarray = width
    if all(isinstance(count, int) and count == w.shape[-1] for w, count in columns):
        start = 0
        for w, count in columns:
            entropy[:, start : start + count] = w
            start += count
    else:
        # each key's words in order, its uncounted (zero) words moved last
        joined, counted = [], []
        for w, count in columns:
            shape = (keys, w.shape[-1])
            joined.append(np.broadcast_to(w, shape))
            counts = np.reshape(count, (-1, 1))
            counted.append(np.broadcast_to(np.arange(shape[1]) < counts, shape))
        counted = np.concatenate(counted, axis=1)
        order = np.argsort(~counted, axis=1, kind="stable")
        entropy[:, :width] = np.take_along_axis(np.hstack(joined), order, axis=1)
        lengths = counted.sum(axis=1)
    pool = _hashmix(entropy[:, :_POOL_WORDS], *_POOL_CONSTANTS[:, :_POOL_WORDS])
    for src, constants in enumerate(_CROSS_MIX):
        mixed = _mix(pool, _hashmix(pool[:, src, None], *constants))
        mixed[:, src] = pool[:, src]
        pool = mixed
    if width > _POOL_WORDS:
        tail = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS * width)
        for src in range(_POOL_WORDS, width):
            step = slice(_POOL_WORDS * src, _POOL_WORDS * (src + 1))
            mixed = _mix(pool, _hashmix(entropy[:, src, None], *tail[:, step]))
            pool = np.where(np.reshape(lengths > src, (-1, 1)), mixed, pool)
    state = _hashmix(
        pool[:, np.arange(2 * words) % _POOL_WORDS],
        *_hash_constants(_INIT_B, _MULT_B, 2 * words),
    )
    # pairs of 32-bit words, little-endian, as SeedSequence packs them
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def stream_seed(*parts: int) -> int:
    """Mix integer parts into a single 64-bit seed.

    Used to derive per-trial seeds from a base seed without correlated
    streams: ``SeedSequence(parts).generate_state(1, uint64)``, through
    :func:`seed_states`.
    """
    return int(seed_states(parts)[0, 0])


def keyed_generators(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """One generator, re-keyed to each row of ``keys`` in turn.

    A row is a Philox key, two uint64 words: at that step the generator is
    ``Generator(Philox(seed_sequence))`` for any ``seed_sequence`` whose
    ``generate_state(2, uint64)`` is the row, that is Philox at counter 0
    with an empty buffer.  One ``Philox`` and one ``Generator`` are made
    per call, so concurrent calls share no state, and each key costs one
    state assignment.  Take each generator's draws before the next step.
    """
    if not len(keys):
        return
    bit_generator = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bit_generator)
    empty = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": empty, "key": keys[0]},
        "buffer": empty,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in keys:
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng


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


#: the links with an antenna axis, after the trial axis
_ANTENNA_LINKS = frozenset(("h_sr", "H_ir", "h_rd", "H_ri"))


class Links(SimpleNamespace):
    """Some links of a stack of trials, by name (:data:`LINK_STREAMS`).

    Each is a checked, read-only block with a leading trial axis, as a
    :class:`ChannelSet` holds it: :func:`sample_links` draws them a few
    links at a time, so that a stack need not hold both surface matrices.
    """

    def rows(self, index: slice | Sequence[int], m: int | None = None) -> "Links":
        """Trials ``index`` of each link, and of each only the first ``m`` antennas.

        A slice of trials with every antenna views the stack's rows; other
        rows are contiguous, read-only copies, which keep no part of the
        stack alive.  A stack drawn at more antennas gives, bit for bit, the
        draw at ``m`` of the same seeds (:func:`sample_links`).
        """
        taken = {
            name: block[index, :m] if name in _ANTENNA_LINKS else block[index]
            for name, block in vars(self).items()
        }
        if m is not None or not isinstance(index, slice):
            for name, block in taken.items():
                if block.base is not None:  # a view, not a fancy index's copy
                    block = block.copy()
                block.flags.writeable = False
                taken[name] = block
        return Links(**taken)


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


def link_keys(seeds: Sequence[int]) -> np.ndarray:
    """The Philox key of every (seed, link) stream, hashed in one call.

    Returns a (links, seeds, 2) uint64 array, the links in
    :data:`LINK_STREAMS` order: entry ``[link, k]`` is
    ``seed_states([seeds[k], link], 2)``, the key of that link's stream.
    """
    trials = len(seeds)
    links = np.repeat(np.arange(len(LINK_STREAMS)), trials)
    return seed_states([list(seeds) * len(LINK_STREAMS), links], 2).reshape(
        len(LINK_STREAMS), trials, 2
    )


def sample_links(
    geometry: Geometry,
    budget: LinkBudget,
    m: int,
    n: int,
    keys: np.ndarray,
    names: Sequence[str],
) -> Links:
    """Draw links ``names`` of one Rayleigh realization per keyed seed.

    ``keys`` is :func:`link_keys` of the seeds, so that the links of one
    draw may be drawn in several calls with one hash.  Row ``k`` of each
    link is, bit for bit, what :func:`sample_channels_batch` draws for the
    ``k``-th seed: each (seed, link) fills its row from its own stream, one
    generator re-keyed per stream (:func:`keyed_generators`).  Each link is
    its own complex buffer, so that a caller may drop one and keep the
    others; the draws go straight into its real and imaginary parts, so no
    second buffer of float draws is ever held, and the scaling
    ``scale * (re + 1j * im) / sqrt(2)`` runs on it in place.  Each block is
    checked once and returned read-only.

    A link's rows are drawn row-major, so the draw at ``m`` antennas is, bit
    for bit, the leading ``m`` antennas of a draw at more
    (:meth:`Links.rows`).
    """
    if m < 1:
        raise ConfigError(f"antenna count m must be >= 1, got {m}")
    if n < 1:
        raise ConfigError(f"element count n must be >= 1, got {n}")
    links = {
        "h_sr": (geometry.d_sr, budget.gain_s_dbi, budget.gain_rs_dbi, (m,)),
        "H_ir": (geometry.d_ir, budget.gain_irs_dbi, budget.gain_rs_dbi, (m, n)),
        "h_si": (geometry.d_si, budget.gain_s_dbi, budget.gain_irs_dbi, (n,)),
        "h_rd": (geometry.d_rd, budget.gain_rs_dbi, budget.gain_d_dbi, (m,)),
        "h_id": (geometry.d_id, budget.gain_irs_dbi, budget.gain_d_dbi, (n,)),
        "H_ri": (geometry.d_ri, budget.gain_rs_dbi, budget.gain_irs_dbi, (m, n)),
    }
    trials = keys.shape[1]
    streams = keyed_generators(
        keys[[LINK_STREAMS[name] for name in names]].reshape(-1, 2)
    )
    blocks = {}
    for name in names:
        dist, g_tx, g_rx, shape = links[name]
        try:
            scale = pathloss_amplitude(dist, budget.alpha) * dbi_to_amplitude_gain(
                g_tx, g_rx
            )
        except OverflowError:  # a factor beyond the float range
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise ConfigError(
                f"link {name}: amplitude scale {scale} (path loss times antenna "
                "gains) must be finite and positive"
            )
        block = np.empty((trials, *shape), dtype=np.complex128)
        # each complex entry is its (re, im) pair of floats
        for row, rng in zip(block.view(np.float64).reshape(trials, *shape, 2), streams):
            # interleaved real/imag draws keep leading entries stable when m grows
            rng.standard_normal(shape + (2,), out=row)
        block *= scale
        block /= np.sqrt(2.0)
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
    ``seeds[k]``, bit for bit.  Each (seed, link) keeps its own substream,
    keyed by ``SeedSequence((seed, link index))``: every key of the call is
    hashed at once (:func:`link_keys`) and the links are drawn by
    :func:`sample_links`, each block checked once.

    A link's rows are drawn row-major, so the draw at ``m`` antennas is, bit
    for bit, the leading ``m`` antennas of a draw at more.  :func:`sample_links`
    checks ``m`` and ``n``.
    """
    lowest = min(seeds, default=0)
    if lowest < 0:
        raise ConfigError(f"seed must be non-negative, got {lowest}")
    links = sample_links(geometry, budget, m, n, link_keys(seeds), tuple(LINK_STREAMS))
    return ChannelSet._of(vars(links))


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

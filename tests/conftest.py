import numpy as np

from irsrelay import beamforming
from irsrelay.beamforming import DEFAULT_EPSILON, DEFAULT_MAX_ITER
from irsrelay.channel import (
    LINK_STREAMS,
    ChannelSet,
    Geometry,
    LinkBudget,
    Links,
    sample_channels,
    sample_links,
)

P_S = 10.0
P_R = 10.0
NOISE_30DB = 0.02  # (p_s + p_r) / 10**(30/10)


def make_channels(m, n, seed, geometry=None, budget=None):
    return sample_channels(
        geometry if geometry is not None else Geometry(),
        budget if budget is not None else LinkBudget(),
        m=m,
        n=n,
        seed=seed,
    )


def manual_channels(h_sr, H_ir, h_si, h_rd=None, h_id=None, H_ri=None):
    """ChannelSet from explicit first-slot blocks; second slot defaults to ones."""
    h_sr = np.asarray(h_sr, dtype=np.complex128)
    H_ir = np.asarray(H_ir, dtype=np.complex128)
    h_si = np.asarray(h_si, dtype=np.complex128)
    m, n = H_ir.shape
    return ChannelSet(
        h_sr=h_sr,
        H_ir=H_ir,
        h_si=h_si,
        h_rd=np.ones(m, dtype=np.complex128) if h_rd is None else np.asarray(h_rd, dtype=np.complex128),
        h_id=np.ones(n, dtype=np.complex128) if h_id is None else np.asarray(h_id, dtype=np.complex128),
        H_ri=np.ones((m, n), dtype=np.complex128) if H_ri is None else np.asarray(H_ri, dtype=np.complex128),
    )


def draw_links(m, n, seeds):
    """Every link of one draw per seed, as the trial engine draws a stack."""
    return sample_links(Geometry(), LinkBudget(), m, n, seeds, tuple(LINK_STREAMS))


def stack(sets):
    """Several trials' ChannelSets as one stack, the type the engine solves.

    Each of the six links is the trials' blocks ``np.stack``ed on a leading
    trial axis, read-only, in a :class:`~irsrelay.channel.Links`.
    """
    blocks = {name: np.stack([getattr(c, name) for c in sets]) for name in LINK_STREAMS}
    for block in blocks.values():
        block.flags.writeable = False
    return Links(**blocks)


# The trial engine's rates forms on a stack, with the one-trial solvers'
# arguments: a tuple of noise levels in place of one, and for irses a
# (trials, n) array of assignments in place of a Partition.  Each returns
# (trials, levels) arrays of rates and of iteration counts.


def ais_rates(links, power, levels, epsilon=DEFAULT_EPSILON, max_iter=DEFAULT_MAX_ITER):
    hop = beamforming._FIRST_HOP(links)
    return beamforming._alternate(hop, power, levels, epsilon, max_iter)


def second_slot_rates(
    links, power, levels, epsilon=DEFAULT_EPSILON, max_iter=DEFAULT_MAX_ITER
):
    hop = beamforming._SECOND_HOP(links)
    return beamforming._alternate(hop, power, levels, epsilon, max_iter)


def nsp_rates(
    links, power, levels, epsilon=DEFAULT_EPSILON, max_iter=DEFAULT_MAX_ITER,
    mode="effective", combining="snr-sum", phases=None,
):
    hop = beamforming._FIRST_HOP(links)
    options = (mode, combining, phases)
    return beamforming._nsp(hop, power, levels, epsilon, max_iter, *options)


def irses_rates(
    links, power, levels, assignments, interference_mode="idealized",
    combining="snr-sum", phases=None,
):
    hop = beamforming._FIRST_HOP(links)
    options = (interference_mode, combining, phases)
    return beamforming._irses(hop, power, levels, assignments, *options)


def rate_pairs(rates):
    """A rates form's result as per-trial lists of (float.hex(rate), count)."""
    rate_array, count_array = rates
    return [
        list(zip(map(float.hex, trial_rates), trial_counts))
        for trial_rates, trial_counts in zip(rate_array.tolist(), count_array.tolist())
    ]


def solution_pairs(per_trial):
    """Per-trial tuples of per-level solutions, as :func:`rate_pairs` reads them."""

    def rate(solution):
        return solution.rate_d if hasattr(solution, "rate_d") else solution.rate_r

    return [
        [(rate(solution).hex(), solution.iterations) for solution in levels]
        for levels in per_trial
    ]

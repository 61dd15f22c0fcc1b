"""What the stacked draw and the batched loops hold, measured with tracemalloc.

A chunk's length is bounded by the memory it holds, so the draw must hold
one copy of its stack and a loop one copy of its running rows, however many
trials leave it on how many iterates.  numpy reports its array buffers to
tracemalloc, so a peak counts every array made during the call.
"""

import tracemalloc

import pytest

from irsrelay.beamforming import (
    ais_max_rp_batch,
    nsp_max_rp_mrc_batch,
    second_slot_optimize_batch,
)
from irsrelay.channel import LINK_STREAMS, Geometry, LinkBudget, sample_channels_batch

from conftest import NOISE_30DB, P_S

#: the paper's operating point
M, N = 16, 160


def traced_peak(call):
    """``call()``'s result and the peak of the memory it held, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def draw(trials):
    return sample_channels_batch(Geometry(), LinkBudget(), M, N, range(trials))


def stack_bytes(channels):
    return sum(getattr(channels, name).nbytes for name in LINK_STREAMS)


def test_stacked_draw_holds_one_copy_of_its_stack():
    draw(1)  # numpy's random module sets itself up on a process's first draw
    channels, peak = traced_peak(lambda: draw(4))
    assert peak <= 1.1 * stack_bytes(channels)


@pytest.mark.parametrize("solver", [ais_max_rp_batch, nsp_max_rp_mrc_batch])
def test_batched_loop_holds_one_copy_of_its_running_rows(solver):
    # a chunk at the paper's operating point: 30 dB, the default stopping
    # rule; its trials leave the loop on several iterates, so it compacts
    # its rows more than once
    channels = draw(8)
    solutions, peak = traced_peak(lambda: solver(channels, P_S, (NOISE_30DB,)))
    assert len({levels[0].iterations for levels in solutions}) >= 3
    assert peak <= 1.25 * channels.H_ir.nbytes


@pytest.mark.parametrize(
    "solver", [ais_max_rp_batch, nsp_max_rp_mrc_batch, second_slot_optimize_batch]
)
def test_batched_loop_leaves_the_shared_stack_read_only_and_unchanged(solver):
    channels = draw(8)
    before = {name: getattr(channels, name).tobytes() for name in LINK_STREAMS}
    solver(channels, P_S, (NOISE_30DB,))
    for name in LINK_STREAMS:
        block = getattr(channels, name)
        assert not block.flags.writeable
        assert block.tobytes() == before[name]

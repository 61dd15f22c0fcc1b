"""What the stacked draw and the engine's loops hold, measured with tracemalloc.

A chunk's length is bounded by the memory it holds, so the draw must hold
one copy of its stack, a chunk one hop's surface matrix at a time, and a
loop a copy of at most 3/8 of the stack's rows, however many trials leave
it on how many iterates.  numpy reports its array buffers to tracemalloc,
so a peak counts every array made during the call.
"""

import tracemalloc

import pytest

from irsrelay import harness
from irsrelay.channel import LINK_STREAMS
from irsrelay.cli import DEFAULT_VALUES
from irsrelay.harness import ScenarioConfig, SweepSpec, collect_trials, point_config

from conftest import (
    NOISE_30DB,
    P_S,
    ais_rates,
    draw_links,
    nsp_rates,
    second_slot_rates,
)

#: the paper's operating point
M, N = 16, 160

#: the loops the trial engine runs, as rates forms on a stack
LOOPS = {"ais": ais_rates, "nsp": nsp_rates, "second-slot": second_slot_rates}


def traced_peak(call):
    """``call()``'s result and the peak of the memory it held, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def draw(trials, m=M, n=N):
    """Every link of ``trials`` draws, as the engine draws a stack."""
    return draw_links(m, n, range(trials))


def stack_bytes(channels):
    return sum(getattr(channels, name).nbytes for name in LINK_STREAMS)


def test_stacked_draw_holds_one_copy_of_its_stack():
    draw(1)  # numpy's random module sets itself up on a process's first draw
    channels, peak = traced_peak(lambda: draw(4))
    assert peak <= 1.1 * stack_bytes(channels)


@pytest.mark.parametrize("loop", ["ais", "nsp"])
def test_engine_loop_holds_one_copy_of_its_running_rows(loop):
    # a chunk at the paper's operating point: 30 dB, the default stopping
    # rule; its trials leave the loop on several iterates, so it compacts
    # its rows more than once.  The loop multiplies the shared stack until
    # at most 3/8 of its rows run, and copies only those: ais peaks at 0.51
    # times the H_ir stack and nsp at 0.71, where copying the running rows
    # at the first compaction peaked at 1.12 and 1.21
    channels = draw(8)
    rates, peak = traced_peak(lambda: LOOPS[loop](channels, P_S, (NOISE_30DB,)))
    assert len(set(rates[1][:, 0].tolist())) >= 3
    assert peak <= 0.8 * channels.H_ir.nbytes


@pytest.mark.parametrize("loop", LOOPS)
def test_engine_loop_leaves_the_shared_stack_read_only_and_unchanged(loop):
    # on the whole stack and on a corner of it, strided views as the trial
    # engine serves a smaller draw
    channels = draw(8)
    corner = channels.corner(M // 2, N - 32)
    for stack in (channels, corner):
        before = {name: getattr(stack, name).tobytes() for name in LINK_STREAMS}
        LOOPS[loop](stack, P_S, (NOISE_30DB,))
        for name in LINK_STREAMS:
            block = getattr(stack, name)
            assert not block.flags.writeable
            assert block.tobytes() == before[name]


def test_small_table_peak_bounds_the_chunk_length():
    # a (4, 16) table of all nine methods and 120 trials runs one chunk of
    # CHUNK_TRIALS = 120, its peak about 0.62 MB, now that the solves keep
    # arrays of rates and the trials of a chunk share one map of their
    # rows; as one chunk of 240 it peaks at 0.97 MB.  When the solves kept
    # a tuple of (rate, iterations) pairs per trial and key, one chunk of
    # 120 peaked at 0.72 MB and two chunks of 60 at 0.54 MB; the earlier
    # four chunks of 30, which held every solution object, at 0.87 MB.
    # The set-up builds the same table, so that the interpreter's free
    # lists of small objects (the floats of the records) are as full as
    # any earlier test leaves them
    configs = [
        ScenarioConfig(method=method, m=4, n=16, trials=120)
        for method in harness.METHODS
    ]
    collect_trials(configs)  # set-up
    assert harness._chunk_trials(configs) == 120
    _, peak = traced_peak(lambda: collect_trials(configs))
    assert peak <= 750_000


def test_multi_geometry_table_holds_one_draw_at_a_time():
    # three relay positions at (50, 200) are three draws of 5-trial chunks;
    # each is solved and dropped before the next is made, one hop at a
    # time, so the peak (1.47 MB) holds one hop's matrix and the loops'
    # working rows: less than one draw's whole stack (1.63 MB), let alone
    # the three stacks (4.90 MB).  The 3-trial chunks that held a whole
    # draw peaked at 1.54 MB
    spec = SweepSpec(
        ScenarioConfig(m=50, n=200, trials=5),
        "distance_d",
        (20.0, 40.0, 60.0),
        ("ais", "nsp", "irses"),
    )
    configs = [
        point_config(spec, d, method) for d in spec.values for method in spec.methods
    ]
    assert harness._chunk_trials(configs) == 5
    one_draw = stack_bytes(draw(5, 50, 200))
    _, peak = traced_peak(lambda: collect_trials(configs))
    assert peak <= 0.95 * one_draw < 3 * one_draw


def test_a_shorter_table_peaks_no_higher_than_two_of_equal_length():
    # an irses table of 15 trials beside an ais table of 16 is two groups
    # of trials, each drawn and solved alone, one after the other: it peaks
    # no higher than the two tables of 16 trials drawn together (1.04 MB
    # against 1.06 MB).  The set-up builds the measured table, as in
    # test_small_table_peak_bounds_the_chunk_length
    def table(irses_trials):
        return [
            ScenarioConfig(method="ais", m=M, n=N, trials=16),
            ScenarioConfig(method="irses", m=M, n=N, trials=irses_trials),
        ]

    collect_trials(table(16))  # set-up
    assert harness._chunk_trials(table(16)) == 16
    _, both_sixteen = traced_peak(lambda: collect_trials(table(16)))
    _, shorter = traced_peak(lambda: collect_trials(table(15)))
    assert shorter <= 1.05 * both_sixteen


def test_a_default_table_runs_16_trial_chunks_below_the_8_trial_peak():
    # 60 trials of ais, nsp and irses at (16, 160) run four chunks of 15:
    # one hop's matrix at a time, and loops that copy at most 3/8 of it,
    # peak at 1.07 MB, where 8-trial chunks that held both matrices and
    # copied the running rows at their first compaction peaked at 1.18 MB.
    # The set-up builds the measured table, as in
    # test_small_table_peak_bounds_the_chunk_length
    configs = [
        ScenarioConfig(method=method, m=M, n=N, trials=60)
        for method in ("ais", "nsp", "irses")
    ]
    collect_trials(configs)  # set-up
    assert harness._chunk_trials(configs) == 16
    _, peak = traced_peak(lambda: collect_trials(configs))
    assert peak <= 1_180_000


def test_an_n_sweep_peaks_no_higher_than_drawing_each_point():
    # the default sweep-n table of ais, nsp and irses (n = 32 ... 256 at
    # m = 16), 20 trials: two 10-trial chunks that draw only n = 256 and
    # solve every point on its corner of that stack.  It peaks at 1.14 MB,
    # no higher than when each point was drawn alone (1.15 MB).  The set-up
    # builds the measured table, as in
    # test_small_table_peak_bounds_the_chunk_length
    spec = SweepSpec(
        ScenarioConfig(trials=20), "n", DEFAULT_VALUES["sweep-n"],
        ("ais", "nsp", "irses"),
    )
    configs = [
        point_config(spec, n, method) for n in spec.values for method in spec.methods
    ]
    collect_trials(configs)  # set-up
    assert harness._chunk_trials(configs) == 10
    _, peak = traced_peak(lambda: collect_trials(configs))
    assert peak <= 1_150_000

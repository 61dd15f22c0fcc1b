"""Property tests of the channel draws and the alternating solvers.

Hypothesis draws the antenna count, the element count, the channel seed and
a scale factor.  The examples are derandomized, so every run checks the same
cases.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from irsrelay.beamforming import ais_max_rp, nsp_max_rp_mrc, second_slot_optimize
from irsrelay.channel import LINK_STREAMS, Geometry, LinkBudget, sample_links

from conftest import NOISE_30DB, P_R, P_S, make_channels
from test_channel import assert_leading_entries_kept

PROPERTY = settings(derandomize=True, deadline=None, max_examples=15)

sizes = st.tuples(st.integers(1, 8), st.integers(1, 32))
seeds = st.integers(0, 2**16)
scales = st.floats(1e-2, 1e2)


def first_slot(ch, noise, **controls):
    s = ais_max_rp(ch, P_S, noise, **controls)
    return s.theta1, [s.u_r], s.trace, s.rate_r


def null_space(ch, noise, **controls):
    s = nsp_max_rp_mrc(ch, P_S, noise, **controls)
    return s.theta1, [s.u_rs, s.u_ri], s.trace, s.rate_r


def second_slot(ch, noise, **controls):
    s = second_slot_optimize(ch, P_R, noise, **controls)
    return s.theta2, [s.u_t], s.trace, s.rate_d


#: each solver with the direct link and surface matrix of the hop it solves
SOLVERS = pytest.mark.parametrize(
    "solver, hop",
    [
        (first_slot, ("h_sr", "H_ir")),
        (null_space, ("h_sr", "H_ir")),
        (second_slot, ("h_rd", "H_ri")),
    ],
    ids=["ais", "nsp", "second_slot"],
)


@SOLVERS
@PROPERTY
@given(size=sizes, seed=seeds)
def test_unit_phases_unit_weights_monotone_trace(solver, hop, size, seed):
    m, n = size
    assume(m >= 2 or solver is not null_space)  # null-space separation needs m >= 2
    theta, weights, trace, _ = solver(make_channels(m=m, n=n, seed=seed), NOISE_30DB)
    assert len(theta) == n
    assert np.max(np.abs(np.abs(theta.phasors) - 1.0)) <= 1e-15
    for u in weights:
        assert len(u) == m
        assert abs(np.linalg.norm(u.weights) - 1.0) <= 1e-12
    assert np.all(np.diff(trace) >= -1e-12)


@SOLVERS
@PROPERTY
@given(size=sizes, seed=seeds, c=scales)
def test_scale_covariance(solver, hop, size, seed, c):
    # scaling a hop's signal paths by c and the noise by c^2 keeps every SNR;
    # the rate-change stop is pinned off so both runs reach the fixed point
    m, n = size
    assume(m >= 2 or solver is not null_space)
    ch = make_channels(m=m, n=n, seed=seed)
    scaled = dataclasses.replace(ch, **{name: c * getattr(ch, name) for name in hop})
    controls = dict(epsilon=1e-300, max_iter=30)
    base = solver(ch, NOISE_30DB, **controls)[-1]
    moved = solver(scaled, c**2 * NOISE_30DB, **controls)[-1]
    assert abs(moved - base) <= 1e-9 * base


@PROPERTY
@given(
    size=sizes,
    growth=st.tuples(st.integers(0, 8), st.integers(0, 32)),
    trial_seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
)
def test_growing_m_and_n_keeps_every_links_leading_entries(size, growth, trial_seeds):
    # common random numbers: every link drawn at (m, n) is, bit for bit, the
    # leading part of the same trials' draw at more antennas and elements
    (m, n), (dm, dn) = size, growth
    names = tuple(LINK_STREAMS)
    small = sample_links(Geometry(), LinkBudget(), m, n, trial_seeds, names)
    large = sample_links(Geometry(), LinkBudget(), m + dm, n + dn, trial_seeds, names)
    assert_leading_entries_kept(small, large, m, n)

import warnings

import numpy as np
import pytest

from irsrelay import beamforming
from irsrelay.beamforming import (
    PhaseShiftVector,
    nsp_max_rp_mrc,
    nsp_projector,
)
from irsrelay.channel import ChannelSet, stack_channels
from irsrelay.errors import (
    ConfigError,
    DegenerateElementWarning,
    ProjectorDegenerateError,
)
from irsrelay.harness import ScenarioConfig, collect_columns

from conftest import NOISE_30DB, P_S, make_channels


def reflected_cascade(ch, theta):
    return ch.H_ir @ (theta.phasors * ch.h_si)


def test_projector_of_basis_vector():
    e1 = np.zeros((3, 1), dtype=complex)
    e1[0, 0] = 1.0
    P = nsp_projector(e1)
    assert np.allclose(P, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_projector_of_full_rank_square_matrix_is_zero():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    P = nsp_projector(A)
    assert np.max(np.abs(P)) < 1e-10


def test_projector_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        A = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        P = nsp_projector(A)
        assert np.linalg.norm(P @ A) < 1e-10
        assert np.linalg.norm(P @ P - P) < 1e-10
        assert np.linalg.norm(P - P.conj().T) < 1e-12


def test_projector_accepts_one_dimensional_input():
    rng = np.random.default_rng(8)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    P = nsp_projector(a)
    assert P.shape == (4, 4)
    assert np.linalg.norm(P @ a) < 1e-10 * np.linalg.norm(a)


def directions_and_vectors(scale):
    """A stack of 9 random directions ``a`` at ``scale``, row 4 zero, and vectors ``x``."""
    rng = np.random.default_rng(20)
    a, x = scale * (
        rng.standard_normal((2, 9, 5)) + 1j * rng.standard_normal((2, 9, 5))
    )
    a[4] = 0.0
    return a, x / scale


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
def test_projecting_off_one_direction_in_closed_form(scale):
    a, x = directions_and_vectors(scale)
    P = beamforming._rank_one_projectors(a)
    off = beamforming._project_off(a, x)
    norms_a, norms_x = np.linalg.norm(a, axis=-1), np.linalg.norm(x, axis=-1)
    for y in (off, np.matvec(P, x)):
        # orthogonal to a, relative to ||x||
        assert np.all(np.abs(np.vecdot(a, y)) <= 1e-14 * norms_a * norms_x)
    assert np.max(np.abs(P @ P - P)) <= 1e-14
    assert np.max(np.abs(P - np.conj(P.mT))) <= 1e-15
    # a zero direction projects off nothing, as the pseudo-inverse's cutoff
    assert np.array_equal(P[4], np.eye(5)) and np.array_equal(off[4], x[4])
    pinv = beamforming._projectors(a[:, :, np.newaxis])
    assert np.max(np.abs(P - pinv)) <= 1e-13
    assert np.all(
        np.linalg.norm(off - np.matvec(pinv, x), axis=-1) <= 1e-13 * norms_x
    )
    # each row as alone, bit for bit, and nsp_projector on a vector is it
    for t in range(len(a)):
        row = slice(t, t + 1)
        assert beamforming._rank_one_projectors(a[row]).tobytes() == P[t].tobytes()
        assert beamforming._project_off(a[row], x[row]).tobytes() == off[t].tobytes()
        assert nsp_projector(a[t]).tobytes() == P[t].tobytes()


@pytest.mark.parametrize("m, n", [(4, 16), (16, 160)])
def test_the_nsp_table_path_runs_no_pseudo_inverse_or_svd(m, n, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("pinv or svd called")

    monkeypatch.setattr(np.linalg, "pinv", refused)
    monkeypatch.setattr(np.linalg, "svd", refused)
    configs = [
        ScenarioConfig(m=m, n=n, trials=3, method=method)
        for method in ("nsp", "nsp-fixed-phase")
    ]
    for columns in collect_columns(configs):
        assert np.all(np.isfinite(columns.rate_s))
    # literal mode projects off the whole surface matrix: the pseudo-inverse
    literal = ScenarioConfig(m=8, n=4, trials=1, method="nsp", nsp_mode="literal")
    with pytest.raises(AssertionError, match="pinv or svd called"):
        collect_columns([literal])


def test_nsp_rejects_single_antenna():
    ch = make_channels(m=1, n=4, seed=0)
    with pytest.raises(ConfigError):
        nsp_max_rp_mrc(ch, P_S, NOISE_30DB)


def test_nsp_branch_filters_null_each_other():
    for seed in range(25):
        ch = make_channels(m=4, n=8, seed=seed)
        sol = nsp_max_rp_mrc(ch, P_S, NOISE_30DB)
        g = reflected_cascade(ch, sol.theta1)
        assert abs(np.vdot(sol.u_ri.weights, ch.h_sr)) <= 1e-10 * np.linalg.norm(
            ch.h_sr
        )
        assert abs(np.vdot(sol.u_rs.weights, g)) <= 1e-10 * np.linalg.norm(g)


def test_nsp_literal_mode_nulls_whole_surface_matrix():
    for seed in range(10):
        ch = make_channels(m=4, n=2, seed=seed)
        sol = nsp_max_rp_mrc(ch, P_S, NOISE_30DB, mode="literal")
        assert np.linalg.norm(sol.u_rs.weights.conj() @ ch.H_ir) <= 1e-10
        g = reflected_cascade(ch, sol.theta1)
        assert abs(np.vdot(sol.u_ri.weights, ch.h_sr)) <= 1e-10
        assert abs(np.vdot(sol.u_rs.weights, g)) <= 1e-10 * np.linalg.norm(g)


def test_nsp_literal_mode_needs_more_antennas_than_elements():
    with pytest.raises(ProjectorDegenerateError):
        nsp_max_rp_mrc(make_channels(m=2, n=2, seed=0), P_S, NOISE_30DB, mode="literal")
    with pytest.raises(ProjectorDegenerateError):
        nsp_max_rp_mrc(make_channels(m=2, n=4, seed=0), P_S, NOISE_30DB, mode="literal")


def test_nsp_rejects_unknown_modes():
    ch = make_channels(m=4, n=2, seed=0)
    with pytest.raises(ConfigError):
        nsp_max_rp_mrc(ch, P_S, NOISE_30DB, mode="strict")
    with pytest.raises(ConfigError):
        nsp_max_rp_mrc(ch, P_S, NOISE_30DB, combining="product")


def test_nsp_branch_contributions_assemble_printed_rate():
    # the two separated branches, evaluated independently from the returned
    # pieces over the composite's shared normalization, must add up to the
    # reported signal-to-noise ratio
    for seed in range(25):
        ch = make_channels(m=4, n=2, seed=seed)
        sol = nsp_max_rp_mrc(ch, P_S, NOISE_30DB, combining="printed")
        direct = complex(np.vdot(sol.u_rs.weights, ch.h_sr))
        reflected = complex(
            np.vdot(sol.u_ri.weights, reflected_cascade(ch, sol.theta1))
        )
        shared = abs(direct + reflected) ** 2 * NOISE_30DB
        snr_direct = P_S * abs(direct) ** 4 / shared
        snr_reflected = P_S * abs(reflected) ** 4 / shared
        implied = 2.0 ** sol.rate_r - 1.0
        assert abs(snr_direct + snr_reflected - implied) <= 1e-9 * implied


def test_nsp_snr_sum_combining_identity():
    for seed in range(25):
        ch = make_channels(m=4, n=8, seed=seed)
        sol = nsp_max_rp_mrc(ch, P_S, NOISE_30DB)
        direct = abs(np.vdot(sol.u_rs.weights, ch.h_sr))
        reflected = abs(np.vdot(sol.u_ri.weights, reflected_cascade(ch, sol.theta1)))
        snr = P_S * (direct**2 + reflected**2) / NOISE_30DB
        assert abs(2.0**sol.rate_r - 1.0 - snr) <= 1e-12 * snr


def test_nsp_branch_amplitudes_real_non_negative_at_convergence():
    for seed in range(10):
        ch = make_channels(m=4, n=8, seed=seed)
        sol = nsp_max_rp_mrc(ch, P_S, NOISE_30DB, epsilon=1e-12, max_iter=500)
        direct = complex(np.vdot(sol.u_rs.weights, ch.h_sr))
        assert direct.real > 0.0 and abs(direct.imag) <= 1e-10 * direct.real
        reflected = complex(
            np.vdot(sol.u_ri.weights, reflected_cascade(ch, sol.theta1))
        )
        assert reflected.real > 0.0
        assert abs(reflected.imag) <= 1e-6 * reflected.real


def test_nsp_trace_monotone():
    for seed in range(15):
        ch = make_channels(m=4, n=8, seed=seed)
        sol = nsp_max_rp_mrc(ch, P_S, NOISE_30DB)
        trace = np.asarray(sol.trace)
        assert sol.iterations == len(trace) <= 50
        if len(trace) > 1:
            assert np.min(np.diff(trace)) >= -1e-12


def test_nsp_start_dominates_flat_and_singular_vector_phases():
    # the alternation starts from the better of flat phases and the phases of
    # the principal right singular vector of P H_ir diag(h_si); its first
    # step cannot shrink the reflected branch, so the first trace entry is at
    # least the reflected-branch rate at either candidate
    for seed in range(25):
        ch = make_channels(m=4, n=8, seed=seed)
        sol = nsp_max_rp_mrc(ch, P_S, NOISE_30DB)
        relaxed = nsp_projector(ch.h_sr) @ ch.H_ir @ np.diag(ch.h_si)
        principal = np.conj(np.linalg.svd(relaxed)[2][0])
        for phasors in (np.ones(8), np.exp(1j * np.angle(principal))):
            branch = np.linalg.norm(relaxed @ phasors)
            rate = np.log2(1.0 + P_S * branch**2 / NOISE_30DB)
            assert sol.trace[0] >= rate - 1e-12 * rate


def test_nsp_alignment_rotates_every_path_onto_the_positive_real_axis():
    # the reflected branch aligns to phase 0: phasor conj(row) / |row|
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    rows[2, 5] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phasors = beamforming._aligned_phasors(None, rows.copy())
    assert [w.category for w in caught] == [DegenerateElementWarning]
    assert phasors[2, 5].real == 1.0 and phasors[2, 5].imag == 0.0
    assert np.max(np.abs(np.abs(phasors) - 1.0)) <= 1e-15
    aligned = np.delete((phasors * rows).ravel(), 2 * 8 + 5)
    assert np.all(aligned.real > 0.0)
    assert np.max(np.abs(aligned.imag) / np.abs(aligned)) <= 1e-15
    rows[2, 5], rows[0, 0] = 1.0, complex(np.nan, np.nan)
    with pytest.raises(ConfigError, match="non-finite"):
        beamforming._aligned_phasors(None, rows)


def test_nsp_start_phasors_are_unit_and_never_below_flat():
    sets = [make_channels(4, 16, seed=seed) for seed in range(12)]
    stack = stack_channels(sets)
    null = beamforming._rank_one_projectors(stack.h_sr)
    start = beamforming._nsp_start_phases(stack.H_ir, stack.h_si, null)
    assert np.max(np.abs(np.abs(start) - 1.0)) <= 1e-15
    relaxed = null @ (stack.H_ir * stack.h_si[:, np.newaxis])
    for branch, phasors in zip(relaxed, start):
        flat = np.linalg.norm(branch.sum(axis=-1))
        if np.array_equal(phasors, np.ones(16)):
            continue
        assert np.linalg.norm(branch @ phasors) > flat
        # the principal right singular vector's phases, up to one global phase
        principal = np.linalg.svd(branch)[2][0].conj()
        turned = phasors * np.conj(principal) / np.abs(principal)
        assert np.max(np.abs(turned - turned[0])) <= 1e-9


def test_nsp_fixed_phases_short_circuit():
    ch = make_channels(m=4, n=8, seed=1)
    flat = PhaseShiftVector(np.zeros(8))
    sol = nsp_max_rp_mrc(ch, P_S, NOISE_30DB, phases=flat)
    assert sol.iterations == 1
    assert np.allclose(sol.theta1.angles, 0.0, atol=1e-15)
    # beamformers still satisfy the separation contract at fixed phases
    g = reflected_cascade(ch, sol.theta1)
    assert abs(np.vdot(sol.u_ri.weights, ch.h_sr)) <= 1e-10 * np.linalg.norm(ch.h_sr)
    assert abs(np.vdot(sol.u_rs.weights, g)) <= 1e-10 * np.linalg.norm(g)


def test_nsp_scale_covariance():
    c = 2.5
    for seed in range(10):
        ch = make_channels(m=4, n=8, seed=seed)
        scaled = ChannelSet(
            h_sr=c * ch.h_sr,
            H_ir=c * ch.H_ir,
            h_si=ch.h_si,
            h_rd=ch.h_rd,
            h_id=ch.h_id,
            H_ri=ch.H_ri,
        )
        base = nsp_max_rp_mrc(ch, P_S, NOISE_30DB, epsilon=1e-300, max_iter=15)
        moved = nsp_max_rp_mrc(scaled, P_S, NOISE_30DB, epsilon=1e-300, max_iter=15)
        assert np.max(np.abs(base.theta1.phasors - moved.theta1.phasors)) < 1e-6
        assert np.max(np.abs(base.u_ri.weights - moved.u_ri.weights)) < 1e-6
        assert np.max(np.abs(base.u_rs.weights - moved.u_rs.weights)) < 1e-6
        ratio = moved.receive_power_watt / base.receive_power_watt
        assert abs(ratio - c**2) < 1e-9 * c**2

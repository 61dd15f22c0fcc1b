import warnings

import numpy as np
import pytest

from irsrelay import beamforming
from irsrelay.beamforming import (
    Beamformer,
    FirstSlotSolution,
    PhaseShiftVector,
    SecondSlotSolution,
    ais_max_rp,
    brute_force_max_rp,
    second_slot_optimize,
    theta_update_ais,
    ur_update_ais,
    wrap_angles,
)
from irsrelay.channel import ChannelSet
from irsrelay.errors import (
    ConfigError,
    DegenerateChannelError,
    DegenerateElementWarning,
    TraceDipError,
)
from irsrelay.harness import ScenarioConfig
from irsrelay.metrics import receive_power_ais
from irsrelay.selftest import theta_update_pinv

from conftest import NOISE_30DB, P_S, make_channels, manual_channels, stack


def test_wrap_angles_half_open_interval():
    wrapped = wrap_angles(np.array([-np.pi / 2, 2.0 * np.pi, 7.0 * np.pi, 0.0]))
    assert np.allclose(wrapped, [1.5 * np.pi, 0.0, np.pi, 0.0], atol=1e-12)
    assert np.all(wrapped >= 0.0) and np.all(wrapped < 2.0 * np.pi)


def test_phase_shift_vector_unit_modulus():
    theta = PhaseShiftVector(np.array([-1.0, 9.0, 100.0]))
    assert np.allclose(np.abs(theta.phasors), 1.0, atol=1e-15)
    assert len(theta) == 3
    with pytest.raises(ConfigError):
        PhaseShiftVector(np.array([np.nan, 0.0]))


def test_beamformer_norm_contract():
    u = Beamformer.normalized(np.array([3.0, 4.0j]))
    assert np.allclose(u.weights, [0.6, 0.8j], atol=1e-15)
    with pytest.raises(ConfigError):
        Beamformer(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(DegenerateChannelError):
        Beamformer.normalized(np.zeros(3, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_beamformer_rejects_non_finite_weights(bad):
    # a NaN norm is not within 1e-12 of 1, and normalizing is refused before
    # it divides, with no numpy warning; a zero row stays degenerate
    weights = np.array([bad + 0j, 1 + 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            Beamformer(weights)
        with pytest.raises(ConfigError):
            Beamformer.normalized(weights)
        with pytest.raises(ConfigError, match="finite"):
            beamforming._unit(np.array([[3.0 + 0j, 4.0j], weights]))
    with pytest.raises(DegenerateChannelError):
        beamforming._unit(np.array([[3.0 + 0j, 4.0j], [0j, 0j]]))


def test_theta_update_single_reflected_path():
    # one antenna, one element: the surface must rotate the quarter-turn
    # cascade back onto the real axis, i.e. by three quarter turns
    ch = manual_channels(h_sr=[1.0], H_ir=[[1.0j]], h_si=[1.0])
    theta = theta_update_ais(ch, Beamformer(np.array([1.0 + 0.0j])))
    assert np.allclose(theta.angles, [1.5 * np.pi], atol=1e-12)
    rotated = 1.0j * np.exp(1j * theta.angles[0])
    assert abs(rotated - 1.0) < 1e-12


def test_theta_update_aligned_channels_need_no_rotation():
    ch = manual_channels(
        h_sr=np.ones(2), H_ir=np.ones((2, 3)), h_si=np.ones(3)
    )
    u = Beamformer.normalized(np.ones(2, dtype=complex))
    theta = theta_update_ais(ch, u)
    assert np.allclose(theta.angles, 0.0, atol=1e-12)


def test_theta_update_two_forms_agree():
    for seed in range(50):
        ch = make_channels(m=3, n=4, seed=seed)
        u = Beamformer.normalized(ch.h_sr)
        aligned = theta_update_ais(ch, u)
        pinv = theta_update_pinv(ch, u)
        assert np.max(np.abs(aligned.phasors - pinv.phasors)) < 1e-9


def test_theta_update_degenerate_element_flagged():
    ch = manual_channels(
        h_sr=[1.0, 1.0], H_ir=np.ones((2, 3)), h_si=[1.0, 0.0, 2.0]
    )
    u = Beamformer.normalized(np.ones(2, dtype=complex))
    with pytest.warns(DegenerateElementWarning):
        theta = theta_update_ais(ch, u)
    assert theta.angles[1] == 0.0


def circular_distance(a, b):
    gap = wrap_angles(np.asarray(a) - np.asarray(b))
    return np.minimum(gap, 2.0 * np.pi - gap)


@pytest.mark.parametrize("m, n", [(4, 16), (16, 160)])
def test_aligned_phasors_are_unit_and_rotate_every_path_onto_the_direct_one(m, n):
    links = stack([make_channels(m, n, seed=seed) for seed in range(8)])
    hop = (links.h_sr, links.H_ir, links.h_si)
    u = beamforming._unit(links.h_sr)
    phasors = beamforming._align(hop, u)
    assert np.max(np.abs(np.abs(phasors) - 1.0)) <= 1e-15
    # each path times its phasor has the phase of u^H h_sr
    paths = np.einsum("tm,tmn->tn", np.conj(u), links.H_ir) * links.h_si
    reference = np.angle(np.einsum("tm,tm->t", np.conj(u), links.h_sr))
    rotated = np.angle(phasors * paths)
    assert np.max(circular_distance(rotated, reference[:, np.newaxis])) <= 1e-13


def test_a_zero_path_gets_phasor_one_and_one_warning_per_row():
    rows = np.array(
        [[0.0, 1.0j, 0.0, -2.0], [1.0, 1.0, 1.0j, 1.0], [3.0, 0.0, 1.0, -1.0j]],
        dtype=np.complex128,
    )
    reference = np.exp(1j * np.array([[0.3], [-1.0], [2.0]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phasors = beamforming._aligned_phasors(reference, rows.copy())
    assert [w.category for w in caught] == [DegenerateElementWarning] * 2
    assert [str(w.message)[0] for w in caught] == ["2", "1"]
    zero = rows == 0.0
    assert np.array_equal(phasors[zero].view(np.float64), [1.0, 0.0] * 3)
    assert np.max(np.abs(np.abs(phasors) - 1.0)) <= 1e-15
    # the others are reference * conj(row) / |row|
    expected = (np.broadcast_to(reference, rows.shape) * np.conj(rows))[~zero]
    assert np.allclose(phasors[~zero], expected / np.abs(rows[~zero]), atol=1e-15)


def test_a_nan_path_or_reference_raises_config_error():
    rows = np.ones((2, 3), dtype=np.complex128)
    rows[1, 2] = complex(np.nan, 0.0)
    with pytest.raises(ConfigError, match="non-finite"):
        beamforming._aligned_phasors(np.ones((2, 1), dtype=np.complex128), rows)
    reference = np.array([[1.0], [np.nan]], dtype=np.complex128)
    with pytest.raises(ConfigError, match="non-finite"):
        beamforming._aligned_phasors(reference, np.ones((2, 3), dtype=np.complex128))


def test_theta_update_angles_are_the_wrapped_phase_differences():
    for seed in range(20):
        ch = make_channels(m=4, n=16, seed=seed)
        u = Beamformer.normalized(ch.h_sr + ch.H_ir @ ch.h_si)
        row = (np.conj(u.weights) @ ch.H_ir) * ch.h_si
        reference = wrap_angles(np.angle(np.vdot(u.weights, ch.h_sr)) - np.angle(row))
        theta = theta_update_ais(ch, u)
        assert np.all(theta.angles >= 0.0) and np.all(theta.angles < 2.0 * np.pi)
        assert np.max(circular_distance(theta.angles, reference)) <= 1e-13


def test_second_slot_theta2_is_the_negated_phase_of_the_phasors_it_applied(
    monkeypatch,
):
    applied = []
    hop_channel = beamforming._hop_channel

    def recording(hop, phasors, rows=None):
        applied.append(phasors.copy())
        return hop_channel(hop, phasors, rows)

    monkeypatch.setattr(beamforming, "_hop_channel", recording)
    for seed in range(10):
        applied.clear()
        ch = make_channels(m=4, n=16, seed=seed)
        solution = second_slot_optimize(ch, P_S, NOISE_30DB)
        assert len(applied) == solution.iterations
        expected = wrap_angles(-np.angle(applied[-1][0]))
        assert np.max(circular_distance(solution.theta2.angles, expected)) <= 1e-13


def test_ur_update_is_matched_filter():
    for seed in range(20):
        ch = make_channels(m=4, n=6, seed=seed)
        theta = PhaseShiftVector(np.zeros(6))
        u = ur_update_ais(ch, theta)
        combined = ch.h_sr + ch.H_ir @ (theta.phasors * ch.h_si)
        expected = combined / np.linalg.norm(combined)
        assert np.allclose(u.weights, expected, atol=1e-12)
        # at the matched filter the receive power is p_s times ||combined||^2
        power = receive_power_ais(ch, theta.angles, u.weights, P_S)
        target = P_S * np.linalg.norm(combined) ** 2
        assert abs(power - target) < 1e-9 * target


def test_ur_update_degenerate_channel():
    ch = manual_channels(h_sr=[0.0], H_ir=[[0.0]], h_si=[0.0])
    with pytest.raises(DegenerateChannelError):
        ur_update_ais(ch, PhaseShiftVector(np.zeros(1)))


def test_ais_scalar_case_closed_form():
    for seed in range(30):
        ch = make_channels(m=1, n=1, seed=seed)
        sol = ais_max_rp(ch, P_S, NOISE_30DB)
        amp = abs(ch.h_sr[0]) + abs(ch.H_ir[0, 0]) * abs(ch.h_si[0])
        expected = np.log2(1.0 + P_S * amp**2 / NOISE_30DB)
        assert abs(sol.rate_r - expected) < 1e-9 * expected


def test_ais_trace_monotone_and_bounded():
    for seed in range(20):
        ch = make_channels(m=8, n=16, seed=seed)
        sol = ais_max_rp(ch, P_S, NOISE_30DB)
        trace = np.asarray(sol.trace)
        assert sol.iterations == len(trace) <= 50
        if len(trace) > 1:
            assert np.min(np.diff(trace)) >= -1e-12
        assert abs(np.linalg.norm(sol.u_r.weights) - 1.0) <= 1e-12
        assert np.max(np.abs(np.abs(sol.theta1.phasors) - 1.0)) <= 1e-15


def test_dipping_trace_is_a_runtime_error():
    # a solver breaking its ascent guarantee is a numerical fault (exit 2),
    # not a configuration problem (exit 1)
    with pytest.raises(TraceDipError) as excinfo:
        FirstSlotSolution(
            method="ais",
            theta1=PhaseShiftVector(np.zeros(2)),
            receive_power_watt=1.0,
            rate_r=0.5,
            trace=(1.0, 0.5),
        )
    assert isinstance(excinfo.value, RuntimeError)
    assert not isinstance(excinfo.value, ConfigError)


def _first_slot(trace=(0.5,), **fields):
    fields = {"method": "ais", "receive_power_watt": 1.0, "rate_r": 0.5, **fields}
    return FirstSlotSolution(theta1=PhaseShiftVector(np.zeros(2)), trace=trace, **fields)


def test_trace_check_allows_only_its_slack():
    # a dip beyond TRACE_SLACK (1e-12) is a fault; rounding below it is not
    with pytest.raises(TraceDipError):
        _first_slot((1.0, 1.0 - 2e-12))
    kept = _first_slot((1.0, 1.0 - 5e-13, np.float64(1.5)))
    assert kept.trace == (1.0, 1.0 - 5e-13, 1.5)
    assert all(type(value) is float for value in kept.trace)
    with pytest.raises(ConfigError):
        _first_slot(())


def _second_slot(rate_d=0.5, trace=(0.5,)):
    u_t = Beamformer(np.array([1.0, 0.0]))
    return SecondSlotSolution(PhaseShiftVector(np.zeros(2)), u_t, rate_d, trace)


@pytest.mark.parametrize(
    "build, fields",
    [
        (_first_slot, {"rate_r": np.nan}),
        (_first_slot, {"rate_r": -1.0}),
        (_first_slot, {"rate_r": np.inf}),
        (_first_slot, {"trace": (np.nan,)}),
        (_first_slot, {"trace": (1.0, np.inf)}),
        (_first_slot, {"trace": (1.0, np.nan, 2.0)}),
        (_first_slot, {"receive_power_watt": -1.0}),
        (_first_slot, {"receive_power_watt": np.nan}),
        (_first_slot, {"receive_power_watt": np.inf}),
        (_first_slot, {"method": "bogus"}),
        (_second_slot, {"rate_d": np.nan}),
        (_second_slot, {"rate_d": -1.0}),
        (_second_slot, {"rate_d": np.inf}),
        (_second_slot, {"trace": (0.5, np.inf)}),
    ],
    ids=lambda value: value.__name__.strip("_") if callable(value) else repr(value),
)
def test_solution_types_reject_nan_negative_and_unknown_fields(build, fields):
    # NaN fails every comparison, so a check written as ``x < 0`` lets it by
    with pytest.raises(ConfigError):
        build(**fields)
    build()  # the same fields, each valid, construct


@pytest.mark.parametrize("max_iter", [2.5, "50", None])
def test_a_non_integer_max_iter_is_a_config_error(max_iter):
    # rejected where it is configured, not as a TypeError inside a loop
    with pytest.raises(ConfigError, match="max_iter must be an integer"):
        ScenarioConfig(method="ais", trials=2, max_iter=max_iter)
    channels = make_channels(m=4, n=8, seed=3)
    with pytest.raises(ConfigError, match="max_iter must be an integer"):
        ais_max_rp(channels, P_S, NOISE_30DB, max_iter=max_iter)


def test_ais_respects_iteration_controls():
    ch = make_channels(m=4, n=8, seed=3)
    sol = ais_max_rp(ch, P_S, NOISE_30DB, max_iter=1)
    assert sol.iterations == 1
    with pytest.raises(ConfigError):
        ais_max_rp(ch, P_S, NOISE_30DB, epsilon=0.0)
    with pytest.raises(ConfigError):
        ais_max_rp(ch, P_S, NOISE_30DB, max_iter=0)


def test_ais_dominates_grid_oracle():
    for seed in range(100):
        ch = make_channels(m=2, n=2, seed=seed)
        sol = ais_max_rp(ch, P_S, NOISE_30DB, epsilon=1e-10, max_iter=300)
        oracle = brute_force_max_rp(ch, P_S, NOISE_30DB, grid_levels=16)
        assert sol.rate_r >= oracle.rate_r - 1e-9


def test_ais_scale_covariance():
    # scaling both physical signal paths (direct channel and the surface
    # propagation) by c > 0 keeps the optimizer's trajectory: same phases,
    # same beamformer direction, receive power scaled by c^2
    c = 3.7
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
        # pin the round count: the epsilon stop would trigger at different
        # iterations because the rate offset inside the log changes with c
        base = ais_max_rp(ch, P_S, NOISE_30DB, epsilon=1e-300, max_iter=15)
        moved = ais_max_rp(scaled, P_S, NOISE_30DB, epsilon=1e-300, max_iter=15)
        # both runs sit at the same fixed point; phases may differ by the
        # flat-region wobble of whichever exact-zero rate step stopped them
        assert np.max(np.abs(base.theta1.phasors - moved.theta1.phasors)) < 1e-6
        assert np.max(np.abs(base.u_r.weights - moved.u_r.weights)) < 1e-6
        ratio = moved.receive_power_watt / base.receive_power_watt
        assert abs(ratio - c**2) < 1e-9 * c**2


@pytest.mark.parametrize("m, n", [(4, 16), (8, 32), (16, 160)])
def test_second_slot_is_ais_on_the_second_hop(m, n):
    # both hops run one alternation, so a network whose relay-to-destination
    # blocks equal its source-to-relay blocks gets the same solution twice;
    # the second slot's surface applies exp(-j*theta2)
    for seed in range(10):
        ch = make_channels(m=m, n=n, seed=seed)
        mirrored = ChannelSet(
            h_sr=ch.h_sr, H_ir=ch.H_ir, h_si=ch.h_si,
            h_rd=ch.h_sr, H_ri=ch.H_ir, h_id=ch.h_si,
        )
        first = ais_max_rp(mirrored, P_S, NOISE_30DB)
        second = second_slot_optimize(mirrored, P_S, NOISE_30DB)
        assert second.trace == first.trace
        assert np.array_equal(second.u_t.weights, first.u_r.weights)
        gap = wrap_angles(second.theta2.angles + first.theta1.angles)
        assert np.max(np.minimum(gap, 2.0 * np.pi - gap)) <= 1e-12

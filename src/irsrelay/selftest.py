"""Fast invariant suite behind the ``selftest`` subcommand.

Each check exercises one structural guarantee of the library on small
dimensions: deterministic channel draws, unit-modulus phase shifts,
unit-norm beamformers, monotone ascent traces, null-space orthogonality,
grouping alignment, oracle dominance, and a shared sweep that matches
separate runs cell for cell.  All checks together take on the order of a
second.
"""

from __future__ import annotations

import numpy as np

from .beamforming import PINV_RCOND, PhaseShiftVector
from .channel import ZERO_NORM, Geometry, LinkBudget, sample_channels
from .harness import (
    ScenarioConfig,
    SweepPoint,
    SweepSpec,
    collect_trials,
    point_config,
    summarize_records,
    sweep,
)
from .metrics import flops_ais, flops_irses, flops_nsp
from .solutions import (
    Beamformer,
    ais_max_rp,
    brute_force_max_rp,
    irses_max_rp_mrc,
    irses_partition,
    nsp_max_rp_mrc,
    nsp_projector,
    second_slot_optimize,
    theta_update_ais,
)

P_S = 10.0
P_R = 10.0
NOISE = 0.02


def _channels(seed: int, m: int = 3, n: int = 9):
    return sample_channels(Geometry(), LinkBudget(), m=m, n=n, seed=seed)


def theta_update_pinv(channels, u_r: Beamformer) -> PhaseShiftVector:
    """Reference for :func:`theta_update_ais` through a pseudo-inverse.

    Solves the rank-one path-response quadratic: pinv(a a^H) (a c) equals
    a c / ||a||^2, whose entrywise phases reproduce the alignment rule.  It
    costs O(n^3), so it serves only as a cross-check.
    """
    u = u_r.weights
    row = (np.conj(u) @ channels.H_ir) * channels.h_si
    direct = complex(np.vdot(u, channels.h_sr))
    a = np.conj(row)
    quad = np.outer(a, np.conj(a))
    solved = np.linalg.pinv(quad, rcond=PINV_RCOND) @ (a * direct)
    angles = np.angle(solved)
    angles[np.abs(row) < ZERO_NORM] = 0.0
    return PhaseShiftVector(angles)


def _check_channel_determinism(seed: int) -> str:
    first = _channels(seed)
    second = _channels(seed)
    other = _channels(seed + 1)
    if not np.array_equal(first.h_sr, second.h_sr):
        raise AssertionError("same seed produced different direct channels")
    if not np.array_equal(first.H_ir, second.H_ir):
        raise AssertionError("same seed produced different surface channels")
    if np.array_equal(first.h_sr, other.h_sr):
        raise AssertionError("different seeds produced identical channels")
    return "repeat draw identical, shifted seed distinct"

def _check_alternating_ascent(seed: int) -> str:
    channels = _channels(seed)
    solution = ais_max_rp(channels, P_S, NOISE)
    mod_err = np.max(np.abs(np.abs(solution.theta1.phasors) - 1.0))
    norm_err = abs(np.linalg.norm(solution.u_r.weights) - 1.0)
    trace = np.asarray(solution.trace)
    dips = np.min(np.diff(trace)) if trace.size > 1 else 0.0
    if mod_err > 1e-12:
        raise AssertionError(f"phase shifts left the unit circle by {mod_err:.2e}")
    if norm_err > 1e-12:
        raise AssertionError(f"combiner norm off by {norm_err:.2e}")
    if dips < -1e-12:
        raise AssertionError(f"ascent trace dipped by {dips:.2e}")
    return f"{solution.iterations} rounds, final rate {trace[-1]:.4f}"

def _check_phase_update_forms(seed: int) -> str:
    channels = _channels(seed)
    u_r = Beamformer.normalized(channels.h_sr)
    aligned = theta_update_ais(channels, u_r)
    pinv = theta_update_pinv(channels, u_r)
    gap = np.max(np.abs(aligned.phasors - pinv.phasors))
    if gap > 1e-9:
        raise AssertionError(f"closed forms disagree by {gap:.2e}")
    return f"alignment and pseudo-inverse forms agree to {gap:.1e}"

def _check_null_space_split(seed: int) -> str:
    channels = _channels(seed)
    solution = nsp_max_rp_mrc(channels, P_S, NOISE)
    h_sr = channels.h_sr
    reflected = channels.H_ir @ (solution.theta1.phasors * channels.h_si)
    leak_direct = abs(np.vdot(solution.u_ri.weights, h_sr))
    leak_reflected = abs(np.vdot(solution.u_rs.weights, reflected))
    scale_direct = np.linalg.norm(h_sr)
    scale_reflected = np.linalg.norm(reflected)
    if leak_direct > 1e-10 * scale_direct:
        raise AssertionError(f"reflected filter passes direct signal: {leak_direct:.2e}")
    if leak_reflected > 1e-10 * scale_reflected:
        raise AssertionError(
            f"direct filter passes reflected signal: {leak_reflected:.2e}"
        )
    return "each branch filter nulls the other branch"

def _check_projector_identities(seed: int) -> str:
    channels = _channels(seed)
    projector = nsp_projector(channels.h_sr)
    idem = np.max(np.abs(projector @ projector - projector))
    herm = np.max(np.abs(projector - projector.conj().T))
    kill = np.linalg.norm(projector @ channels.h_sr)
    if idem > 1e-12:
        raise AssertionError(f"projector not idempotent: {idem:.2e}")
    if herm > 1e-12:
        raise AssertionError(f"projector not Hermitian: {herm:.2e}")
    if kill > 1e-10 * np.linalg.norm(channels.h_sr):
        raise AssertionError(f"projector passes its own subspace: {kill:.2e}")
    return "idempotent, Hermitian, annihilates its column"

def _check_grouping_alignment(seed: int) -> str:
    channels = _channels(seed)
    partition = irses_partition(n=channels.n, m=channels.m, seed=seed)
    solution = irses_max_rp_mrc(channels, P_S, NOISE, partition)
    expected = np.abs(channels.h_sr).astype(float)
    gains = np.abs(channels.H_ir) * np.abs(channels.h_si)[np.newaxis, :]
    for antenna in range(channels.m):
        expected[antenna] += gains[antenna, partition.elements_of(antenna)].sum()
    achieved = np.abs(solution.mrc_weights)
    mod_err = np.max(np.abs(achieved - 1.0))
    # recompute the per-antenna amplitudes exactly as the solver builds them
    phase = np.exp(1j * solution.theta1.angles)
    own = channels.h_sr.copy()
    contrib = channels.H_ir * (phase * channels.h_si)[np.newaxis, :]
    for antenna in range(channels.m):
        own[antenna] += contrib[antenna, partition.elements_of(antenna)].sum()
    gap = np.max(np.abs(np.abs(own) - expected) / expected)
    if mod_err > 1e-12:
        raise AssertionError(f"combining weights left the unit circle: {mod_err:.2e}")
    if gap > 1e-12:
        raise AssertionError(f"group phases do not align coherently: {gap:.2e}")
    return "per-antenna amplitudes add coherently"

def _check_oracle_dominance(seed: int) -> str:
    channels = _channels(seed, m=2, n=5)
    oracle = brute_force_max_rp(channels, P_S, NOISE, grid_levels=8)
    solution = ais_max_rp(channels, P_S, NOISE, epsilon=1e-10, max_iter=200)
    if solution.receive_power_watt < oracle.receive_power_watt * (1.0 - 1e-6):
        raise AssertionError(
            "iterative solution fell below the exhaustive grid: "
            f"{solution.receive_power_watt:.6e} < {oracle.receive_power_watt:.6e}"
        )
    return "iterative optimum dominates an 8-level exhaustive grid"

def _check_second_slot(seed: int) -> str:
    channels = _channels(seed)
    solution = second_slot_optimize(channels, P_R, NOISE)
    combined = channels.h_rd + channels.H_ri @ (
        np.exp(-1j * solution.theta2.angles) * channels.h_id
    )
    implied = np.log2(1.0 + P_R * np.linalg.norm(combined) ** 2 / NOISE)
    gap = abs(implied - solution.rate_d) / implied
    trace = np.asarray(solution.trace)
    dips = np.min(np.diff(trace)) if trace.size > 1 else 0.0
    if gap > 1e-9:
        raise AssertionError(f"forward rate inconsistent with its channel: {gap:.2e}")
    if dips < -1e-12:
        raise AssertionError(f"forward ascent trace dipped by {dips:.2e}")
    return "forward-link rate matches its aligned channel"

def _check_shared_evaluation(seed: int) -> str:
    config = ScenarioConfig(m=2, n=6, trials=6, base_seed=seed, epsilon=1e-3)
    spec = SweepSpec(
        config=config,
        axis="snr_db",
        values=(0.0, 10.0),
        methods=("ais", "nsp", "irses"),
    )
    shared = sweep(spec).points
    for point in shared:
        alone = point_config(spec, point.axis_value, point.method)
        cell = SweepPoint(
            point.axis_value,
            point.method,
            *summarize_records(collect_trials(alone)),
            alone.trials,
        )
        if cell != point:
            raise AssertionError(
                f"sharing changed the {point.method} cell at {point.axis_value} dB"
            )
    return f"shared sweep and {len(shared)} separate runs agree cell for cell"

def _check_flops_ordering(seed: int) -> str:
    del seed
    m, iters = 50, 3
    for n in range(100, 1001, 100):
        ais = flops_ais(m, n, iters, iters).flops
        nsp = flops_nsp(m, n, iters, iters).flops
        irses = flops_irses(m, n // m, n, iters).flops
        if not ais > nsp > irses:
            raise AssertionError(f"cost ordering broken at n={n}")
    return "alternating > null-space > grouping across the size range"

CHECKS = (
    ("channel determinism", _check_channel_determinism),
    ("alternating ascent", _check_alternating_ascent),
    ("phase update forms", _check_phase_update_forms),
    ("null-space split", _check_null_space_split),
    ("projector identities", _check_projector_identities),
    ("grouping alignment", _check_grouping_alignment),
    ("oracle dominance", _check_oracle_dominance),
    ("second slot", _check_second_slot),
    ("shared evaluation", _check_shared_evaluation),
    ("flops ordering", _check_flops_ordering),
)


def run_selftest(seed: int = 2024, print_fn=print) -> bool:
    """Run every invariant check; print one line per check; True iff all pass."""
    all_ok = True
    for name, check in CHECKS:
        try:
            detail = check(seed)
        except Exception as exc:
            all_ok = False
            print_fn(f"[FAIL] {name}: {exc}")
        else:
            print_fn(f"[ ok ] {name}: {detail}")
    return all_ok

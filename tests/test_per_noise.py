"""One alternation for several noise levels equals one scalar solve per level.

No iterate of ``ais``, ``nsp`` or the second slot reads the noise variance, so
the ``_batch`` solvers run one alternation and stop each level at its own
iterate; ``irses`` computes its noise-free part once.  On a stack of one
trial, every field of each level's solution must equal, bit for bit, what
the scalar solver returns at that level alone.
"""

import hashlib
from typing import NamedTuple

import numpy as np
import pytest

from irsrelay.beamforming import (
    PhaseShiftVector,
    ais_max_rp,
    ais_max_rp_batch,
    irses_max_rp_mrc,
    irses_max_rp_mrc_batch,
    irses_partition,
    nsp_max_rp_mrc,
    nsp_max_rp_mrc_batch,
    second_slot_optimize,
    second_slot_optimize_batch,
)
from irsrelay.channel import stack_channels
from irsrelay.errors import ConfigError
from irsrelay.metrics import noise_variance_for_snr

from conftest import NOISE_30DB, P_R, P_S, make_channels


def noise_levels(*snr_db):
    return tuple(noise_variance_for_snr(s, P_S, P_R) for s in snr_db)


GRID = noise_levels(0, 5, 10, 15, 20, 25, 30)

#: (noise levels, epsilon, max_iter); at epsilon 1e-6 and 6 iterations the
#: low-SNR levels stop on the rate rule and the high-SNR ones on the cap
CASES = {
    "0-30dB": (GRID, 1e-4, 50),
    "max_iter=1": (GRID, 1e-4, 1),
    "mixed-stops": (GRID, 1e-6, 6),
    "repeated-unsorted": (noise_levels(30, 0, 15, 0, 30, 5), 1e-4, 50),
}


def one_trial(batch):
    """``batch`` on a stack of one trial: that trial's per-level solutions."""

    def solve(channels, *args, **options):
        return batch(stack_channels([channels]), *args, **options)[0]

    return solve


class Solver(NamedTuple):
    levels: object
    scalar: object
    power: float
    shape: tuple[int, int]
    options: dict = {}


SOLVERS = {
    "ais": Solver(one_trial(ais_max_rp_batch), ais_max_rp, P_S, (4, 16)),
    "second-slot": Solver(
        one_trial(second_slot_optimize_batch), second_slot_optimize, P_R, (4, 16)
    ),
    **{
        f"nsp-{mode}-{combining}": Solver(
            one_trial(nsp_max_rp_mrc_batch),
            nsp_max_rp_mrc,
            P_S,
            # literal mode projects off the whole surface matrix: needs m > n
            (8, 4) if mode == "literal" else (4, 16),
            {"mode": mode, "combining": combining},
        )
        for mode in ("effective", "literal")
        for combining in ("snr-sum", "printed")
    },
    "nsp-fixed-phases": Solver(
        one_trial(nsp_max_rp_mrc_batch),
        nsp_max_rp_mrc,
        P_S,
        (4, 16),
        {"phases": PhaseShiftVector(np.zeros(16))},
    ),
}


def assert_identical(together, alone):
    assert together.trace == alone.trace
    assert together.iterations == alone.iterations
    for field in ("rate_r", "rate_d", "receive_power_watt"):
        assert getattr(together, field, None) == getattr(alone, field, None)
    for field in ("theta1", "theta2"):
        if hasattr(alone, field):
            assert np.array_equal(
                getattr(together, field).angles, getattr(alone, field).angles
            )
    for field in ("u_r", "u_rs", "u_ri", "u_t"):
        if getattr(alone, field, None) is not None:
            assert np.array_equal(
                getattr(together, field).weights, getattr(alone, field).weights
            )


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name", SOLVERS)
def test_per_noise_solve_equals_one_scalar_solve_per_level(name, case):
    solver = SOLVERS[name]
    levels, epsilon, max_iter = CASES[case]
    for seed in range(4):
        channels = make_channels(*solver.shape, seed=seed)
        together = solver.levels(
            channels, solver.power, levels, epsilon, max_iter, **solver.options
        )
        assert len(together) == len(levels)
        for noise, solution in zip(levels, together):
            alone = solver.scalar(
                channels, solver.power, noise, epsilon, max_iter, **solver.options
            )
            assert_identical(solution, alone)


@pytest.mark.parametrize("name", ["ais", "second-slot", "nsp-effective-snr-sum"])
def test_mixed_case_stops_on_both_rules(name):
    # pins that the "mixed-stops" case, on one of the draws compared above,
    # stops some levels on the rate rule and others on the cap
    solver = SOLVERS[name]
    levels, epsilon, max_iter = CASES["mixed-stops"]

    def mixed(channels):
        capped = solver.levels(channels, solver.power, levels, epsilon, max_iter)
        free = solver.levels(channels, solver.power, levels, epsilon, 50)
        return min(s.iterations for s in capped) < max_iter and any(
            c.iterations == max_iter < f.iterations for c, f in zip(capped, free)
        )

    assert any(mixed(make_channels(*solver.shape, seed=seed)) for seed in range(4))


@pytest.mark.parametrize("name", SOLVERS)
def test_per_noise_solve_needs_a_noise_level(name):
    solver = SOLVERS[name]
    channels = make_channels(*solver.shape, seed=0)
    with pytest.raises(ConfigError):
        solver.levels(channels, solver.power, (), 1e-4, 50, **solver.options)


#: per options: (rate_r, receive power) as float.hex() and a digest of the
#: phases and MRC weights at 0 dB, 30 dB and one per-antenna level
#: (make_channels(4, 16, seed=1), irses_partition(16, 4, 1)), from the draws
#: and partition keyed by Philox and the unit-phasor alignment; after a
#: change meant to move irses numbers, recompute them and state the drift
IRSES_PINNED = {
    "idealized": (
        ("0x1.60d0d3feff1b9p-9", "0x1.31fa15d83160bp-5", "a52f61055b6817a7"),
        ("0x1.85125509a896dp+0", "0x1.31fa15d83160bp-5", "a52f61055b6817a7"),
        ("0x1.732f3530106f5p+0", "0x1.31fa15d83160bp-5", "a52f61055b6817a7"),
    ),
    "full": (
        ("0x1.205073854a5fep-9", "0x1.f3fdda7d069fcp-6", "a52f61055b6817a7"),
        ("0x1.56369d79529f7p+0", "0x1.f3fdda7d069fcp-6", "a52f61055b6817a7"),
        ("0x1.4b8f111b73970p+0", "0x1.f3fdda7d069fcp-6", "a52f61055b6817a7"),
    ),
    "printed": (
        ("0x1.001842a5d33f0p-10", "0x1.bbedbf56f1597p-7", "a52f61055b6817a7"),
        ("0x1.7e0f577edb8dap-1", "0x1.bbedbf56f1597p-7", "a52f61055b6817a7"),
        ("0x1.160cccee0bdbep-1", "0x1.bbedbf56f1597p-7", "a52f61055b6817a7"),
    ),
    "fixed-phases": (
        ("0x1.e323e57f71c21p-10", "0x1.a2e068f117152p-6", "a8a4ba742b6d7408"),
        ("0x1.301e690852889p+0", "0x1.a2e068f117152p-6", "a8a4ba742b6d7408"),
        ("0x1.1d0a7e4d089b3p+0", "0x1.a2e068f117152p-6", "a8a4ba742b6d7408"),
    ),
}

IRSES_OPTIONS = {
    "idealized": {},
    "full": {"interference_mode": "full"},
    "printed": {"combining": "printed"},
    "fixed-phases": {"phases": PhaseShiftVector(np.zeros(16))},
}


@pytest.mark.parametrize("name", sorted(IRSES_OPTIONS))
def test_irses_per_noise_solutions_equal_pinned_scalar_ones(name):
    # closed form: the noise-free alignment, amplitudes and weights are
    # computed once for every level, and each level must keep the bits the
    # scalar solver gave it, on a stack of one trial and alone
    options = IRSES_OPTIONS[name]
    levels = (*noise_levels(0, 30), np.linspace(0.01, 0.04, 4))
    channels = make_channels(4, 16, seed=1)
    partition = irses_partition(16, 4, 1)
    stack = stack_channels([channels])
    together = irses_max_rp_mrc_batch(stack, P_S, levels, [partition], **options)[0]
    got = []
    for noise, solution in zip(levels, together):
        assert_identical(
            solution, irses_max_rp_mrc(channels, P_S, noise, partition, **options)
        )
        assert solution.trace == (solution.rate_r,)
        parts = solution.theta1.angles.tobytes() + solution.mrc_weights.tobytes()
        got.append(
            (
                solution.rate_r.hex(),
                float(solution.receive_power_watt).hex(),
                hashlib.sha256(parts).hexdigest()[:16],
            )
        )
    assert tuple(got) == IRSES_PINNED[name]
    with pytest.raises(ConfigError):
        irses_max_rp_mrc_batch(stack, P_S, (), [partition], **options)


def solves_of_one_trial():
    """Each scalar solver and ``_batch`` form on one draw, by name: (power, noise)."""
    channels = make_channels(4, 16, seed=0)
    stack = stack_channels([channels])
    partition = irses_partition(16, 4, 0)
    return {
        "ais": lambda p, noise: ais_max_rp(channels, p, noise),
        "ais-batch": lambda p, noise: ais_max_rp_batch(stack, p, (noise,)),
        "nsp": lambda p, noise: nsp_max_rp_mrc(channels, p, noise),
        "nsp-batch": lambda p, noise: nsp_max_rp_mrc_batch(stack, p, (noise,)),
        "irses": lambda p, noise: irses_max_rp_mrc(channels, p, noise, partition),
        "irses-batch": lambda p, noise: irses_max_rp_mrc_batch(
            stack, p, (noise,), [partition]
        ),
        "second-slot": lambda p, noise: second_slot_optimize(channels, p, noise),
        "second-slot-batch": lambda p, noise: second_slot_optimize_batch(
            stack, p, (noise,)
        ),
    }


ONE_TRIAL = solves_of_one_trial()

#: (power, noise) pairs that no rate can be made of
BAD_INPUTS = {
    "power=-1": (-1.0, NOISE_30DB),
    "power=nan": (np.nan, NOISE_30DB),
    "power=inf": (np.inf, NOISE_30DB),
    "noise=0": (P_S, 0.0),
    "noise=-1": (P_S, -1.0),
    "noise=nan": (P_S, np.nan),
    "noise=inf": (P_S, np.inf),
}


@pytest.mark.parametrize(
    "solver, power, noise",
    [
        pytest.param(solver, *BAD_INPUTS[bad], id=f"{solver}-{bad}")
        for solver in ONE_TRIAL
        for bad in BAD_INPUTS
    ]
    + [
        # irses also takes a per-antenna noise vector
        pytest.param(
            solver, P_S, np.array([0.01, np.nan, 0.02, 0.03]), id=f"{solver}-vector-nan"
        )
        for solver in ("irses", "irses-batch")
    ],
)
def test_solvers_reject_non_finite_or_negative_power_and_noise(solver, power, noise):
    with pytest.raises(ConfigError):
        ONE_TRIAL[solver](power, noise)

"""What a process imports, and the public names that resolve lazily.

A table is built in a fresh process, so everything ``import irsrelay.cli``
loads is paid for by every table: it must load the trial engine and not
the one-trial API (:mod:`irsrelay.solutions`), ``json``, ``argparse`` or
``numpy.random``.  The package resolves its public names on first use, and
``irsrelay.beamforming`` the names that moved to ``irsrelay.solutions``;
each must still be the one object its home module defines.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import irsrelay
from irsrelay import beamforming

#: ``irsrelay.__all__`` before its names resolved lazily
PUBLIC_NAMES = {
    "__version__", "Beamformer", "ChannelSet", "Columns", "ConfigError",
    "DegenerateChannelError", "DegenerateElementWarning", "FirstSlotSolution",
    "FlopsEstimate", "Geometry", "LinkBudget", "METHODS", "OracleResult",
    "PROPOSED_METHODS", "Partition", "PhaseShiftVector",
    "ProjectorDegenerateError", "RateResult", "ScenarioConfig",
    "SecondSlotSolution", "SweepPoint", "SweepResult", "SweepSpec",
    "TraceDipError", "TrialRecord", "ais_max_rp", "ais_max_rp_batch",
    "brute_force_max_rp", "collect_columns", "collect_trials",
    "dbi_to_amplitude_gain", "flops_ais", "flops_irses", "flops_nsp",
    "irses_max_rp_mrc", "irses_max_rp_mrc_batch", "irses_partition",
    "irses_partitions", "noise_variance_for_snr", "nsp_max_rp_mrc",
    "nsp_max_rp_mrc_batch", "nsp_projector", "pathloss_amplitude",
    "rate_from_power", "receive_power_ais", "run_trial", "sample_channels",
    "sample_channels_batch", "stack_channels", "second_slot_optimize",
    "second_slot_optimize_batch", "stream_seed", "summarize_columns",
    "summarize_records", "sweep", "system_rate", "theta_update_ais",
    "trial_seed", "ur_update_ais", "wrap_angles",
}


def modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds once it has run ``statement``."""
    package_root = str(Path(irsrelay.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; print(*sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    return set(result.stdout.split())


def test_importing_the_cli_loads_only_the_table_engine():
    # the one-trial API, the self-test, JSON output, argument parsing and
    # the random generators are loaded by the calls that use them
    unwanted = {
        "irsrelay.solutions", "irsrelay.selftest", "json", "argparse", "numpy.random"
    }
    for statement in ("import irsrelay.cli", "import irsrelay.harness"):
        assert modules_after(statement) & unwanted == set()


def test_a_bare_package_import_loads_no_submodule():
    loaded = modules_after("import irsrelay")
    assert "irsrelay" in loaded
    assert [name for name in loaded if name.startswith("irsrelay.")] == []


def test_every_public_name_resolves_to_its_home_modules_object():
    assert set(irsrelay.__all__) == PUBLIC_NAMES
    assert len(irsrelay.__all__) == len(PUBLIC_NAMES)
    for module_name, names in irsrelay._HOMES.items():
        module = importlib.import_module(f"irsrelay.{module_name}")
        for name in names:
            value = getattr(irsrelay, name)
            assert value is getattr(module, name)
            if callable(value):
                assert value.__module__ == module.__name__
            if module_name == "solutions":
                assert getattr(beamforming, name) is value


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from irsrelay import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(irsrelay))


def test_an_unknown_name_raises_attribute_error():
    for module in (irsrelay, beamforming, importlib.import_module("irsrelay.harness")):
        assert not hasattr(module, "no_such_name")
    assert beamforming.ORACLE_MAX_COMBINATIONS == 10**7

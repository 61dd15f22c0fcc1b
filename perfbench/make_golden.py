"""Rewrite the golden tables from the package in the current checkout.

    python3 perfbench/make_golden.py

Run from the checkout root.  Each table is built exactly as a benchmark
repetition builds it (fresh process, single-threaded BLAS) at
``GOLDEN_SEED``, and stored as ``perfbench/golden/<workload>.csv``.  The
standard errors of the ``run`` tables' first- and second-slot means, which
the tables do not print, go to ``perfbench/golden/slot-stderr.json``.  Only a
change that is meant to alter the tables should rewrite them.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

from check import GOLDEN_DIR, SLOT_STDERR_FILE
from run import Runner
from workloads import GOLDEN_SEED, WORKLOADS, settings_overrides


def slot_stderr(workload) -> dict[str, dict[str, float]]:
    """Method -> standard error of ``mean_rate_r`` and ``mean_rate_d``."""
    import irsrelay.cli as cli
    from irsrelay.harness import collect_trials

    settings = cli.parse_config(
        overrides=settings_overrides(workload, GOLDEN_SEED), env={}
    )
    config = cli.scenario_from_settings(settings)
    out = {}
    for method in settings["methods"]:
        records = collect_trials(dataclasses.replace(config, method=method))
        out[method] = {}
        for column, slot in (("mean_rate_r", "rate_r"), ("mean_rate_d", "rate_d")):
            rates = [getattr(r.result, slot) for r in records]
            mean = sum(rates) / len(rates)
            variance = sum((x - mean) ** 2 for x in rates) / (len(rates) - 1)
            out[method][column] = round(math.sqrt(variance / len(rates)), 6)
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    GOLDEN_DIR.mkdir(exist_ok=True)
    stderrs = {}
    for name, workload in WORKLOADS.items():
        table = Runner(Path.cwd(), name).spawn(GOLDEN_SEED)["table"]
        (GOLDEN_DIR / f"{name}.csv").write_text(table, encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}.csv")
        if workload.subcommand == "run":
            stderrs[name] = slot_stderr(workload)
    SLOT_STDERR_FILE.write_text(json.dumps(stderrs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {SLOT_STDERR_FILE}")

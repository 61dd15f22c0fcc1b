"""The benchmark's workloads: which CLI table each one builds.

A workload is a set of ``--set KEY=VALUE`` overrides for one table-building
subcommand.  The workload seed is the only input that changes between runs;
it becomes the table's ``seed`` setting, so every channel draw derives from
it.  Why each workload exists is recorded in ``BENCHMARK.json``.  Nothing
here imports ``irsrelay``: the parent process of a run never loads the
package, only the per-repetition child processes do.
"""

from __future__ import annotations

from dataclasses import dataclass

#: seed of the stored golden tables (``perfbench/golden/<workload>.csv``)
GOLDEN_SEED = 0

ALL_METHODS = (
    "ais,nsp,irses,ais-fixed-phase,nsp-fixed-phase,irses-fixed-phase,"
    "baseline-single-antenna,baseline-irs-only,baseline-relay-only"
)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    overrides: dict
    points: int = 1

    @property
    def workers(self) -> int:
        return int(self.overrides.get("workers", 1))

    @property
    def evaluations(self) -> int:
        """Trial evaluations per table: trials x methods x grid points."""
        methods = self.overrides["methods"].split(",")
        return int(self.overrides["trials"]) * len(methods) * self.points


WORKLOADS = {
    w.name: w
    for w in (
        # solver-bound, single-threaded, at the paper's operating point
        Workload(
            "run-default",
            "run",
            {"trials": "60", "methods": "ais,nsp,irses"},
        ),
        # the default 0..30 dB grid in 5 dB steps: 7 points
        Workload(
            "sweep-snr-w2",
            "sweep-snr",
            {"trials": "12", "methods": "ais,nsp,irses", "workers": "2"},
            points=7,
        ),
        # overhead-bound: tiny arrays, every method
        Workload(
            "small-all-methods",
            "run",
            {"trials": "120", "methods": ALL_METHODS, "m": "4", "n": "16"},
        ),
    )
}


def settings_overrides(workload: Workload, seed: int) -> dict[str, str]:
    """The ``--set`` overrides of one table of ``workload`` at ``seed``."""
    return {**workload.overrides, "seed": str(seed)}

"""Golden tables: small CLI tables pinned byte for byte.

Each case is one ``irsrelay`` command line; its stored output in
``tests/golden/`` must be reproduced exactly.  A refactor that moves a single
bit of any rate, or changes a metadata line, fails here.  The tables cover
every method, both combining and both element-grouping interference modes,
both null-space modes, every sweep axis, the complexity table and the JSON
lines format.

After a change that is meant to move numbers, rewrite the fixtures with
``PYTHONPATH=src python3 tests/test_golden.py`` and state the drift.
"""

from pathlib import Path

import pytest

from irsrelay import cli

GOLDEN = Path(__file__).with_name("golden")

ALL_METHODS = (
    "ais,nsp,irses,ais-fixed-phase,nsp-fixed-phase,irses-fixed-phase,"
    "baseline-single-antenna,baseline-irs-only,baseline-relay-only"
)
SMALL = ["--set", "m=4", "--set", "n=16", "--seed", "0"]

CASES = {
    "run-all-methods.csv": ["run", "--methods", ALL_METHODS, "--trials", "12", *SMALL],
    "run-printed.csv": [
        "run", "--methods", "nsp,irses,nsp-fixed-phase", "--trials", "8", *SMALL,
        "--set", "combining=printed",
    ],
    "run-irses-full.csv": [
        "run", "--methods", "irses,irses-fixed-phase", "--trials", "8", *SMALL,
        "--set", "irses_mode=full",
    ],
    "run-nsp-literal.csv": [
        "run", "--methods", "nsp,nsp-fixed-phase", "--trials", "8", "--seed", "3",
        "--set", "m=4", "--set", "n=2", "--set", "nsp_mode=literal",
    ],
    "sweep-snr.csv": [
        "sweep-snr", "--values", "0,15,30", "--methods", "ais,nsp,irses",
        "--trials", "6", *SMALL,
    ],
    "sweep-n.csv": [
        "sweep-n", "--values", "8,16", "--methods", "ais,irses,baseline-irs-only",
        "--trials", "6", *SMALL,
    ],
    "sweep-m.csv": [
        "sweep-m", "--values", "2,4", "--methods", "nsp,baseline-single-antenna",
        "--trials", "6", *SMALL,
    ],
    "sweep-distance.csv": [
        "sweep-distance", "--values", "30,60", "--methods",
        "ais,baseline-relay-only", "--trials", "6", *SMALL, "--set", "snr_db=10",
    ],
    "flops.csv": ["flops", "--values", "100,200,300", "--set", "l=2"],
    "run.jsonl": [
        "run", "--methods", "ais,irses-fixed-phase", "--trials", "6", *SMALL,
        "--format", "jsonl", "--set", "epsilon=1e-3", "--set", "max_iter=20",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_matches_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED_VAR, raising=False)
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        assert cli.main(argv + ["--out", str(GOLDEN / name)]) == 0

"""Correctness check of an emitted CSV table against the workload's golden table.

The golden tables in ``perfbench/golden`` were written by the CLI's own
``format_table`` at ``GOLDEN_SEED``.  A run at another seed draws other
channels, so its rows are compared statistically: a rate may differ from the
golden one by at most ``MAX_COMBINED_SE`` combined standard errors.  That
stays valid for any seed and for any future re-keying of the random draws.
Byte equality with the golden table is reported separately, as a count.

A row fails when
  - a rate or standard error is non-finite or negative,
  - a two-hop method's ``mean_rate_s`` exceeds ``min(mean_rate_r,
    mean_rate_d) / 2`` (the mean of a minimum never exceeds the minimum of
    the means; ``RATE_ROUNDING`` allows for the table's 6-decimal rounding),
  - a mean rate differs from the golden row's by more than
    ``MAX_COMBINED_SE`` combined standard errors,
  - or it is missing, or its method, axis value or trial count differ.

A ``run`` table prints the standard error of ``mean_rate_s`` only.  For its
first- and second-slot means ``mean_rate_r`` and ``mean_rate_d`` the golden
table's standard errors, stored in ``golden/slot-stderr.json``, stand in for
the row's own: both average the same number of trials of one distribution.
The system rate is often capped by the second slot, so these two columns
are what shows a worse first-slot solver.  Sweep tables print only system
rates, so their first slot is checked on the ``run`` workloads alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: workload -> method -> column -> standard error of the golden mean
SLOT_STDERR_FILE = GOLDEN_DIR / "slot-stderr.json"

#: the ``run`` table columns whose standard errors the table does not print
SLOT_COLUMNS = ("mean_rate_r", "mean_rate_d")

#: a normal deviate beyond 6 has probability 2e-9, so a correct table at a
#: fresh seed essentially never fails, while a real shift of the rates does
MAX_COMBINED_SE = 6.0

#: one unit in the last of the 6 printed decimals
RATE_ROUNDING = 1e-6

#: the only method that is a single hop, without the half-duplex 1/2
SINGLE_HOP_METHODS = ("baseline-irs-only",)

#: metadata that must match the golden table's (the seed may not)
PINNED_METADATA = ("subcommand", "m", "n", "trials", "methods", "snr_db", "values")


@dataclass(frozen=True)
class Table:
    metadata: dict[str, str]
    columns: list[str]
    rows: list[list[str]]


def parse_csv(text: str) -> Table:
    """Split an emitted CSV document into metadata, header and rows."""
    metadata: dict[str, str] = {}
    lines = text.splitlines()
    body = 0
    while body < len(lines) and lines[body].startswith("#"):
        key, _, value = lines[body][1:].strip().partition("=")
        metadata[key.strip()] = value.strip()
        body += 1
    columns = lines[body].split(",") if body < len(lines) else []
    rows = [line.split(",") for line in lines[body + 1 :] if line]
    return Table(metadata, columns, rows)


def golden_text(workload: str) -> str:
    return (GOLDEN_DIR / f"{workload}.csv").read_text(encoding="utf-8")


def golden_slot_stderr(workload: str) -> dict[str, dict[str, float]]:
    """Method -> ``SLOT_COLUMNS`` standard errors; empty for sweep workloads."""
    every = json.loads(SLOT_STDERR_FILE.read_text(encoding="utf-8"))
    return every.get(workload, {})


def _rate(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"rate {cell!r} is not a finite non-negative number")
    return value


def _agrees(mean: float, se: float, golden_mean: float, golden_se: float) -> bool:
    return abs(mean - golden_mean) <= MAX_COMBINED_SE * math.hypot(se, golden_se)


def _run_row_ok(row: dict, golden: dict, slot_stderr: dict[str, float]) -> bool:
    columns = ("mean_rate_r", "mean_rate_d", "mean_rate_s", "stderr_rate_s")
    r, d, s, se = (_rate(row[c]) for c in columns)
    if row["method"] != golden["method"] or row["trials"] != golden["trials"]:
        return False
    if row["method"] not in SINGLE_HOP_METHODS and s > min(r, d) / 2 + RATE_ROUNDING:
        return False
    if not _agrees(s, se, float(golden["mean_rate_s"]), float(golden["stderr_rate_s"])):
        return False
    return all(
        _agrees(value, slot_stderr[c], float(golden[c]), slot_stderr[c])
        for c, value in zip(SLOT_COLUMNS, (r, d))
    )


def _sweep_row_ok(row: dict, golden: dict, methods: list[str]) -> bool:
    axis = next(iter(golden))
    if float(row[axis]) != float(golden[axis]) or row["trials"] != golden["trials"]:
        return False
    for method in methods:
        mean = _rate(row[f"{method}_mean_rate"])
        se = _rate(row[f"{method}_stderr"])
        golden_mean = float(golden[f"{method}_mean_rate"])
        golden_se = float(golden[f"{method}_stderr"])
        if not _agrees(mean, se, golden_mean, golden_se):
            return False
    return True


def check_table(text: str, workload: str, seed: int) -> tuple[int, int]:
    """``(rows checked, rows failed)`` of ``text`` against ``workload``'s golden table.

    The count of rows checked is the golden table's row count, so a table
    that is cut short or unreadable fails every row it lacks.
    """
    want, got = parse_csv(golden_text(workload)), parse_csv(text)
    slot_stderr = golden_slot_stderr(workload)
    expected = len(want.rows)
    pinned_ok = all(
        got.metadata.get(k) == want.metadata.get(k) for k in PINNED_METADATA
    ) and got.metadata.get("seed") == str(seed)
    if not pinned_ok or got.columns != want.columns:
        return expected, expected
    methods = got.metadata["methods"].split(",")
    failed = 0
    for i, golden_row in enumerate(want.rows):
        golden_cells = dict(zip(want.columns, golden_row))
        try:
            cells = dict(zip(got.columns, got.rows[i], strict=True))
            if got.metadata["subcommand"] == "run":
                ok = _run_row_ok(cells, golden_cells, slot_stderr[cells["method"]])
            else:
                ok = _sweep_row_ok(cells, golden_cells, methods)
        except (ValueError, IndexError, KeyError):
            ok = False
        failed += not ok
    failed += max(0, len(got.rows) - expected)
    return expected + max(0, len(got.rows) - expected), failed

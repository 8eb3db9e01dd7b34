"""Output checks run after every timed call.

Each check is one attempt; a failed check is recorded with a one-line reason
and counts against ``failed_ratio`` together with cells that did not finish
with status ok.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)
        return ok


def is_fraction(value) -> bool:
    """A finite number in [0, 1]."""
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


def parse_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def read_table(checker: Checker, path: Path) -> list[dict]:
    """Parse a report csv with the csv module; every row must be as wide as the header."""
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, csv.Error) as exc:
        checker.check(False, f"{path.name}: cannot parse: {exc}")
        return []
    if not checker.check(bool(rows) and bool(rows[0]), f"{path.name}: no header"):
        return []
    header = rows[0]
    ragged = [i for i, row in enumerate(rows[1:], start=2) if len(row) != len(header)]
    checker.check(not ragged, f"{path.name}: rows {ragged[:3]} differ in width from the header")
    return [dict(zip(header, row)) for row in rows[1:] if len(row) == len(header)]


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def read_tables(checker: Checker, out: Path) -> dict[str, list[dict]]:
    """Every csv under a report directory, parsed, keyed by relative path."""
    return {str(path.relative_to(out)): read_table(checker, path)
            for path in sorted(out.rglob("*.csv"))}


def check_reports(checker: Checker, tables: dict, methods, seeds, grid_rows: int):
    """Check the standard tables of a ``run`` or ``ablate`` report directory.

    Returns (cells attempted, cells ok, mean test accuracy per method).
    """
    grid = tables.get("grid.csv", [])
    checker.check(len(grid) == grid_rows, f"grid.csv: {len(grid)} rows, expected {grid_rows}")
    ok_cells = sum(1 for row in grid if row.get("status") == "ok"
                   and is_fraction(parse_float(row.get("val_accuracy", ""))))
    selection = tables.get("selection.csv", [])
    checker.check(
        len(selection) == len(methods)
        and all(r["status"] == "ok" and is_fraction(parse_float(r["mean_val_accuracy"]))
                for r in selection),
        "selection.csv: a method has no selected cell or a non-finite mean accuracy")

    evaluation = tables.get("eval.csv", [])
    checker.check(len(evaluation) == len(methods) * len(seeds),
                  f"eval.csv: {len(evaluation)} rows, expected {len(methods) * len(seeds)}")
    accuracy: dict[str, list[float]] = {}
    for row in evaluation:
        acc = parse_float(row["accuracy"])
        if checker.check(is_fraction(acc) and is_fraction(parse_float(row["auc"])),
                         f"eval.csv: {row['method']} seed {row['seed']} has a non-finite score"):
            accuracy.setdefault(row["method"], []).append(acc)
    means = {m: sum(v) / len(v) for m, v in accuracy.items()}
    checker.check(set(means) == set(methods), f"eval.csv: methods {sorted(means)}")
    return len(grid), ok_cells, means


def check_ablation(checker: Checker, tables: dict, spaces, seeds) -> None:
    rows = tables.get("ablation.csv", [])
    checker.check(len(rows) == len(spaces) * (len(seeds) + 1),
                  f"ablation.csv: {len(rows)} rows, expected {len(spaces) * (len(seeds) + 1)}")
    for row in rows:
        checker.check(
            all(is_fraction(parse_float(row[k])) for k in ("acc_pp", "acc_pn", "method_accuracy")),
            f"ablation.csv: {row['space']} {row['seed']} has a non-finite accuracy")

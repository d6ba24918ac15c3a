"""Labeled-dataset ingestion and machine-readable experiment reports.

CSV files are expected to hold numeric feature columns plus one 0/1 label
column (1 = anomaly); the first row is a header when none of its cells
parses as a number, and data otherwise, so a typo in a first data row
raises rather than dropping the row.  Reports are plain JSON with sorted
keys so a rerun with the same seed produces byte-identical output; files
are written atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import SampleSet

__all__ = [
    "LabeledDataset",
    "ExperimentReport",
    "load_labeled_csv",
    "load_features_csv",
]


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix with binary anomaly labels (1 = anomaly)."""

    samples: SampleSet
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        labels = np.asarray(self.labels).reshape(-1)
        if labels.size != self.samples.n:
            raise ValueError(
                f"label count {labels.size} does not match sample count {self.samples.n}"
            )
        if not np.all(np.isin(labels, (0, 1))):
            raise ValueError("labels must be 0 or 1")
        labels = labels.astype(np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def anomaly_rate(self) -> float:
        return float(self.labels.mean())


@dataclass
class ExperimentReport:
    """Self-describing result record: inputs, metrics, and provenance.

    ``parameters`` must contain everything needed to replay the run; for
    seeded commands replaying reproduces ``metrics`` bit-for-bit (wall-time
    metrics are exempt).
    """

    command: str
    parameters: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "metrics": self.metrics,
            "provenance": self.provenance,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_cell(cell: str, path: Path, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(
            f"{path}: row {row}, column {col}: cannot parse {cell!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: row {row}, column {col}: non-finite value {cell!r}")
    return value


def _is_header(row: list[str]) -> bool:
    """True when no cell of ``row`` parses as a number."""
    for cell in row:
        try:
            float(cell)
        except ValueError:
            continue
        return False
    return True


def _read_table(
    path: Path, delimiter: str
) -> tuple[list[str] | None, np.ndarray, list[tuple[int, list[str]]]]:
    """Parse a numeric CSV into ``(header or None, values, rows)``.

    ``rows`` holds ``(file line, cells)`` for each data row; blank lines are
    skipped but still counted, so errors name the row as it is in the file
    (1-based, as are the columns).  A leading UTF-8 byte-order mark is
    dropped.  A table whose rows all have the first row's width and whose
    cells are all finite numbers is converted in one call (numpy parses a
    cell by ``float()``'s rules); any other table is read row by row, which
    raises at its first bad row or cell.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: file is empty")
    header = rows.pop(0)[1] if _is_header(rows[0][1]) else None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0][1])
    if all(len(row) == width for _, row in rows):
        try:
            values = np.array([row for _, row in rows], dtype=np.float64)
        except ValueError:
            values = None
        if values is not None and np.isfinite(values).all():
            return header, values, rows
    values = np.empty((len(rows), width))
    for i, (line, row) in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {line} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            values[i, j] = _parse_cell(cell.strip(), path, line, j + 1)
    return header, values, rows


def load_features_csv(path, delimiter: str = ",") -> SampleSet:
    """Read an all-numeric CSV (every column a feature) as a SampleSet."""
    return SampleSet(_read_table(Path(path), delimiter)[1])


def load_labeled_csv(path, label_column, delimiter: str = ",") -> LabeledDataset:
    """Read a numeric CSV with one 0/1 label column.

    ``label_column`` is either a header name or a 0-based column index.
    Row order is preserved.  Errors name the offending cell by file row
    and column (both 1-based in messages).
    """
    path = Path(path)
    header, values, rows = _read_table(path, delimiter)
    width = values.shape[1]
    if width < 2:
        raise ValueError(f"{path}: need at least one feature column and a label column")

    if isinstance(label_column, str):
        if header is None:
            raise ValueError(f"{path}: label column {label_column!r} needs a header row")
        stripped = [name.strip() for name in header]
        if label_column not in stripped:
            raise ValueError(f"{path}: no column named {label_column!r} in header")
        label_idx = stripped.index(label_column)
    else:
        label_idx = int(label_column)
        if label_idx < 0:
            label_idx += width
        if not 0 <= label_idx < width:
            raise ValueError(f"{path}: label column index {label_column} out of range")

    labels = values[:, label_idx]
    bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))
    if bad.size:
        line, row = rows[bad[0]]
        raise ValueError(
            f"{path}: row {line}, column {label_idx + 1}: "
            f"label must be 0 or 1, got {row[label_idx]!r}"
        )
    features = np.delete(values, label_idx, axis=1)
    return LabeledDataset(samples=SampleSet(features), labels=labels, name=path.stem)

"""Dataset parsing and strictly-schema'd CSV/JSON emission.

CSV outputs are long format: header row, comma separator, decimal point, and
floats printed with 17 significant digits so re-parsing reproduces every value
bit-exactly.
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError, EmptyDataset
from .polybasis import Design


def format_float(x) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Dataset:
    X: Design
    y: np.ndarray
    feature_names: tuple
    target_name: str

    @property
    def n(self) -> int:
        return self.X.n

    @property
    def d(self) -> int:
        return self.X.d


def _read_columns(path, select):
    """Float rows of a headed CSV, over the columns that ``select(header)`` names.

    Errors carry the offending row/column.
    """
    if not os.path.exists(path):
        raise DatasetError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path} is empty") from None
        header = [h.strip() for h in header]
        names = select(header)
        col_pos = {name: header.index(name) for name in header}

        rows = []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}",
                    row=rownum,
                )
            vals = []
            for name in names:
                cell = row[col_pos[name]].strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"{path}: non-numeric cell {cell!r} at row {rownum}, column {name}",
                        row=rownum,
                        column=name,
                    ) from None
                if not np.isfinite(v):
                    raise DatasetError(
                        f"{path}: non-finite value at row {rownum}, column {name}",
                        row=rownum,
                        column=name,
                    )
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise EmptyDataset(f"{path} has a header but no data rows")
    return names, np.asarray(rows, dtype=float)


def parse_dataset(path, feature_cols=None, target_col=None) -> Dataset:
    """Read a CSV with a header: d feature columns then one target column.

    Column names are configurable; errors carry the offending row/column.
    """

    def select(header):
        if len(header) < 2:
            raise DatasetError(f"{path}: need at least one feature and one target column")
        target = header[-1] if target_col is None else target_col
        if target not in header:
            raise DatasetError(f"{path}: no target column named {target!r}")
        features = [h for h in header if h != target] if feature_cols is None else feature_cols
        missing = [c for c in features if c not in header]
        if missing:
            raise DatasetError(f"{path}: missing feature columns {missing}")
        return list(features) + [target]

    names, arr = _read_columns(path, select)
    return Dataset(
        X=Design(arr[:, :-1]),
        y=arr[:, -1],
        feature_names=tuple(names[:-1]),
        target_name=names[-1],
    )


def parse_points(path, d: int) -> np.ndarray:
    """Read a CSV with a header and exactly d feature columns (no target)."""

    def select(header):
        if len(header) != d:
            raise DatasetError(
                f"{path}: query points need {d} feature column(s), found {len(header)}"
            )
        return header

    return _read_columns(path, select)[1]


def write_dataset(path, dataset: Dataset):
    header = list(dataset.feature_names) + [dataset.target_name]
    rows = [
        [format_float(v) for v in np.append(dataset.X.points[i], dataset.y[i])]
        for i in range(dataset.n)
    ]
    write_csv(path, header, rows)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")

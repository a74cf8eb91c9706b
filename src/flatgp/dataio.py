"""Dataset parsing and strictly-schema'd CSV/JSON emission.

CSV outputs are long format: header row, comma separator, decimal point, and
floats printed with 17 significant digits so re-parsing reproduces every value
bit-exactly.  JSON summaries are strict: they never hold NaN or infinity.
"""

import csv
import json
import math
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

    Errors carry the offending row/column; a column name that occurs twice in
    the header raises DatasetError.
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
        col_pos = {name: i for i, name in enumerate(header)}
        if len(col_pos) < len(header):
            name = next(h for i, h in enumerate(header) if col_pos[h] != i)
            raise DatasetError(f"{path}: column {name!r} is repeated in the header", column=name)
        names = select(header)

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
                if not math.isfinite(v):
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


def parse_dataset(path, target_col=None) -> Dataset:
    """Read a CSV with a header: the target column (``target_col``, else the
    last) and every other column as a feature.  Errors carry the offending
    row/column.
    """

    def select(header):
        if len(header) < 2:
            raise DatasetError(f"{path}: need at least one feature and one target column")
        target = header[-1] if target_col is None else target_col
        if target not in header:
            raise DatasetError(f"{path}: no target column named {target!r}")
        return [h for h in header if h != target] + [target]

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


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_json(path, payload):
    """Write ``payload`` as strict JSON: a NaN or infinity raises ValueError
    before the file is opened, since strict parsers reject both."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_json_default)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _json_default(obj):
    if isinstance(obj, np.generic):  # numpy scalars, numpy bools included
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")

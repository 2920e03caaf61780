"""Tabular result container and its CSV/JSON serialization.

A FigureDataset is a small self-describing table: named axes (each a strictly
monotone grid with a plotting scale), named value columns whose common length
is the product of the axis lengths (row-major flattening for 2+ axes), and a
metadata dict echoing the parameters it was built from.

Serialization contract:
  CSV    header row, RFC-4180 quoting, numbers printed with 17 significant
         digits (lossless for binary64). Layout is long-form: one column per
         axis (values repeated row-major) followed by the value columns.
  JSON   one object with keys figure_id, axes, columns, metadata, laid out
         as json.dumps(obj, indent=2) lays it out; numbers as native JSON
         floats (shortest round-trip text, also lossless).

Both are written column-wise in bounded chunks: CSV formats up to CSV_CHUNK
rows with one %-format string, JSON renders each float list in one join.
Either produces the same bytes as formatting cell by cell.

Both writers go through an atomic temp-file + rename so a crashed run never
leaves a truncated artifact behind.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

SCALES = ("linear", "log")
# rows per %-format call: bounds the text held at once beside the output
CSV_CHUNK = 1024


@dataclass(frozen=True)
class Axis:
    """A named coordinate grid with its natural plotting scale."""

    name: str
    values: np.ndarray
    scale: str = "linear"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.scale not in SCALES:
            raise ValueError(f"axis scale must be one of {SCALES}, got {self.scale!r}")
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("axis values must form a nonempty 1-d grid")
        if np.any(~np.isfinite(v)):
            raise ValueError("axis values must be finite")
        d = np.diff(v)
        if len(d) and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError(f"axis {self.name!r} is not strictly monotone")

    def __eq__(self, other):
        if not isinstance(other, Axis):
            return NotImplemented
        return (self.name == other.name and self.scale == other.scale
                and np.array_equal(self.values, other.values))


@dataclass(frozen=True)
class FigureDataset:
    figure_id: str
    axes: tuple[Axis, ...]
    columns: dict[str, np.ndarray]
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        cols = {k: np.asarray(v, dtype=float) for k, v in self.columns.items()}
        object.__setattr__(self, "columns", cols)
        n = self.n_rows
        for name, v in cols.items():
            if v.ndim != 1 or len(v) != n:
                raise ValueError(
                    f"column {name!r} has length {v.size}, expected {n} "
                    "(product of axis lengths)"
                )
            if np.any(~np.isfinite(v)):
                raise ValueError(f"column {name!r} contains non-finite values")
        clash = {a.name for a in self.axes} & set(cols)
        if clash:
            raise ValueError(f"axis and column names collide: {sorted(clash)}")

    @property
    def n_rows(self) -> int:
        return math.prod(len(a.values) for a in self.axes)

    def axis(self, name: str) -> Axis:
        for a in self.axes:
            if a.name == name:
                return a
        raise KeyError(name)

    def __eq__(self, other):
        if not isinstance(other, FigureDataset):
            return NotImplemented
        return (self.figure_id == other.figure_id
                and self.axes == other.axes
                and set(self.columns) == set(other.columns)
                and all(np.array_equal(v, other.columns[k])
                        for k, v in self.columns.items())
                and self.metadata == other.metadata)

    # -- tabular view ------------------------------------------------------

    def header(self) -> list[str]:
        return [a.name for a in self.axes] + list(self.columns)

    def rows(self) -> np.ndarray:
        """Long-form table: axis columns tiled row-major, then value columns."""
        grids = np.meshgrid(*(a.values for a in self.axes), indexing="ij")
        axis_cols = [g.reshape(-1) for g in grids]
        table = axis_cols + [self.columns[k] for k in self.columns]
        if not table:
            return np.empty((self.n_rows, 0))
        return np.column_stack(table)

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\r\n")  # RFC-4180 line endings
        w.writerow(self.header())
        table = self.rows()
        line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
        for start in range(0, len(table), CSV_CHUNK):
            chunk = table[start:start + CSV_CHUNK]
            buf.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))
        return buf.getvalue()

    def to_json(self) -> str:
        axes = [
            '{\n      "name": %s,\n      "scale": %s,\n      "values": %s\n    }'
            % (json.dumps(a.name), json.dumps(a.scale),
               _json_floats(a.values, "      "))
            for a in self.axes
        ]
        cols = ['%s: %s' % (json.dumps(k), _json_floats(v, "    "))
                for k, v in self.columns.items()]
        meta = json.dumps(_jsonable(self.metadata), indent=2)
        return ('{\n  "figure_id": %s,\n  "axes": %s,\n  "columns": %s,\n'
                '  "metadata": %s\n}\n'
                % (json.dumps(self.figure_id), _json_block(axes, "[]", "  "),
                   _json_block(cols, "{}", "  "), meta.replace("\n", "\n  ")))

    @classmethod
    def from_json(cls, text: str) -> "FigureDataset":
        obj = json.loads(text)
        axes = tuple(
            Axis(a["name"], np.asarray(a["values"], dtype=float), a["scale"])
            for a in obj["axes"]
        )
        cols = {k: np.asarray(v, dtype=float) for k, v in obj["columns"].items()}
        return cls(obj["figure_id"], axes, cols, obj["metadata"])


def _json_block(items: list[str], brackets: str, indent: str) -> str:
    """Rendered items as a json.dumps(indent=2) list or object at indent."""
    if not items:
        return brackets
    inner = indent + "  "
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n"
            + indent + brackets[1])


def _json_floats(values: np.ndarray, indent: str) -> str:
    """A float array as json.dumps(indent=2) writes its list at indent."""
    return _json_block(list(map(float.__repr__, values.tolist())), "[]",
                       indent)


def _jsonable(value):
    """Coerce numpy scalars/arrays in metadata to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Read back a table written by to_csv: (header, rows as float array)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    data = [[float(x) for x in row] for row in reader if row]
    return header, np.asarray(data, dtype=float)


def write_text_atomic(path: str, text: str) -> None:
    """Write text so the target never exists half-written.

    The temp file lives in the destination directory so os.replace stays on
    one filesystem and is atomic.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

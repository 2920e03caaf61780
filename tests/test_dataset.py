import errno
import os

import numpy as np
import pytest

from qoptkit import Axis, FigureDataset, parse_csv, write_text_atomic


def small_dataset():
    return FigureDataset(
        figure_id="unit-test",
        axes=(Axis("x", np.array([1.0, 2.0, 4.0]), "log"),),
        columns={"y": np.array([0.1, 0.2, 0.3]),
                 "z": np.array([1e-17, 2.0 / 3.0, 1e17])},
        metadata={"eta": 0.9, "note": "frozen", "n_list": [1, 2]},
    )


def grid_dataset():
    ax_a = Axis("a", np.array([1.0, 2.0]), "linear")
    ax_b = Axis("b", np.array([10.0, 20.0, 30.0]), "linear")
    vals = np.arange(6, dtype=float)
    return FigureDataset("grid", (ax_a, ax_b), {"v": vals}, {})


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("x", np.array([1.0, 1.0, 2.0]))  # not strictly monotone
    with pytest.raises(ValueError):
        Axis("x", np.array([]))
    with pytest.raises(ValueError):
        Axis("x", np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        Axis("x", np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Axis("x", np.array([1.0, 2.0]), scale="sqrt")
    # descending is still strictly monotone
    Axis("x", np.array([3.0, 2.0, 1.0]))


def test_dataset_validation():
    ax = Axis("x", np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        FigureDataset("f", (ax,), {"y": np.array([1.0])})  # wrong length
    with pytest.raises(ValueError):
        FigureDataset("f", (ax,), {"y": np.array([1.0, np.nan])})
    with pytest.raises(ValueError):
        FigureDataset("f", (ax,), {"x": np.array([1.0, 2.0])})  # name clash


def test_row_major_layout():
    d = grid_dataset()
    assert d.n_rows == 6
    assert d.header() == ["a", "b", "v"]
    rows = d.rows()
    # first axis varies slowest
    assert np.array_equal(rows[:, 0], [1, 1, 1, 2, 2, 2])
    assert np.array_equal(rows[:, 1], [10, 20, 30, 10, 20, 30])
    assert np.array_equal(rows[:, 2], np.arange(6.0))
    assert d.axis("b").scale == "linear"
    with pytest.raises(KeyError):
        d.axis("missing")


def test_scalar_dataset_no_axes():
    d = FigureDataset("point", (), {"value": np.array([2.5])}, {})
    assert d.n_rows == 1
    header, rows = parse_csv(d.to_csv())
    assert header == ["value"]
    assert rows.shape == (1, 1) and rows[0, 0] == 2.5


def test_csv_round_trip_lossless():
    d = small_dataset()
    header, rows = parse_csv(d.to_csv())
    assert header == ["x", "y", "z"]
    # 17 significant digits reproduce binary64 exactly
    assert np.array_equal(rows[:, 0], d.axes[0].values)
    assert np.array_equal(rows[:, 1], d.columns["y"])
    assert np.array_equal(rows[:, 2], d.columns["z"])


def test_csv_uses_crlf():
    text = small_dataset().to_csv()
    assert "\r\n" in text
    assert text.endswith("\r\n")


def test_json_round_trip_full_equality():
    d = small_dataset()
    back = FigureDataset.from_json(d.to_json())
    assert back == d
    assert back.metadata["note"] == "frozen"
    d2 = grid_dataset()
    assert FigureDataset.from_json(d2.to_json()) == d2


def test_dataset_equality_is_strict():
    d = small_dataset()
    other = FigureDataset(d.figure_id, d.axes,
                          {"y": d.columns["y"], "z": d.columns["z"] * 2.0},
                          d.metadata)
    assert d != other
    assert d != "not a dataset"


def test_write_text_atomic(tmp_path):
    target = tmp_path / "out" / "data.csv"
    write_text_atomic(str(target), "a,b\r\n1,2\r\n")
    # bytes, not read_text(): CRLF must survive untranslated
    assert target.read_bytes() == b"a,b\r\n1,2\r\n"
    # overwrite leaves no temp droppings behind
    write_text_atomic(str(target), "new")
    assert target.read_bytes() == b"new"
    leftovers = [p for p in os.listdir(target.parent) if p != "data.csv"]
    assert leftovers == []


def test_write_text_atomic_failure_leaves_the_target_alone(tmp_path,
                                                           monkeypatch):
    target = tmp_path / "data.csv"
    target.write_bytes(b"old\r\n")
    real_fdopen = os.fdopen

    class FullDisk:
        """A file that takes half of a write, then reports a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fdopen",
                        lambda fd, *a, **kw: FullDisk(real_fdopen(fd, *a, **kw)))
    with pytest.raises(OSError, match="No space left"):
        write_text_atomic(str(target), "new,text\r\n" * 1000)
    assert target.read_bytes() == b"old\r\n"
    assert os.listdir(tmp_path) == ["data.csv"]

"""to_csv and to_json against the per-cell reference writers in oracles.

The library formats whole chunks of rows at once; these datasets sit on the
chunk edges, carry the float values whose text is easiest to get wrong, and
use names and metadata that need quoting or escaping.
"""
import numpy as np
import pytest

import oracles
from qoptkit import Axis, FigureDataset

SPECIAL = np.array([-0.0, 5e-324, 1.7976931348623157e308, 12.0, 0.1])

METADATA = {
    "nested": {"a": {"b": [1, 2.5, None]}, "empty": {}},
    "none": None,
    "np_float": np.float64(0.1),
    "np_int": np.int64(7),
    "array": np.array([1.0, -0.0]),
    "empty_list": [],
    "tuple": (1, "x"),
    "flag": True,
    "looks_like_json": '{"columns": [1.0, 2.0], "metadata": null}\n',
    "quote,comma": 'say "hi"',
    "unicode": "η ≤ 1",
}


def column_values(n: int, seed: int) -> np.ndarray:
    """The special values first, then normals scaled over 600 decades."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    k = min(n, len(SPECIAL))
    v[:k] = SPECIAL[:k]
    return v


def one_axis(n: int) -> FigureDataset:
    x = np.concatenate([SPECIAL[:1], np.cumsum(np.full(n - 1, 0.1))])[:n]
    return FigureDataset(
        "one-axis", (Axis('x,"quoted"', x, "linear"),),
        {"plain": column_values(n, 1), 'needs "quotes", too':
         column_values(n, 2)[::-1].copy()},
        METADATA)


def two_axes(n_a: int, n_b: int) -> FigureDataset:
    a = np.logspace(-300, 300, n_a) if n_a > 1 else np.array([SPECIAL[2]])
    b = np.linspace(-0.0, 1.0, n_b) if n_b > 1 else np.array([0.1])
    return FigureDataset(
        "two-axes", (Axis("a", a, "log"), Axis("b", b, "linear")),
        {"v": column_values(n_a * n_b, 3)}, {"eta": 0.9})


def no_axes() -> FigureDataset:
    return FigureDataset("point", (),
                         {name: np.array([v]) for name, v in
                          zip(("neg_zero", "denormal", "max", "int", "tenth"),
                              SPECIAL)},
                         {"n_sig": 100.0, "n0": 200.0})


DATASETS = {
    "no-axes": no_axes(),
    "no-axes-no-columns": FigureDataset("empty", (), {}, {}),
    "no-axes-empty-metadata": FigureDataset(
        "one", (), {"x": np.array([1.0])}, {}),
    **{f"one-axis-{n}": one_axis(n) for n in (1, 1023, 1024, 1025, 5000)},
    "two-axes-1x1": two_axes(1, 1),
    "two-axes-31x33": two_axes(31, 33),   # 1023 rows
    "two-axes-32x32": two_axes(32, 32),   # 1024 rows
    "two-axes-41x25": two_axes(41, 25),   # 1025 rows
    "two-axes-50x100": two_axes(50, 100),
    "axis-no-columns": FigureDataset(
        "grid-only", (Axis("x", np.arange(1025.0)),), {}, {}),
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_csv_matches_reference_writer(name):
    ds = DATASETS[name]
    assert ds.to_csv() == oracles.csv_reference(ds)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_json_matches_reference_writer(name):
    ds = DATASETS[name]
    assert ds.to_json() == oracles.json_reference(ds)


def test_datasets_cover_the_edges():
    rows = {ds.n_rows for ds in DATASETS.values()}
    assert {1, 1023, 1024, 1025, 5000} <= rows
    assert {len(ds.axes) for ds in DATASETS.values()} == {0, 1, 2}
    text = DATASETS["one-axis-1025"].to_csv()
    for token in ("-0,", "4.9406564584124654e-324", "1.7976931348623157e+308",
                  '"x,""quoted"""'):
        assert token in text

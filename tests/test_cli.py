import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from qoptkit import parse_csv
from qoptkit.cli import OUT_DIR_ENV, run


def run_csv(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    return parse_csv(out)


def test_limits_stdout_csv(capsys):
    header, rows = run_csv(capsys, ["limits", "--n-sig", "25"])
    row = dict(zip(header, rows[0]))
    assert row["sql_sample"] == 0.1
    assert row["sql_total"] == pytest.approx(1.0 / (50.0 ** 0.5), rel=1e-15)
    assert row["heisenberg"] == 0.02


def test_limits_lossless_reports_zero_floor(capsys):
    header, rows = run_csv(capsys, ["limits", "--n-sig", "25", "--eta", "1"])
    row = dict(zip(header, rows[0]))
    assert row["loss_bound_sample"] == 0.0
    assert row["qnl"] == row["sql_total"]


def test_json_format(capsys):
    code = run(["limits", "--n-sig", "25", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    assert obj["figure_id"] == "precision-limits-point"
    assert obj["columns"]["sql_sample"] == [0.1]
    assert obj["metadata"]["n_sig"] == 25.0


def test_noon_threshold_value(capsys):
    header, rows = run_csv(capsys, ["noon", "--n", "3", "--threshold"])
    assert header == ["threshold_efficiency"]
    assert rows[0][0] == 2.0 ** (-1.0 / 3.0)


def test_noon_report_and_modes(capsys):
    header, rows = run_csv(capsys, ["noon", "--n", "12", "--eta", "0.9",
                                    "--n-sig", "600"])
    row = dict(zip(header, rows[0]))
    assert row["m_repetitions"] == 100.0
    assert row["enhancement"] == pytest.approx(1.6256570196122009, rel=1e-15)
    header, rows = run_csv(capsys, ["noon", "--optimal", "--eta", "0.9"])
    assert dict(zip(header, rows[0]))["n_opt"] == 12.0
    header, rows = run_csv(capsys, ["noon", "--flux", "--n", "5",
                                    "--target-rate", "1e12", "--total-power"])
    assert rows[0][0] == 4e10


def test_noon_curve_shape(capsys):
    header, rows = run_csv(capsys, ["noon", "--curve", "--eta", "0.9",
                                    "--n-sig-points", "40"])
    assert header[0] == "n_sig"
    assert rows.shape == (40, 5)


def test_squeezed_modes(capsys):
    header, rows = run_csv(capsys, ["squeezed", "--n-sig", "10",
                                    "--eta", "0.5"])
    row = dict(zip(header, rows[0]))
    assert row["v_opt"] == pytest.approx(0.17751743210955348, rel=1e-15)
    header, rows = run_csv(capsys, ["squeezed", "--alpha", "10",
                                    "--v-sqz", "0.1", "--eta", "1"])
    assert rows[0][0] == pytest.approx(0.015811388300841896, rel=1e-15)


def test_condition_roundtrip(capsys):
    header, rows = run_csv(capsys, ["condition", "--side", "detector",
                                    "--detector", "bucket", "--eta", "0.1"])
    assert header == ["n_photons", "pmf_eta_0.1"]
    # hand value: p(N=1 | click) for eps = 0.5, eta = 0.1
    assert rows[1, 1] == pytest.approx(0.275, abs=1e-3)


def test_simulate_hom_exact_zero(capsys):
    header, rows = run_csv(capsys, ["simulate", "hom"])
    assert dict(zip(header, rows[0]))["cross_coincidence_rate"] == 0.0


def test_validation_exit_codes(capsys):
    assert run(["limits"]) == 2                      # missing required flag
    capsys.readouterr()
    assert run(["no-such-command"]) == 2             # unknown command
    capsys.readouterr()
    assert run(["noon", "--threshold"]) == 2         # missing --n
    assert "requires --n" in capsys.readouterr().err
    assert run(["squeezed", "--n-sig", "0.5", "--v-sqz", "0.1",
                "--eta", "0.9"]) == 2                # infeasible budget
    capsys.readouterr()
    assert run(["simulate", "homodyne", "--alpha", "2"]) == 2  # bright gate
    capsys.readouterr()
    assert run(["figure", "fig-limits", "--epsilon", "0.3"]) == 2
    err = capsys.readouterr().err
    assert "fig-conditional" in err


def test_runtime_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = run(["limits", "--n-sig", "25",
                "--out", str(blocker / "sub" / "x.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_out_file_written(tmp_path):
    target = tmp_path / "limits.csv"
    assert run(["limits", "--n-sig", "25", "--out", str(target)]) == 0
    header, rows = parse_csv(target.read_text())
    assert dict(zip(header, rows[0]))["sql_sample"] == 0.1
    assert [p.name for p in tmp_path.iterdir()] == ["limits.csv"]


def test_out_dir_env_resolves_relative(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    assert run(["noon", "--n", "3", "--threshold", "--out", "t.csv"]) == 0
    assert (tmp_path / "t.csv").exists()
    # absolute paths ignore the env override
    other = tmp_path / "abs" / "t2.csv"
    assert run(["noon", "--n", "3", "--threshold", "--out", str(other)]) == 0
    assert other.exists()


def test_simulate_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "mz", "--trials", "2000", "--n0", "1000"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a different seed must change the bytes
    c = tmp_path / "c.csv"
    assert run(argv + ["--seed", "7", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_figure_command(tmp_path):
    out = tmp_path / "noon.json"
    assert run(["figure", "fig-noon-loss", "--format", "json",
                "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["figure_id"] == "noon-optimal-size"
    assert len(obj["axes"][0]["values"]) == 99


def test_figure_conditional_flags(capsys):
    header, rows = run_csv(capsys, ["figure", "fig-conditional",
                                    "--side", "probe",
                                    "--detector", "bucket"])
    assert header[0] == "n_photons"
    assert any(h.startswith("pmf_eta_") for h in header[1:])


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qoptkit.cli", "limits", "--n-sig", "25"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sql_sample" in proc.stdout


def test_probe_bucket_near_unit_epsilon_is_fast():
    # the thinned click-conditioned prior is closed form: 36 826 rows here
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qoptkit.cli", "condition", "--side", "probe",
         "--detector", "bucket", "--epsilon", "0.999"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 36_826
    assert elapsed < 5.0


def test_oversized_support_refused_before_allocating(capsys):
    # the eta = 1 column alone would hold 36.8 M entries
    tracemalloc.start()
    try:
        code = run(["condition", "--side", "probe", "--detector", "bucket",
                    "--epsilon", "0.999999"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "over the limit of 2097152" in err
    assert peak < 10 * 2**20


@pytest.mark.parametrize("argv", (
    ["condition", "--n-det", "100000000"],
    ["figure", "fig-conditional", "--n-det", "100000000"],
))
def test_n_det_support_refused_before_allocating(argv, capsys):
    # the number-resolving probe pmf would hold n_det + 1 entries (763 MiB)
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "over the limit of 2097152" in err
    assert peak < 10 * 2**20


# Fit results that a Levenberg-Marquardt least-squares fit (scipy's
# curve_fit, from the same start point) gives on these seeded samples.
@pytest.mark.parametrize("extra, period, visibility, offset", [
    ([], 3.141898813952725, 1.005697888094781, 0.4991382774109278),
    (["--trials", "2000"], 3.1391452044971446, 1.000351216086686,
     0.500412296471261),
])
def test_noon_fringe_fit_pinned(capsys, extra, period, visibility, offset):
    assert run(["simulate", "noon-fringe", "--format", "json", *extra]) == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    assert meta["fitted_period"] == pytest.approx(period, rel=1e-6)
    assert meta["fitted_visibility"] == pytest.approx(visibility, rel=1e-6)
    assert meta["fitted_offset"] == pytest.approx(offset, rel=1e-6)

import csv
import json
import math

import numpy as np
import pytest

from ramphop import Boundary, ConvergenceError, LatticeParams, build_hamiltonian
from ramphop.cli import main
from ramphop.eigen import RESIDUAL_RTOL


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSpectrumCommand:
    def test_integer_split_counts_in_file(self, tmp_path):
        out = tmp_path / "run"
        assert run(["spectrum", "--gamma", "0.02", "--length", "100", "--out", out]) == 0
        rows = read_csv(tmp_path / "run_spectrum.csv")
        assert len(rows) == 100
        assert sum(r["class"] == "real" for r in rows) == 50
        assert sum(r["class"] == "imaginary" for r in rows) == 50
        blocks = read_csv(tmp_path / "run_blocks.csv")
        assert len(blocks) == 100
        assert all(b["matched"] == "1" for b in blocks)

    def test_reciprocal_four_site_closed_form(self, tmp_path):
        out = tmp_path / "tiny"
        assert run(["spectrum", "--gamma", "0", "--length", "4", "--out", out]) == 0
        rows = read_csv(tmp_path / "tiny_spectrum.csv")
        got = sorted(float(r["re"]) for r in rows)
        expected = sorted(
            2.0 * math.cos(n * math.pi / 5.0) for n in range(1, 5)
        )
        assert np.allclose(got, expected, atol=1e-12)

    def test_mismatch_flag_for_coupled_blocks(self, tmp_path):
        out = tmp_path / "c"
        assert run(
            ["spectrum", "--gamma", "0.07", "--length", "100", "--format", "json", "--out", out]
        ) == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["regime"] == {"kind": "non_integer_split", "split": 14}
        assert doc["blocks"]["mismatch"] is True
        assert len(doc["eigenvalues"]) == 100

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["spectrum", "--gamma", "0.011", "--length", "60", "--out", out, "--seed", "5"]) == 0
        assert (tmp_path / "a_spectrum.csv").read_bytes() == (tmp_path / "b_spectrum.csv").read_bytes()

    def test_csv_and_json_encode_identical_values(self, tmp_path):
        out = tmp_path / "dual"
        run(["spectrum", "--gamma", "0.02", "--length", "60", "--out", out])
        run(["spectrum", "--gamma", "0.02", "--length", "60", "--format", "json", "--out", out])
        rows = read_csv(tmp_path / "dual_spectrum.csv")
        doc = json.loads((tmp_path / "dual.json").read_text())
        for row, entry in zip(rows, doc["eigenvalues"]):
            assert abs(float(row["re"]) - entry["re"]) <= 1e-12
            assert abs(float(row["im"]) - entry["im"]) <= 1e-12
            assert row["class"] == entry["class"]

    def test_long_ring_converges(self, tmp_path):
        out = tmp_path / "ring"
        assert run(
            ["spectrum", "--boundary", "pbc", "--gamma", "0.011", "--length", "200", "--out", out]
        ) == 0
        rows = read_csv(tmp_path / "ring_spectrum.csv")
        assert len(rows) == 200
        params = LatticeParams(t=1.0, gamma=0.011, length=200, boundary=Boundary.PBC)
        tol = RESIDUAL_RTOL * build_hamiltonian(params).frobenius_norm()
        assert max(float(r["residual"]) for r in rows) <= tol


class TestSweepCommand:
    def test_single_point_grid_matches_spectrum_command(self, tmp_path):
        run(["spectrum", "--gamma", "0.25", "--length", "12", "--out", tmp_path / "s"])
        run(
            [
                "sweep", "--gamma-min", "0.25", "--gamma-max", "0.25", "--gamma-steps", "1",
                "--length", "12", "--workers", "1", "--out", tmp_path / "w",
            ]
        )
        spec_rows = read_csv(tmp_path / "s_spectrum.csv")
        sweep_rows = read_csv(tmp_path / "w_sweep.csv")
        assert len(sweep_rows) == len(spec_rows) == 12
        spec_sorted = sorted((float(r["re"]), float(r["im"])) for r in spec_rows)
        sweep_sorted = sorted((float(r["re"]), float(r["im"])) for r in sweep_rows)
        assert np.allclose(spec_sorted, sweep_sorted, atol=1e-12)

    def test_imaginary_count_monotone_and_saturating(self, tmp_path):
        run(
            [
                "sweep", "--gamma-min", "0", "--gamma-max", "1.2", "--gamma-steps", "13",
                "--length", "40", "--workers", "1", "--out", tmp_path / "mono",
            ]
        )
        rows = read_csv(tmp_path / "mono_sweep.csv")
        by_gamma = {}
        for r in rows:
            by_gamma[float(r["gamma"])] = int(r["n_imaginary"])
        gammas = sorted(by_gamma)
        assert by_gamma[gammas[0]] == 0
        assert by_gamma[gammas[-1]] == 40
        assert all(by_gamma[a] <= by_gamma[b] for a, b in zip(gammas, gammas[1:]))

    def test_parallel_equals_serial(self, tmp_path):
        base = ["sweep", "--gamma-min", "0", "--gamma-max", "0.05", "--gamma-steps", "5",
                "--length", "30"]
        run(base + ["--workers", "1", "--out", tmp_path / "ser"])
        run(base + ["--workers", "3", "--out", tmp_path / "par"])
        assert (tmp_path / "ser_sweep.csv").read_bytes() == (tmp_path / "par_sweep.csv").read_bytes()

    def test_json_rows_match_csv(self, tmp_path):
        base = ["sweep", "--gamma-min", "0", "--gamma-max", "0.05", "--gamma-steps", "4",
                "--length", "20", "--workers", "1"]
        run(base + ["--out", tmp_path / "x"])
        run(base + ["--format", "json", "--out", tmp_path / "x"])
        rows = read_csv(tmp_path / "x_sweep.csv")
        doc = json.loads((tmp_path / "x.json").read_text())
        assert len(doc["rows"]) == len(rows)
        for r_csv, r_json in zip(rows, doc["rows"]):
            assert abs(float(r_csv["re"]) - r_json["re"]) <= 1e-12
            assert int(r_csv["n_imaginary"]) == r_json["n_imaginary"]


class TestStatesCommand:
    def test_imaginary_selection_profiles(self, tmp_path):
        out = tmp_path / "st"
        assert run(
            ["states", "--gamma", "0.011", "--length", "100", "--select", "imag", "--out", out]
        ) == 0
        rows = read_csv(tmp_path / "st_states.csv")
        assert len(rows) == 10 * 100
        summary = read_csv(tmp_path / "st_summary.csv")
        assert len(summary) == 10
        assert all(r["class"] == "imaginary" for r in summary)
        env = read_csv(tmp_path / "st_envelope.csv")
        assert len(env) == 100

    def test_nearest_selection_picks_one_state(self, tmp_path):
        out = tmp_path / "near"
        assert run(
            [
                "states", "--gamma", "0.011", "--length", "100",
                "--select", "nearest=0,0.6864", "--out", out,
            ]
        ) == 0
        summary = read_csv(tmp_path / "near_summary.csv")
        assert len(summary) == 1
        assert float(summary[0]["eigen_im"]) == pytest.approx(0.6864, abs=1e-3)
        assert float(summary[0]["env_center"]) == pytest.approx(32.0, abs=1.0)

    def test_bad_selection_is_an_argument_error(self, tmp_path):
        assert run(
            ["states", "--gamma", "0.01", "--length", "20", "--select", "bogus", "--out", tmp_path / "x"]
        ) == 2

    def test_json_document_carries_states_and_envelope(self, tmp_path):
        out = tmp_path / "doc"
        assert run(
            [
                "states", "--gamma", "0.011", "--length", "100",
                "--select", "imag", "--format", "json", "--out", out,
            ]
        ) == 0
        doc = json.loads((tmp_path / "doc.json").read_text())
        assert doc["config"]["select"] == "imag"
        assert len(doc["states"]) == 10
        assert len(doc["states"][0]["amplitudes"]) == 100
        env = doc["analysis"]["envelopes"]
        assert len(env["global"]) == 100
        assert env["fit"]["width"] > 0.0


class TestWindingCommand:
    def test_summary_line_and_trace(self, tmp_path):
        out = tmp_path / "w"
        assert run(
            [
                "winding", "--gamma", "0.001", "--length", "100", "--boundary", "pbc",
                "--base-re", "0", "--base-im", "0", "--out", out,
            ]
        ) == 0
        lines = (tmp_path / "w_winding.csv").read_text().splitlines()
        assert lines[0] == "theta,det_log_abs,det_phase"
        assert len(lines) == 1 + 257 + 1
        assert lines[-1].startswith("# winding=1 point_gap=true")

    def test_open_chain_is_invalid(self, tmp_path):
        assert run(
            ["winding", "--gamma", "0.001", "--length", "100", "--out", tmp_path / "w2"]
        ) == 2

    def test_base_point_on_spectrum_exit_code(self, tmp_path):
        base = 2.0 * math.cos(2.0 * math.pi * 16 / 64)
        assert run(
            [
                "winding", "--gamma", "0", "--length", "64", "--boundary", "pbc",
                "--base-re", base, "--base-im", "0", "--out", tmp_path / "w3",
            ]
        ) == 4

    def test_json_trace_matches_csv(self, tmp_path):
        base = ["winding", "--gamma", "0.001", "--length", "60", "--boundary", "pbc",
                "--base-re", "0", "--base-im", "0", "--theta-steps", "64"]
        run(base + ["--out", tmp_path / "w"])
        run(base + ["--format", "json", "--out", tmp_path / "w"])
        lines = (tmp_path / "w_winding.csv").read_text().splitlines()
        doc = json.loads((tmp_path / "w.json").read_text())
        wind = doc["analysis"]["winding"]
        assert f"# winding={wind['value']}" in lines[-1]
        assert len(wind["theta"]) == len(lines) - 2  # header and summary line
        first = lines[1].split(",")
        assert abs(float(first[1]) - wind["det_log_abs"][0]) <= 1e-12


class TestFigureCommand:
    def test_unknown_panel_is_invalid(self, tmp_path):
        assert run(["figure", "zz", "--out", tmp_path / "f"]) == 2

    def test_block_overlay_panel(self, tmp_path):
        assert run(["figure", "1b", "--out", tmp_path / "f1b"]) == 0
        made = {p.name for p in (tmp_path / "f1b").iterdir()}
        assert made == {"1b_obc_spectrum.csv", "1b_obc_blocks.csv", "1b_params.json"}
        params = json.loads((tmp_path / "f1b" / "1b_params.json").read_text())
        assert params["gamma"] == 0.02 and params["length"] == 100

    def test_bound_state_panel_parameters(self, tmp_path):
        assert run(["figure", "3b", "--out", tmp_path / "f3b"]) == 0
        params = json.loads((tmp_path / "f3b" / "3b_params.json").read_text())
        assert params["gamma"] == 0.011
        made = {p.name for p in (tmp_path / "f3b").iterdir()}
        assert "3b_pbc_spectrum.csv" in made
        assert "3b_obc_states.csv" in made


def test_sweep_records_failed_points_and_continues(tmp_path, monkeypatch):
    import ramphop.cli as cli

    real_solve = cli.solve_spectrum

    def flaky(params, *args, **kwargs):
        if abs(params.gamma - 0.02) < 1e-12:
            raise ConvergenceError("injected failure")
        return real_solve(params, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_spectrum", flaky)
    assert run(
        [
            "sweep", "--gamma-min", "0.01", "--gamma-max", "0.03", "--gamma-steps", "3",
            "--length", "20", "--workers", "1", "--out", tmp_path / "flaky",
        ]
    ) == 0
    rows = read_csv(tmp_path / "flaky_sweep.csv")
    failed = [r for r in rows if r["class"] == "failed"]
    assert len(failed) == 1
    assert float(failed[0]["gamma"]) == pytest.approx(0.02)
    assert failed[0]["eigen_index"] == "-1"
    healthy = [r for r in rows if r["class"] != "failed"]
    assert len(healthy) == 2 * 20


def test_convergence_failures_exit_three(tmp_path, monkeypatch):
    import ramphop.cli as cli

    def boom(*args, **kwargs):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(cli, "solve_spectrum", boom)
    assert run(["spectrum", "--gamma", "0.01", "--length", "20", "--out", tmp_path / "x"]) == 3


def test_invalid_length_exit_two(tmp_path):
    assert run(["spectrum", "--gamma", "0.01", "--length", "1", "--out", tmp_path / "x"]) == 2

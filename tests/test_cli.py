import csv
import json
import math
import re

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
            assert run(["spectrum", "--gamma", "0.011", "--length", "60", "--out", out]) == 0
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

    def test_snapped_integer_split_exits_zero(self, tmp_path):
        # |t/gamma| = 7 within the regime's 1e-12 while the split bond product
        # is -1.6e-16: the levels of the matrix as built meet the tolerance
        args = ["--t", "0.7", "--gamma", "0.1", "--length", "100"]
        assert run(["spectrum", *args, "--out", tmp_path / "s"]) == 0

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


class TestLongOpenChains:
    def test_integer_split_residuals_are_finite_and_small(self, tmp_path):
        out = tmp_path / "split"
        assert run(["spectrum", "--gamma", "0.01", "--length", "1000", "--out", out]) == 0
        rows = read_csv(tmp_path / "split_spectrum.csv")
        assert len(rows) == 1000
        params = LatticeParams(t=1.0, gamma=0.01, length=1000)
        tol = RESIDUAL_RTOL * build_hamiltonian(params).frobenius_norm()
        residuals = np.array([float(r["residual"]) for r in rows])
        assert np.all(residuals <= tol)  # a nan residual fails this too

    def test_coupled_chain_converges(self, tmp_path):
        out = tmp_path / "coupled"
        assert run(["spectrum", "--gamma", "0.00123", "--length", "1000", "--out", out]) == 0

    @pytest.mark.parametrize("gamma", ["0.0007", "0.0008"])
    def test_chain_past_the_gauge_range_runs_clean(self, tmp_path, capsys, gamma):
        # at L = 1500 the gauge at the split underflows; coupled (0.0007) and
        # split at site 1250 (0.0008), neither solve may touch it
        args = ["--gamma", gamma, "--length", "1500"]
        assert run(["spectrum", *args, "--out", tmp_path / "long"]) == 0
        assert capsys.readouterr().err == ""


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

    def test_empty_grid_is_an_argument_error(self, tmp_path, capsys):
        assert run(["sweep", "--gamma-steps", "0", "--length", "10", "--out", tmp_path / "x"]) == 2
        assert "at least one point" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    def test_each_selection_writes_the_summary_rows_of_select_all(self, tmp_path):
        # a state's summary does not depend on which other states it is solved with
        def summary(select):
            out = tmp_path / select.replace("=", "_").replace(",", "_")
            argv = ["states", "--gamma", "0.011", "--length", "100", "--select", select]
            assert run([*argv, "--out", out]) == 0
            rows = read_csv(f"{out}_summary.csv")
            return [{k: v for k, v in row.items() if k != "state_id"} for row in rows]

        every = {(row["eigen_re"], row["eigen_im"]): row for row in summary("all")}
        assert len(every) == 100
        for select, count in (("real", 90), ("imag", 10), ("nearest=0,0.6864", 1)):
            rows = summary(select)
            assert len(rows) == count
            for row in rows:
                assert row == every[(row["eigen_re"], row["eigen_im"])]

    def test_bad_selection_is_an_argument_error(self, tmp_path):
        assert run(
            ["states", "--gamma", "0.01", "--length", "20", "--select", "bogus", "--out", tmp_path / "x"]
        ) == 2

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            (["--gamma", "0.01", "--length", "20", "--select", "nearest=1"], "bad selection"),
            (["--gamma", "0.001", "--length", "100", "--select", "imag"], "matched no states"),
        ],
        ids=["nearest-without-imaginary-part", "no-imaginary-levels"],
    )
    def test_unusable_selection_exits_two(self, tmp_path, capsys, args, message):
        assert run(["states", *args, "--out", tmp_path / "x"]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_narrow_envelope_has_no_fit(self, tmp_path):
        # four sites leave the global envelope fewer than five support sites
        out = tmp_path / "tiny"
        assert run(
            ["states", "--gamma", "0.3", "--length", "4", "--format", "json", "--out", out]
        ) == 0
        env = json.loads((tmp_path / "tiny.json").read_text())["analysis"]["envelopes"]
        assert len(env["global"]) == 4
        assert env["fit"] is None and env["fit_at_peak"] is None

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

    def test_open_chain_is_invalid(self, tmp_path, capsys):
        assert run(
            ["winding", "--gamma", "0.001", "--length", "100", "--boundary", "obc",
             "--out", tmp_path / "w2"]
        ) == 2
        assert "winding is defined for the ring" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_the_ring_is_the_default(self, tmp_path):
        argv = ["winding", "--gamma", "0.011", "--length", "100", "--base-re", "0.3",
                "--base-im", "0.1"]
        assert run([*argv, "--out", tmp_path / "default"]) == 0
        assert run([*argv, "--boundary", "pbc", "--out", tmp_path / "pbc"]) == 0
        assert (tmp_path / "default_winding.csv").read_bytes() == (
            tmp_path / "pbc_winding.csv"
        ).read_bytes()

    def test_small_ring_winds_as_at_unit_scale(self, tmp_path):
        assert run(
            [
                "winding", "--t", "1e-12", "--gamma", "1e-15", "--length", "100",
                "--boundary", "pbc", "--base-re", "0", "--base-im", "0", "--out", tmp_path / "w",
            ]
        ) == 0
        lines = (tmp_path / "w_winding.csv").read_text().splitlines()
        assert lines[-1].startswith("# winding=1 point_gap=true")

    def test_base_point_on_spectrum_exit_code(self, tmp_path):
        base = 2.0 * math.cos(2.0 * math.pi * 16 / 64)
        assert run(
            [
                "winding", "--gamma", "0", "--length", "64", "--boundary", "pbc",
                "--base-re", base, "--base-im", "0", "--out", tmp_path / "w3",
            ]
        ) == 4

    # base points near the levels of the ring t = 1, gamma = 0.1, L = 8
    SMALL_RING = ["winding", "--gamma", "0.1", "--length", "8", "--boundary", "pbc",
                  "--theta-steps", "64"]

    def test_refined_grid_is_recorded(self, tmp_path):
        assert run(
            [*self.SMALL_RING, "--base-re", "1.9657382117557085",
             "--base-im", "0.005717641955583832", "--out", tmp_path / "w"]
        ) == 0
        lines = (tmp_path / "w_winding.csv").read_text().splitlines()
        assert len(lines) == 1 + 129 + 1
        assert lines[-1].startswith("# winding=1 point_gap=true")
        assert lines[-1].endswith(" theta_steps=128")

    def test_phase_jump_after_refinement_exit_code(self, tmp_path, capsys):
        assert run(
            [*self.SMALL_RING, "--base-re", "1.9684089640203957",
             "--base-im", "8.41470984810117e-05", "--out", tmp_path / "w"]
        ) == 4
        assert "phase jumps persist" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    # The command lines each panel's params file lists, in its order.
    PANEL_COMMANDS = {
        "3b": [
            ["spectrum", "--gamma", "0.011", "--length", "100", "--out", "3b_obc"],
            ["spectrum", "--boundary", "pbc", "--gamma", "0.011", "--length", "100",
             "--out", "3b_pbc"],
            ["states", "--gamma", "0.011", "--length", "100", "--select", "all",
             "--out", "3b_obc"],
        ],
        "2f": [
            ["states", "--boundary", "pbc", "--gamma", "0.001", "--length", "100",
             "--select", "all", "--out", "2f_pbc"],
        ],
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("panel", ["3b", "2f"])
    def test_panel_is_the_commands_it_lists(self, tmp_path, panel, fmt):
        assert run(["figure", panel, "--format", fmt, "--out", tmp_path / "fig"]) == 0
        by_hand = tmp_path / "cmd"
        by_hand.mkdir()
        for argv in self.PANEL_COMMANDS[panel]:
            argv = argv[:-1] + [by_hand / argv[-1], "--format", fmt]
            assert run(argv) == 0
        figure_files = {p.name for p in (tmp_path / "fig").iterdir()}
        assert figure_files - {f"{panel}_params.json"} == {p.name for p in by_hand.iterdir()}
        for path in by_hand.iterdir():
            assert path.read_bytes() == (tmp_path / "fig" / path.name).read_bytes()


def test_states_document_extends_the_spectrum_document(tmp_path):
    # figure 3a in json writes its states document over the chain's spectrum
    # document; the block overlay survives
    assert run(["figure", "3a", "--format", "json", "--out", tmp_path / "fig"]) == 0
    args = ["--gamma", "0.01", "--length", "100", "--format", "json"]
    assert run(["spectrum", *args, "--out", tmp_path / "spec"]) == 0
    spectrum = json.loads((tmp_path / "spec.json").read_text())
    states = json.loads((tmp_path / "fig" / "3a_obc.json").read_text())
    assert list(states) == ["config", "regime", "eigenvalues", "analysis", "blocks", "states"]
    assert states["blocks"] == spectrum["blocks"]
    assert spectrum["blocks"]["mismatch"] is False
    for key in ("regime", "eigenvalues"):
        assert states[key] == spectrum[key]
    assert states["analysis"]["ladder"] == spectrum["analysis"]["ladder"]


def test_figure_writes_each_json_file_once(tmp_path, monkeypatch):
    import ramphop.io as rio

    real_write = rio.write_json
    written = []

    def counting(path, document):
        written.append(path.name)
        real_write(path, document)

    monkeypatch.setattr(rio, "write_json", counting)
    assert run(["figure", "3a", "--format", "json", "--out", tmp_path / "fig"]) == 0
    # the chain's states document holds its spectrum document, so the spectrum
    # line is not run to write 3a_obc.json first; the params file still lists it
    assert sorted(written) == ["3a_obc.json", "3a_params.json", "3a_pbc.json"]
    assert sorted(p.name for p in (tmp_path / "fig").iterdir()) == sorted(written)
    params = json.loads((tmp_path / "fig" / "3a_params.json").read_text())
    assert params["commands"] == ["obc spectrum", "pbc spectrum", "obc states (all)"]


@pytest.mark.parametrize(
    ("argv", "keys"),
    [
        (["spectrum", "--gamma", "0.01"], ["t", "gamma", "length", "boundary", "format"]),
        (
            ["sweep", "--gamma-steps", "1", "--workers", "1"],
            ["t", "length", "boundary", "format", "gamma_min", "gamma_max", "gamma_steps"],
        ),
        (
            ["states", "--gamma", "0.01"],
            ["t", "gamma", "length", "boundary", "format", "select"],
        ),
        (
            ["winding", "--gamma", "0.01", "--base-re", "0.3", "--theta-steps", "64"],
            ["t", "gamma", "length", "boundary", "format", "base_re", "base_im",
             "theta_steps"],
        ),
    ],
    ids=["spectrum", "sweep", "states", "winding"],
)
def test_config_keys_and_their_order(tmp_path, argv, keys):
    # output path and worker count do not describe the run
    assert run([*argv, "--length", "10", "--format", "json", "--out", tmp_path / "x"]) == 0
    config = json.loads((tmp_path / "x.json").read_text())["config"]
    assert list(config) == keys
    assert config["length"] == 10 and config["format"] == "json"
    assert config.get("gamma", 0.01) == 0.01


def test_sweep_takes_no_single_gamma(tmp_path, capsys):
    # sweep scans its gamma grid; a lone --gamma is ambiguous with --gamma-min/-max/-steps
    with pytest.raises(SystemExit) as exit_info:
        run(["sweep", "--gamma", "0.01", "--gamma-steps", "1", "--out", tmp_path / "s"])
    assert exit_info.value.code == 2
    assert "ambiguous option: --gamma" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit) as exit_info:
        run(["sweep", "--help"])
    assert exit_info.value.code == 0
    assert set(re.findall(r"--gamma[-\w]*", capsys.readouterr().out)) == {
        "--gamma-min", "--gamma-max", "--gamma-steps"
    }


def test_figure_solves_each_chain_once_per_call(tmp_path, monkeypatch):
    import ramphop.cli as cli

    real_solve = cli.solve_spectrum
    solved = []

    def counting(params, *args, **kwargs):
        solved.append(params)
        return real_solve(params, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_spectrum", counting)
    chain = LatticeParams(t=1.0, gamma=0.01, length=100)
    ring = LatticeParams(t=1.0, gamma=0.01, length=100, boundary=Boundary.PBC)
    # panel 3a runs spectrum and states on the chain and spectrum on the ring
    assert run(["figure", "3a", "--out", tmp_path / "first"]) == 0
    assert (solved.count(chain), solved.count(ring)) == (1, 1)
    # nothing is kept between calls: a repeated panel solves again
    assert run(["figure", "3a", "--out", tmp_path / "second"]) == 0
    assert (solved.count(chain), solved.count(ring)) == (2, 2)


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


def test_sweep_records_lapack_failure_as_a_failed_row(tmp_path, monkeypatch):
    import ramphop.cli as cli

    real_solve = cli.solve_spectrum

    def no_convergence_at_002(params, *args, **kwargs):
        if abs(params.gamma - 0.02) < 1e-12:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_solve(params, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_spectrum", no_convergence_at_002)
    assert run(
        [
            "sweep", "--gamma-min", "0.01", "--gamma-max", "0.03", "--gamma-steps", "3",
            "--length", "20", "--workers", "1", "--out", tmp_path / "lapack",
        ]
    ) == 0
    rows = read_csv(tmp_path / "lapack_sweep.csv")
    failed = [r for r in rows if r["class"] == "failed"]
    assert [float(r["gamma"]) for r in failed] == [pytest.approx(0.02)]
    assert len(rows) == 1 + 2 * 20


def test_lapack_non_convergence_exits_three(tmp_path, monkeypatch, capsys):
    import ramphop.cli as cli

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "solve_spectrum", boom)
    assert run(["spectrum", "--gamma", "0.01", "--length", "20", "--out", tmp_path / "x"]) == 3
    assert "Eigenvalues did not converge" in capsys.readouterr().err


def test_convergence_failures_exit_three(tmp_path, monkeypatch):
    import ramphop.cli as cli

    def boom(*args, **kwargs):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(cli, "solve_spectrum", boom)
    assert run(["spectrum", "--gamma", "0.01", "--length", "20", "--out", tmp_path / "x"]) == 3


def test_exit_three_names_the_failed_solve(tmp_path, monkeypatch, capsys):
    import ramphop.cli as cli

    real_solve = cli.solve_spectrum

    def one_flagged(params, *args, **kwargs):
        spec = real_solve(params, *args, **kwargs)
        spec.unconverged[3] = True
        return spec

    monkeypatch.setattr(cli, "solve_spectrum", one_flagged)
    for command in ("spectrum", "states"):
        out = tmp_path / command
        assert run([command, "--gamma", "0.01", "--length", "20", "--out", out]) == 3
        err = capsys.readouterr().err
        assert "1 of 20 eigenpairs" in err
        assert "gamma=0.01" in err and "L=20" in err and "boundary=obc" in err


def test_invalid_length_exit_two(tmp_path):
    assert run(["spectrum", "--gamma", "0.01", "--length", "1", "--out", tmp_path / "x"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--gamma", "1e152", "--length", "100"],
        ["spectrum", "--gamma", "1e153", "--length", "100", "--boundary", "pbc"],
        ["spectrum", "--gamma", "1e308", "--length", "5"],
        ["sweep", "--gamma-max", "1e152", "--length", "100", "--workers", "1"],
        ["spectrum", "--gamma", "0.01", "--length", str(10**400)],
    ],
)
def test_overflowing_parameters_exit_two(tmp_path, args, capsys):
    # 2L (|t| + |gamma| L)^2 is not a finite float, so ||H||_F could overflow
    assert run([*args, "--out", tmp_path / "x"]) == 2
    assert "overflow" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("boundary", ["obc", "pbc"])
def test_large_finite_parameters_still_solve(tmp_path, boundary):
    args = ["--gamma", "1e150", "--length", "5", "--boundary", boundary]
    assert run(["spectrum", *args, "--out", tmp_path / "x"]) == 0


@pytest.mark.parametrize("command", ["spectrum", "states"])
@pytest.mark.parametrize("scale", ["1e150", "1e-85"])
def test_coupled_chain_at_extreme_scale_solves(tmp_path, command, scale):
    # t / gamma = 2.5: bond products near 1e301 and 1e-169, whose pair
    # products leave float range
    args = ["--t", f"2.5{scale[1:]}", "--gamma", scale, "--length", "5"]
    assert run([command, *args, "--out", tmp_path / "x"]) == 0

import csv
import io
import itertools
import json
import math

import pytest

from seqpol import SetupParams, cli, harness, instrument
from seqpol.cli import (
    LGI_COLUMNS,
    RECONSTRUCT_COLUMNS,
    SWEEP_COLUMNS,
    UsageError,
    emit,
    main,
    parse_config,
    render_csv,
)

EXPECTED_HEADER = (
    "theta_deg,p_error,p_pp,p_pm,p_mp,p_mm,aopt_m1_plus,aopt_m1_minus,"
    "aopt_pp,aopt_pm,aopt_mp,aopt_mm,eps_eigen,eps_opt_m1,eps_opt_m1m2"
)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def read_rows_json(path):
    """Re-parse a JSON artifact; floats round-trip bit-exactly."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(["sweep"])
        assert config.command == "sweep"
        assert len(config.theta_grid) == 46
        assert config.theta_grid[0] == 0.0
        assert config.theta_grid[-1] == 22.5
        assert config.v_pm == 0.93
        assert config.v_hv == 0.9976
        assert config.input_angle_deg == 67.5
        assert config.fmt == "csv"

    def test_explicit_grid(self):
        config = parse_config(["sweep", "--theta-min", "0", "--theta-max", "22.5", "--steps", "46"])
        assert len(config.theta_grid) == 46
        assert config.theta_grid[1] == pytest.approx(0.5)

    def test_single_theta(self):
        config = parse_config(["lgi", "--theta", "12.5"])
        assert config.theta_grid == (12.5,)

    def test_theta_conflicts_with_grid(self):
        with pytest.raises(UsageError, match="--theta"):
            parse_config(["sweep", "--theta", "5", "--steps", "3"])

    def test_out_of_range_visibility_names_flag(self):
        with pytest.raises(UsageError, match="--v-pm"):
            parse_config(["sweep", "--v-pm", "1.2"])
        with pytest.raises(UsageError, match="--v-hv"):
            parse_config(["sweep", "--v-hv", "-0.5"])

    def test_config_file_applies_and_flags_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"v_pm": 0.95, "steps": 3}), encoding="utf-8")
        config = parse_config(["sweep", "--config", str(path)])
        assert config.v_pm == 0.95
        assert len(config.theta_grid) == 3
        config = parse_config(["sweep", "--config", str(path), "--v-pm", "0.9"])
        assert config.v_pm == 0.9

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"contrast": 0.9}), encoding="utf-8")
        with pytest.raises(UsageError, match="contrast"):
            parse_config(["sweep", "--config", str(path)])

    def test_config_file_range_checks_apply(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"v_hv": 2.0}), encoding="utf-8")
        with pytest.raises(UsageError, match="--v-hv"):
            parse_config(["sweep", "--config", str(path)])

    def test_montecarlo_options(self):
        config = parse_config(["montecarlo", "--n-photons", "1000", "--seed", "7"])
        assert config.n_photons == 1000
        assert config.seed == 7
        with pytest.raises(UsageError, match="--n-photons"):
            parse_config(["montecarlo", "--n-photons", "0"])

    def test_reconstruct_lambda(self):
        assert parse_config(["reconstruct"]).lam == 1.0
        assert parse_config(["reconstruct", "--lam", "0.2"]).lam == 0.2
        with pytest.raises(UsageError, match="--lam"):
            parse_config(["reconstruct", "--lam", "0"])

    def test_argparse_usage_exit_status(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["sweep", "--no-such-flag"])
        assert excinfo.value.code == 2


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--steps", "2", "--output", str(out)]) == 0

    def test_usage_error(self, capsys):
        assert main(["sweep", "--v-pm", "5"]) == 2
        assert "--v-pm" in capsys.readouterr().err

    def test_runtime_error_for_unwritable_path(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "rows.csv"
        assert main(["sweep", "--steps", "2", "--output", str(target)]) == 1
        assert "error" in capsys.readouterr().err

    def test_runtime_error_for_degenerate_reconstruction(self, capsys):
        # lam=1 with a diagonal eigenstate input leaves one branch empty
        assert main(["reconstruct", "--input-angle", "45", "--steps", "2"]) == 1


class TestSweepCommand:
    def test_header_is_pinned(self, tmp_path):
        out = tmp_path / "rows.csv"
        main(["sweep", "--steps", "3", "--output", str(out)])
        first_line = out.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == EXPECTED_HEADER
        assert ",".join(SWEEP_COLUMNS) == EXPECTED_HEADER

    def test_zero_strength_row_depends_only_on_m2(self, tmp_path):
        out = tmp_path / "rows.csv"
        main(["sweep", "--steps", "3", "--output", str(out)])
        row = read_csv(out)[0]
        assert row["theta_deg"] == "0.0"
        assert row["aopt_pp"] == row["aopt_mp"]
        assert row["aopt_pm"] == row["aopt_mm"]

    def test_perfect_instrument_error_column(self, tmp_path):
        out = tmp_path / "rows.csv"
        main(["sweep", "--v-pm", "1", "--v-hv", "1", "--output", str(out)])
        for row in read_csv(out):
            assert abs(float(row["eps_opt_m1m2"])) <= 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["sweep", "--output", str(first)])
        main(["sweep", "--output", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_output(self, capsys):
        main(["sweep", "--steps", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 3


class TestJsonRoundTrip:
    def test_rows_round_trip_bit_exactly(self, tmp_path):
        out = tmp_path / "rows.json"
        main(["sweep", "--steps", "5", "--format", "json", "--output", str(out)])
        rows = read_rows_json(str(out))
        assert len(rows) == 5
        assert list(rows[0]) == SWEEP_COLUMNS
        emit(rows, SWEEP_COLUMNS, "json", str(tmp_path / "again.json"))
        assert out.read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_json_mirrors_csv_schema(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        main(["sweep", "--steps", "4", "--output", str(csv_path)])
        main(["sweep", "--steps", "4", "--format", "json", "--output", str(json_path)])
        csv_rows = read_csv(csv_path)
        json_rows = read_rows_json(str(json_path))
        for csv_row, json_row in zip(csv_rows, json_rows):
            for key in SWEEP_COLUMNS:
                assert float(csv_row[key]) == json_row[key]


class TestEmit:
    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], SWEEP_COLUMNS, "csv", str(path))
        assert path.read_text(encoding="utf-8") == EXPECTED_HEADER + "\n"

    def test_unresolvable_cells_are_empty(self):
        record = {key: None for key in SWEEP_COLUMNS}
        record["theta_deg"] = 1.0
        text = render_csv([record], SWEEP_COLUMNS)
        assert text.splitlines()[1] == "1.0" + "," * (len(SWEEP_COLUMNS) - 1)

    def test_shortest_round_trip_decimals(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        text = render_csv([{"x": value}], ["x"])
        assert text.splitlines()[1] == repr(value)
        assert float(text.splitlines()[1]) == value


class TestCrossingsCommand:
    def test_perfect_visibility_root(self, tmp_path):
        out = tmp_path / "crossings.csv"
        main(["crossings", "--v-pm", "1.0", "--v-hv", "1.0", "--output", str(out)])
        rows = read_csv(out)
        assert [row["description"] for row in rows] == [
            "aopt[m1=-1] zero crossing",
            "aopt[m1=-1 m2=+1] overtakes aopt[m1=+1 m2=+1]",
        ]
        assert float(rows[0]["theta_deg"]) == pytest.approx(11.25, abs=0.01)

    def test_missing_crossing_is_empty_cell(self, tmp_path):
        out = tmp_path / "crossings.csv"
        main(["crossings", "--v-pm", "0.5", "--output", str(out)])
        rows = read_csv(out)
        assert rows[0]["theta_deg"] == ""

    @pytest.mark.parametrize("flags", [
        ["--input-angle", "0", "--v-pm", "1", "--v-hv", "1"],
        ["--input-angle", "45", "--v-pm", "1", "--v-hv", "1"],
        ["--input-angle", "22.5", "--v-pm", "1", "--v-hv", "1"],
        ["--input-angle", "0", "--v-pm", "0", "--v-hv", "1"],
    ])
    def test_vanishing_branch_probability_still_gives_rows(self, flags, capsys):
        # P(-1,-1) is zero somewhere on the grid for each of these inputs
        assert main(["crossings", *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(list(csv.DictReader(io.StringIO(captured.out)))) == 2

    @pytest.mark.parametrize("flags", [
        ["--input-angle", "45"],
        ["--input-angle", "-45", "--v-pm", "1", "--v-hv", "1"],
    ])
    def test_eigenstate_input_has_no_branch_swap(self, flags, capsys):
        # c_m = +-P(m) for a P or M input, so the swap gap is rounding noise
        assert main(["crossings", *flags]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[1]["theta_deg"] == ""


class TestReconstructCommand:
    def test_reconstruction_matches_oracle_everywhere(self, tmp_path):
        out = tmp_path / "recon.json"
        main(["reconstruct", "--steps", "8", "--format", "json", "--output", str(out)])
        rows = read_rows_json(str(out))
        assert list(rows[0]) == RECONSTRUCT_COLUMNS
        assert len(rows) == 8 * 4
        for row in rows:
            assert row["abs_diff"] < 1e-10

    def test_small_lambda_variant(self, tmp_path):
        out = tmp_path / "recon.json"
        main(["reconstruct", "--lam", "0.05", "--steps", "4", "--format", "json",
              "--output", str(out)])
        for row in read_rows_json(str(out)):
            assert row["abs_diff"] < 1e-10


class TestLgiCommand:
    def test_negativity_flag_tracks_strength(self, tmp_path):
        out = tmp_path / "lgi.csv"
        main(["lgi", "--output", str(out)])
        rows = read_csv(out)
        assert list(rows[0]) == LGI_COLUMNS
        by_theta = {float(row["theta_deg"]): row for row in rows}
        assert by_theta[0.0]["negativity"] == "true"
        assert by_theta[22.5]["negativity"] == "false"

    def test_marginals_sum_to_outcome_probabilities(self, tmp_path):
        lgi_path = tmp_path / "lgi.json"
        sweep_path = tmp_path / "sweep.json"
        main(["lgi", "--steps", "6", "--format", "json", "--output", str(lgi_path)])
        main(["sweep", "--steps", "6", "--format", "json", "--output", str(sweep_path)])
        for lgi_row, sweep_row in zip(read_rows_json(str(lgi_path)), read_rows_json(str(sweep_path))):
            for suffix in ("pp", "pm", "mp", "mm"):
                q_sum = lgi_row["q_plus_" + suffix] + lgi_row["q_minus_" + suffix]
                assert q_sum == pytest.approx(sweep_row["p_" + suffix], abs=1e-12)


class TestMonteCarloCommand:
    def test_deterministic_and_close_to_analytic(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["montecarlo", "--theta", "10", "--n-photons", "200000", "--seed", "7"]
        main(argv + ["--output", str(first)])
        main(argv + ["--output", str(second)])
        assert first.read_bytes() == second.read_bytes()
        row = read_csv(first)[0]
        exact = harness.row_as_dict(harness.analytic_row(SetupParams(10.0)))
        assert float(row["aopt_m1_plus"]) == pytest.approx(exact["aopt_m1_plus"], abs=0.02)
        assert float(row["eps_opt_m1m2"]) == pytest.approx(exact["eps_opt_m1m2"], abs=0.02)

    def test_grid_uses_distinct_seeds(self, tmp_path):
        out = tmp_path / "mc.csv"
        main(["montecarlo", "--theta-min", "5", "--theta-max", "5", "--steps", "2",
              "--n-photons", "10000", "--seed", "3", "--output", str(out)])
        rows = read_csv(out)
        assert rows[0] != rows[1]


class TestPovmBuilds:
    """Each strength setting builds its sequential POVM once."""

    @pytest.fixture
    def built(self, monkeypatch):
        thetas = []

        def counting(params):
            thetas.append(params.theta_deg)
            return instrument_povm(params)

        instrument_povm = instrument.sequential_povm
        for module in (instrument, harness, cli):
            monkeypatch.setattr(module, "sequential_povm", counting)
        return thetas

    @pytest.mark.parametrize("command", ["sweep", "lgi", "reconstruct", "montecarlo"])
    def test_one_build_per_grid_point(self, command, built, capsys):
        extra = ["--n-photons", "100"] if command == "montecarlo" else []
        assert main([command, "--input-angle", "10", *extra]) == 0
        assert built == list(parse_config([command]).theta_grid)

    def test_eigenstate_crossings_scan_the_grid_once(self, built, capsys):
        assert main(["crossings", "--input-angle", "45"]) == 0
        assert len(built) == 46

    @pytest.mark.parametrize("flags", [[], ["--v-pm", "1", "--v-hv", "1"]])
    def test_crossings_build_at_grid_points_and_new_midpoints(self, flags, built, capsys):
        assert main(["crossings", *flags]) == 0
        grid = parse_config(["crossings"]).theta_grid
        assert built[: len(grid)] == list(grid)
        midpoints = built[len(grid):]
        # each of the two roots halves a 0.5 degree cell down to the tolerance
        steps = math.ceil(math.log2(0.5 / harness.BISECTION_TOL_DEG))
        assert 0 < len(midpoints) <= 2 * steps
        assert not set(midpoints) & set(grid)

    def test_one_build_per_monte_carlo_call(self, built):
        harness.monte_carlo_counts(SetupParams(5.0), 67.5, 100, rng_seed=1)
        assert built == [5.0]


EDGE_GRIDS = (["--steps", "6"], ["--theta", "0"], ["--theta", "22.5"])
EDGE_VISIBILITIES = list(itertools.product(("0", "0.93", "1"), ("0", "1")))


def assert_rows_or_one_error_line(argv, status, captured):
    if status == 0:
        assert captured.err == "", argv
        assert len(list(csv.DictReader(io.StringIO(captured.out)))) >= 1, argv
    else:
        assert status in (1, 2), argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), argv


@pytest.mark.parametrize("command", ["sweep", "crossings", "montecarlo", "reconstruct", "lgi"])
@pytest.mark.parametrize("angle", ["0", "45", "-45", "22.5", "90", "67.5"])
def test_edge_inputs_give_rows_or_one_error_line(command, angle, capsys):
    extra = ["--n-photons", "1"] if command == "montecarlo" else []
    for grid, (v_pm, v_hv) in itertools.product(EDGE_GRIDS, EDGE_VISIBILITIES):
        argv = [command, "--input-angle", angle, "--v-pm", v_pm, "--v-hv", v_hv, *grid, *extra]
        assert_rows_or_one_error_line(argv, main(argv), capsys.readouterr())


@pytest.mark.parametrize("argv, expected_status", [
    (["montecarlo", "--input-angle=1e308", "--n-photons", "1000"], 0),
    (["montecarlo", "--input-angle=-1e308", "--n-photons", "1000"], 0),
    (["reconstruct", "--lam=1e200"], 1),
    (["reconstruct", "--lam=-1e200"], 1),
    (["montecarlo", "--n-photons", "9223372036854775808"], 1),
])
def test_extreme_inputs_give_rows_or_one_error_line(argv, expected_status, capsys):
    argv = [*argv, "--steps", "2"]
    status = main(argv)
    assert_rows_or_one_error_line(argv, status, capsys.readouterr())
    assert status == expected_status

import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import oracle_render_csv, oracle_render_json
from seqpol import SeqpolError, SetupParams, cli, harness, instrument
from seqpol.cli import (
    UsageError,
    emit,
    main,
    parse_config,
    render_csv,
    render_json,
)
from seqpol.harness import LGI_COLUMNS, RECONSTRUCT_COLUMNS, SWEEP_COLUMNS

EXPECTED_HEADER = (
    "theta_deg,p_error,p_pp,p_pm,p_mp,p_mm,aopt_m1_plus,aopt_m1_minus,"
    "aopt_pp,aopt_pm,aopt_mp,aopt_mm,eps_eigen,eps_opt_m1,eps_opt_m1m2"
)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def columns(rows, header):
    """The output table of ``rows``: one list per column of ``header``."""
    return {key: [row[key] for row in rows] for key in header}


def read_rows_json(path):
    """Re-parse a JSON artifact; floats round-trip bit-exactly."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(["sweep"])
        assert config.command == "sweep"
        assert len(config.sweep.theta_grid) == 46
        assert config.sweep.theta_grid[0] == 0.0
        assert config.sweep.theta_grid[-1] == 22.5
        assert config.sweep.v_pm == 0.93
        assert config.sweep.v_hv == 0.9976
        assert config.sweep.input_angle_deg == 67.5
        assert config.fmt == "csv"

    def test_explicit_grid(self):
        config = parse_config(["sweep", "--theta-min", "0", "--theta-max", "22.5", "--steps", "46"])
        assert len(config.sweep.theta_grid) == 46
        assert config.sweep.theta_grid[1] == pytest.approx(0.5)

    @pytest.mark.parametrize("theta_min", [0, 0.013, 0.1, 1, 3.3, 7.7, 10, 22.4])
    def test_grid_ends_at_theta_max(self, theta_min):
        # theta_min + i * width can land an ulp above --theta-max (0 with 170 steps,
        # 7.7 with 2,982); such points become --theta-max and all others keep their value.
        for steps in range(2, 3000):
            points = theta_min + np.arange(steps) * ((22.5 - theta_min) / (steps - 1))
            if points.max() > 22.5 or steps % 101 == 0:
                config = parse_config(["sweep", "--theta-min", str(theta_min), "--steps", str(steps)])
                assert config.sweep.theta_grid == tuple(np.minimum(points, 22.5).tolist())

    def test_single_theta(self):
        config = parse_config(["lgi", "--theta", "12.5"])
        assert config.sweep.theta_grid == (12.5,)

    def test_one_step_grid_is_theta_min(self):
        config = parse_config(["sweep", "--theta-min", "3.5", "--theta-max", "9", "--steps", "1"])
        assert config.sweep.theta_grid == (3.5,)

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
        assert config.sweep.v_pm == 0.95
        assert len(config.sweep.theta_grid) == 3
        config = parse_config(["sweep", "--config", str(path), "--v-pm", "0.9"])
        assert config.sweep.v_pm == 0.9

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
        emit(columns(rows, SWEEP_COLUMNS), "json", str(tmp_path / "again.json"))
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
        emit(columns([], SWEEP_COLUMNS), "csv", str(path))
        assert path.read_text(encoding="utf-8") == EXPECTED_HEADER + "\n"

    def test_unresolvable_cells_are_empty(self):
        record = {key: None for key in SWEEP_COLUMNS}
        record["theta_deg"] = 1.0
        text = render_csv(columns([record], SWEEP_COLUMNS))
        assert text.splitlines()[1] == "1.0" + "," * (len(SWEEP_COLUMNS) - 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_json_value_is_an_error(self, value, tmp_path):
        path = tmp_path / "rows.json"
        with pytest.raises(SeqpolError, match="JSON"):
            emit({"x": [value]}, "json", str(path))
        assert not path.exists()

    def test_non_finite_record_exits_with_one_error_line(self, monkeypatch, capsys):
        record = dict.fromkeys(SWEEP_COLUMNS, 0.5)
        record["eps_opt_m1m2"] = math.nan
        monkeypatch.setattr(cli, "run", lambda config: columns([record], SWEEP_COLUMNS))
        assert main(["sweep", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_shortest_round_trip_decimals(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        text = render_csv({"x": [value]})
        assert text.splitlines()[1] == repr(value)
        assert float(text.splitlines()[1]) == value


# Cells of every kind a table can hold, with the floats where repr switches to
# an exponent, and strings that csv must quote or JSON must escape.
EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-4, 0.1 + 0.2, 1.7976931348623157e308)
EDGE_TEXT = (",", '"', ", ", "a\nb", "x\r\ny", "é", "ü, \"q\"", "", "null", "{}", "%", "%s")
cells = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(), st.booleans(), st.none(), st.sampled_from(EDGE_TEXT), st.text(),
)


@st.composite
def records(draw, cell_values=cells):
    """A header of one to five names and zero to six rows of cells."""
    header = draw(st.lists(st.one_of(st.sampled_from(EDGE_TEXT), st.text()),
                           min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({key: cell_values for key in header}),
                         max_size=6))
    return rows, header


class TestRenderersMatchOracles:
    """The column renderers write the bytes of the row-by-row oracles."""

    @settings(max_examples=300, deadline=None)
    @given(table=records())
    def test_csv_bytes(self, table):
        rows, header = table
        assert render_csv(columns(rows, header)) == oracle_render_csv(rows, header)

    @settings(max_examples=300, deadline=None)
    @given(table=records())
    def test_json_bytes(self, table):
        rows, header = table
        assert render_json(columns(rows, header)) == oracle_render_json(rows, header)

    @pytest.mark.parametrize("header, rows", [
        (["x"], []),
        (["x"], [{"x": None}]),
        (["x"], [{"x": ""}]),
        ([""], [{"": None}, {"": "a"}]),
        (SWEEP_COLUMNS, []),
    ])
    def test_zero_rows_and_one_column(self, header, rows):
        assert render_csv(columns(rows, header)) == oracle_render_csv(rows, header)
        assert render_json(columns(rows, header)) == oracle_render_json(rows, header)

    @settings(max_examples=200, deadline=None)
    @given(table=records(st.one_of(cells, st.sampled_from([math.nan, math.inf, -math.inf])),))
    def test_non_finite_values(self, table):
        rows, header = table
        assert render_csv(columns(rows, header)) == oracle_render_csv(rows, header)
        try:
            expected = oracle_render_json(rows, header)
        except SeqpolError as exc:
            with pytest.raises(SeqpolError) as raised:
                render_json(columns(rows, header))
            assert str(raised.value) == str(exc)
        else:
            assert render_json(columns(rows, header)) == expected


class TestRenderersAcrossBlockEdges(TestRenderersMatchOracles):
    """The same properties with blocks of one to three rows: the drawn tables of
    up to six rows then cross block edges, which no golden output does."""

    @pytest.fixture(scope="class", autouse=True, params=[1, 2, 3])
    def block_rows(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_ROWS", request.param)
            yield request.param


class TestEmitInBlocks:
    ARGV = ["reconstruct", "--steps", "1100", "--format", "json"]

    @staticmethod
    def expected_text(argv):
        table = cli.run(parse_config(argv))
        rows = [dict(zip(table, row)) for row in zip(*table.values())]
        return oracle_render_json(rows, list(table))

    def check_writes(self, writes, expected):
        """At least two writes, each of one block of rows or less, adding up to ``expected``."""
        assert len(writes) >= 2
        assert max(text.count("\n  }") for text in writes) <= cli._BLOCK_ROWS
        assert "".join(writes) == expected

    def test_stdout_is_written_block_by_block(self, monkeypatch):
        class CountingStream(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        writes = []
        monkeypatch.setattr(sys, "stdout", CountingStream())
        assert main(self.ARGV) == 0
        self.check_writes(writes, self.expected_text(self.ARGV))

    def test_file_is_written_block_by_block(self, monkeypatch, tmp_path):
        def counting_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            write = handle.write
            handle.write = lambda text: writes.append(text) or write(text)
            return handle

        writes = []
        path = tmp_path / "rows.json"
        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        assert main([*self.ARGV, "--output", str(path)]) == 0
        expected = self.expected_text(self.ARGV)
        self.check_writes(writes, expected)
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("to_file", [False, True])
    def test_nan_in_the_last_block_writes_nothing(self, to_file, monkeypatch, capsys, tmp_path):
        n_rows = 2 * cli._BLOCK_ROWS + 1
        table = {"x": [0.5] * (n_rows - 1) + [math.nan], "y": ["a"] * n_rows}
        monkeypatch.setattr(cli, "run", lambda config: table)
        path = tmp_path / "rows.json"
        argv = ["sweep", "--format", "json"] + (["--output", str(path)] if to_file else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: cannot write JSON: Out of range float values are not "
                                "JSON compliant: nan\n")
        assert not path.exists()


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
        exact = harness.analytic_row(SetupParams(10.0))
        assert float(row["aopt_m1_plus"]) == pytest.approx(exact["aopt_m1_plus"], abs=0.02)
        assert float(row["eps_opt_m1m2"]) == pytest.approx(exact["eps_opt_m1m2"], abs=0.02)

    def test_grid_uses_distinct_seeds(self, tmp_path):
        out = tmp_path / "mc.csv"
        main(["montecarlo", "--theta-min", "5", "--theta-max", "5", "--steps", "2",
              "--n-photons", "10000", "--seed", "3", "--output", str(out)])
        rows = read_csv(out)
        assert rows[0] != rows[1]


class TestPovmBuilds:
    """Each command builds its effects in one stack, and no strength twice."""

    @pytest.fixture
    def built(self, monkeypatch):
        builds = []

        def counting(theta_grid, v_pm, v_hv):
            builds.append(list(theta_grid))
            return instrument_stack(theta_grid, v_pm, v_hv)

        instrument_stack = instrument.effect_stack
        for module in (instrument, harness):
            monkeypatch.setattr(module, "effect_stack", counting)
        return builds

    def test_cli_builds_no_effects_or_terms(self):
        for name in ("effect_stack", "stack_terms", "make_stokes"):
            assert not hasattr(cli, name)

    @pytest.mark.parametrize("command", ["sweep", "lgi", "reconstruct", "montecarlo"])
    def test_one_build_covers_the_grid_in_order(self, command, built, capsys):
        for grid in ([], ["--theta-min", "0.013", "--steps", "250"]):
            built.clear()
            assert main([command, "--input-angle", "10", *grid]) == 0
            assert built == [list(parse_config([command, *grid]).sweep.theta_grid)]

    def test_montecarlo_builds_no_record_or_setup_per_point(self, monkeypatch, capsys):
        made = []
        for cls in (harness.CountRecord, harness.SetupParams):
            monkeypatch.setattr(harness, cls.__name__,
                                lambda *args, cls=cls: made.append(cls.__name__) or cls(*args))
        assert main(["montecarlo", "--n-photons", "100"]) == 0
        # SweepConfig checks its settings by the number rules, without a setup
        assert made == []

    def test_eigenstate_crossings_scan_the_grid_once(self, built, capsys):
        assert main(["crossings", "--input-angle", "45"]) == 0
        assert built == [list(parse_config(["crossings"]).sweep.theta_grid)]

    @pytest.mark.parametrize("flags", [[], ["--v-pm", "1", "--v-hv", "1"]])
    def test_crossings_build_at_grid_points_and_new_midpoints(self, flags, built, capsys):
        assert main(["crossings", *flags]) == 0
        grid = list(parse_config(["crossings"]).sweep.theta_grid)
        assert built[0] == grid
        assert all(len(build) == 1 for build in built[1:])
        midpoints = [build[0] for build in built[1:]]
        assert len(set(midpoints)) == len(midpoints)
        assert not set(midpoints) & set(grid)
        # each of the two roots halves a 0.5 degree cell down to the tolerance
        steps = math.ceil(math.log2(0.5 / harness.BISECTION_TOL_DEG))
        assert 0 < len(midpoints) <= 2 * steps

    def test_crossings_in_one_cell_share_their_midpoints(self, built, capsys):
        # at perfect visibilities both roots lie in the cell around 11.25 degrees
        assert main(["crossings", "--v-pm", "1", "--v-hv", "1"]) == 0
        steps = math.ceil(math.log2(0.5 / harness.BISECTION_TOL_DEG))
        assert 0 < len(built) - 1 <= steps

    def test_one_build_per_monte_carlo_call(self, built):
        harness.monte_carlo_counts(SetupParams(5.0), 67.5, 100, rng_seed=1)
        assert built == [[5.0]]


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
    (["montecarlo", "--n-photons", "9223372036854775808"], 2),
    (["reconstruct", "--lam", "1e12"], 1),
    (["reconstruct", "--lam", "1.3e154"], 1),
    (["reconstruct", "--lam", "1e-12"], 1),
    (["reconstruct", "--lam", "1e4"], 0),
    (["reconstruct", "--lam=-1e4"], 0),
    (["sweep", "--theta-min", "10", "--theta-max", "5"], 2),
])
def test_extreme_inputs_give_rows_or_one_error_line(argv, expected_status, capsys):
    argv = [*argv, "--steps", "2"]
    status = main(argv)
    assert_rows_or_one_error_line(argv, status, capsys.readouterr())
    assert status == expected_status


def test_n_photons_stops_where_the_library_draws(capsys):
    # the C long of numpy's multinomial draws, as a usage error that names the flag
    assert parse_config(["montecarlo", "--n-photons", str(2**63 - 1)]).n_photons == 2**63 - 1
    assert main(["montecarlo", "--theta", "5", "--n-photons", str(2**63)]) == 2
    assert capsys.readouterr().err == (
        "error: --n-photons must lie in [1, 9223372036854775807], got 9223372036854775808\n")


@pytest.mark.parametrize("content", [
    b"\xff\xfe" + b'{"steps": 3}',
    b"[" * 100_000,
    b'{"steps": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"output": "a\\u0000b"}',
    b'{"output": "x\\ud800y"}',
    b'{"input_angle": 1' + b"0" * 400 + b"}",
    b'{"steps": ' + b"1" * 5000 + b"}",
    b'{"steps": 1' + b"0" * 400 + b"}",
    None,
    b"[1, 2]",
    b'{"steps": 2.5}',
], ids=["utf-16-bom", "deep-list", "deep-value", "nul-in-output", "surrogate-in-output",
        "angle-beyond-float", "integer-beyond-str-limit", "steps-beyond-a-tuple", "missing-file",
        "json-array", "fractional-steps"])
def test_bad_config_files_give_one_error_line(content, tmp_path, capsys):
    # None: no file at the path
    path = tmp_path / "run.json"
    if content is not None:
        path.write_bytes(content)
    argv = ["sweep", "--config", str(path)]
    status = main(argv)
    assert_rows_or_one_error_line(argv, status, capsys.readouterr())
    assert status == 2


# Any JSON value, with the numbers a float cannot hold and the non-finite
# floats that Python's json reads and writes.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([10**400, -(10**400), 2**63, 1e308, -0.0]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
# Usable values of each key; a drawn config file also gives a few keys any
# JSON value and sometimes holds an unknown key.  The grid is bounded at
# 2,000 points, or lies past sys.maxsize and is rejected before it is built;
# test_out_of_memory_gives_one_error_line covers larger ones in a child
# process with a memory limit.
CONFIG_VALUES = {
    "steps": st.integers(max_value=2000),
    "theta": st.floats(0.0, 22.5),
    "theta_min": st.floats(0.0, 22.5),
    "theta_max": st.floats(0.0, 22.5),
    "v_pm": st.floats(0.0, 1.0),
    "v_hv": st.floats(0.0, 1.0),
    "input_angle": st.floats(-360.0, 360.0),
    "n_photons": st.integers(min_value=1, max_value=10**6),
    "seed": st.integers(min_value=0),
    "lam": st.floats(-10.0, 10.0),
    "format": st.sampled_from(["csv", "json"]),
}
OWN_COMMAND = {"n_photons": "montecarlo", "seed": "montecarlo", "lam": "reconstruct"}
ROWS = "rows.out"  # stands for a file in the test's own directory


@st.composite
def config_files(draw):
    """A command, the settings of its config file and how the file is encoded."""
    command = draw(st.sampled_from(["sweep", "crossings", "montecarlo", "reconstruct", "lgi"]))
    keys = {key: values for key, values in CONFIG_VALUES.items()
            if OWN_COMMAND.get(key, command) == command}
    values = draw(st.fixed_dictionaries({}, optional=keys))
    if "theta" in values and draw(st.booleans()):  # else it conflicts with any grid key
        values = {key: value for key, value in values.items() if key not in cli._GRID_KEYS}
    for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=2)):
        values[key] = draw(json_values.filter(
            lambda value: key != "steps" or not isinstance(value, int)
            or not 2000 < value <= sys.maxsize))
    if draw(st.sampled_from([False] * 9 + [True])):
        values[draw(st.text(max_size=6))] = draw(json_values)
    # never an arbitrary relative path: stdout, one file of the test, or no usable path
    values["output"] = draw(st.one_of(
        st.sampled_from(["-", ROWS]), st.sampled_from(["-", ROWS]),
        st.builds("{}\0{}".format, st.text(max_size=3), st.text(max_size=3)),
        st.builds("{}\ud800{}".format, st.text(max_size=3), st.text(max_size=3)),
        json_values.filter(lambda value: not isinstance(value, str)),
    ))
    encoding = draw(st.sampled_from(["utf-8"] * 7 + ["utf-16", "latin-1 prefix", "bytes"]))
    return command, values, encoding, draw(st.binary(max_size=20))


@settings(max_examples=200, deadline=None)
@given(case=config_files())
def test_any_config_file_gives_rows_or_one_error_line(case, tmp_path_factory):
    command, values, encoding, noise = case
    directory = tmp_path_factory.mktemp("config")
    target = directory / ROWS
    if values["output"] == ROWS:
        values["output"] = str(target)
    text = json.dumps(values)
    content = {"utf-8": text.encode(), "utf-16": text.encode("utf-16"),
               "latin-1 prefix": b"\xff" + text.encode(), "bytes": noise}[encoding]
    (directory / "run.json").write_bytes(content)
    argv = [command, "--config", str(directory / "run.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    if status == 0:
        assert err.getvalue() == "", argv
        text = target.read_text(encoding="utf-8") if target.exists() else out.getvalue()
        rows = (json.loads(text) if values.get("format") == "json"
                else list(csv.DictReader(io.StringIO(text))))
        assert len(rows) >= 1, argv
    else:
        assert status in (1, 2), argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)


COMMANDS = ["sweep", "crossings", "montecarlo", "reconstruct", "lgi"]
# One value of each setting, other than its default.
SETTING_VALUES = {
    "v_pm": 0.5, "v_hv": 0.75, "input_angle": 10.0, "theta": 3.5, "theta_min": 1.5,
    "theta_max": 20.0, "steps": 7, "output": ROWS, "format": "json", "n_photons": 1000,
    "seed": 9, "lam": 0.25,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_setting_as_a_flag_or_a_config_key_gives_one_config(command, tmp_path):
    keys = [key for key in SETTING_VALUES if OWN_COMMAND.get(key, command) == command]
    assert set(keys) == set(cli._SETTINGS[command])
    default = parse_config([command])
    for key in keys:
        value = SETTING_VALUES[key]
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        from_flag = parse_config([command, "--" + key.replace("_", "-"), str(value)])
        assert from_flag == parse_config([command, "--config", str(path)]) != default, key


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: seqpol {command} ")


@pytest.mark.parametrize("lam", ["1e4", "1e8", "1e-9"])
def test_reconstruct_rows_stay_within_the_rounding_bound(lam, capsys):
    assert main(["reconstruct", "--theta", "10", "--lam", lam, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert max(row["abs_diff"] for row in rows) <= 1e-6


def test_out_of_memory_gives_one_error_line():
    # The limit applies to the child alone; 200 million grid points need some
    # 6 GB, so the child fails within about 150 MB above its imports.
    child = (
        "import resource, sys\n"
        "from seqpol.cli import main\n"
        "limit = 256 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "sys.exit(main(['sweep', '--steps', '200000000']))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: out of memory\n")


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()

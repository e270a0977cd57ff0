"""Command-line interface."""

import json

import pytest

from repro.api import Scenario
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.arch == "crossbar"
        assert args.ports == 16
        assert args.throughput == 0.3

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--arch", "banyan", "--ports", "8", "--load", "0.4",
             "--wire-mode", "per_link"]
        )
        assert args.arch == "banyan"
        assert args.wire_mode == "per_link"

    def test_bad_wire_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--wire-mode", "median"])

    def test_unified_wire_modes_accepted_everywhere(self):
        for command in ("estimate", "simulate", "sweep"):
            for mode in ("worst_case", "expected", "per_link"):
                args = build_parser().parse_args([command, "--wire-mode", mode])
                assert args.wire_mode == mode

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch", "scenarios.json"])
        assert args.scenarios == "scenarios.json"
        assert args.workers == 1
        assert args.format == "json"


class TestCommands:
    def test_estimate(self, capsys):
        assert main(["estimate", "--arch", "banyan", "--ports", "32",
                     "--throughput", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "banyan 32x32" in out
        assert "pJ/bit" in out and "mW" in out

    def test_simulate_small(self, capsys):
        assert main(["simulate", "--arch", "crossbar", "--ports", "4",
                     "--load", "0.2", "--slots", "60", "--warmup", "10"]) == 0
        out = capsys.readouterr().out
        assert "crossbar 4x4" in out
        assert "throughput" in out

    def test_sweep_small(self, capsys):
        assert main(["sweep", "--arch", "fully_connected", "--ports", "4",
                     "--slots", "80", "--loads", "0.1", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "fully_connected 4x4" in out
        assert out.count("0.") > 4

    def test_estimate_expected_wire_mode(self, capsys):
        assert main(["estimate", "--arch", "banyan", "--ports", "16",
                     "--wire-mode", "expected"]) == 0
        assert "banyan 16x16" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "140" in out and "222" in out

    def test_table1_small(self, capsys):
        assert main(["table1", "--cycles", "48"]) == 0
        out = capsys.readouterr().out
        assert "banyan[1,1]" in out
        assert "calibration" in out


class TestBatchCommand:
    @pytest.fixture
    def scenario_file(self, tmp_path):
        scenarios = [
            Scenario("crossbar", 4, 0.3, backend="estimate",
                     name="est").to_dict(),
            Scenario("banyan", 4, 0.3, backend="simulate", name="sim",
                     arrival_slots=60, warmup_slots=12, seed=9).to_dict(),
        ]
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(scenarios))
        return path

    def test_batch_json_report(self, scenario_file, capsys):
        assert main(["batch", str(scenario_file), "--workers", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in report] == ["est", "sim"]
        assert {r["backend"] for r in report} == {"estimate", "simulate"}
        assert all(r["total_power_w"] > 0 for r in report)

    def test_batch_csv_report(self, scenario_file, capsys):
        assert main(["batch", str(scenario_file), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("name,backend,architecture")
        assert len(lines) == 3

    def test_batch_table_report(self, scenario_file, capsys):
        assert main(["batch", str(scenario_file), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "batch: 2 scenarios" in out

    def test_batch_unknown_field_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('[{"architecture": "crossbar", "ports": 4, '
                        '"load": 0.3, "thruput": 0.3}]')
        assert main(["batch", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "thruput" in err and "load" in err

    @pytest.mark.parametrize(
        "content",
        [
            {"ports": "four"},
            {"ports": 4.0},
            {"load": "x"},
            {"load": [0.5, "a", 1, 2]},
            {"queueing": "voq", "islip_iterations": "2"},
            {"bus_width": "32"},
            {"flip_fraction": "x"},
            {"arrival_slots": "10"},
            {"warmup_slots": None},
            {"traffic_params": [1]},
            {"tech": {"bad": 1}},
            {"seed": "x"},
            {"ingress_queue_cells": "4"},
            {"buffer_bits_per_switch": "x"},
            {"drain": "yes"},
            {"cell_words": 2.5},
            5,
            [1],
            {"scenarios": 5},
        ],
        ids=repr,
    )
    def test_batch_malformed_file_is_a_clean_error(
        self, content, tmp_path, capsys
    ):
        if isinstance(content, dict) and "scenarios" not in content:
            base = {"architecture": "crossbar", "ports": 4, "load": 0.3,
                    "arrival_slots": 20, "warmup_slots": 2}
            content = [{**base, **content}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        assert main(["batch", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_batch_missing_file_is_a_clean_error(self, capsys):
        assert main(["batch", "no-such-file.json"]) == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_unknown_architecture_is_a_clean_error(self, capsys):
        assert main(["estimate", "--arch", "clos"]) == 2
        assert "unknown architecture" in capsys.readouterr().err

    def test_batch_output_file(self, scenario_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["batch", str(scenario_file),
                     "--output", str(out_path)]) == 0
        assert "2 scenarios" in capsys.readouterr().out
        assert len(json.loads(out_path.read_text())) == 2

import numpy as np
import pytest

from fwlab import GridFunction, make_grid
from fwlab.cli import _KIND_BY_COMMAND, _build_parser, _config_from_args, main as cli_main
from fwlab.harness import (
    emit_field_csv,
    make_preset,
    parse_config,
    read_field_csv,
    run_experiment,
)

from conftest import random_field


class TestParseConfig:
    def test_empty_document_gets_defaults(self):
        cfg = parse_config("")
        assert cfg.grid == {"N": 256, "L": 8.0}
        assert cfg.besov == {"s": 3.0, "p": 2.0, "r": 2.0}
        assert cfg.experiment["kind"] == "simulate"
        assert cfg.seed == 0

    def test_overrides_merge(self):
        cfg = parse_config("grid: {N: 128}\nbesov: {s: 3.5}\nseed: 7\n")
        assert cfg.grid == {"N": 128, "L": 8.0}
        assert cfg.besov["s"] == 3.5
        assert cfg.seed == 7

    def test_inf_spelled_out(self):
        cfg = parse_config("besov: {p: inf}\nexperiment: {kind: norm}\n")
        assert np.isinf(cfg.besov["p"])

    def test_inadmissible_s_rejected_with_threshold(self):
        with pytest.raises(ValueError, match=r"2\.5"):
            parse_config("besov: {s: 2.4}\nexperiment: {kind: iterate}\n")

    def test_infinite_r_rejected_for_scheme(self):
        with pytest.raises(ValueError, match="finite"):
            parse_config("besov: {r: inf}\nexperiment: {kind: simulate}\n")

    def test_inadmissible_fine_for_norm_kind(self):
        cfg = parse_config("besov: {s: 1.0, r: inf}\nexperiment: {kind: norm}\n")
        assert cfg.besov["s"] == 1.0

    def test_unknown_top_level_key_fatal(self):
        with pytest.raises(ValueError, match="unknown top-level"):
            parse_config("gird: {N: 128}\n")

    def test_unknown_section_key_fatal(self):
        with pytest.raises(ValueError, match="unknown keys"):
            parse_config("grid: {M: 128}\n")

    def test_unknown_kind_fatal(self):
        with pytest.raises(ValueError, match="experiment kind"):
            parse_config("experiment: {kind: frobnicate}\n")


class TestPresets:
    def test_zero(self, grid256):
        assert np.all(make_preset(grid256, "zero").samples == 0.0)

    def test_const(self, grid256):
        f = make_preset(grid256, "const:0.7")
        assert np.max(np.abs(f.samples - 0.7)) == 0.0

    def test_sine_amplitude(self, grid256):
        f = make_preset(grid256, "sine", amplitude=0.3)
        assert np.max(np.abs(f.samples - 0.3 * np.sin(grid256.x))) <= 1e-15

    def test_unknown_rejected(self, grid256):
        with pytest.raises(ValueError):
            make_preset(grid256, "sawtooth")


class TestFieldCsv:
    def test_roundtrip(self, grid256, tmp_path):
        rng = np.random.default_rng(301)
        f = random_field(grid256, rng)
        path = tmp_path / "field.csv"
        emit_field_csv(f, path)
        back = read_field_csv(path, grid256)
        assert np.array_equal(back.samples, f.samples)

    def test_row_count_checked(self, grid256, tmp_path):
        f = GridFunction.from_samples(make_grid(128, 8.0), np.zeros(128))
        path = tmp_path / "field.csv"
        emit_field_csv(f, path)
        with pytest.raises(ValueError, match="rows"):
            read_field_csv(path, grid256)

    def test_shuffled_x_rejected(self, grid256, tmp_path):
        rng = np.random.default_rng(307)
        f = random_field(grid256, rng)
        path = tmp_path / "field.csv"
        emit_field_csv(f, path)
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="order"):
            read_field_csv(path, grid256)

    def test_non_numeric_rejected(self, grid256, tmp_path):
        path = tmp_path / "field.csv"
        rows = ["x,value"] + [f"{x:.17g},oops" for x in grid256.x]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="malformed|numeric"):
            read_field_csv(path, grid256)


class TestRunExperiment:
    def test_partition_check_passes(self):
        cfg = parse_config("experiment: {kind: partition-check}\n")
        report = run_experiment(cfg, write=False)
        assert report.passed

    def test_norm_report_tables(self):
        cfg = parse_config("experiment: {kind: norm}\ngrid: {N: 128}\n")
        report = run_experiment(cfg, write=False)
        assert "masks" in report.tables
        assert report.passed

    def test_simulate_writes_deterministic_csv(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FWLAB_OUT", raising=False)
        text = (
            "experiment: {kind: simulate, amplitude: 0.05}\n"
            "time: {T: 0.1, dt: 0.005}\n"
        )
        outputs = []
        for sub in ("a", "b"):
            cfg = parse_config(text + f"output_dir: {tmp_path / sub}\n")
            report = run_experiment(cfg)
            outputs.append((tmp_path / sub / "trajectory.csv").read_bytes())
            assert report.passed
        assert outputs[0] == outputs[1]

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FWLAB_OUT", str(tmp_path / "env_out"))
        cfg = parse_config(
            "experiment: {kind: partition-check}\n"
            f"output_dir: {tmp_path / 'ignored'}\n"
        )
        run_experiment(cfg)
        assert (tmp_path / "env_out" / "summary.txt").exists()
        assert not (tmp_path / "ignored").exists()

    def test_summary_echoes_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FWLAB_OUT", raising=False)
        cfg = parse_config(
            "experiment: {kind: partition-check}\n"
            "seed: 42\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        run_experiment(cfg)
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "seed: 42" in text
        assert "[verdicts]" in text


class TestCli:
    def test_verify_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FWLAB_OUT", str(tmp_path / "out"))
        rc = cli_main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pass" in out.lower()

    def test_norm_command(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FWLAB_OUT", str(tmp_path / "out"))
        rc = cli_main(["norm", "--N", "128", "--preset", "sine"])
        assert rc == 0
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_bad_config_value_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FWLAB_OUT", str(tmp_path / "out"))
        rc = cli_main(["simulate", "--s", "2.0", "--T", "0.1"])
        assert rc == 2
        assert "inadmissible" in capsys.readouterr().err

    def test_config_file_plus_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FWLAB_OUT", str(tmp_path / "out"))
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text("grid: {N: 128}\ntime: {T: 0.1, dt: 0.005}\n")
        rc = cli_main([
            "simulate", "--config", str(cfg_path), "--amplitude", "0.05",
        ])
        assert rc == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "N: 128" in summary
        assert "amplitude: 0.05" in summary

    @pytest.mark.parametrize("command, argv, section, key, expected", [
        ("simulate", ["--N", "128"], "grid", "N", 128),
        ("simulate", ["--L", "2.0"], "grid", "L", 2.0),
        ("simulate", ["--dt", "0.004"], "time", "dt", 0.004),
        ("simulate", ["--T", "0.5"], "time", "T", 0.5),
        ("lifespan", ["--t-cap", "3.0"], "time", "t_cap", 3.0),
        ("simulate", ["--s", "3.5"], "besov", "s", 3.5),
        ("simulate", ["--p", "inf"], "besov", "p", np.inf),
        ("norm", ["--r", "3"], "besov", "r", 3.0),
        ("iterate", ["--C", "2.0"], "scheme", "C", 2.0),
        ("iterate", ["--n-max", "4"], "scheme", "n_max", 4),
        ("simulate", ["--seed", "9"], None, "seed", 9),
        ("simulate", ["--out", "elsewhere"], None, "output_dir", "elsewhere"),
        ("simulate", ["--preset", "gauss"], "experiment", "preset", "gauss"),
        ("simulate", ["--amplitude", "0.2"], "experiment", "amplitude", 0.2),
        ("norm", ["--field", "f.csv"], "experiment", "field_csv", "f.csv"),
        ("transport", ["--velocity", "cosine"], "experiment", "velocity", "cosine"),
        ("transport", ["--forcing", "sine"], "experiment", "forcing", "sine"),
        ("transport", ["--fit-constant"], "experiment", "fit_constant", True),
        ("lifespan", ["--amplitudes", "0.1", "0.2"], "experiment", "amplitudes", [0.1, 0.2]),
        ("stability", ["--deltas", "1e-3"], "experiment", "deltas", [1e-3]),
        ("continuity", ["--j-max", "4"], "experiment", "j_max", 4),
    ])
    def test_flag_lands_in_config_key(self, command, argv, section, key, expected):
        args = _build_parser().parse_args([command] + argv)
        cfg = _config_from_args(args, _KIND_BY_COMMAND[command])
        got = getattr(cfg, key) if section is None else getattr(cfg, section)[key]
        assert got == expected

import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from fwlab import (GridFunction, build_partition, continuity_experiment, make_grid,
                   run_scheme, solve_fw_direct, stability_experiment)
from fwlab.cli import _build_parser, _config_from_args, main as cli_main
from fwlab.harness import (
    emit_field_csv,
    make_preset,
    parse_config,
    random_band_limited,
    read_field_csv,
    run_experiment,
)
import fwlab.harness
from fwlab.besov import besov_norms_of_samples
from fwlab.fw import _march_fw, _pair_norms

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

    def test_exponent_without_dot_is_a_number(self):
        # YAML reads 1e-2 as a string; the config must hold the float
        cfg = parse_config("time: {dt: 1e-2, T: 1e0}\n"
                           "experiment: {amplitude: 5e-2, deltas: [1e-2, 1e-3]}\n")
        assert cfg.time["dt"] == 0.01 and cfg.time["T"] == 1.0
        assert cfg.experiment["amplitude"] == 0.05
        assert cfg.experiment["deltas"] == [0.01, 0.001]
        assert cfg.scheme_config().dt == 0.01

    def test_whole_numbers_become_ints(self):
        cfg = parse_config("scheme: {n_max: 4.0}\nexperiment: {j_max: 5.0}\n")
        assert cfg.scheme["n_max"] == 4 and isinstance(cfg.scheme["n_max"], int)
        assert cfg.experiment["j_max"] == 5 and isinstance(cfg.experiment["j_max"], int)

    def test_non_integral_n_max_names_key(self):
        with pytest.raises(ValueError, match=r"scheme\.n_max must be a whole number"):
            parse_config("scheme: {n_max: 2.5}\n")

    def test_non_numeric_value_names_key(self):
        with pytest.raises(ValueError, match=r"experiment\.amplitude must be a number"):
            parse_config("experiment: {amplitude: big}\n")
        with pytest.raises(ValueError, match=r"time\.t_cap must be a number"):
            parse_config("time: {t_cap: [1]}\n")
        # text keys are checked here, not where the run first uses them
        with pytest.raises(ValueError, match=r"experiment\.velocity must be a string, got 5"):
            parse_config("experiment: {kind: transport, velocity: 5}\n")
        with pytest.raises(ValueError, match=r"experiment\.forcing must be a string"):
            parse_config("experiment: {forcing: [sine]}\n")
        with pytest.raises(ValueError, match=r"experiment\.field_csv must be a string"):
            parse_config("experiment: {field_csv: 5}\n")
        assert parse_config("experiment: {field_csv: null}\n").experiment["field_csv"] is None
        # as on the CLI (nargs='+'), a list of numbers needs at least one
        for key in ("amplitudes", "deltas"):
            with pytest.raises(ValueError, match=rf"experiment\.{key} must be a non-empty list"):
                parse_config(f"experiment: {{{key}: []}}\n")
        # float(True) is 1.0, but a YAML boolean is not a number
        for text, key, value in [("besov: {p: true}", r"besov\.p", True),
                                 ("experiment: {amplitude: true}", r"experiment\.amplitude", True),
                                 ("grid: {L: true}", r"grid\.L", True),
                                 ("seed: false", "seed", False)]:
            with pytest.raises(ValueError, match=f"{key} must be a number, got {value}"):
                parse_config(text + "\n")

    def test_invalid_yaml_is_one_line_value_error(self):
        with pytest.raises(ValueError, match="config is not valid YAML") as info:
            parse_config("a: [")
        assert "\n" not in str(info.value)
        # a repeated key is refused, where PyYAML would keep the last value
        for text, key, line in [("grid: {N: 64, N: 128}\n", "N", 1),
                                ("grid: {N: 64}\ngrid: {N: 128}\n", "grid", 2)]:
            with pytest.raises(ValueError, match=f"config is not valid YAML: found "
                                                 f"duplicate key '{key}' at line {line}, column"):
                parse_config(text)

    def test_overrides_apply_over_document(self):
        cfg = parse_config("grid: {N: 128}\nseed: 1\n", {"grid.N": 64, "seed": 3})
        assert cfg.grid == {"N": 64, "L": 8.0}
        assert cfg.seed == 3
        with pytest.raises(ValueError, match="section 'grid' must be a mapping"):
            parse_config("grid: 5\n", {"grid.N": 64})
        with pytest.raises(ValueError, match=r"unknown config overrides: \['grid\.M'\]"):
            parse_config("", {"grid.M": 64})

    @pytest.mark.parametrize("seed", ["1.5", "abc", "[1]"])
    def test_seed_must_be_whole_number(self, seed):
        with pytest.raises(ValueError, match=r"config key seed must be a"):
            parse_config(f"seed: {seed}\n")

    def test_large_seed_keeps_every_digit(self):
        assert parse_config("seed: 12345678901234567891\n").seed == 12345678901234567891

    def test_unknown_data_preset_names_key(self):
        with pytest.raises(ValueError, match=r"experiment\.preset must be sine, gauss or zero"):
            parse_config("experiment: {preset: sinus}\n")

    def test_fit_constant_must_be_boolean(self):
        with pytest.raises(ValueError, match=r"experiment\.fit_constant must be true or false"):
            parse_config('experiment: {kind: transport, fit_constant: "no"}\n')
        assert parse_config("experiment: {fit_constant: no}\n").experiment["fit_constant"] is False

    def test_empty_problem_family_names_key(self):
        with pytest.raises(ValueError, match=r"experiment\.n_problems must be at least 1, got 0"):
            parse_config("experiment: {kind: transport, fit_constant: true, n_problems: 0}\n")

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_iterate_needs_the_ratio_from_n2(self, n_max):
        # with n_max <= 2 the differences_contract verdict has no ratio to read
        with pytest.raises(ValueError, match=r"n_max >= 3.*from n = 2"):
            parse_config(f"scheme: {{n_max: {n_max}}}\nexperiment: {{kind: iterate}}\n")
        assert parse_config(f"scheme: {{n_max: {n_max}}}\n").scheme["n_max"] == n_max


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

    def test_unreadable_const_names_preset(self, grid256):
        with pytest.raises(ValueError, match=r"preset 'const:abc' must give a number"):
            make_preset(grid256, "const:abc")


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

    @pytest.mark.parametrize("header", ["x,val\n", "value,x\n", ""])
    def test_header_checked(self, grid256, tmp_path, header):
        path = tmp_path / "field.csv"
        path.write_text(header + "".join(f"{x:.17g},0\n" for x in grid256.x))
        with pytest.raises(ValueError, match="header 'x,value'"):
            read_field_csv(path, grid256)

    def test_non_numeric_rejected(self, grid256, tmp_path):
        path = tmp_path / "field.csv"
        rows = ["x,value"] + [f"{x:.17g},oops" for x in grid256.x]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="malformed|numeric"):
            read_field_csv(path, grid256)

    @pytest.mark.parametrize("last", [pytest.param("{x:.17g},0.5,99", id="extra-cell"),
                                      pytest.param("{x:.17g}", id="one-cell")])
    def test_row_not_two_cells_rejected(self, grid256, tmp_path, last):
        # an extra cell is not dropped, nor a missing one read as an error
        # of another kind: any row that is not (x, value) is fatal
        path = tmp_path / "field.csv"
        rows = ["x,value"] + [f"{x:.17g},0.5" for x in grid256.x[:-1]]
        rows.append(last.format(x=grid256.x[-1]))
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="malformed row .* values to unpack"):
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

    def test_simulate_writes_deterministic_csv(self, tmp_path):
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

    def test_simulate_table_equals_stored_trajectory(self):
        # 501 nodes: the norms and means are taken over four chunks of nodes,
        # and equal those of the whole march at once; the march's half
        # spectra are the stored samples' rfft to rounding
        cfg = parse_config("experiment: {kind: simulate}\ntime: {T: 0.5, dt: 1e-3}\n")
        header, rows = run_experiment(cfg, write=False).tables["trajectory"]
        grid = cfg.make_grid()
        part, params = build_partition(grid), cfg.besov_params()
        traj = solve_fw_direct(make_preset(grid, "sine", 0.1), make_preset(grid, "cosine", 0.1),
                               0.5, 1e-3)
        y = np.array(list(_march_fw(traj.states[0], grid, traj.time_grid, 1e-3)))
        expected = np.column_stack([traj.time_grid, *_pair_norms(part, y, params),
                                    y[..., 0].real / grid.N])
        assert np.array_equal(np.array(rows), expected)
        stored = np.column_stack([besov_norms_of_samples(part, traj.u, params),
                                  besov_norms_of_samples(part, traj.rho, params.shift(-1.0))])
        np.testing.assert_allclose(expected[:, 1:3], stored, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(expected[:, 3:], np.column_stack([traj.mean_u, traj.mean_rho]),
                                   rtol=0.0, atol=1e-16)

    def test_simulate_stores_no_trajectory(self, monkeypatch):
        # smaller chunks keep the norms' temporaries well below the
        # trajectory at a test's size, so what grows with the nodes shows
        monkeypatch.setattr(fwlab.besov, "_NORM_CHUNK", 16)
        cfg = parse_config("time: {T: 0.5, dt: 1e-3}\n")
        tracemalloc.start()
        try:
            report = run_experiment(cfg, write=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        # below one stored (M+1, 2, N) trajectory: 501 nodes of 2 x 256 floats
        assert peak < 501 * 2 * 256 * 8

    def test_simulate_peak_grows_by_at_most_a_table_row_per_node(self, monkeypatch):
        # the memory guard prices simulate at _TABLE_ROW_BYTES per node: 500
        # more nodes raise the peak by at most that much each (smaller
        # chunks keep the norms' temporaries from hiding the growth)
        monkeypatch.setattr(fwlab.besov, "_NORM_CHUNK", 16)
        run_experiment(parse_config("time: {T: 1e-2, dt: 1e-3}\n"), write=False)  # warm caches
        peaks = []
        for T in (0.5, 1.0):
            cfg = parse_config(f"time: {{T: {T}, dt: 1e-3}}\n")
            tracemalloc.start()
            try:
                run_experiment(cfg, write=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 500 <= fwlab.harness._TABLE_ROW_BYTES

    @pytest.mark.parametrize("p", [1.0, 4.0, np.inf])
    def test_simulate_chunks_nodes_by_p(self, monkeypatch, p):
        # at p != 2 simulate norms 16 nodes, 32 rows, per call, with the
        # bits of chunks of 128 nodes
        cfg = parse_config(f"besov: {{s: 3.5, p: {p}}}\ntime: {{T: 0.5, dt: 1e-3}}\n")
        monkeypatch.setattr(fwlab.besov, "_GENERAL_P_CHUNK", fwlab.besov._NORM_CHUNK)
        want = run_experiment(cfg, write=False).tables["trajectory"]
        monkeypatch.undo()
        nodes = []
        real = fwlab.harness._pair_norms

        def counting(part, y, params):
            nodes.append(len(y))
            return real(part, y, params)

        monkeypatch.setattr(fwlab.harness, "_pair_norms", counting)
        got = run_experiment(cfg, write=False).tables["trajectory"]
        assert nodes == [16] * 31 + [5]
        assert got[0] == want[0]
        assert np.array_equal(np.array(got[1]), np.array(want[1]))

    @pytest.mark.parametrize("s, first, over", [(3.0, "none", False), (4.0, 4, True)])
    def test_iterate_reports_the_2P0_bound(self, s, first, over):
        # at (4, 2, 2) iterates 4 to 10 break ||u^n|| + ||rho^n|| <= 2*P0,
        # which the summary reports and no verdict judges
        cfg = parse_config(f"besov: {{s: {s}}}\ntime: {{dt: 2e-3}}\n"
                           "experiment: {kind: iterate}\n")
        report = run_experiment(cfg, write=False)
        header, rows = report.tables["scheme"]
        table = np.array(rows, dtype=float)
        n, norm_sum = table[:, header.index("n")], table[:, header.index("norm_sum")]
        broken = n[table[:, header.index("bound_313")] == 0]
        ratio = report.summary["max_norm_sum_over_P0"]
        assert ratio == np.max(norm_sum) / report.summary["P0"]
        assert (ratio > 2.0) is over
        assert report.summary["first_iterate_over_2P0"] == (int(broken[0]) if over else "none")
        assert broken.size == (7 * (n == 4).sum() if over else 0)
        assert list(report.verdicts) == ["differences_contract"]
        if over:
            assert ratio == pytest.approx(2.88, abs=5e-3)

    def test_iterate_holds_only_what_it_reads(self, tmp_path, monkeypatch):
        # at the benchmark sizes, CSVs written: the run keeps no last
        # iterate and holds its table as one float array, streamed to the
        # file in blocks, and reads about 2.5 MB; a table of Python rows of
        # numpy scalars and a stored last iterate read 6.2 MB
        traces = []

        def recording(*args, **kwargs):
            traces.append(run_scheme(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(fwlab.harness, "run_scheme", recording)
        cfg = parse_config(f"experiment: {{kind: iterate}}\ntime: {{dt: 2e-3}}\n"
                           f"output_dir: {tmp_path}\n")
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traces[0].last is None
        assert peak < 3e6
        assert (tmp_path / "scheme.csv").read_bytes() == report.table_csv("scheme").encode()

    @pytest.mark.parametrize("doc, censored, C_consistent", [
        # CLI defaults: t_cap = T = 1, which 0.25 and 0.5 reach under 2*P0
        ("", "0.25 0.5", None),
        ("amplitudes: [0.5, 2]}\ngrid: {N: 64}\ntime: {dt: 1e-2, t_cap: 2.0", "none", None),
        # zero data: P0 = 0, so no finite C is consistent
        ("preset: zero, amplitudes: [1]}\ntime: {dt: 1e-2", "1", "inf"),
    ], ids=["defaults", "none-censored", "zero-data"])
    def test_lifespan_sweep_reports_censoring_and_constants(self, doc, censored, C_consistent):
        cfg = parse_config("experiment: {kind: lifespan-sweep" + (", " + doc if doc else "")
                           + "}\n")
        report = run_experiment(cfg, write=False)
        t_cap = cfg.time["T"] if cfg.time["t_cap"] is None else cfg.time["t_cap"]
        a, P0, T_emp, _ = map(list, zip(*report.tables["lifespan"][1]))
        assert report.summary["censored_at_t_cap"] == censored
        assert [x for x, t in zip(a, T_emp) if t == t_cap] == [
            float(x) for x in censored.split() if censored != "none"]
        got = report.summary["C_consistent"]
        if C_consistent is not None:
            assert got == C_consistent
        else:
            # 3/(16 P0^2 T_emp): at C = 1 the reciprocal of T_emp / T
            C = np.array(got.split(), dtype=float)
            ratios = np.array(report.summary["T_emp_over_T_guaranteed"].split(), dtype=float)
            np.testing.assert_allclose(C * ratios, 1.0, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(C, 3.0 / (16.0 * np.square(P0) * T_emp), rtol=1e-15)
        assert list(report.verdicts) == ["product_within_30pct"]

    def test_transport_fit_constant_runs(self):
        cfg = parse_config(
            "experiment: {kind: transport, fit_constant: true, n_problems: 2}\n"
            "grid: {N: 64}\ntime: {T: 0.2, dt: 1e-2}\n"
        )
        report = run_experiment(cfg, write=False)
        assert report.summary["C_emp"] > 0
        assert isinstance(report.summary["held_out_violations"], int)
        header, rows = report.tables["transport"]
        rhs = header.index("rhs")
        assert all(row[rhs] >= 0 for row in rows)

    def test_unknown_kind_refused_by_the_runner(self):
        # parse_config refuses it first; a RunConfig made by hand reaches here
        cfg = parse_config("")
        cfg = dataclasses.replace(cfg, experiment={**cfg.experiment, "kind": "bogus"})
        with pytest.raises(ValueError, match="unknown experiment kind 'bogus'"):
            run_experiment(cfg, write=False)

    def test_unknown_data_preset_refused_by_the_runner(self):
        cfg = parse_config("")
        cfg = dataclasses.replace(cfg, experiment={**cfg.experiment, "preset": "bogus"})
        with pytest.raises(RuntimeError, match="unknown data preset 'bogus'"):
            run_experiment(cfg, write=False)

    def test_transport_velocity_from_csv_equals_the_preset(self, tmp_path):
        # a field CSV holds every bit of its samples
        grid = parse_config("").make_grid()
        emit_field_csv(make_preset(grid, "sine", 0.5), tmp_path / "v.csv")
        for name, velocity in (("preset", "sine"), ("csv", str(tmp_path / "v.csv"))):
            run_experiment(parse_config("", {"experiment.kind": "transport",
                                             "experiment.velocity": velocity,
                                             "output_dir": str(tmp_path / name)}))
        assert ((tmp_path / "csv" / "transport.csv").read_bytes()
                == (tmp_path / "preset" / "transport.csv").read_bytes())

    @pytest.mark.parametrize("doc", [
        "experiment: {kind: transport}\n",
        "experiment: {kind: transport, fit_constant: true, n_problems: 1}\ngrid: {N: 64}\n",
        "experiment: {kind: stability}\ngrid: {N: 64}\n",
        "experiment: {kind: continuity}\ngrid: {N: 64}\n",
    ], ids=["transport", "transport-fit", "stability", "continuity"])
    def test_peak_grows_by_at_most_what_the_guard_prices_per_node(self, monkeypatch, doc):
        # 250 more nodes raise the peak by at most the guard's price of a
        # node each
        priced = []
        real = fwlab.harness._check_memory

        def recording(n_bytes, flags):
            priced.append(n_bytes)
            real(n_bytes, flags)

        monkeypatch.setattr(fwlab.harness, "_check_memory", recording)
        run_experiment(parse_config(doc + "time: {T: 2e-2, dt: 2e-3}\n"), write=False)
        peaks = []
        for T in (0.5, 1.0):
            cfg = parse_config(doc + f"time: {{T: {T}, dt: 2e-3}}\n")
            tracemalloc.start()
            try:
                run_experiment(cfg, write=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 250 <= priced[-1] / 501

    def test_summary_echoes_config(self, tmp_path):
        cfg = parse_config(
            "experiment: {kind: partition-check}\n"
            "seed: 42\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        run_experiment(cfg)
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "seed: 42" in text
        assert "[verdicts]" in text


def _cell_by_cell_csv(header, rows):
    """A table's CSV formatted one cell at a time by _fmt, the reference for
    the column-wise writer: rows of Python cells or the rows of an array."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([fwlab.harness._fmt(c) for c in row])
    return buf.getvalue()


_EVERY_KIND = [
    "experiment: {kind: norm}\ngrid: {N: 64}\n",
    "experiment: {kind: partition-check}\n",
    "experiment: {kind: transport}\ngrid: {N: 64}\ntime: {T: 0.2, dt: 1e-2}\n",
    "experiment: {kind: simulate}\ngrid: {N: 64}\ntime: {T: 0.2, dt: 1e-2}\n",
    "experiment: {kind: iterate}\ngrid: {N: 64}\ntime: {dt: 2e-2}\nscheme: {n_max: 3}\n",
    "experiment: {kind: lifespan-sweep, amplitudes: [0.5, 2]}\ngrid: {N: 64}\n"
    "time: {dt: 1e-2, t_cap: 2.0}\n",
    "experiment: {kind: stability}\ngrid: {N: 64}\ntime: {T: 0.2, dt: 1e-2}\n",
    "experiment: {kind: continuity}\ngrid: {N: 64}\ntime: {T: 0.2, dt: 1e-2}\n",
]


def _kind_id(doc):
    return doc.split("kind: ")[1].split("}")[0].split(",")[0]


class TestTableCsv:
    """Every table is one float array, and table_csv formats it column by
    column, byte for byte as cell by cell."""

    @pytest.mark.parametrize("doc", _EVERY_KIND, ids=_kind_id)
    def test_every_kind_holds_float_arrays(self, doc):
        report = run_experiment(parse_config(doc), write=False)
        assert report.tables
        for name, (header, table) in report.tables.items():
            assert isinstance(table, np.ndarray), name
            assert table.dtype == np.float64, name
            assert table.ndim == 2 and table.shape[1] == len(header), name

    @pytest.mark.parametrize("doc", _EVERY_KIND, ids=_kind_id)
    def test_every_kind_equals_cell_by_cell(self, doc):
        report = run_experiment(parse_config(doc), write=False)
        for name in report.tables:
            assert report.table_csv(name) == _cell_by_cell_csv(*report.tables[name])

    def test_scheme_table_equals_python_rows(self):
        # the float table writes the bytes of one Python row per iterate and
        # node, n an int and the flags bools; the gauss data at these sizes
        # break the 2*P0 bound, so both flag values are written
        cfg = parse_config("experiment: {kind: iterate, preset: gauss}\ngrid: {N: 64}\n"
                           "time: {dt: 2e-2}\nscheme: {n_max: 3}\n")
        report = run_experiment(cfg, write=False)
        trace = run_scheme(*fwlab.harness._load_initial_pair(cfg, cfg.make_grid()),
                           cfg.scheme_config())
        rows = []
        for n in range(trace.n_max + 1):
            ns = trace.norm_sum(n)
            dn = trace.d_n[n - 1] if n >= 1 else np.nan
            for i, t in enumerate(trace.time_grid):
                rows.append([n, t, ns[i], trace.bound_312[n], trace.bound_313[n], dn])
        assert not trace.bound_313.all()
        header = report.tables["scheme"][0]
        assert report.table_csv("scheme") == _cell_by_cell_csv(header, rows)

    def test_continuity_table_equals_python_rows(self):
        # j is written as the int it counts
        cfg = parse_config("experiment: {kind: continuity}\ngrid: {N: 64}\n"
                           "time: {T: 0.2, dt: 1e-2}\n")
        report = run_experiment(cfg, write=False)
        rep = continuity_experiment(*fwlab.harness._load_initial_pair(cfg, cfg.make_grid()),
                                    cfg.experiment["j_max"], cfg.scheme_config(), cfg.time["T"])
        rows = [[j, e, err] for j, (e, err) in enumerate(zip(rep.epsilons, rep.errors))]
        assert report.table_csv("continuity") == _cell_by_cell_csv(["j", "epsilon", "error"], rows)

    def test_stability_table_equals_python_rows(self):
        # one row per delta and node, in order
        cfg = parse_config("experiment: {kind: stability}\ngrid: {N: 64}\n"
                           "time: {T: 0.2, dt: 1e-2}\n")
        report = run_experiment(cfg, write=False)
        grid, deltas = cfg.make_grid(), cfg.experiment["deltas"]
        rng = np.random.default_rng(cfg.seed)
        shape_u, shape_rho = (random_band_limited(grid, rng, k_max=4) for _ in range(2))
        reports = stability_experiment(
            *fwlab.harness._load_initial_pair(cfg, grid),
            [(d * shape_u, d * shape_rho) for d in deltas], cfg.scheme_config(), cfg.time["T"])
        rows = [[d, t, D, rep.beta_fit] for d, rep in zip(deltas, reports)
                for t, D in zip(rep.time_grid, rep.norm_curve)]
        assert report.table_csv("stability") == _cell_by_cell_csv(
            ["delta", "t", "D", "beta_fit"], rows)

    def test_partition_table_equals_python_rows(self):
        # N and q_max are written as the ints they count
        report = run_experiment(parse_config("experiment: {kind: partition-check}\n"),
                                write=False)
        rows = []
        for N in (128, 256, 1024):
            for L in (1.0, 8.0):
                part = build_partition(make_grid(N, L))
                total = part.chi_mask + part.phi_masks.sum(axis=0)
                rows.append([N, L, part.q_max, float(np.max(np.abs(total - 1.0)))])
        assert report.table_csv("partition") == _cell_by_cell_csv(
            ["N", "L", "q_max", "max_residual"], rows)

    def test_special_cells_equal_cell_by_cell(self):
        columns = [
            [True, False, np.True_, np.False_],
            [0.0, -0.0, np.float64(-0.0), np.nan],
            [np.inf, -np.inf, np.float64(np.inf), 1e-320],
            [np.float32(0.1), 0.1, np.float64(0.1), 1.0 / 3.0],
        ]
        header = [f"c{i}" for i in range(len(columns))]
        rows = [list(row) for row in zip(*columns)]
        report = fwlab.harness.ExperimentReport(kind="simulate", config_echo={})
        report.tables["cells"] = (header, np.array(rows, dtype=float))
        assert report.table_csv("cells") == _cell_by_cell_csv(header, rows)
        assert report.table_csv("cells").splitlines()[1:] == [
            "1,0,inf,0.10000000149011612",
            "0,-0,-inf,0.10000000000000001",
            "1,-0,inf,0.10000000000000001",
            "0,nan,9.9998886718268301e-321,0.33333333333333331",
        ]


class TestCli:
    def test_verify_exit_code(self, capsys):
        rc = cli_main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pass" in out.lower()

    def test_norm_command(self, tmp_path):
        rc = cli_main(["norm", "--N", "128", "--preset", "sine",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_bad_config_value_fails(self, tmp_path, capsys):
        rc = cli_main(["simulate", "--s", "2.0", "--T", "0.1",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "inadmissible" in capsys.readouterr().err

    def test_run_error_is_reported_not_raised(self, tmp_path, capsys):
        # about 1e9 stored nodes: the memory guard stops the run before it starts
        rc = cli_main(["simulate", "--T", "1000000", "--dt", "1e-3",
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "change --dt or --T" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["norm", "transport", "verify"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--p", "nan", "p must be in [1, inf], got nan"),
        ("--r", "nan", "r must be in [1, inf], got nan"),
        ("--s", "nan", "s must be finite, got nan"),
        ("--s", "inf", "s must be finite, got inf"),
    ])
    def test_besov_index_not_a_number_is_one_error_line(self, tmp_path, capsys, command,
                                                       flag, value, message):
        # refused with the config, also by the kinds that never check
        # admissibility
        rc = cli_main([command, flag, value, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["transport"], ["transport", "--fit-constant"],
                                      ["stability"], ["continuity"]], ids="-".join)
    def test_memory_refusal_before_the_time_grid(self, tmp_path, capsys, argv):
        # 1e12 nodes: the time grid alone is 8 TB, which a run without the
        # guard asks numpy for and fails on with MemoryError
        tracemalloc.start()
        try:
            rc = cli_main(argv + ["--T", "1e6", "--dt", "1e-6", "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: experiment '{argv[0]}' failed: the run needs ")
        assert err.endswith("; change --dt or --T\n") and err.count("\n") == 1
        assert peak < 1e6
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data, P0", [(["--preset", "zero"], "0"),
                                          (["--amplitude", "1e-9"], "3.05e-09")])
    def test_scheme_memory_refusal_names_the_lifespan(self, tmp_path, capsys, data, P0):
        # zero or tiny data have the capped lifespan T = LIFESPAN_CAP: about
        # 1e9 nodes at the default dt, which no step or iterate count fixes
        rc = cli_main(["iterate", *data, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "GB; change --dt or --n-max" in err
        assert "T = 3/(16 C P0^2) = 1e+06" in err
        assert f"of P0 = {P0}," in err
        assert "--amplitude and --C" in err

    @pytest.mark.parametrize("text, argv, out, message", [
        pytest.param(f"seed: {seed}\n", ["norm", "--config", "run.yaml"], "out",
                     "config key seed must be a", id=seed)
        for seed in ("1.5", "abc", "[1]")
    ] + [
        pytest.param(None, ["norm", "--config", "missing.yaml"], "out",
                     "[Errno 2] No such file", id="missing-config"),
        pytest.param(None, ["norm", "--config", "."], "out", "[Errno 21] Is a directory",
                     id="directory-config"),
        pytest.param("a: [\n", ["norm", "--config", "run.yaml"], "out",
                     "config is not valid YAML", id="invalid-yaml"),
        pytest.param("grid: {N: 64, N: 128}\n", ["norm", "--config", "run.yaml"], "out",
                     "config is not valid YAML: found duplicate key 'N'", id="duplicate-key"),
        pytest.param("- 1\n", ["norm", "--config", "run.yaml"], "out",
                     "config must be a mapping", id="list-config"),
        pytest.param("grid: 5\n", ["norm", "--config", "run.yaml", "--N", "64"], "out",
                     "config section 'grid' must be a mapping", id="section-under-flag"),
        pytest.param("experiment: {amplitudes: []}\n", ["norm", "--config", "run.yaml"], "out",
                     "config key experiment.amplitudes must be a non-empty list",
                     id="empty-amplitudes"),
        pytest.param("experiment: {deltas: []}\n", ["norm", "--config", "run.yaml"], "out",
                     "config key experiment.deltas must be a non-empty list",
                     id="empty-deltas"),
        # --out names an existing file, so the output cannot be written
        pytest.param("", ["norm", "--N", "64"], "run.yaml", "[Errno 17] File exists",
                     id="output-is-file"),
    ] + [
        pytest.param(f"time: {{t_cap: {t_cap}}}\n", ["norm", "--config", "run.yaml"], "out",
                     "config key time.t_cap must be positive", id=f"t_cap-{t_cap}")
        for t_cap in ("0", "-1.0", "inf")
    ] + [
        # a time or step the run cannot count nodes of, or a scale or
        # constant it cannot divide by, is refused as config
        pytest.param(None, ["simulate", flag, value], "out",
                     f"config key {key} must be positive and finite", id=f"{key}-{value}")
        for flag, key, value in (("--dt", "time.dt", "0"), ("--dt", "time.dt", "-0.001"),
                                 ("--T", "time.T", "0"), ("--T", "time.T", "inf"),
                                 ("--t-cap", "time.t_cap", "inf"),
                                 ("--C", "scheme.C", "nan"), ("--C", "scheme.C", "inf"),
                                 ("--L", "grid.L", "inf"), ("--L", "grid.L", "nan"))
    ] + [
        # a t_cap the run can count is priced before its time grid is built
        pytest.param(None, ["lifespan", "--t-cap", "1e300", "--dt", "1e-2"], "out",
                     "experiment 'lifespan-sweep' failed: the run needs", id="t_cap-1e300"),
    ])
    def test_bad_seed_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                        text, argv, out, message):
        # every bad input, not only a bad seed, is one error line with exit 2
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / "run.yaml").write_text(text)
        rc = cli_main(argv + ["--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_config_file_plus_override(self, tmp_path):
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text("grid: {N: 128}\ntime: {T: 0.1, dt: 0.005}\n")
        rc = cli_main([
            "simulate", "--config", str(cfg_path), "--amplitude", "0.05",
            "--out", str(tmp_path / "out"),
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
        ("norm", [], "experiment", "kind", "norm"),
        ("transport", [], "experiment", "kind", "transport"),
        ("simulate", [], "experiment", "kind", "simulate"),
        ("iterate", [], "experiment", "kind", "iterate"),
        ("lifespan", [], "experiment", "kind", "lifespan-sweep"),
        ("stability", [], "experiment", "kind", "stability"),
        ("continuity", [], "experiment", "kind", "continuity"),
    ])
    def test_flag_lands_in_config_key(self, command, argv, section, key, expected):
        args = _build_parser().parse_args([command] + argv)
        cfg = _config_from_args(args)
        got = getattr(cfg, key) if section is None else getattr(cfg, section)[key]
        assert got == expected

import csv
import math
from pathlib import Path

import pytest

from mcdwin import ContinuousWindow, Receiver, msinar, prop2_interval
from mcdwin.cli import (
    CMP_HEADER,
    CONV_HEADER,
    METRICS_HEADER,
    SWEEP_HEADER,
    VER_HEADER,
    default_sampling,
    emit_config,
    main,
    parse_config,
)
from mcdwin.errors import ConfigError

AB_CONFIG = """
# Table-1 absorbing link
receiver = absorbing
d_um = 5
r_um = 5
D = 80e-12
T_s = 0.2
L = 4
Q = 500
trial.trials = 5000
trial.seed = 7
sweep.q_values = 300, 500
sweep.methods = full numeric-msinar
search.dt = 0.004
"""

PA_CONFIG = """
receiver = passive
d_um = 9
r_um = 1
D = 80e-12
T_s = 1
L = 5
Q = 2000
trial.trials = 5000
trial.seed = 3
"""


@pytest.fixture
def ab_cfg_file(tmp_path):
    path = tmp_path / "ab.cfg"
    path.write_text(AB_CONFIG)
    return str(path)


@pytest.fixture
def pa_cfg_file(tmp_path):
    path = tmp_path / "pa.cfg"
    path.write_text(PA_CONFIG)
    return str(path)


class TestConfigParsing:
    def test_micrometre_conversion(self):
        cfg = parse_config(AB_CONFIG)
        assert cfg.system.d == pytest.approx(5e-6, rel=1e-12)
        assert cfg.system.r == pytest.approx(5e-6, rel=1e-12)
        assert cfg.system.receiver is Receiver.ABSORBING
        assert cfg.q_values == (300, 500)

    def test_round_trip_identity(self):
        for text in (AB_CONFIG, PA_CONFIG):
            cfg = parse_config(text)
            assert parse_config(emit_config(cfg)) == cfg

    def test_passive_sampling_defaults(self):
        cfg = parse_config(PA_CONFIG)
        t_max = (1e-5) ** 2 / (6 * 80e-12)
        assert cfg.system.t_s == pytest.approx(t_max / 6, rel=1e-9)
        assert cfg.system.N == int(1.0 / cfg.system.t_s)

    def test_floor_seconds_policy_rejected_when_degenerate(self):
        with pytest.raises(ConfigError):
            parse_config(PA_CONFIG + "t_s_policy = floor-seconds\n")

    def test_default_sampling_literal_floor_works_for_slow_links(self):
        # a slow enough channel has t_max/6 > 1 s and survives the floor
        n, t_s = default_sampling(d=9e-3, r=1e-3, D=80e-12, T_s=400.0, floor_literal=True)
        assert t_s == math.floor(((1e-2) ** 2 / (6 * 80e-12)) / 6)
        assert n == int(400.0 / t_s)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(AB_CONFIG + "bogus.key = 1\n")

    def test_both_length_units_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(AB_CONFIG + "d = 5e-6\n")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(AB_CONFIG + "method = magic\n")


class TestGoldenHeaders:
    def test_schema_headers_are_pinned(self):
        assert METRICS_HEADER == [
            "schema", "t1", "t2", "n1", "n2", "sir", "sid", "sinar", "msinar", "msid",
        ]
        assert SWEEP_HEADER == [
            "schema", "receiver", "T_s", "L", "Q", "scheme", "resolved_method",
            "t1", "t2", "n1", "n2", "tau", "threshold", "ber_analytic", "ber_mc",
            "mc_ci_halfwidth", "trials", "seed",
        ]
        assert CONV_HEADER == [
            "schema", "figure", "receiver", "T_s", "L", "Q", "scheme",
            "t1", "t2", "n1", "n2",
        ]
        assert VER_HEADER == [
            "schema", "figure", "receiver", "T_s", "L", "Q", "scheme", "threshold",
            "ber_analytic", "ber_mc", "mc_ci_halfwidth", "trials",
        ]
        # one BER triple per comparison scheme
        for scheme in ("numeric_msinar", "numeric_sinar", "numeric_sid", "shift_tau", "full"):
            assert f"{scheme}_ber_mc" in CMP_HEADER
            assert f"{scheme}_ber_analytic" in CMP_HEADER
            assert f"{scheme}_mc_ci_halfwidth" in CMP_HEADER


class TestMetricsCommand:
    def test_csv_round_trip_against_library(self, ab_cfg_file, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["metrics", "-c", ab_cfg_file, "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 1
        assert rows[0]["schema"] == "mcdwin-metrics-v1"
        params = parse_config(Path(ab_cfg_file).read_text()).system
        probe = rows[len(rows) // 2]
        window = ContinuousWindow(float(probe["t1"]), float(probe["t2"]))
        assert float(probe["msinar"]) == msinar(params, window)

    def test_passive_metrics_round_trip(self, pa_cfg_file, tmp_path):
        from mcdwin import SampledWindow

        out = tmp_path / "metrics.csv"
        assert main(["metrics", "-c", pa_cfg_file, "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        params = parse_config(Path(pa_cfg_file).read_text()).system
        assert len(rows) == (params.N + 1) * (params.N + 2) // 2
        probe = rows[len(rows) // 3]
        window = SampledWindow(int(probe["n1"]), int(probe["n2"]))
        assert float(probe["msinar"]) == msinar(params, window)

    def test_msinar_argmax_matches_numeric_search(self, ab_cfg_file, tmp_path):
        # Q = 500 sits below q_hat here, so the emitted column and the
        # regime-clamped search agree on the argmax
        from mcdwin import Metric, numeric_metric_search, regime_q_hat

        params = parse_config(Path(ab_cfg_file).read_text()).system
        assert params.Q < regime_q_hat(params)
        out = tmp_path / "metrics.csv"
        main(["metrics", "-c", ab_cfg_file, "-o", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        best = max(
            rows,
            key=lambda row: (float(row["msinar"]), -float(row["t1"]), float(row["t2"])),
        )
        res = numeric_metric_search(params, Metric.MSINAR, dt=0.004)
        assert float(best["t1"]) == pytest.approx(res.window.t1, abs=1e-12)
        assert float(best["t2"]) == pytest.approx(res.window.t2, abs=1e-12)


class TestOptimizeCommand:
    def test_prop1_dispatch_below_qhat(self, tmp_path, capsys):
        code = main(
            [
                "optimize",
                "-s", "receiver=absorbing", "-s", "d_um=5", "-s", "r_um=5",
                "-s", "D=80e-12", "-s", "T_s=0.2", "-s", "L=1", "-s", "Q=50",
            ]
        )
        out = dict(
            line.split(" = ", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert code == 0
        assert out["method"] == "prop1"
        assert out["regime"] == "below-qhat"

    def test_emits_library_intermediates(self, capsys):
        text = (
            "receiver = absorbing\nd_um = 5\nr_um = 5\nD = 80e-12\n"
            "T_s = 0.2\nL = 8\nQ = 100\n"
        )
        main(
            [
                "optimize",
                "-s", "receiver=absorbing", "-s", "d_um=5", "-s", "r_um=5",
                "-s", "D=80e-12", "-s", "T_s=0.2", "-s", "L=8", "-s", "Q=100",
            ]
        )
        out = dict(
            line.split(" = ", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        # drive the library with the identically parsed parameters: the
        # printed 17-digit values then round-trip exactly
        res = prop2_interval(parse_config(text).system)
        assert float(out["delta1"]) == res.intermediates.delta1
        assert float(out["delta2"]) == res.intermediates.delta2
        assert float(out["t1"]) == res.window.t1

    def test_passive_window_within_bounds(self, pa_cfg_file, capsys):
        assert main(["optimize", "-c", pa_cfg_file]) == 0
        out = dict(
            line.split(" = ", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        n1, n2 = int(out["n1"]), int(out["n2"])
        assert 0 <= n1 <= n2 <= 28


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("receiver = absorbing\nwhat = 1\n")
        assert main(["optimize", "-c", str(bad)]) == 2

    def test_domain_error_is_3(self, capsys):
        # T_s below 74 m^2 / 120 makes the closed form invalid
        assert (
            main(
                [
                    "optimize",
                    "-s", "receiver=absorbing", "-s", "d_um=5", "-s", "r_um=5",
                    "-s", "D=80e-12", "-s", "T_s=0.04", "-s", "L=1", "-s", "Q=50",
                ]
            )
            == 3
        )
        assert "SymbolTooShort" in capsys.readouterr().err

    def test_io_error_is_4(self, ab_cfg_file):
        assert main(["metrics", "-c", ab_cfg_file, "-o", "/nonexistent-dir/x.csv"]) == 4

    def test_missing_config_file_is_4(self):
        assert main(["optimize", "-c", "/nonexistent.cfg"]) == 4


class TestSimulateAndSweep:
    def test_simulate_prints_key_values(self, ab_cfg_file, capsys):
        assert main(["simulate", "-c", ab_cfg_file, "-s", "method=full"]) == 0
        out = dict(
            line.split(" = ", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert out["method"] == "full"
        assert 0.0 <= float(out["ber_mc"]) <= 1.0
        assert int(out["trials"]) == 5000

    def test_sweep_writes_rows(self, ab_cfg_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "-c", ab_cfg_file, "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 Q x 2 schemes
        assert {row["scheme"] for row in rows} == {"full", "numeric-msinar"}
        assert all(row["schema"] == "mcdwin-sweep-v1" for row in rows)

    def test_sweep_deterministic_across_workers(self, ab_cfg_file, tmp_path):
        outputs = []
        for i, workers in enumerate((1, 2)):
            out = tmp_path / f"sweep{i}.csv"
            main(["sweep", "-c", ab_cfg_file, "-o", str(out), "--workers", str(workers)])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_simulate_deterministic(self, ab_cfg_file, capsys):
        main(["simulate", "-c", ab_cfg_file, "-s", "method=full"])
        first = capsys.readouterr().out
        main(["simulate", "-c", ab_cfg_file, "-s", "method=full"])
        assert capsys.readouterr().out == first

    def test_worker_env_var(self, ab_cfg_file, tmp_path, monkeypatch):
        out = tmp_path / "sweep.csv"
        monkeypatch.setenv("MCDWIN_WORKERS", "not-a-number")
        assert main(["sweep", "-c", ab_cfg_file, "-o", str(out)]) == 2
        # the flag wins over a bad environment value
        assert main(["sweep", "-c", ab_cfg_file, "-o", str(out), "--workers", "1"]) == 0
        monkeypatch.setenv("MCDWIN_WORKERS", "2")
        assert main(["sweep", "-c", ab_cfg_file, "-o", str(out)]) == 0


class TestInputValidation:
    def test_zero_trials_rejected(self, ab_cfg_file, capsys):
        assert main(["optimize", "-c", ab_cfg_file, "-s", "trial.trials=0"]) == 2
        assert "trials" in capsys.readouterr().err

    def test_absent_trials_uses_default(self):
        config = parse_config(AB_CONFIG.replace("trial.trials = 5000\n", ""))
        assert config.trial.trials == 100_000

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_workers_below_one_rejected(self, ab_cfg_file, tmp_path, monkeypatch, value):
        out = str(tmp_path / "sweep.csv")
        sweep_args = ["sweep", "-c", ab_cfg_file, "-o", out]
        assert main(sweep_args + ["--workers", value]) == 2
        assert main(sweep_args + ["-s", f"workers={value}"]) == 2
        monkeypatch.setenv("MCDWIN_WORKERS", value)
        assert main(sweep_args) == 2
        assert main(["reproduce", "conv-pa", "-o", str(tmp_path), "--workers", value]) == 2


class TestReproduce:
    def test_conv_schema(self, tmp_path):
        out = tmp_path / "rep"
        code = main(
            [
                "reproduce", "conv-ab", "-o", str(out),
                "--q-points", "2", "--q-min", "400", "--q-max", "2000",
                "--grid-divisions", "20", "--trials", "1000",
            ]
        )
        assert code == 0
        with open(out / "conv-ab.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        # one row per (T_s, L, Q, scheme)
        assert len(rows) == 2 * 4 * 2 * 2
        assert all(row["schema"] == "mcdwin-conv-v1" for row in rows)
        seen = {(row["T_s"], row["L"], row["Q"], row["scheme"]) for row in rows}
        assert len(seen) == len(rows)

    def test_cmp_passive_contains_all_schemes(self, tmp_path):
        out = tmp_path / "rep"
        code = main(
            [
                "reproduce", "cmp-pa", "-o", str(out),
                "--q-points", "1", "--q-min", "2000", "--q-max", "2000",
                "--trials", "2000",
            ]
        )
        assert code == 0
        with open(out / "cmp-pa.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4  # T_s x L grid, one row per Q
        for row in rows:
            for scheme in ("numeric_msinar", "numeric_sinar", "numeric_sid", "shift_tau", "full"):
                assert row[f"{scheme}_ber_mc"] != ""

    def test_ver_mc_agrees_with_analytic_at_large_q(self, tmp_path):
        out = tmp_path / "rep"
        code = main(
            [
                "reproduce", "ver-pa", "-o", str(out),
                "--q-points", "1", "--q-min", "2000", "--q-max", "2000",
                "--trials", "30000", "--grid-divisions", "20",
            ]
        )
        assert code == 0
        with open(out / "ver-pa.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "no verification rows produced"
        for row in rows:
            gap = abs(float(row["ber_mc"]) - float(row["ber_analytic"]))
            assert gap <= 4 * float(row["mc_ci_halfwidth"]) + 1e-12

    def test_unknown_figure_is_usage_error(self, tmp_path):
        assert main(["reproduce", "nope", "-o", str(tmp_path)]) == 2

import csv
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mcdwin import ContinuousWindow, Receiver, Scheme, msinar, optimizer, prop2_interval
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

SRC = Path(__file__).resolve().parents[1] / "src"

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

    @pytest.mark.parametrize("scheme", [scheme.value for scheme in Scheme])
    @pytest.mark.parametrize("receiver", ["absorbing", "passive"])
    def test_simulate_matches_one_row_sweep(self, receiver, scheme, tmp_path, capsys):
        # both commands evaluate a scheme the same way, so they print the
        # same window, threshold and analytic BER
        text = AB_CONFIG if receiver == "absorbing" else PA_CONFIG
        path = tmp_path / "link.cfg"
        path.write_text(text)
        sets = ["-s", "trial.trials=200", "-s", "search.dt=0.008"]
        assert main(["simulate", "-c", str(path), "-s", f"method={scheme}", *sets]) == 0
        printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.strip().splitlines())
        out = tmp_path / "row.csv"
        one_row = ["-s", f"sweep.q_values={parse_config(text).system.Q}", "-s", f"sweep.methods={scheme}"]
        assert main(["sweep", "-c", str(path), "-o", str(out), *one_row, *sets]) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        for key in ("resolved_method", "t1", "t2", "n1", "n2", "tau", "threshold", "ber_analytic"):
            assert printed[key] == row[key], key

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

    def test_negative_seed_rejected(self, ab_cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "-c", ab_cfg_file, "-o", str(out), "-s", "trial.seed=-1"]) == 2
        assert "seed" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "setting, message",
        [
            *(
                pytest.param(setting, setting.split("=")[0] + ": ", id=setting)
                for setting in ("Q=inf", "d_um=inf", "D=nan", "T_s=inf", "sweep.q_values=300 inf")
            ),
            # finite lengths whose (d + r)^2 / 4D overflows
            *(
                pytest.param(setting, "(d + r)^2 / 4D must be finite", id=setting)
                for setting in ("d_um=1e200", "r_um=1e300")
            ),
        ],
    )
    def test_non_finite_number_rejected(self, ab_cfg_file, tmp_path, capsys, setting, message):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "-c", ab_cfg_file, "-o", str(out), "-s", setting]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["d_um=1e200", "r_um=1e300", "D=1e-320"])
    def test_overflowing_geometry_rejected(self, ab_cfg_file, pa_cfg_file, capsys, setting):
        # the passive default sampling computes the peak time before SystemParams
        passive_floor = [pa_cfg_file, "-s", "t_s_policy=floor-seconds"]
        for cfg in ([ab_cfg_file], [pa_cfg_file], passive_floor):
            for command in ("optimize", "simulate"):
                assert main([command, "-c", *cfg, "-s", setting]) == 2
                assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["1e17", "5e16"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_threshold_range_past_2_53_exits_3(self, ab_cfg_file, tmp_path, command, q):
        # from 2^53 on, consecutive integers are not distinct floats and a
        # threshold scan cannot close its gaps; the subprocess timeout turns
        # a scan that never ends into a failure
        out = tmp_path / "sweep.csv"
        settings = [f"Q={q}", f"sweep.q_values={q}", "method=full", "sweep.methods=full"]
        argv = [command, "-c", ab_cfg_file, "-o", str(out)]
        for setting in settings:
            argv += ["-s", setting]
        done = subprocess.run(
            [sys.executable, "-m", "mcdwin.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 3, done.stderr
        assert "EnumerationTooLarge: threshold range [0, " in done.stderr
        assert "passes 2^53" in done.stderr
        assert not out.exists()

    def test_underflowed_passive_density_names_D(self, pa_cfg_file, capsys):
        # (4 pi D t)^1.5 underflows to 0 at D = 1e-300, which made every tap NaN
        settings = ["t_s=0.05", "L=2", "D=1e-300", "Q=1000", "method=full"]
        argv = ["simulate", "-c", pa_cfg_file]
        for setting in settings:
            argv += ["-s", setting]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert "domain error" in err
        assert "D = 1e-300" in err

    @pytest.mark.parametrize("policy", ["sixth", "floor-seconds"])
    def test_underflowed_sampling_interval_advice(self, pa_cfg_file, capsys, policy):
        # t_max/6 itself underflows: no policy helps, only an explicit t_s
        argv = ["simulate", "-c", pa_cfg_file, "-s", "d_um=1e-300", "-s", "r_um=1e-300"]
        assert main([*argv, "-s", f"t_s_policy={policy}"]) == 2
        err = capsys.readouterr().err
        assert "t_max/6 = (d + r)^2 / 36D underflows to 0 s" in err
        assert "give t_s explicitly" in err
        assert "t_s_policy" not in err

    def test_floored_sampling_interval_advice(self, pa_cfg_file, capsys):
        # Table-1 t_max/6 = 0.035 s floors to 0 s; the sixth policy would not
        assert main(["simulate", "-c", pa_cfg_file, "-s", "t_s_policy=floor-seconds"]) == 2
        err = capsys.readouterr().err
        assert "floor(0.0347222) = 0 s is degenerate; use t_s_policy = sixth" in err

    @pytest.mark.parametrize("value", ["0", "-1", "0.5", "0.3"])
    def test_grid_step_outside_the_symbol_rejected(self, ab_cfg_file, tmp_path, capsys, value):
        out = tmp_path / "out.csv"
        for command in ("sweep", "metrics"):
            argv = [command, "-c", ab_cfg_file, "-o", str(out), "-s", f"search.dt={value}"]
            assert main(argv) == 2
            assert "search.dt must be in (0, T_s = 0.2]" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_step_of_one_symbol_is_one_window(self, ab_cfg_file, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["metrics", "-c", ab_cfg_file, "-o", str(out), "-s", "search.dt=0.2"]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(float(r["t1"]), float(r["t2"])) for r in rows] == [(0.0, 0.2)]


    @pytest.mark.parametrize("command", ["sweep", "metrics"])
    def test_grid_over_the_window_cap_exits_3(self, monkeypatch, ab_cfg_file, tmp_path, capsys, command):
        # T_s / 0.004 = 50 steps: 1,275 windows of 5 taps, over a cap of 1,000
        monkeypatch.setattr(optimizer, "MAX_GRID_ELEMENTS", 1000)
        out = tmp_path / "out.csv"
        assert main([command, "-c", ab_cfg_file, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "EnumerationTooLarge" in err
        assert "step 0.004 gives 1,275 candidate windows" in err
        assert "cap of 1,000 table elements" in err
        assert not out.exists()


class TestKeyTable:
    """Every key is read, range-checked and defaulted by the key table."""

    @pytest.mark.parametrize("setting", ["D=0", "t_s=0", "T_s=0", "d_um=0"])
    @pytest.mark.parametrize("command", ["optimize", "metrics"])
    def test_passive_lengths_and_times_positive_before_sampling(self, pa_cfg_file, tmp_path, capsys, command, setting):
        out = tmp_path / "out.csv"
        assert main([command, "-c", pa_cfg_file, "-o", str(out), "-s", setting]) == 2
        assert f"key {setting.split('=')[0]}: must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["D=1e300", "t_s=1e-300", "T_s=1e300", "t_s=1e-4"])
    @pytest.mark.parametrize("command", ["optimize", "metrics"])
    def test_derived_sample_count_capped(self, pa_cfg_file, tmp_path, capsys, command, setting):
        # N = floor(T_s / t_s) is checked in float, before any grid is sized
        out = tmp_path / "out.csv"
        assert main([command, "-c", pa_cfg_file, "-o", str(out), "-s", setting]) == 2
        assert "N = floor(T_s / t_s) = " in capsys.readouterr().err
        assert not out.exists()

    def test_sample_count_bound_is_the_largest_grid_that_fits(self):
        from mcdwin.cli import _MAX_N

        assert _MAX_N == 8190
        assert (_MAX_N + 1) * (_MAX_N + 2) // 2 <= optimizer.MAX_GRID_ELEMENTS
        assert (_MAX_N + 2) * (_MAX_N + 3) // 2 > optimizer.MAX_GRID_ELEMENTS
        assert parse_config(PA_CONFIG + "N = 8190\nt_s = 1e-4\n").system.N == 8190
        with pytest.raises(ConfigError, match=r"key N: must be in \[1, 8190\], got '8191'"):
            parse_config(PA_CONFIG + "N = 8191\nt_s = 1e-4\n")

    @pytest.mark.parametrize("value", ["25", "1e9", "1e300"])
    @pytest.mark.parametrize("command", ["optimize", "metrics", "sweep"])
    def test_isi_length_capped_at_the_enumeration_limit(self, ab_cfg_file, tmp_path, capsys, command, value):
        out = tmp_path / "out.csv"
        assert main([command, "-c", ab_cfg_file, "-o", str(out), "-s", f"L={value}"]) == 2
        assert f"key L: must be in [0, 24], got '{value}'" in capsys.readouterr().err
        assert parse_config(AB_CONFIG.replace("L = 4", "L = 24")).system.L == 24

    def test_metrics_at_zero_molecules_is_a_usage_error(self, ab_cfg_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["metrics", "-c", ab_cfg_file, "-o", str(out), "-s", "Q=0"]) == 2
        assert "noise-aware metrics need Q >= 1" in capsys.readouterr().err

    def test_overlong_absorbing_symbol_names_T_s(self, ab_cfg_file, capsys):
        assert main(["optimize", "-c", ab_cfg_file, "-s", "T_s=1e300"]) == 3
        assert "T_s = 1e+300" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("sweep.q_values = 300.5", "key sweep.q_values: expected an integer, got '300.5'"),
            ("sweep.q_values = 300, -1", "key sweep.q_values: must be >= 0, got '-1'"),
            ("sweep.q_values = ,", "key sweep.q_values: no values in ','"),
            ("t_s_policy = bogus", "key t_s_policy: expected one of sixth, floor-seconds, got 'bogus'"),
            ("N = 0", "key N: must be in [1, 8190], got '0'"),
            ("t_s = -1", "key t_s: must be > 0, got '-1'"),
            ("trial.warmup_symbols = 65537", "key trial.warmup_symbols: must be in [0, 65536], got '65537'"),
            ("receiver = bogus", "key receiver: expected one of absorbing, passive, got 'bogus'"),
            ("trial.exact_counts = maybe", "key trial.exact_counts: expected one of true, yes, 1, false, no, 0"),
        ],
    )
    def test_no_value_is_silently_replaced(self, line, message):
        # each key is checked on either receiver, used or not
        with pytest.raises(ConfigError) as info:
            parse_config(AB_CONFIG + line + "\n")
        assert message in str(info.value)

    def test_empty_value_means_unset(self, ab_cfg_file, tmp_path, capsys):
        cleared = parse_config(
            AB_CONFIG + "method =\nsweep.methods =\noutput.format =\ntrial.seed =\noutput.path =\n"
        )
        defaults = parse_config(AB_CONFIG.replace("trial.seed = 7\n", "").replace("sweep.methods = full numeric-msinar\n", ""))
        assert cleared == defaults
        assert cleared.method is Scheme.CLOSED_FORM and cleared.output_path is None
        with pytest.raises(ConfigError, match="missing required key receiver"):
            parse_config(AB_CONFIG + "receiver =\n")
        # --set key= clears what the file sets
        assert main(["simulate", "-c", ab_cfg_file, "-s", "method=full", "-s", "trial.seed="]) == 0
        assert "seed = 0" in capsys.readouterr().out.splitlines()

    def test_readme_lists_exactly_the_table_keys(self):
        from mcdwin.cli import _KEYS

        readme = (SRC.parent / "README.md").read_text()
        section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
        listed = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]
        assert listed == list(_KEYS)

    def test_conv_rows_score_only_the_exhaustive_windows(self, monkeypatch, tmp_path):
        # a convergence row prints windows only: the one-column threshold scan
        # runs once per exhaustive search (its seed) and never for mSINAR
        calls = []
        original = optimizer.threshold_from_taps

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(optimizer, "threshold_from_taps", counting)
        out = tmp_path / "rep"
        small = ["--q-points", "2", "--q-min", "400", "--q-max", "2000", "--grid-divisions", "10"]
        assert main(["reproduce", "conv-ab", "-o", str(out), *small]) == 0
        with open(out / "conv-ab.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        searches = sum(row["scheme"] == "exhaustive-ber" for row in rows)
        assert searches == 2 * 4 * 2
        assert len(calls) == searches


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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--grid-divisions", "0"),
            ("--grid-divisions", "-5"),
            ("--q-points", "0"),
            ("--q-min", "nan"),
            ("--q-min", "0"),
            ("--q-max", "inf"),
            ("--q-max", "-1"),
        ],
    )
    def test_bad_numeric_argument_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "rep"
        small = ["--q-points", "1", "--q-min", "400", "--q-max", "400", "--grid-divisions", "10"]
        assert main(["reproduce", "conv-ab", "-o", str(out), *small, flag, value]) == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not out.exists()

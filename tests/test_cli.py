import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mcdwin import (
    ContinuousWindow, Method, Receiver, Scheme, cli, closed_form_interval, metrics, msinar, optimizer,
    simulate_ber_taps,
)
from mcdwin.cli import (
    CMP_HEADER,
    METRICS_HEADER,
    SWEEP_HEADER,
    VER_HEADER,
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


def _output_flag(command: str, out) -> list[str]:
    """``-o out`` for the subcommands that write a CSV; the others refuse it."""
    return ["-o", str(out)] if command in ("metrics", "sweep") else []


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

    def test_passive_sampling_defaults(self):
        cfg = parse_config(PA_CONFIG)
        t_max = (1e-5) ** 2 / (6 * 80e-12)
        assert cfg.system.t_s == pytest.approx(t_max / 6, rel=1e-9)
        assert cfg.system.N == int(1.0 / cfg.system.t_s)

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
        assert VER_HEADER == [
            "schema", "figure", "receiver", "T_s", "L", "Q", "scheme", "t1", "t2", "n1", "n2",
            "threshold", "ber_analytic", "ber_mc", "mc_ci_halfwidth", "trials",
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

    def test_no_isi_tap_is_a_usage_error(self, ab_cfg_file, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        assert main(["metrics", "-c", ab_cfg_file, "-o", str(out), "-s", "L=0"]) == 2
        assert "metrics need at least one ISI tap (L >= 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block", [9, 8, 135])
    def test_csv_does_not_depend_on_the_block_size(self, monkeypatch, ab_cfg_file, tmp_path, block):
        # 136 windows of 10 taps, in blocks of 9, 8 or 135 columns: the CSV
        # is the one of the whole table, bit for bit
        argv = ["metrics", "-c", ab_cfg_file, "-s", "L=9", "-s", "search.dt=0.0125", "-o"]
        assert main([*argv, str(tmp_path / "whole.csv")]) == 0
        monkeypatch.setattr(optimizer, "_GRID_BLOCK", block)
        assert main([*argv, str(tmp_path / "blocks.csv")]) == 0
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

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
        res = closed_form_interval(parse_config(text).system)
        assert res.method is Method.PROP2
        assert out["branch"] == res.intermediates.branch.value == "end-root"
        assert float(out["t1"]) == res.window.t1
        assert float(out["t2"]) == res.window.t2

    def test_passive_window_within_bounds(self, pa_cfg_file, capsys):
        assert main(["optimize", "-c", pa_cfg_file]) == 0
        out = dict(
            line.split(" = ", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        n1, n2 = int(out["n1"]), int(out["n2"])
        assert 0 <= n1 <= n2 <= 28

    @pytest.mark.parametrize("q, solves", [(100, 1), (2000, 2)])
    def test_regime_is_decided_once(self, ab_cfg_file, monkeypatch, capsys, q, solves):
        # q_hat is evaluated once, at the low-count window; the high-count
        # solve reads it from that result, and nothing solves again to print it
        calls = {"q_hat": 0, "_closed_form": 0}

        def count(module, name):
            inner = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(metrics, "q_hat")
        count(optimizer, "_closed_form")
        assert main(["optimize", "-c", ab_cfg_file, "-s", f"Q={q}"]) == 0
        assert calls == {"q_hat": 1, "_closed_form": solves}
        out = dict(line.split(" = ", 1) for line in capsys.readouterr().out.strip().splitlines())
        params = parse_config(AB_CONFIG + f"Q = {q}\n").system
        assert int(out["q_hat"]) == optimizer.regime_q_hat(params) == 879
        assert out["method"] == ("prop2" if q < 879 else "prop3")


# Runs each command in turn in one fresh interpreter and prints, after each,
# its exit code and the scipy modules loaded so far.
STARTUP_PROBE = """
import contextlib, io, json, sys
import mcdwin.cli
loaded = {}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = mcdwin.cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    loaded[name] = [code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
print(json.dumps(loaded))
"""


def _settings(**entries) -> list[str]:
    return [arg for key, value in entries.items() for arg in ("-s", f"{key}={value}")]


TABLE1_AB = dict(receiver="absorbing", d_um=5, r_um=5, D=80e-12, T_s=0.2, L=4)
DESIGN_PA = dict(receiver="passive", d_um=9, r_um=1, D=80e-12, T_s=2.0, L=3, Q=1000)


class TestStartup:
    """Designing a window never imports scipy: it is loaded on first use, by a
    BER tail or a count table."""

    # in order: each step sees the modules its predecessors loaded
    STEPS = [
        ("help", ["--help"]),
        ("refusal", ["optimize", *_settings(**TABLE1_AB, Q=2000, bogus=1)]),
        ("optimize-ab", ["optimize", *_settings(**TABLE1_AB, Q=2000)]),
        ("optimize-ab-1e5", ["optimize", *_settings(**TABLE1_AB, Q=100000)]),
        ("optimize-pa", ["optimize", *_settings(**DESIGN_PA)]),
        ("simulate", ["simulate", *_settings(**TABLE1_AB, Q=2000, **{"trial.trials": 2000})]),
    ]

    @pytest.fixture(scope="class")
    def loaded(self):
        done = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, json.dumps(self.STEPS)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    @pytest.mark.parametrize("step, code", [
        ("help", 0), ("refusal", 2), ("optimize-ab", 0), ("optimize-ab-1e5", 0), ("optimize-pa", 0),
    ])
    def test_design_loads_no_scipy(self, loaded, step, code):
        assert loaded[step] == [code, []]

    def test_simulate_loads_scipy(self, loaded):
        code, modules = loaded["simulate"]
        assert code == 0
        assert "scipy.special" in modules


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

    @pytest.mark.parametrize(
        "command, flag",
        [("optimize", "--workers"), ("optimize", "-o"), ("simulate", "-o"), ("metrics", "--workers")],
    )
    def test_option_a_subcommand_would_ignore_is_refused(self, ab_cfg_file, tmp_path, capsys, command, flag):
        # each subcommand takes only the options it honours
        out = tmp_path / "f"
        value = str(out) if flag == "-o" else "2"
        with pytest.raises(SystemExit) as info:
            main([command, "-c", ab_cfg_file, "-s", "method=full", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(ab_cfg_file)]

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            pytest.param(["-c", "bad.cfg"], 2, "bad.cfg:15: expected 'key = value', got 'bogus line'",
                         id="line-without-equals"),
            pytest.param(["-s", "D=abc"], 2, "key D: not a number: 'abc'", id="not-a-number"),
            pytest.param(["-s", "L=1e-1000000"], 2, "key L: expected an integer, got '1e-1000000'",
                         id="non-integral-tiny-exponent"),
            pytest.param(["-s", "Q=1e-99999999999999999999"], 2,
                         "key Q: expected an integer, got '1e-99999999999999999999'", id="exponent-past-decimal-range"),
            pytest.param(["--set", "Lfour"], 2, "--set needs key=value, got 'Lfour'", id="set-without-equals"),
            pytest.param(["-s", "d_um="], 2, "missing required key d (or d_um)", id="no-length"),
            pytest.param(["-s", "sweep.q_values="], 2, "sweep needs sweep.q_values", id="no-q-values"),
            pytest.param(["reproduce", "ver-ab", "-o", "file/out", "--q-points", "2", "--grid-divisions", "20"], 4,
                         "io error: cannot create file/out", id="output-under-a-file"),
        ],
    )
    def test_refusal_writes_nothing(self, tmp_path, monkeypatch, capsys, argv, code, message):
        # argv without a command is a sweep of ab.cfg into out.csv, options last
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ab.cfg").write_text(AB_CONFIG)
        (tmp_path / "bad.cfg").write_text(AB_CONFIG + "bogus line\n")
        (tmp_path / "file").write_text("")
        before = sorted(tmp_path.iterdir())
        if argv[0] != "reproduce":
            argv = ["sweep", "-c", "ab.cfg", "-o", "out.csv", *argv]
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["sweep", "metrics"])
    def test_csv_subcommand_without_output_path_is_2(self, ab_cfg_file, tmp_path, capsys, command):
        assert main([command, "-c", ab_cfg_file]) == 2
        assert f"{command} needs an output path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(ab_cfg_file)]


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
        # simulate draws with the config's own trial on the taps and threshold
        # the selected window was scored on
        config = parse_config(text + "trial.trials = 200\nsearch.dt = 0.008\n")
        result = optimizer.select_window(config.system, Scheme(scheme), config.search_dt)
        mc = simulate_ber_taps(config.system, result.taps, result.threshold, config.trial)
        assert float(printed["ber_mc"]) == mc.value
        assert float(printed["mc_ci_halfwidth"]) == mc.ci_halfwidth
        assert int(printed["trials"]) == mc.trials == 200


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
    def test_workers_below_one_rejected(self, ab_cfg_file, tmp_path, capsys, value):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "-c", ab_cfg_file, "-o", str(out), "--workers", value]) == 2
        assert f"--workers must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()
        assert main(["simulate", "-c", ab_cfg_file, "--workers", value]) == 2
        assert main(["reproduce", "ver-pa", "-o", str(tmp_path / "rep"), "--workers", value]) == 2
        assert not (tmp_path / "rep").exists()

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
        for cfg in (ab_cfg_file, pa_cfg_file):
            for command in ("optimize", "simulate"):
                assert main([command, "-c", cfg, "-s", setting]) == 2
                assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, message",
        [
            (["r_um=", "r=1e-320"], "d and r must be normal doubles"),
            (["d_um=", "d=1e-320"], "d and r must be normal doubles"),
            (["d_um=1e-320"], "key d_um: '1e-320' micrometres is below the least normal double"),
            (["r_um=1e-310"], "key r_um: '1e-310' micrometres is below the least normal double"),
        ],
        ids=["r", "d", "d_um", "r_um"],
    )
    def test_subnormal_length_rejected(self, ab_cfg_file, capsys, settings, message):
        # below the least normal double, q_hat's (noise/margin)^2 overflows
        # (r) or the alphas become (0, inf) and g(Q) NaN (d); a micrometre
        # length could underflow to 0 m
        argv = ["optimize", "-c", ab_cfg_file, "-s", "Q=2000"]
        assert main([*argv, *(arg for setting in settings for arg in ("-s", setting))]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["1e17", "5e16"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_threshold_range_past_2_53_exits_3(self, ab_cfg_file, tmp_path, command, q):
        # from 2^53 on, consecutive integers are not distinct floats and a
        # threshold scan cannot close its gaps; the subprocess timeout turns
        # a scan that never ends into a failure
        out = tmp_path / "sweep.csv"
        settings = [f"Q={q}", f"sweep.q_values={q}", "method=full", "sweep.methods=full"]
        argv = [command, "-c", ab_cfg_file, *_output_flag(command, out)]
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

    def test_underflowed_sampling_interval_advice(self, pa_cfg_file, capsys):
        # t_max/6 itself underflows: only an explicit t_s helps
        argv = ["simulate", "-c", pa_cfg_file, "-s", "d_um=1e-300", "-s", "r_um=1e-300"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "t_max/6 = (d + r)^2 / 36D underflows to 0 s" in err
        assert "give t_s explicitly" in err

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

    def test_shift_tau_over_the_delay_cap_exits_3(self, monkeypatch, ab_cfg_file, tmp_path, capsys):
        def build(*args):
            raise AssertionError("the delay table was built")

        monkeypatch.setattr(optimizer, "MAX_GRID_ELEMENTS", 10)
        monkeypatch.setattr(optimizer, "_shifted_means", build)
        out = tmp_path / "out.csv"
        assert main(["sweep", "-c", ab_cfg_file, "-o", str(out), "-s", "sweep.methods=shift-tau"]) == 3
        err = capsys.readouterr().err
        assert "EnumerationTooLarge" in err
        assert "shift-tau step 0.004 gives" in err
        assert "delays of 6 taps, over the cap of 10 table elements" in err
        assert not out.exists()

    def test_astronomical_delay_count_reads_short(self, ab_cfg_file, tmp_path, capsys):
        # t_max / 1e-300 delays: 4 significant figures, not a 299-digit count
        out = tmp_path / "out.csv"
        args = ["sweep", "-c", ab_cfg_file, "-o", str(out), "-s", "sweep.methods=shift-tau", "-s", "search.dt=1e-300"]
        assert main(args) == 3
        err = capsys.readouterr().err.strip()
        assert "EnumerationTooLarge" in err and "e+298 delays of 6 taps" in err
        assert len(err) < 200
        assert not out.exists()


class TestKeyTable:
    """Every key is read, range-checked and defaulted by the key table."""

    @pytest.mark.parametrize("setting", ["D=0", "t_s=0", "T_s=0", "d_um=0"])
    @pytest.mark.parametrize("command", ["optimize", "metrics"])
    def test_passive_lengths_and_times_positive_before_sampling(self, pa_cfg_file, tmp_path, capsys, command, setting):
        out = tmp_path / "out.csv"
        assert main([command, "-c", pa_cfg_file, *_output_flag(command, out), "-s", setting]) == 2
        assert f"key {setting.split('=')[0]}: must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["D=1e300", "t_s=1e-300", "T_s=1e300", "t_s=1e-4"])
    @pytest.mark.parametrize("command", ["optimize", "metrics"])
    def test_derived_sample_count_capped(self, pa_cfg_file, tmp_path, capsys, command, setting):
        # N = floor(T_s / t_s) is checked in float, before any grid is sized
        out = tmp_path / "out.csv"
        assert main([command, "-c", pa_cfg_file, *_output_flag(command, out), "-s", setting]) == 2
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
        assert main([command, "-c", ab_cfg_file, *_output_flag(command, out), "-s", f"L={value}"]) == 2
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
            ("N = 0", "key N: must be in [1, 8190], got '0'"),
            ("t_s = -1", "key t_s: must be > 0, got '-1'"),
            ("receiver = bogus", "key receiver: expected one of absorbing, passive, got 'bogus'"),
            ("Q = 1e400", "key Q: must be a finite number, got '1e400'"),
        ],
    )
    def test_no_value_is_silently_replaced(self, line, message):
        # each key is checked on either receiver, used or not
        with pytest.raises(ConfigError) as info:
            parse_config(AB_CONFIG + line + "\n")
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "line, value",
        [
            ("Q = 9007199254740993", 9007199254740993),
            ("trial.seed = 12345678901234567", 12345678901234567),
            ("sweep.q_values = 9007199254740993", (9007199254740993,)),
            ("Q = 2.5e3", 2500),
        ],
    )
    def test_integers_are_read_exactly(self, line, value):
        # through a double, 2^53 + 1 would run as 2^53
        key = line.split(" = ")[0]
        config = parse_config(AB_CONFIG + line + "\n")
        assert {"Q": config.system.Q, "trial.seed": config.trial.seed, "sweep.q_values": config.q_values}[key] == value

    @pytest.mark.parametrize("um, m", [("5", "5e-6"), ("0.7", "7e-7"), ("123.456", "1.23456e-4")])
    def test_micrometres_are_the_metre_link(self, um, m):
        # d_um = 5 is the link d = 5e-6, not 5 * 1e-6 = 4.9999999999999996e-06
        base = "receiver = absorbing\nD = 80e-12\nT_s = 0.2\nL = 4\nQ = 500\n"
        in_um = parse_config(base + f"d_um = {um}\nr_um = {um}\n").system
        assert in_um == parse_config(base + f"d = {m}\nr = {m}\n").system

    def test_empty_value_means_unset(self, ab_cfg_file, tmp_path, capsys):
        cleared = parse_config(
            AB_CONFIG + "method =\nsweep.methods =\ntrial.seed =\nsearch.dt =\n"
        )
        defaults = parse_config(
            AB_CONFIG.replace("trial.seed = 7\n", "")
            .replace("sweep.methods = full numeric-msinar\n", "")
            .replace("search.dt = 0.004\n", "")
        )
        assert cleared == defaults
        assert cleared.method is Scheme.CLOSED_FORM and cleared.search_dt is None
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


class TestReproduce:
    def test_q_range_past_2_63_exits_3(self, tmp_path):
        # a numpy int64 cast wraps past 2^63; these Q reach the threshold
        # scan's documented 2^53 refusal, with no warning on the way
        argv = ["reproduce", "ver-ab", "-o", str(tmp_path), "--q-min", "1e19", "--q-max", "1e20", "--q-points", "2"]
        done = subprocess.run(
            [sys.executable, "-m", "mcdwin.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "default"},
        )
        assert done.returncode == 3, done.stderr
        assert "EnumerationTooLarge: threshold range [0, " in done.stderr
        assert "Warning" not in done.stderr

    @staticmethod
    def _ver_rows(tmp_path, figure: str) -> list[dict]:
        out = tmp_path / figure
        small = ["--q-points", "2", "--q-min", "400", "--q-max", "2000", "--grid-divisions", "10", "--trials", "1"]
        assert main(["reproduce", figure, "-o", str(out), *small]) == 0
        with open(out / f"{figure}.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_ver_schema(self, tmp_path):
        for figure, pair, empty in (("ver-ab", ("t1", "t2"), ("n1", "n2")), ("ver-pa", ("n1", "n2"), ("t1", "t2"))):
            rows = self._ver_rows(tmp_path, figure)
            # one row per (T_s, L, Q, scheme): 2 T_s x 4 L x 2 Q x 3 schemes
            assert len(rows) == 2 * 4 * 2 * 3
            assert all(row["schema"] == "mcdwin-ver-v2" for row in rows)
            assert len({(row["T_s"], row["L"], row["Q"], row["scheme"]) for row in rows}) == len(rows)
            # the receiver's window pair is set, the other one empty
            for row in rows:
                assert all(row[name] != "" for name in pair) and all(row[name] == "" for name in empty)

    @pytest.mark.parametrize("kind", ["ab", "pa"])
    def test_ver_windows_are_the_direct_searches(self, tmp_path, kind):
        # the convergence figure is the numeric-msinar and exhaustive-ber
        # windows of the ver rows: each equals its search called directly
        searches = {
            "numeric-msinar": lambda params, dt: optimizer.numeric_metric_search(params, metrics.Metric.MSINAR, dt),
            "exhaustive-ber": optimizer.exhaustive_ber_search,
        }
        checked = set()
        for row in self._ver_rows(tmp_path, f"ver-{kind}"):
            if row["scheme"] not in searches:
                continue
            params = cli.config_from_entries(
                {**cli._TABLE1[kind], "T_s": row["T_s"], "L": row["L"], "Q": row["Q"]}
            ).system
            window = searches[row["scheme"]](params, params.T_s / 10).window
            assert [row[name] for name in ("t1", "t2", "n1", "n2")] == [cli._fmt(c) for c in cli._window_cells(window)]
            checked.add((row["T_s"], row["L"], row["Q"], row["scheme"]))
        assert len(checked) == 2 * 4 * 2 * 2

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

    def test_unknown_figure_is_usage_error(self, tmp_path, capsys):
        # no conv figures: the convergence windows are the ver rows' t1, t2, n1, n2
        for figure in ("nope", "conv-ab"):
            out = tmp_path / figure
            assert main(["reproduce", figure, "-o", str(out)]) == 2
            assert f"unknown figure id {figure!r}" in capsys.readouterr().err
            assert not out.exists()

    def test_readme_lists_exactly_the_reproduce_figures(self):
        readme = (SRC.parent / "README.md").read_text()
        listed = readme.split("`reproduce {", 1)[1].split("}`", 1)[0]
        assert tuple(listed.replace(",", " ").split()) == cli.REPRODUCE_FIGURES

    def test_worker_count_keeps_csv(self, tmp_path, monkeypatch):
        # 70,000 trials are two RNG chunks, so two workers split every row
        seen = []
        original = cli.sweep

        def recording(*args, **kwargs):
            seen.append(kwargs["workers"])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "sweep", recording)
        small = ["--q-points", "1", "--q-min", "2000", "--q-max", "2000", "--grid-divisions", "10", "--trials", "70000"]
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["reproduce", "ver-ab", "-o", str(out), *small, "--workers", workers]) == 0
            outputs.append((out / "ver-ab.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert seen == [1] * 8 + [2] * 8  # one sweep per (T_s, L)

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
        assert main(["reproduce", "ver-ab", "-o", str(out), *small, flag, value]) == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not out.exists()

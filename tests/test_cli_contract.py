"""The CLI contract, fuzzed: any one or two config keys set to an edge value.

Every invocation must end in a documented exit code with its documented
message prefix, never in an exception.  Every ``sweep`` row, and the one
row ``simulate`` prints, must pass the benchmark's oracle
(``perfbench/oracle.py``): a threshold no worse than its integer
neighbours, an analytic BER the oracle's two-tail sum reproduces, a window
inside the symbol, and an exhaustive-ber BER no worse than the full or
numeric-msinar window's.
"""
import csv
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcdwin.cli import config_from_entries, main
from conftest import load_perfbench

oracle = load_perfbench("oracle")

COMMANDS = ("optimize", "simulate", "sweep", "metrics")
COMMON = {
    "L": "2",
    "trial.trials": "256",
    "search.dt": "0.02",
    "sweep.q_values": "300 500",
    "sweep.methods": "full closed-form numeric-msinar shift-tau exhaustive-ber",
}
BASE = {
    "absorbing": {"receiver": "absorbing", "d_um": "5", "r_um": "5", "D": "80e-12", "T_s": "0.2", "Q": "500", **COMMON},
    "passive": {"receiver": "passive", "d_um": "9", "r_um": "1", "D": "80e-12", "T_s": "1", "Q": "2000", **COMMON},
}
# a valid value of every fuzzed key (on both receivers)
VALID = {
    "d_um": "9", "r_um": "1", "D": "80e-12", "T_s": "1", "L": "3", "Q": "700", "N": "20",
    "t_s": "0.05", "trial.seed": "7", "search.dt": "0.02",
    "sweep.q_values": "300 500",
}
EDGES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")
PREFIXES = {2: ("config error: ", "invalid input: "), 3: ("domain error: ",), 4: ("io error: ",)}


def _check_sweep_rows(params, path: Path) -> None:
    with open(path, newline="") as fh:
        rows = [oracle.Row.from_csv(cells) for cells in csv.DictReader(fh)]
    assert rows
    problems = oracle.check_rows(params, rows)
    assert not problems, {i: (rows[i], found) for i, found in problems.items()}


def _check_simulate_row(config, printed: str) -> None:
    # simulate prints the sweep row's fields from resolved_method on; Q and
    # the scheme come from the config
    cells = dict(line.split(" = ", 1) for line in printed.splitlines())
    cells.update(Q=str(config.system.Q), scheme=config.method.value)
    row = oracle.Row.from_csv(cells)
    problems = oracle.check_row(config.system, row)[1]
    assert not problems, (row, problems)


@st.composite
def invocations(draw):
    receiver = draw(st.sampled_from(sorted(BASE)))
    command = draw(st.sampled_from(COMMANDS))
    keys = draw(st.lists(st.sampled_from(sorted(VALID)), max_size=2, unique=True))
    return receiver, command, {key: draw(st.sampled_from(EDGES + (VALID[key],))) for key in keys}


@settings(
    max_examples=500,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=invocations())
def test_cli_contract(case):
    receiver, command, overrides = case
    entries = {**BASE[receiver], **overrides}
    argv = [command]
    for key, value in entries.items():
        argv += ["-s", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        if command in ("sweep", "metrics"):
            argv += ["-o", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3, 4), code
        if code:
            lines = stderr.getvalue().splitlines()
            assert any(line.startswith(PREFIXES[code]) for line in lines), stderr.getvalue()
            return
        if command == "sweep":
            _check_sweep_rows(config_from_entries(entries).system, out)
        elif command == "simulate":
            _check_simulate_row(config_from_entries(entries), stdout.getvalue())

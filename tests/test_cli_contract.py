"""The CLI contract, fuzzed: any one or two config keys set to an edge value.

Every invocation must end in a documented exit code with its documented
message prefix, never in an exception.  Every ``sweep`` row must carry a
threshold no worse than its integer neighbours and an analytic BER that a
two-tail sum written here reproduces.
"""
import csv
import io
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from mcdwin.channel import ContinuousWindow, Receiver, SampledWindow, shift_taps, window_taps
from mcdwin.cli import config_from_entries, main

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

THRESHOLD_REL_TOL = 1e-9
BER_REL_TOL = 0.01


def _two_tail_ber(q: float, taps, xi: int) -> float:
    """Equal-prior BER at threshold xi: both tails straight from log_ndtr."""
    sig = taps.lags.index(0)
    others = [j for j in range(len(taps.lags)) if j != sig]
    patterns = (np.arange(1 << len(others))[:, None] >> np.arange(len(others))) & 1
    mean, var = q * np.asarray(taps.mean), q * np.asarray(taps.var)
    mu0, var0 = patterns @ mean[others], patterns @ var[others]
    total = 0.0
    # "0" errs when the count exceeds xi, "1" when it does not
    for gap, v, limit in ((mu0 - xi, var0, mu0 > xi), (xi - mu0 - mean[sig], var0 + var[sig], xi >= mu0 + mean[sig])):
        sd = np.sqrt(v)
        with np.errstate(divide="ignore"):
            tail = np.exp(log_ndtr(gap / np.where(sd > 0, sd, 1.0)))
        total += math.fsum(np.where(sd > 0, tail, limit))
    return 0.5 * total / mu0.size


def _row_taps(params, row):
    if row["resolved_method"] == "shift-tau":
        return shift_taps(params, float(row["tau"]))
    if params.receiver is Receiver.ABSORBING:
        return window_taps(params, ContinuousWindow(float(row["t1"]), float(row["t2"])))
    return window_taps(params, SampledWindow(int(row["n1"]), int(row["n2"])))


def _check_sweep_rows(params, path: Path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        q = int(row["Q"])
        taps = _row_taps(replace(params, Q=q), row)
        xi = int(row["threshold"])
        pe = _two_tail_ber(float(q), taps, xi)
        for neighbour in (xi - 1, xi + 1):
            if neighbour >= 0:
                assert pe <= _two_tail_ber(float(q), taps, neighbour) * (1 + THRESHOLD_REL_TOL), (row, neighbour)
        assert math.isclose(float(row["ber_analytic"]), pe, rel_tol=BER_REL_TOL), (row, pe)


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
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3, 4), code
        if code:
            lines = stderr.getvalue().splitlines()
            assert any(line.startswith(PREFIXES[code]) for line in lines), stderr.getvalue()
            return
        if command == "sweep":
            _check_sweep_rows(config_from_entries(entries).system, out)

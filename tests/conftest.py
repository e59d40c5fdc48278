import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from mcdwin import Receiver, SystemParams, passive_probability, window_taps

# Table-1 geometries
ABSORBING_GEOM = dict(d=5e-6, r=5e-6, D=80e-12)
PASSIVE_GEOM = dict(d=9e-6, r=1e-6, D=80e-12)

PASSIVE_T_MAX = (PASSIVE_GEOM["d"] + PASSIVE_GEOM["r"]) ** 2 / (6 * PASSIVE_GEOM["D"])
PASSIVE_T_SAMPLE = PASSIVE_T_MAX / 6.0


def absorbing_params(T_s: float = 0.2, L: int = 4, Q: int = 2000) -> SystemParams:
    return SystemParams(**ABSORBING_GEOM, T_s=T_s, L=L, Q=Q, receiver=Receiver.ABSORBING)


def passive_params(T_s: float = 1.0, L: int = 2, Q: int = 2000) -> SystemParams:
    return SystemParams(
        **PASSIVE_GEOM,
        T_s=T_s,
        L=L,
        Q=Q,
        receiver=Receiver.PASSIVE,
        N=int(T_s / PASSIVE_T_SAMPLE),
        t_s=PASSIVE_T_SAMPLE,
    )


def sample_probability(params: SystemParams, n: float, i: int) -> float:
    """p_{n,i} = p(n t_s + i T_s), sample n of the release i symbols old: the
    per-sample reference the passive taps are checked against."""
    return passive_probability(params, n * params.t_s + i * params.T_s)


@pytest.fixture
def table1_absorbing() -> SystemParams:
    return absorbing_params()


@pytest.fixture
def table1_passive() -> SystemParams:
    return passive_params()


def assert_rel(actual: float, expected: float, tol: float, label: str = "") -> None:
    assert expected != 0
    rel = abs(actual - expected) / abs(expected)
    assert rel <= tol, f"{label}: {actual} vs {expected} (rel {rel:.3g} > {tol})"


def load_perfbench(name: str):
    """``perfbench/<name>.py`` as the module ``perfbench_<name>``.

    The module is registered in sys.modules before it runs, as a dataclass
    defined in it needs; later calls return the same module.
    """
    key = f"perfbench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def _exact_binomial_ber(params, window, xi: int) -> float:
    taps = window_taps(params, window)
    total = 0.0
    for pattern in range(2**params.L):
        bits = [(pattern >> i) & 1 for i in range(params.L)]
        for hypothesis in (0, 1):
            pmf = np.array([1.0])
            for j, lag in enumerate(taps.lags):
                bit = hypothesis if lag == 0 else bits[lag - 1]
                if bit:
                    pmf = np.convolve(
                        pmf, binom.pmf(np.arange(params.Q + 1), params.Q, taps.mean[j])
                    )
            p_decide_one = float(pmf[xi + 1 :].sum())
            err = p_decide_one if hypothesis == 0 else 1.0 - p_decide_one
            total += 0.5 * err / 2**params.L
    return total

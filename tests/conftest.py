import pytest

from mcdwin import Receiver, SystemParams, passive_probability

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

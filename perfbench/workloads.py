"""Workload definitions: the `mcdwin sweep` invocations each workload runs.

A workload is a list of sweep invocations; one invocation is one generated
config file and one `mcdwin sweep` call.  A point is one row of the sweep
CSV: (Q, scheme) -> window, threshold, analytic BER and MC estimate.

The seed only sets `trial.seed`, so every seed does the same search work and
only the Monte Carlo draws change.
"""
from __future__ import annotations

from dataclasses import dataclass

# Table-1 geometries, in the units the config format takes.
ABSORBING = {"receiver": "absorbing", "d_um": 5, "r_um": 5, "D": 80e-12}
PASSIVE = {"receiver": "passive", "d_um": 9, "r_um": 1, "D": 80e-12}

DESIGN_SCHEMES = ("full", "closed-form", "numeric-msinar", "shift-tau", "exhaustive-ber")
VERIFY_SCHEMES = ("full", "closed-form", "numeric-msinar")


@dataclass(frozen=True)
class Invocation:
    geometry: dict
    T_s: float
    L: int
    q_values: tuple[int, ...]
    schemes: tuple[str, ...]
    # search grid step as T_s / grid_divisions; None keeps the library default
    grid_divisions: int | None = None

    @property
    def points(self) -> int:
        return len(self.q_values) * len(self.schemes)

    def config_text(self, trials: int, seed: int) -> str:
        entries = dict(self.geometry)
        entries.update(
            {
                "T_s": repr(self.T_s),
                "L": self.L,
                "Q": self.q_values[0],
                "sweep.q_values": " ".join(str(q) for q in self.q_values),
                "sweep.methods": " ".join(self.schemes),
                "trial.trials": trials,
                "trial.seed": seed,
            }
        )
        if self.grid_divisions is not None:
            entries["search.dt"] = repr(self.T_s / self.grid_divisions)
        return "".join(f"{key} = {value}\n" for key, value in entries.items())

    def label(self) -> str:
        grid = f" T_s/{self.grid_divisions}" if self.grid_divisions else ""
        return f"{self.geometry['receiver']} T_s={self.T_s} L={self.L}{grid}"


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    invocations: tuple[Invocation, ...]
    # trials per point; >= 1 because `trial.trials = 0` reads as the default
    trials: int
    workers: int

    @property
    def points(self) -> int:
        return sum(inv.points for inv in self.invocations)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="design-ab",
            invocations=(
                Invocation(ABSORBING, 0.2, 4, (100, 10000), DESIGN_SCHEMES, 80),
                Invocation(ABSORBING, 0.2, 8, (100, 10000), DESIGN_SCHEMES, 80),
                Invocation(ABSORBING, 0.2, 4, (30000, 100000), DESIGN_SCHEMES, 40),
            ),
            trials=1,
            workers=1,
        ),
        Workload(
            name="design-pa",
            invocations=(
                Invocation(PASSIVE, 2.0, 3, (1000, 10000), DESIGN_SCHEMES),
                Invocation(PASSIVE, 2.0, 10, (1000, 10000), DESIGN_SCHEMES),
            ),
            trials=1,
            workers=1,
        ),
        Workload(
            name="verify-mc",
            invocations=(
                Invocation(ABSORBING, 0.2, 8, (1000, 10000), VERIFY_SCHEMES),
                Invocation(PASSIVE, 1.0, 5, (1000, 10000), VERIFY_SCHEMES),
            ),
            trials=3_000_000,
            workers=2,
        ),
    )
}

# Used only by the self-test: every scheme, both receivers, a process pool.
TINY = Workload(
    name="tiny",
    invocations=(
        Invocation(ABSORBING, 0.2, 2, (100, 1000), DESIGN_SCHEMES, 20),
        Invocation(PASSIVE, 1.0, 2, (1000,), DESIGN_SCHEMES),
    ),
    trials=70_000,
    workers=2,
)

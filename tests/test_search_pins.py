"""Bit-identity pins for the grid window searches.

``tests/data/search_pins.json`` records, per search, the ``repr`` of the
selected window and its objective value.  The two least-BER searches add
tau and the threshold and BER they return for their winner, which must
equal a fresh threshold scan of the winning taps; the three numeric metric
searches (on the cases with L >= 1 and Q >= 1, where they are defined) add
the degenerate flag.  Refactors of the searches must leave every entry
unchanged.  Regenerate the file (only when outputs are meant to change,
and say so in CHANGES.md) with the command below; it prints every entry
that changed, old -> new, before writing.

    PYTHONPATH=src python tests/test_search_pins.py
"""
import json
import sys
from pathlib import Path

import pytest

from mcdwin import Metric, exhaustive_ber_search, numeric_metric_search, shift_tau_search, threshold_from_taps

sys.path.insert(0, str(Path(__file__).parent))
from conftest import absorbing_params, passive_params  # noqa: E402

PINS = Path(__file__).parent / "data" / "search_pins.json"
SEARCHES = {"exhaustive": exhaustive_ber_search, "shift-tau": shift_tau_search}
NUMERIC = {"numeric-sid": Metric.SID, "numeric-sinar": Metric.SINAR, "numeric-msinar": Metric.MSINAR}


def _cases():
    for L in (0, 1, 4, 8):
        for Q in (0, 100, 10_000, 100_000):
            yield f"absorbing-L{L}-Q{Q}", absorbing_params(T_s=0.2, L=L, Q=Q), 0.2 / 40
    for L in (3, 10):
        for Q in (1_000, 10_000):
            yield f"passive-L{L}-Q{Q}", passive_params(T_s=2.0, L=L, Q=Q), None


def _keyed_cases():
    """(key, search, params, dt) of every pinned search."""
    for name, params, dt in _cases():
        searches = [*SEARCHES, *NUMERIC] if params.L >= 1 and params.Q >= 1 else SEARCHES
        for search in searches:
            yield f"{search}/{name}", search, params, dt


def _pin(search, params, dt) -> dict:
    if search in NUMERIC:
        result = numeric_metric_search(params, NUMERIC[search], dt)
        return {
            "window": repr(result.window),
            "objective_value": repr(result.objective_value),
            "degenerate": repr(result.degenerate),
        }
    result = SEARCHES[search](params, dt)
    scored = repr((result.threshold, result.ber))
    assert scored == repr(threshold_from_taps(params, result.taps))
    return {
        "window": repr(result.window),
        "objective_value": repr(result.objective_value),
        "tau": repr(result.tau),
        "threshold": scored,
    }


def _all_pins() -> dict:
    return {key: _pin(search, params, dt) for key, search, params, dt in _keyed_cases()}


CASES = [pytest.param(key, search, params, dt, id=key) for key, search, params, dt in _keyed_cases()]


@pytest.mark.parametrize("key, search, params, dt", CASES)
def test_search_matches_pin(key, search, params, dt):
    assert _pin(search, params, dt) == json.loads(PINS.read_text())[key]


def test_pins_cover_every_case():
    assert set(json.loads(PINS.read_text())) == {case.values[0] for case in CASES}


if __name__ == "__main__":
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    new = _all_pins()
    for key, pin in sorted(new.items()):
        for field, value in pin.items():
            if old.get(key, {}).get(field) != value:
                print(f"{key} {field}: {old.get(key, {}).get(field)} -> {value}")
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")

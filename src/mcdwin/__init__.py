"""mcdwin: detection-window optimization for diffusion molecular communication.

Library + CLI for computing, optimizing, and Monte-Carlo-validating the
detection interval of an OOK diffusion link with an absorbing or passive
spherical receiver.
"""

from .channel import (
    ContinuousWindow,
    DerivedConstants,
    DetectionWindow,
    Receiver,
    SampledWindow,
    SystemParams,
    TapProfile,
    derived,
    full_window,
    hitting_density,
    passive_probability,
    shift_taps,
    window_taps,
)
from .errors import (
    ConfigError,
    DegenerateWindow,
    DomainError,
    EnumerationTooLarge,
    GFactorPole,
    InfiniteSinar,
    InfiniteSir,
    McdwinError,
    NoFiniteQhat,
    SymbolTooShort,
)
from .metrics import (
    Metric,
    alphas,
    g_factor,
    msid,
    msinar,
    q_hat,
    sid,
    sinar,
    sir,
)
from .montecarlo import SweepRow, TrialConfig, simulate_ber, simulate_ber_taps, sweep
from .optimizer import (
    Branch,
    ClosedFormIntermediates,
    Method,
    OptimizationResult,
    Regime,
    Scheme,
    closed_form_interval,
    exhaustive_ber_search,
    numeric_metric_search,
    regime_q_hat,
    select_window,
    shift_tau_search,
)
from .reception import (
    BerEstimate,
    BerSource,
    ber_from_taps,
    optimal_threshold,
    threshold_from_taps,
)

__version__ = "0.1.0"

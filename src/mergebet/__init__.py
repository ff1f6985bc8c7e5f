"""Game-theoretic simulator of sequential forecast testing.

Two Forecasters announce probability measures over all future observations;
a Sceptic trades futures contracts against both. Either the forecasts merge
in total variation, or at least one Sceptic capital process grows without
bound. This package simulates the protocol, implements the mixture betting
strategy, and verifies the finite-horizon surrogates of that disjunction.
"""

from .errors import (BudgetExceeded, ConfigError, CromwellViolation, DomainError,
                     MergebetError, PhaseError)
from .measures import (Alphabet, BetaLearner, Conditioned, FiniteMixture, IID,
                       Markov, Measure, bernoulli)
from .metrics import (DEFAULT_BUDGET, HorizonProfile, expectation_sqrt_ratio,
                      hellinger_restricted, hellinger_tv_bounds, tv_restricted)
from .protocol import (BetOrder, ForecastPair, HedgeLeg, Portfolio,
                       ProtocolState, order_cost)
from .scenarios import catalog
from .strategy import (EpsilonComponent, LimWrap, LimWrappedSceptic,
                       MixtureSceptic, build_hedge, wrap_capital_path)
from .harness import (ExperimentConfig, Trace, incremental_capitals,
                      oracle_expect_capital, oracle_metrics, play,
                      run_experiment, run_on_path, summarize)

__version__ = "0.1.0"

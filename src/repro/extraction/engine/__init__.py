"""The scalable extraction engine.

The repo's one simulated-annealing extractor: a frozen, index-based
extraction problem (:mod:`problem`), delta-cost evaluation that prices an SA
move by the ancestor cone of the flipped class (:mod:`delta`; the full
re-derivation is the parity oracle in ``tests/oracles.py``), an island-model
portfolio of inline annealing / hill-climbing / random-restart chains with
periodic best-solution migration (:mod:`portfolio`), and per-chain
telemetry (:mod:`telemetry`).
"""

from repro.extraction.engine.chains import CHAIN_KINDS, ChainSpec, ChainState, init_chain, run_round
from repro.extraction.engine.delta import DeltaCostEvaluator, choice_cost
from repro.extraction.engine.portfolio import (
    DEFAULT_CHAIN_SPECS,
    SEED_STRIDE,
    PortfolioConfig,
    PortfolioResult,
    chain_seed,
    portfolio_extract,
)
from repro.extraction.engine.problem import FrozenProblem, ProblemStats
from repro.extraction.engine.telemetry import ChainProfile, ExtractionProfile, MigrationEvent

__all__ = [
    "FrozenProblem",
    "ProblemStats",
    "choice_cost",
    "DeltaCostEvaluator",
    "ChainSpec",
    "ChainState",
    "CHAIN_KINDS",
    "init_chain",
    "run_round",
    "PortfolioConfig",
    "PortfolioResult",
    "portfolio_extract",
    "chain_seed",
    "SEED_STRIDE",
    "DEFAULT_CHAIN_SPECS",
    "ExtractionProfile",
    "ChainProfile",
    "MigrationEvent",
]

"""Simulation lab for private-key quantum money.

Bills are random conjugate-coding product states; the mint verifies by
projecting onto the stored secret.  A mint that returns post-measurement
states on INVALID answers leaks its whole secret in n queries; a mint
that destroys failed bills keeps counterfeiting exponentially hard
against the attacks implemented here.
"""

from .qstate import (
    Basis,
    QubitSymbol,
    SumOfProductsState,
    VerifyOutcome,
    symbols_from_string,
    symbols_to_string,
)
from .mint import (
    BillSecret,
    Mint,
    MintPolicy,
    StateRegistry,
)
from .attacks import (
    AttackTranscript,
    LocalSession,
    StrategyKind,
    adaptive_attack,
    analytic_pass_prob,
    baseline_attack,
    forge_copies,
)
from .harness import ExperimentConfig, ResultRow, run_experiment, write_results
from .wire import MintServer, RemoteMint, remote_adaptive_attack

__all__ = [
    "Basis",
    "QubitSymbol",
    "SumOfProductsState",
    "VerifyOutcome",
    "symbols_from_string",
    "symbols_to_string",
    "BillSecret",
    "Mint",
    "MintPolicy",
    "StateRegistry",
    "AttackTranscript",
    "LocalSession",
    "StrategyKind",
    "adaptive_attack",
    "analytic_pass_prob",
    "baseline_attack",
    "forge_copies",
    "ExperimentConfig",
    "ResultRow",
    "run_experiment",
    "write_results",
    "MintServer",
    "RemoteMint",
    "remote_adaptive_attack",
]

__version__ = "0.1.0"

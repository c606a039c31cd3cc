"""Simulation lab for private-key quantum money.

Bills are random conjugate-coding product states; the mint verifies by
projecting onto the stored secret.  A mint that returns post-measurement
states on INVALID answers leaks its whole secret in n queries; a mint
that destroys failed bills keeps counterfeiting exponentially hard
against the attacks implemented here, in process, where the attacker
holds one genuine bill.  Over `qmoney serve` it does not hold yet: the
wire's `claim` hands out a fresh genuine copy of a bill on every call.

`import qmoney` loads the simulator alone: `qmoney.qstate`, `qmoney.mint`
and `qmoney.attacks`.  The Monte Carlo harness and the network layer are
modules of their own, loaded by importing `qmoney.harness` and
`qmoney.wire`, so that the attack and the mint never pay for
`dataclasses` or sockets.
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
    analytic_success_rate,
    baseline_attack,
    forge_copies,
)

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
    "analytic_success_rate",
    "baseline_attack",
    "forge_copies",
]

__version__ = "0.1.0"


"""Simulation lab for private-key quantum money.

Bills are random conjugate-coding product states; the mint verifies by
projecting onto the stored secret.  A mint that returns post-measurement
states on INVALID answers leaks its whole secret in n queries; a mint
that destroys failed bills keeps counterfeiting exponentially hard
against the attacks implemented here.

The network layer, `qmoney.wire`, loads on first use of one of its names.
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

# names served by the wire, which loads sockets only when one is asked for
_WIRE_NAMES = ("MintServer", "RemoteMint", "remote_adaptive_attack")


def __getattr__(name):
    if name == "wire" or name in _WIRE_NAMES:
        # `from . import wire` would ask this hook for `wire` again
        import importlib

        wire = importlib.import_module(".wire", __name__)
        return wire if name == "wire" else getattr(wire, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "wire", *_WIRE_NAMES})

"""Simulation lab for private-key quantum money.

Bills are random conjugate-coding product states; the mint verifies by
projecting onto the stored secret.  A mint that returns post-measurement
states on INVALID answers leaks its whole secret in n queries; a mint
that destroys failed bills keeps counterfeiting exponentially hard
against the attacks implemented here.

`import qmoney` loads the simulator alone: `qmoney.qstate`, `qmoney.mint`
and `qmoney.attacks`.  The Monte Carlo harness, `qmoney.harness`, and the
network layer, `qmoney.wire`, each load on first use of one of their
names, so that the attack and the mint never pay for `dataclasses` or
sockets.
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
]

__version__ = "0.1.0"

# the names loaded on first use, each with its module: the harness loads
# dataclasses, the wire sockets.  A module's own name maps to itself.
_LAZY = {
    "harness": "harness",
    "ExperimentConfig": "harness",
    "ResultRow": "harness",
    "run_experiment": "harness",
    "write_results": "harness",
    "wire": "wire",
    "MintServer": "wire",
    "RemoteMint": "wire",
    "remote_adaptive_attack": "wire",
}
__all__ += [name for name, module in _LAZY.items() if name != module]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from . import harness` would ask this hook for `harness` again
    import importlib

    loaded = importlib.import_module("." + module, __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_LAZY})

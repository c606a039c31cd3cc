# The mint: bill issuance, the secret database, and the verification
# oracle.  Quantum states live in a registry; a handle is the registry's
# int id for one of them.  The registry consumes each id exactly once and
# never copies its state, which is how the simulation honors no-cloning
# at the API boundary.

from __future__ import annotations

import os
import random
import re
from _thread import RLock
from typing import NamedTuple

from .qstate import (
    QubitSymbol,
    SumOfProductsState,
    VerifyOutcome,
    random_symbols,
    symbols_from_string,
    symbols_to_string,
)

SERIAL_PATTERN = re.compile(r"^WQM-[0-9a-f]{32}$")
DB_VERSION = 1


class MintError(Exception):
    """Base class for mint/registry failures; carries a stable code."""

    code = "MINT_ERROR"


class UnknownSerialError(MintError):
    code = "UNKNOWN_SERIAL"


class UnknownHandleError(MintError):
    code = "UNKNOWN_HANDLE"


class HandleConsumedError(MintError):
    code = "HANDLE_CONSUMED"


class DimensionMismatchError(MintError):
    code = "DIMENSION_MISMATCH"


class NoCloningError(MintError):
    code = "NO_CLONING"


class DatabaseFormatError(ValueError):
    """Secret database file could not be parsed."""


# BillSecret, VerifyResult and the attacks' AttackRecord are NamedTuples,
# not frozen dataclasses, because the hot paths build one per bill or per
# query and a tuple is the cheapest immutable value.  Those paths build
# them with `_tuple_new`, which skips the generated Python `__new__`.
_tuple_new = tuple.__new__


class BillSecret(NamedTuple):
    serial: str
    symbols: tuple[QubitSymbol, ...]
    denomination: str = "$20"

    @property
    def n(self) -> int:
        return len(self.symbols)


class MintPolicy:
    RETURN_ALWAYS = "return-always"
    DESTROY_ON_INVALID = "destroy-on-invalid"
    ALL = (RETURN_ALWAYS, DESTROY_ON_INVALID)

    @staticmethod
    def check(policy: str) -> str:
        if policy not in MintPolicy.ALL:
            raise ValueError(f"unknown policy {policy!r}; expected one of {MintPolicy.ALL}")
        return policy


class VerifyResult(NamedTuple):
    outcome: VerifyOutcome
    # the residue's handle; None when the mint kept the bill
    handle: int | None
    # True when the projector probability was exactly 0 or 1; used by the
    # adaptive attack's consistency guard.  None when unobservable
    # (remote sessions).
    deterministic: bool | None = True


class StateRegistry:
    """Holds the actual quantum states; callers only ever see handles,
    the int ids it hands out.

    All mutations take the registry lock, and consume-then-act is atomic,
    so concurrent callers can never obtain two live handles to one state.
    The registry is each state's only owner, so gates and measurements
    update the stored state in place.  Ids are handed out in increasing
    order, so an id below the next one that holds no state was consumed.

    `lock` is shared with the Mint that built this registry, which guards
    its own database with it too.  Holding it, the mint calls
    `consume_locked` and `register_locked`, so that issuing a bill takes
    the lock once and a verify once, or twice when it hands a state back:
    a Monte Carlo trial builds a fresh mint and registry and is
    dominated by such fixed costs.  For the
    same reason every lookup tries the dict hit first and leaves telling
    a consumed handle from an unknown one to the miss.
    """

    def __init__(self):
        # the C lock itself: threading.RLock is a Python function that returns it
        self.lock = RLock()
        self._states: dict[int, SumOfProductsState] = {}
        self._next_id = 1

    def register(self, state: SumOfProductsState) -> int:
        with self.lock:
            return self.register_locked(state)

    def register_locked(self, state: SumOfProductsState) -> int:
        """`register` for a caller that holds `lock`."""
        hid = self._next_id
        self._next_id = hid + 1
        self._states[hid] = state
        return hid

    def _live_state(self, handle: int) -> SumOfProductsState:
        # caller holds the lock
        try:
            return self._states[handle]
        except KeyError:
            raise self._gone(handle) from None

    def _gone(self, handle: int) -> MintError:
        """The error for a handle that holds no state."""
        if 0 < handle < self._next_id:
            return HandleConsumedError(f"handle {handle} was already consumed")
        return UnknownHandleError(f"unknown handle {handle}")

    def consume(self, handle: int, expected_n: int | None = None) -> SumOfProductsState:
        """Atomically take ownership of the state; the handle dies here.

        A dimension mismatch leaves the handle live.
        """
        with self.lock:
            return self.consume_locked(handle, expected_n)

    def consume_locked(self, handle: int, expected_n: int | None = None) -> SumOfProductsState:
        """`consume` for a caller that holds `lock`."""
        states = self._states
        try:
            state = states[handle]
        except KeyError:
            raise self._gone(handle) from None
        if expected_n is not None and state.n != expected_n:
            raise DimensionMismatchError(
                f"handle {handle} holds {state.n} qubits, expected {expected_n}"
            )
        del states[handle]
        return state

    def release(self, handle: int) -> None:
        self.consume(handle)

    def apply_pauli_x(self, handle: int, i: int) -> None:
        with self.lock:
            self._live_state(handle).apply_pauli_x(i)

    def apply_unitary(self, handle: int, i: int, u) -> None:
        with self.lock:
            self._live_state(handle).apply_unitary(i, u)

    def measure(self, handle: int, i: int, basis, rng: random.Random) -> int:
        with self.lock:
            try:
                state = self._states[handle]
            except KeyError:
                raise self._gone(handle) from None
            return state.measure_qubit(i, basis, rng.random())[0]

    def inspect(self, handle: int) -> SumOfProductsState:
        """The live state itself, for tests and diagnostics to read, and
        the mint's no-cloning check; not part of the attacker-facing
        surface.  Later operations on the handle change it."""
        with self.lock:
            return self._live_state(handle)

    def live_count(self) -> int:
        with self.lock:
            return len(self._states)


class Mint:
    """Issues bills, keeps the secret database, and verifies submissions.

    Each mint builds its own registry, and guards its database with the
    registry's lock (see StateRegistry).
    """

    def __init__(self, rng: random.Random | None = None):
        self.registry = StateRegistry()
        self._rng = rng if rng is not None else random.Random()
        self._lock = self.registry.lock
        # a bill's record is its secret
        self._bills: dict[str, BillSecret] = {}

    # -- issuance ---------------------------------------------------------

    def mint_bill(
        self, n: int, denomination: str = "$20", rng: random.Random | None = None
    ) -> tuple[BillSecret, int]:
        if n < 1:
            raise ValueError("bill size n must be >= 1")
        return self._issue(None, n, denomination, rng)

    def add_bill(self, symbols, denomination: str = "$20") -> tuple[BillSecret, int]:
        """Insert a bill with chosen symbols (lab use; issuance normally
        draws them uniformly via mint_bill)."""
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("bill needs at least one symbol")
        return self._issue(symbols, len(symbols), denomination, None)

    def _issue(
        self, symbols, n: int, denomination: str, rng: random.Random | None
    ) -> tuple[BillSecret, int]:
        # symbols=None draws n of them, after the serial, so seeded mints
        # keep their bills; a serial gets three draws to be fresh
        if rng is None:
            rng = self._rng
        bills = self._bills
        with self._lock:
            for _ in range(3):
                serial = f"WQM-{rng.getrandbits(128):032x}"
                if serial not in bills:
                    break
            else:
                raise MintError("serial collision persisted after 3 attempts")
            if symbols is None:
                symbols = random_symbols(rng, n)
            secret = _tuple_new(BillSecret, (serial, symbols, denomination))
            bills[serial] = secret
            return secret, self.registry.register_locked(SumOfProductsState.from_symbols(symbols))

    def issue_bill_state(self, serial: str) -> tuple[BillSecret, int]:
        """Hand out a fresh genuine copy of a stored bill's state, with the
        bill's secret, as mint_bill does.

        Lab convenience: models the attacker starting with a legitimate
        bill in hand.
        """
        secret = self.secret(serial)
        return secret, self.registry.register(SumOfProductsState.from_symbols(secret.symbols))

    def secret(self, serial: str) -> BillSecret:
        with self._lock:
            try:
                return self._bills[serial]
            except KeyError:
                raise UnknownSerialError(f"no bill with serial {serial}") from None

    # -- verification -----------------------------------------------------

    def verify(
        self,
        serial: str,
        handle: int,
        policy: str = MintPolicy.RETURN_ALWAYS,
        rng: random.Random | None = None,
    ) -> VerifyResult:
        if policy not in MintPolicy.ALL:
            MintPolicy.check(policy)
        if rng is None:
            rng = self._rng
        registry = self.registry
        with self._lock:
            try:
                symbols = self._bills[serial].symbols
            except KeyError:
                raise UnknownSerialError(f"no bill with serial {serial}") from None
            state = registry.consume_locked(handle, len(symbols))
        # the projection runs outside the lock, so a large bill does not
        # hold up other sessions; a destroying mint drops an INVALID
        # bill, so it asks for no residue and takes the lock no more
        outcome, post, p = state.measure_projector_detail(
            symbols, rng.random(), policy == MintPolicy.RETURN_ALWAYS
        )
        if post is None:
            new_handle = None
        else:
            with self._lock:
                new_handle = registry.register_locked(post)
        return _tuple_new(VerifyResult, (outcome, new_handle, p == 0.0 or p == 1.0))

    def duplicate_handle_attempt(self, handle: int) -> None:
        """Named negative path: cloning a live state always fails."""
        self.registry.inspect(handle)
        raise NoCloningError(f"handle {handle} holds an unknown quantum state; it cannot be copied")

    # -- persistence ------------------------------------------------------

    def save_db(self, path) -> None:
        """Write the database to a new file beside `path`, then move it into
        place, so a save that fails leaves the old file whole."""
        with self._lock:
            payload = {
                "version": DB_VERSION,
                "bills": [
                    {
                        "serial": b.serial,
                        "denomination": b.denomination,
                        "symbols": symbols_to_string(b.symbols),
                    }
                    for b in self._bills.values()
                ],
            }
        # here, so that importing qmoney does not load them
        import json
        import tempfile

        path = os.fspath(path)
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                                   dir=os.path.dirname(path) or ".")
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load_db(cls, path, rng: random.Random | None = None) -> "Mint":
        import json  # here, so that importing qmoney does not load it

        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except UnicodeDecodeError as exc:  # before JSONDecodeError: both are ValueErrors
            raise DatabaseFormatError(f"{path}: not UTF-8: {exc}") from None
        except json.JSONDecodeError as exc:
            raise DatabaseFormatError(f"{path}: not valid JSON: {exc}") from exc
        except RecursionError:
            raise DatabaseFormatError(f"{path}: JSON nests too deeply") from None
        if not isinstance(payload, dict):
            raise DatabaseFormatError(f"{path}: top level must be an object")
        version = payload.get("version")
        # `type(...) is int` is false for true and 1.0, which equal 1
        if type(version) is not int or version != DB_VERSION:
            raise DatabaseFormatError(
                f"{path}: unsupported database version {version!r}; expected {DB_VERSION}"
            )
        bills = payload.get("bills")
        if not isinstance(bills, list):
            raise DatabaseFormatError(f"{path}: field 'bills' must be a list")
        mint = cls(rng)
        for idx, entry in enumerate(bills):
            if not isinstance(entry, dict):
                raise DatabaseFormatError(f"{path}: bills[{idx}] must be an object")
            try:
                serial = entry["serial"]
                symbols_text = entry["symbols"]
            except KeyError as exc:
                raise DatabaseFormatError(f"{path}: bills[{idx}] missing field {exc}") from None
            denomination = entry.get("denomination", "$20")
            if not isinstance(serial, str) or not SERIAL_PATTERN.fullmatch(serial):
                raise DatabaseFormatError(f"{path}: bills[{idx}].serial {serial!r} is malformed")
            for field, value in (("symbols", symbols_text), ("denomination", denomination)):
                if not isinstance(value, str):
                    raise DatabaseFormatError(f"{path}: bills[{idx}].{field} must be a string")
            try:
                symbols = symbols_from_string(symbols_text)
            except ValueError as exc:
                raise DatabaseFormatError(f"{path}: bills[{idx}].symbols: {exc}") from exc
            if not symbols:
                raise DatabaseFormatError(f"{path}: bills[{idx}].symbols is empty")
            if serial in mint._bills:
                raise DatabaseFormatError(f"{path}: duplicate serial {serial}")
            mint._bills[serial] = BillSecret(serial, symbols, denomination)
        return mint

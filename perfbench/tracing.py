"""Span recording for the traced benchmark run.

Spans are recorded only by wrappers that this module installs, for the
traced run alone, around the public functions of each qmoney module.
Nothing under src/ knows about them.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter

from qmoney import attacks, harness
from qmoney.attacks import LocalSession
from qmoney.mint import Mint, StateRegistry
from qmoney.qstate import SumOfProductsState
from qmoney.wire import MintServer, RemoteMint

WIRE_TYPES = ("mint", "verify", "apply_x", "measure", "release")


class Tracer:
    """In-memory span log: (id, parent id, request/trial id, name, tag, start, end)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # (span id, request id) of the client request in flight; the
        # server's handler thread parents its span on it
        self.inflight: tuple[int, int] | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, tag_of=None, new_rid=False, remote_parent=False, publish=False):
        """Return fn wrapped so that every call records one span.

        tag_of(args, result) labels the span; new_rid starts a new
        request/trial id; publish marks the span as the request in
        flight while fn runs, and remote_parent parents the span on that
        request from another thread.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, rid = stack[-1]
            elif remote_parent and tracer.inflight is not None:
                parent, rid = tracer.inflight
            else:
                parent, rid = None, None
            sid = next(tracer._ids)
            if new_rid or rid is None:
                rid = sid
            stack.append((sid, rid))
            if publish:
                tracer.inflight = (sid, rid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if publish:
                    tracer.inflight = None
            tag = tag_of(args, result) if tag_of is not None else None
            tracer.spans.append((sid, parent, rid, name, tag, t0, t1))
            return result

        return wrapper

    def write(self, path) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "rid", "name", "tag", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _strategy_tag(args, _result):
    return args[0].value


def _verify_tag(_args, result):
    if result.outcome.value == "VALID":
        return "valid"
    return "invalid-returned" if result.handle is not None else "invalid-destroyed"


def _terms_tag(args, _result):
    return len(args[0].terms)


def _construct_tag(args, _result):
    return type(args[0]).__name__


def _request_tag(args, _result):
    return args[1].get("type")


def install(tracer: Tracer):
    """Install the tracing wrappers; returns a function that removes them."""
    plan = [
        (harness, "run_trial", dict(name="harness.run_trial", tag_of=_strategy_tag, new_rid=True)),
        (harness, "trial_rng", dict(name="harness.trial_rng")),
        (harness, "baseline_attack", dict(name="attacks.baseline_attack", tag_of=_strategy_tag)),
        (harness, "adaptive_attack", dict(name="attacks.adaptive_attack")),
        (attacks, "adaptive_attack", dict(name="attacks.adaptive_attack", new_rid=True)),
        (StateRegistry, "__init__", dict(name="mint.construct", tag_of=_construct_tag)),
        (Mint, "__init__", dict(name="mint.construct", tag_of=_construct_tag)),
        (Mint, "mint_bill", dict(name="mint.mint_bill")),
        (Mint, "verify", dict(name="mint.verify", tag_of=_verify_tag)),
        (SumOfProductsState, "apply_pauli_x", dict(name="qstate.apply_pauli_x")),
        (SumOfProductsState, "measure_qubit", dict(name="qstate.measure_qubit")),
        (SumOfProductsState, "measure_projector_detail",
         dict(name="qstate.measure_projector", tag_of=_terms_tag)),
        (SumOfProductsState, "compress", dict(name="qstate.compress")),
        (RemoteMint, "request",
         dict(name="wire.rtt", tag_of=_request_tag, new_rid=True, publish=True)),
        (MintServer, "handle_message", dict(name="wire.handle_message", remote_parent=True)),
    ]
    for cls in (LocalSession, RemoteMint):
        for op in ("verify", "apply_x", "measure"):
            plan.append((cls, op, dict(name=f"session.{op}")))

    saved = []
    for owner, attr, opts in plan:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(opts.pop("name"), original, **opts))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def _mean_us(durations) -> float | None:
    return statistics.fmean(durations) * 1e6 if durations else None


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from one traced phase; a layer the phase never
    called is left out, so that the caller can take it from a probe."""
    by_name: dict[str, list[float]] = defaultdict(list)
    by_tag: dict[tuple[str, object], list[float]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    names = {}
    for sid, parent, _rid, name, tag, t0, t1 in spans:
        names[sid] = name
        by_name[name].append(t1 - t0)
        by_tag[name, tag].append(t1 - t0)
        if parent is not None:
            child_time[parent] += t1 - t0

    out: dict[str, float | None] = {}
    for strategy in ("guess", "measure-copy", "adaptive"):
        out[f"harness.run_trial_us.{strategy}"] = _mean_us(by_tag["harness.run_trial", strategy])
    out["harness.trial_rng_us"] = _mean_us(by_name["harness.trial_rng"])

    # StateRegistry() + Mint(): outermost construction spans per Mint
    mints = len(by_tag["mint.construct", "Mint"])
    outer = [t1 - t0 for sid, parent, _r, name, _t, t0, t1 in spans
             if name == "mint.construct" and names.get(parent) != "mint.construct"]
    out["mint.construct_us"] = sum(outer) / mints * 1e6 if mints else None
    out["mint.mint_bill_us"] = _mean_us(by_name["mint.mint_bill"])
    out["mint.verify_us.valid"] = _mean_us(by_tag["mint.verify", "valid"])
    invalid = by_tag["mint.verify", "invalid-returned"] + by_tag["mint.verify", "invalid-destroyed"]
    out["mint.verify_us.invalid"] = _mean_us(invalid)
    bills = len(by_name["mint.mint_bill"])
    out["mint.verify_calls"] = len(by_name["mint.verify"]) / bills if bills else None

    for op in ("apply_pauli_x", "measure_qubit", "measure_projector", "compress"):
        out[f"qstate.{op}_us"] = _mean_us(by_name[f"qstate.{op}"])
    compress_calls = len(by_name["qstate.compress"])
    out["qstate.compress_calls"] = compress_calls / bills if bills else None
    useful = len(by_tag["mint.verify", "invalid-returned"])
    out["qstate.compress_useful_ratio"] = useful / compress_calls if compress_calls else None
    terms = [tag for (name, tag) in by_tag if name == "qstate.measure_projector"]
    out["qstate.terms_max"] = float(max(terms)) if terms else None

    for kind in ("guess", "measure-copy"):
        out[f"attacks.baseline_attack_us.{kind}"] = _mean_us(by_tag["attacks.baseline_attack", kind])
    attack_self, queries = 0.0, 0
    for sid, parent, _r, name, _t, t0, t1 in spans:
        if name == "attacks.adaptive_attack":
            attack_self += (t1 - t0) - child_time[sid]
        elif name == "session.verify" and names.get(parent) == "attacks.adaptive_attack":
            queries += 1
    out["attacks.self_us_per_query"] = attack_self / queries * 1e6 if queries else None

    for mtype in WIRE_TYPES:
        out[f"wire.rtt_us.{mtype}"] = _mean_us(by_tag["wire.rtt", mtype])
    parent_type = {sid: tag for sid, _p, _r, name, tag, _a, _b in spans if name == "wire.rtt"}
    handled: dict[str, list[float]] = defaultdict(list)
    for _sid, parent, _r, name, _t, t0, t1 in spans:
        if name == "wire.handle_message" and parent in parent_type:
            handled[parent_type[parent]].append(t1 - t0)
    for mtype in WIRE_TYPES:
        out[f"wire.handle_message_us.{mtype}"] = _mean_us(handled[mtype])
    transport = [t1 - t0 - child_time[sid] for sid, _p, _r, name, _t, t0, t1 in spans
                 if name == "wire.rtt"]
    out["wire.transport_us"] = _mean_us(transport)
    out["wire.rtt_samples"] = float(len(transport)) if transport else None
    return {k: v for k, v in out.items() if v is not None}

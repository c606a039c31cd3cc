# Command-line entry point.
#
# Exit codes: 0 success, 1 operational failure (I/O, network), 2 usage
# error (argparse default), 3 attack failed (e.g. the mint destroyed the
# bill).

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .attacks import (
    AttackConsistencyError,
    LocalSession,
    StrategyKind,
    adaptive_attack,
    analytic_pass_prob,
)
from .harness import ExperimentConfig, run_experiment, trial_rng, run_trial
from .mint import DatabaseFormatError, Mint, MintPolicy, UnknownSerialError
from .wire import MintServer, ProtocolError, TransportError, remote_adaptive_attack

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_ATTACK_FAILED = 3

_POLICY_CHOICES = list(MintPolicy.ALL)
_BASELINE_CHOICES = {
    "guess": StrategyKind.GUESS_RANDOM_SYMBOLS,
    "measure-copy": StrategyKind.MEASURE_RANDOM_BASIS_COPY,
}
_STRATEGY_CHOICES = {"adaptive": StrategyKind.ADAPTIVE_ORACLE, **_BASELINE_CHOICES}


def _rng_from_seed(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.Random()


def _parse_addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address must be host:port, got {text!r}")
    return host or "127.0.0.1", int(port)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--n must be a comma-separated list of integers, got {text!r}") from None
    if not values:
        raise ValueError("--n list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmoney",
        description="Private-key quantum money laboratory: mint, attack, measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mint = sub.add_parser("mint", help="mint management")
    mint_sub = p_mint.add_subparsers(dest="mint_command", required=True)
    p_new = mint_sub.add_parser("new", help="issue fresh bills into a database")
    p_new.add_argument("--n", type=int, required=True, help="qubits per bill")
    p_new.add_argument("--count", type=int, default=1, help="number of bills")
    p_new.add_argument("--db", required=True, help="secret database path")
    p_new.add_argument("--denomination", default="$20")
    p_new.add_argument("--seed", type=int, default=None)

    p_attack = sub.add_parser("attack", help="run counterfeiting attacks")
    attack_sub = p_attack.add_subparsers(dest="attack_command", required=True)

    p_ad = attack_sub.add_parser("adaptive", help="the n-query oracle attack, locally")
    p_ad.add_argument("--db", required=True)
    p_ad.add_argument("--serial", required=True)
    p_ad.add_argument("--policy", choices=_POLICY_CHOICES, default=MintPolicy.RETURN_ALWAYS)
    p_ad.add_argument("--seed", type=int, default=None)
    p_ad.add_argument("--transcript", default=None, help="write the attack transcript as JSON")

    p_bl = attack_sub.add_parser("baseline", help="no-oracle counterfeiting baselines")
    p_bl.add_argument("--strategy", choices=sorted(_BASELINE_CHOICES), required=True)
    p_bl.add_argument("--n", type=int, required=True)
    p_bl.add_argument("--trials", type=int, required=True)
    p_bl.add_argument("--seed", type=int, required=True)

    p_rm = attack_sub.add_parser("remote", help="the n-query oracle attack, over the wire")
    p_rm.add_argument("--addr", required=True, help="host:port of a running server")
    p_rm.add_argument("--serial", default=None, help="attack this bill (server hands over a copy)")
    p_rm.add_argument("--n", type=int, default=None, help="mint and attack a fresh n-qubit bill")
    p_rm.add_argument("--transcript", default=None)

    p_exp = sub.add_parser("experiment", help="Monte Carlo sweeps")
    exp_sub = p_exp.add_subparsers(dest="experiment_command", required=True)
    p_sw = exp_sub.add_parser("sweep", help="sweep a strategy over bill sizes")
    p_sw.add_argument("--strategy", choices=sorted(_STRATEGY_CHOICES), required=True)
    p_sw.add_argument("--policy", choices=_POLICY_CHOICES, default=MintPolicy.RETURN_ALWAYS)
    p_sw.add_argument("--n", required=True, help="comma-separated bill sizes, e.g. 1,2,4,8")
    p_sw.add_argument("--trials", type=int, required=True)
    p_sw.add_argument("--seed", type=int, required=True)
    p_sw.add_argument("--out", required=True)
    p_sw.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sw.add_argument("--workers", type=int, default=1,
                      help="deprecated and ignored: trials are spread over the CPUs "
                           "this process may run on")

    p_srv = sub.add_parser("serve", help="run the networked mint")
    p_srv.add_argument("--addr", required=True, help="host:port to bind")
    p_srv.add_argument("--db", default=None, help="load this secret database (else start empty)")
    p_srv.add_argument("--policy", choices=_POLICY_CHOICES, default=MintPolicy.RETURN_ALWAYS)
    p_srv.add_argument("--seed", type=int, default=None)

    return parser


def _cmd_mint_new(args) -> int:
    rng = _rng_from_seed(args.seed)
    if args.n < 1 or args.count < 1:
        print("error: --n and --count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        mint = Mint.load_db(args.db, rng=rng) if os.path.exists(args.db) else Mint(rng=rng)
    except (OSError, DatabaseFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"{'serial':40s}  {'n':>5s}  denomination")
    for _ in range(args.count):
        secret, _handle = mint.mint_bill(args.n, args.denomination, rng)
        print(f"{secret.serial:40s}  {secret.n:>5d}  {secret.denomination}")
    try:
        mint.save_db(args.db)
    except OSError as exc:
        print(f"error: cannot write {args.db}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _write_transcript(path, transcript) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(transcript.to_dict(), fh, indent=2)
        fh.write("\n")


def _report_attack(transcript) -> None:
    print(f"serial        : {transcript.serial}")
    print(f"queries used  : {transcript.queries_used}")
    print(f"learned       : {transcript.learned_string() or '(nothing)'}")
    print(f"bill recovered: {'yes' if transcript.bill_recovered else 'no'}")


def _cmd_attack_adaptive(args) -> int:
    rng = _rng_from_seed(args.seed)
    try:
        mint = Mint.load_db(args.db, rng=rng)
        secret = mint.secret(args.serial)
    except (OSError, DatabaseFormatError, UnknownSerialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    handle = mint.issue_bill_state(args.serial)
    session = LocalSession(mint, args.policy, rng)
    try:
        transcript, _final = adaptive_attack(session, args.serial, handle, secret.n)
    except AttackConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _report_attack(transcript)
    if args.transcript:
        try:
            _write_transcript(args.transcript, transcript)
        except OSError as exc:
            print(f"error: cannot write {args.transcript}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
    return EXIT_OK if transcript.bill_recovered else EXIT_ATTACK_FAILED


def _cmd_attack_baseline(args) -> int:
    if args.n < 1 or args.trials < 1:
        print("error: --n and --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    strategy = _BASELINE_CHOICES[args.strategy]
    successes = 0
    for index in range(args.trials):
        ok, _ = run_trial(strategy, MintPolicy.RETURN_ALWAYS, args.n,
                          trial_rng(args.seed, args.n, index))
        successes += ok
    empirical = successes / args.trials
    analytic = analytic_pass_prob(strategy, args.n)
    print(f"strategy : {args.strategy}")
    print(f"n        : {args.n}")
    print(f"trials   : {args.trials}")
    print(f"empirical: {empirical!r}")
    print(f"analytic : {analytic!r}")
    return EXIT_OK


def _cmd_attack_remote(args) -> int:
    try:
        host, port = _parse_addr(args.addr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.serial is None and args.n is None:
        print("error: provide --serial or --n", file=sys.stderr)
        return EXIT_USAGE
    try:
        transcript, client = remote_adaptive_attack(host, port, serial=args.serial, n=args.n)
        client.close()
    except (TransportError, ProtocolError, AttackConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _report_attack(transcript)
    if args.transcript:
        try:
            _write_transcript(args.transcript, transcript)
        except OSError as exc:
            print(f"error: cannot write {args.transcript}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
    return EXIT_OK if transcript.bill_recovered else EXIT_ATTACK_FAILED


def _cmd_experiment_sweep(args) -> int:
    try:
        n_values = _parse_n_list(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = ExperimentConfig(
        strategy=_STRATEGY_CHOICES[args.strategy],
        policy=args.policy,
        n_values=n_values,
        trials=args.trials,
        seed=args.seed,
        out_path=args.out,
        out_format=args.format,
        workers=args.workers,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.workers != 1:
        print("warning: --workers is deprecated and ignored; trials are spread over the CPUs "
              "this process may run on", file=sys.stderr)
    try:
        rows = run_experiment(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"{'n':>5s}  {'successes':>9s}  {'rate':>12s}  {'analytic':>12s}  {'mean_queries':>12s}")
    for r in rows:
        analytic = "-" if r.analytic_rate is None else f"{r.analytic_rate:.10f}"
        print(f"{r.n:>5d}  {r.successes:>9d}  {r.success_rate:>12.8f}  {analytic:>12s}  {r.mean_queries:>12.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_serve(args) -> int:
    try:
        host, port = _parse_addr(args.addr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = _rng_from_seed(args.seed)
    try:
        mint = Mint.load_db(args.db, rng=rng) if args.db else Mint(rng=rng)
    except (OSError, DatabaseFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    try:
        server = MintServer(host, port, mint, args.policy, rng)
    except OSError as exc:
        print(f"error: cannot bind {args.addr}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    bound_host, bound_port = server.address
    print(f"serving on {bound_host}:{bound_port} (policy {args.policy})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "mint":
        return _cmd_mint_new(args)
    if args.command == "attack":
        if args.attack_command == "adaptive":
            return _cmd_attack_adaptive(args)
        if args.attack_command == "baseline":
            return _cmd_attack_baseline(args)
        return _cmd_attack_remote(args)
    if args.command == "experiment":
        return _cmd_experiment_sweep(args)
    return _cmd_serve(args)


if __name__ == "__main__":
    sys.exit(main())

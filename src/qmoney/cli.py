# Command-line entry point.
#
# Exit codes: 0 success, 1 operational failure (I/O, network), 2 usage
# error (argparse default), 3 attack failed (e.g. the mint destroyed the
# bill).  A command raises UsageError or one of `_failures()`, and `main`
# alone reports it, as one `error:` line.

from __future__ import annotations

import argparse
import os
import random
import sys

from .attacks import AttackConsistencyError, LocalSession, StrategyKind, adaptive_attack
from .mint import DatabaseFormatError, Mint, MintPolicy, UnknownSerialError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_ATTACK_FAILED = 3

_POLICY_CHOICES = list(MintPolicy.ALL)
_STRATEGY_CHOICES = sorted(kind.value for kind in StrategyKind)
_BASELINE_CHOICES = [v for v in _STRATEGY_CHOICES if v != StrategyKind.ADAPTIVE_ORACLE.value]


class UsageError(Exception):
    """A bad argument that argparse cannot see; exit code 2."""


# the operational failures `main` reports with exit code 1; any other
# exception escapes with its traceback.  Only `serve` and `attack remote`
# load the wire, so `_failures` adds its two errors once it is loaded.
FAILURES = (OSError, DatabaseFormatError, UnknownSerialError, AttackConsistencyError)


def _failures() -> tuple[type[Exception], ...]:
    wire = sys.modules.get(f"{__package__}.wire")
    return FAILURES if wire is None else (*FAILURES, wire.TransportError, wire.ProtocolError)


def _parse_addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    # str.isdigit() also accepts non-ASCII digits, which int() reads or rejects
    if not sep or not (port.isascii() and port.isdigit()):
        raise UsageError(f"address must be host:port, got {text!r}")
    if int(port) > 65535:
        raise UsageError(f"port must be from 0 to 65535, got {port}")
    return host or "127.0.0.1", int(port)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--n must be a comma-separated list of integers, got {text!r}") from None
    if not values:
        raise UsageError("--n list is empty")
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
    p_new.set_defaults(run=_cmd_mint_new)

    p_attack = sub.add_parser("attack", help="run counterfeiting attacks")
    attack_sub = p_attack.add_subparsers(dest="attack_command", required=True)

    p_ad = attack_sub.add_parser("adaptive", help="the n-query oracle attack, locally")
    p_ad.add_argument("--db", required=True)
    p_ad.add_argument("--serial", required=True)
    p_ad.add_argument("--policy", choices=_POLICY_CHOICES, default=MintPolicy.RETURN_ALWAYS)
    p_ad.add_argument("--seed", type=int, default=None)
    p_ad.add_argument("--transcript", default=None, help="write the attack transcript as JSON")
    p_ad.set_defaults(run=_cmd_attack_adaptive)

    p_bl = attack_sub.add_parser("baseline", help="no-oracle counterfeiting baselines")
    p_bl.add_argument("--strategy", choices=_BASELINE_CHOICES, required=True)
    p_bl.add_argument("--n", type=int, required=True)
    p_bl.add_argument("--trials", type=int, required=True)
    p_bl.add_argument("--seed", type=int, required=True)
    p_bl.set_defaults(run=_cmd_attack_baseline)

    p_rm = attack_sub.add_parser("remote", help="the n-query oracle attack, over the wire")
    p_rm.add_argument("--addr", required=True, help="host:port of a running server")
    p_rm.add_argument("--serial", default=None, help="attack this bill (server hands over a copy)")
    p_rm.add_argument("--n", type=int, default=None, help="mint and attack a fresh n-qubit bill")
    p_rm.add_argument("--transcript", default=None)
    p_rm.set_defaults(run=_cmd_attack_remote)

    p_exp = sub.add_parser("experiment", help="Monte Carlo sweeps")
    exp_sub = p_exp.add_subparsers(dest="experiment_command", required=True)
    p_sw = exp_sub.add_parser("sweep", help="sweep a strategy over bill sizes")
    p_sw.add_argument("--strategy", choices=_STRATEGY_CHOICES, required=True)
    p_sw.add_argument("--policy", choices=_POLICY_CHOICES, default=MintPolicy.RETURN_ALWAYS)
    p_sw.add_argument("--n", required=True, help="comma-separated bill sizes, e.g. 1,2,4,8")
    p_sw.add_argument("--trials", type=int, required=True)
    p_sw.add_argument("--seed", type=int, required=True)
    p_sw.add_argument("--out", required=True)
    p_sw.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sw.set_defaults(run=_cmd_experiment_sweep)

    p_srv = sub.add_parser("serve", help="run the networked mint")
    p_srv.add_argument("--addr", required=True, help="host:port to bind")
    p_srv.add_argument("--db", default=None, help="load this secret database (else start empty)")
    p_srv.add_argument("--policy", choices=_POLICY_CHOICES, default=MintPolicy.RETURN_ALWAYS)
    p_srv.add_argument("--seed", type=int, default=None)
    p_srv.set_defaults(run=_cmd_serve)

    return parser


def _cmd_mint_new(args) -> int:
    rng = random.Random(args.seed)
    if args.n < 1 or args.count < 1:
        raise UsageError("--n and --count must be >= 1")
    mint = Mint.load_db(args.db, rng=rng) if os.path.exists(args.db) else Mint(rng=rng)
    secrets = [mint.mint_bill(args.n, args.denomination, rng)[0] for _ in range(args.count)]
    try:
        mint.save_db(args.db)
    except OSError as exc:
        raise OSError(f"cannot write {args.db}: {exc}") from exc
    # only bills the database now holds are listed
    print(f"{'serial':40s}  {'n':>5s}  denomination")
    for secret in secrets:
        print(f"{secret.serial:40s}  {secret.n:>5d}  {secret.denomination}")
    return EXIT_OK


def _finish_attack(transcript, transcript_path) -> int:
    """Report an attack, write its transcript if asked, and give the exit code."""
    print(f"serial        : {transcript.serial}")
    print(f"queries used  : {transcript.queries_used}")
    print(f"learned       : {transcript.learned_string() or '(nothing)'}")
    print(f"bill recovered: {'yes' if transcript.bill_recovered else 'no'}")
    if transcript_path:
        import json  # here, so that importing qmoney.cli does not load it

        try:
            with open(transcript_path, "w", encoding="utf-8") as fh:
                json.dump(transcript.to_dict(), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise OSError(f"cannot write {transcript_path}: {exc}") from exc
    return EXIT_OK if transcript.bill_recovered else EXIT_ATTACK_FAILED


def _cmd_attack_adaptive(args) -> int:
    rng = random.Random(args.seed)
    mint = Mint.load_db(args.db, rng=rng)
    secret, handle = mint.issue_bill_state(args.serial)
    session = LocalSession(mint, args.policy, rng)
    transcript, _final = adaptive_attack(session, args.serial, handle, secret.n)
    return _finish_attack(transcript, args.transcript)


def _cmd_attack_baseline(args) -> int:
    if args.n < 1 or args.trials < 1:
        raise UsageError("--n and --trials must be >= 1")
    from .harness import ExperimentConfig, run_experiment

    # one sweep row: the counterfeit against a returning mint
    (row,) = run_experiment(ExperimentConfig(
        strategy=StrategyKind(args.strategy),
        policy=MintPolicy.RETURN_ALWAYS,
        n_values=[args.n],
        trials=args.trials,
        seed=args.seed,
    ))
    print(f"strategy : {args.strategy}")
    print(f"n        : {args.n}")
    print(f"trials   : {args.trials}")
    print(f"empirical: {row.success_rate!r}")
    print(f"analytic : {row.analytic_rate!r}")
    return EXIT_OK


def _cmd_attack_remote(args) -> int:
    host, port = _parse_addr(args.addr)
    if (args.serial is None) == (args.n is None):
        raise UsageError("provide --serial or --n, not both")
    if args.n is not None and args.n < 1:
        raise UsageError("--n must be >= 1")
    from .wire import remote_adaptive_attack

    transcript, client = remote_adaptive_attack(host, port, serial=args.serial, n=args.n)
    client.close()
    return _finish_attack(transcript, args.transcript)


def _cmd_experiment_sweep(args) -> int:
    from .harness import ExperimentConfig, run_experiment, write_results

    config = ExperimentConfig(
        strategy=StrategyKind(args.strategy),
        policy=args.policy,
        n_values=_parse_n_list(args.n),
        trials=args.trials,
        seed=args.seed,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = run_experiment(config)
    write_results(rows, args.out, args.format)
    print(f"{'n':>5s}  {'successes':>9s}  {'rate':>12s}  {'analytic':>12s}  {'mean_queries':>12s}")
    for r in rows:
        print(f"{r.n:>5d}  {r.successes:>9d}  {r.success_rate:>12.8f}  {r.analytic_rate:>12.10f}  "
              f"{r.mean_queries:>12.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_serve(args) -> int:
    from .wire import MintServer

    host, port = _parse_addr(args.addr)
    rng = random.Random(args.seed)
    mint = Mint.load_db(args.db, rng=rng) if args.db else Mint(rng=rng)
    try:
        server = MintServer(host, port, mint, args.policy, rng)
    except OSError as exc:
        raise OSError(f"cannot bind {args.addr}: {exc}") from exc
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
    # each command's subparser names the function that runs it
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (UsageError, *_failures()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

import errno
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from qmoney import cli, harness
from qmoney.attacks import AttackConsistencyError, StrategyKind
from qmoney.cli import EXIT_ATTACK_FAILED, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from qmoney.harness import ExperimentConfig, run_experiment, write_results
from qmoney.mint import DatabaseFormatError, Mint, MintPolicy, UnknownSerialError
from qmoney.qstate import symbols_from_string
from qmoney.wire import MintServer, ProtocolError, TransportError

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs `qmoney` with Python's own SIGINT handler restored first.  A child
# of a process that ignores SIGINT (as a `cmd &` job of a script does)
# inherits SIG_IGN, and Python then installs no handler of its own.
RUN_CLI = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
           "from qmoney.cli import main; sys.exit(main())")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def extract_serial(out):
    match = re.search(r"WQM-[0-9a-f]{32}", out)
    assert match, f"no serial in output:\n{out}"
    return match.group(0)


class TestMintNew:
    def test_creates_database(self, capsys, tmp_path):
        db = tmp_path / "m.json"
        code, out, _ = run_cli(capsys, "mint", "new", "--n", "8", "--count", "2",
                               "--db", str(db), "--seed", "7")
        assert code == EXIT_OK
        serials = re.findall(r"WQM-[0-9a-f]{32}", out)
        assert len(serials) == 2
        payload = json.loads(db.read_text())
        assert payload["version"] == 1
        assert len(payload["bills"]) == 2
        assert all(len(b["symbols"]) == 8 for b in payload["bills"])

    def test_seeded_is_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "mint", "new", "--n", "4", "--db", str(a), "--seed", "9")
        run_cli(capsys, "mint", "new", "--n", "4", "--db", str(b), "--seed", "9")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_n(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "mint", "new", "--n", "0", "--db", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("field, value", [("symbols", [0]), ("denomination", ["x"])],
                             ids=["symbols", "denomination"])
    def test_non_string_field_in_db(self, capsys, tmp_path, field, value):
        db = tmp_path / "m.json"
        entry = {"serial": "WQM-" + "a" * 32, "denomination": "$20", "symbols": "01"}
        entry[field] = value
        db.write_text(json.dumps({"version": 1, "bills": [entry]}))
        before = db.read_bytes()
        code, out, err = run_cli(capsys, "mint", "new", "--n", "2", "--db", str(db))
        assert code == EXIT_FAILURE
        assert err.splitlines() == [f"error: {db}: bills[0].{field} must be a string"]
        assert out == "" and db.read_bytes() == before

    @pytest.mark.parametrize("raw, message", [
        (json.dumps({"version": 1, "bills": [
            {"serial": "WQM-" + "a" * 32 + "\n", "symbols": "01"}]}).encode(), "serial"),
        (b'{"version": true, "bills": []}', "unsupported database version True"),
        (b'{"version": 1.0, "bills": []}', "unsupported database version 1.0"),
        (b"\xff\xfe{}", "not UTF-8"),
        (b"[" * 100_000, "nests too deeply"),
        (b"[]", "top level must be an object"),
        (b'{"version": 1, "bills": {}}', "field 'bills' must be a list"),
        (b'{"version": 1, "bills": [1]}', "bills[0] must be an object"),
        (json.dumps({"version": 1, "bills": [{"serial": "WQM-" + "a" * 32}]}).encode(),
         "bills[0] missing field 'symbols'"),
        (json.dumps({"version": 1, "bills": [
            {"serial": "WQM-" + "a" * 32, "symbols": ""}]}).encode(), "bills[0].symbols is empty"),
        (json.dumps({"version": 1, "bills": [{"serial": "WQM-" + "a" * 32, "symbols": "01"}] * 2})
         .encode(), "duplicate serial WQM-" + "a" * 32),
    ], ids=["serial-newline", "version-true", "version-float", "not-utf8", "deep", "top-level",
            "bills-not-list", "entry-not-object", "no-symbols", "empty-symbols",
            "duplicate-serial"])
    def test_malformed_db(self, capsys, tmp_path, raw, message):
        db = tmp_path / "m.json"
        db.write_bytes(raw)
        code, out, err = run_cli(capsys, "mint", "new", "--n", "2", "--db", str(db))
        assert code == EXIT_FAILURE
        (line,) = err.splitlines()
        assert line.startswith(f"error: {db}: ") and message in line
        assert out == "" and db.read_bytes() == raw


    def test_missing_db_dir_exits_1(self, capsys, tmp_path):
        db = tmp_path / "missing" / "m.json"
        code, out, err = run_cli(capsys, "mint", "new", "--n", "2", "--db", str(db))
        assert code == EXIT_FAILURE
        (line,) = err.splitlines()
        assert line.startswith(f"error: cannot write {db}: ")
        assert not db.parent.exists()
        assert out == ""  # no bill was stored, so none is listed

    def test_failed_save_keeps_the_database(self, capsys, tmp_path, monkeypatch):
        db = tmp_path / "m.json"
        run_cli(capsys, "mint", "new", "--n", "4", "--count", "2", "--db", str(db), "--seed", "1")
        before = db.read_bytes()

        def dump(payload, fh, **kwargs):  # a disk that fills part way through
            fh.write(json.dumps(payload)[:18])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(json, "dump", dump)
        code, out, err = run_cli(capsys, "mint", "new", "--n", "4", "--db", str(db))
        assert code == EXIT_FAILURE
        assert err.splitlines() == [f"error: cannot write {db}: [Errno 28] No space left on device"]
        assert out == ""
        assert db.read_bytes() == before
        Mint.load_db(db)
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


# the `--transcript` files of a planted 01+- bill (mint seed 1), recorded
# when the transcript was still a dataclass
_PLANTED_RETURN_ALWAYS = """{
  "serial": "WQM-cd613e30d8f16adf91b7584a2265b1f5",
  "records": [
    {
      "qubit": 0,
      "outcome": "INVALID",
      "symbol": "0"
    },
    {
      "qubit": 1,
      "outcome": "INVALID",
      "symbol": "1"
    },
    {
      "qubit": 2,
      "outcome": "VALID",
      "symbol": "+"
    },
    {
      "qubit": 3,
      "outcome": "VALID",
      "symbol": "-"
    }
  ],
  "queries_used": 4,
  "learned": "01+-",
  "bill_recovered": true
}
"""
_PLANTED_DESTROY_ON_INVALID = """{
  "serial": "WQM-cd613e30d8f16adf91b7584a2265b1f5",
  "records": [
    {
      "qubit": 0,
      "outcome": "INVALID",
      "symbol": null
    }
  ],
  "queries_used": 1,
  "learned": "",
  "bill_recovered": false
}
"""


class TestAttackAdaptive:
    def test_mint_then_attack(self, capsys, tmp_path):
        db = tmp_path / "m.json"
        code, out, _ = run_cli(capsys, "mint", "new", "--n", "8", "--count", "1",
                               "--db", str(db), "--seed", "7")
        serial = extract_serial(out)
        code, out, _ = run_cli(capsys, "attack", "adaptive", "--db", str(db),
                               "--serial", serial, "--seed", "7")
        assert code == EXIT_OK
        assert "queries used  : 8" in out
        assert "bill recovered: yes" in out

    def test_transcript_file(self, capsys, tmp_path):
        db = tmp_path / "m.json"
        _, out, _ = run_cli(capsys, "mint", "new", "--n", "4", "--db", str(db), "--seed", "3")
        serial = extract_serial(out)
        tpath = tmp_path / "t.json"
        code, _, _ = run_cli(capsys, "attack", "adaptive", "--db", str(db), "--serial", serial,
                             "--seed", "3", "--transcript", str(tpath))
        assert code == EXIT_OK
        payload = json.loads(tpath.read_text())
        assert set(payload) == {"serial", "records", "queries_used", "learned", "bill_recovered"}
        assert payload["queries_used"] == 4
        assert payload["bill_recovered"] is True

    @pytest.mark.parametrize("policy, code, expected", [
        (MintPolicy.RETURN_ALWAYS, EXIT_OK, _PLANTED_RETURN_ALWAYS),
        (MintPolicy.DESTROY_ON_INVALID, EXIT_ATTACK_FAILED, _PLANTED_DESTROY_ON_INVALID),
    ], ids=["return-always", "destroy-on-invalid"])
    def test_transcript_bytes_are_pinned(self, capsys, tmp_path, policy, code, expected):
        db = tmp_path / "m.json"
        mint = Mint(rng=random.Random(1))
        secret, _ = mint.add_bill(symbols_from_string("01+-"))
        mint.save_db(db)
        tpath = tmp_path / "t.json"
        got, _, _ = run_cli(capsys, "attack", "adaptive", "--db", str(db), "--serial",
                            secret.serial, "--policy", policy, "--seed", "1",
                            "--transcript", str(tpath))
        assert got == code
        assert tpath.read_text() == expected

    def test_transcript_directory_exits_1(self, capsys, tmp_path):
        db = tmp_path / "m.json"
        _, out, _ = run_cli(capsys, "mint", "new", "--n", "4", "--db", str(db), "--seed", "3")
        code, _, err = run_cli(capsys, "attack", "adaptive", "--db", str(db),
                               "--serial", extract_serial(out), "--transcript", str(tmp_path))
        assert code == EXIT_FAILURE
        (line,) = err.splitlines()
        assert line.startswith(f"error: cannot write {tmp_path}: ")

    def test_destroying_mint_gives_exit_3(self, capsys, tmp_path):
        # plant a bill that must contain a Z-basis symbol
        db = tmp_path / "m.json"
        mint = Mint(rng=random.Random(1))
        secret, _ = mint.add_bill(symbols_from_string("01+-"))
        mint.save_db(db)
        code, out, _ = run_cli(capsys, "attack", "adaptive", "--db", str(db),
                               "--serial", secret.serial, "--policy", "destroy-on-invalid",
                               "--seed", "1")
        assert code == EXIT_ATTACK_FAILED
        assert "bill recovered: no" in out

    def test_unknown_serial(self, capsys, tmp_path):
        db = tmp_path / "m.json"
        run_cli(capsys, "mint", "new", "--n", "2", "--db", str(db), "--seed", "1")
        code, _, err = run_cli(capsys, "attack", "adaptive", "--db", str(db),
                               "--serial", "WQM-" + "0" * 32)
        assert code == EXIT_FAILURE
        assert "error" in err


class TestAttackBaseline:
    def test_prints_rates(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "baseline", "--strategy", "measure-copy",
                               "--n", "2", "--trials", "500", "--seed", "5")
        assert code == EXIT_OK
        assert "empirical" in out and "analytic" in out
        analytic = float(out.split("analytic :")[1].strip())
        assert analytic == pytest.approx(0.5625, abs=1e-12)

    def test_zero_trials_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "attack", "baseline", "--strategy", "guess",
                                 "--n", "2", "--trials", "0", "--seed", "5")
        assert code == EXIT_USAGE
        assert out == "" and err.splitlines() == ["error: --n and --trials must be >= 1"]

    def test_rate_lines_are_pinned(self, capsys):
        # the bytes of the serial trial loop this command used to run
        code, out, _ = run_cli(capsys, "attack", "baseline", "--strategy", "measure-copy",
                               "--n", "2", "--trials", "500", "--seed", "5")
        assert code == EXIT_OK
        assert out.splitlines()[-2:] == ["empirical: 0.582", "analytic : 0.5624999999999997"]


class TestExperimentSweep:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for path in (out1, out2):
            code, _, _ = run_cli(capsys, "experiment", "sweep", "--strategy", "guess",
                                 "--n", "1,2,4", "--trials", "500", "--seed", "1",
                                 "--out", str(path))
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format_writes_the_rows(self, capsys, tmp_path):
        path, expected = tmp_path / "r.json", tmp_path / "expected.json"
        code, _, _ = run_cli(capsys, "experiment", "sweep", "--strategy", "measure-copy",
                             "--n", "1,3", "--trials", "300", "--seed", "4",
                             "--format", "json", "--out", str(path))
        assert code == EXIT_OK
        rows = run_experiment(ExperimentConfig(StrategyKind.MEASURE_RANDOM_BASIS_COPY,
                                               MintPolicy.RETURN_ALWAYS, [1, 3], 300, 4))
        write_results(rows, expected, "json")
        assert path.read_bytes() == expected.read_bytes()

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "experiment", "sweep", "--strategy", "guess",
                                 "--n", "1,2", "--trials", "50", "--seed", "1",
                                 "--out", str(tmp_path))
        assert code == EXIT_FAILURE
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_zero_trials_exits_2(self, capsys, tmp_path):
        # ExperimentConfig.validate refuses it
        out_path = tmp_path / "r.csv"
        code, out, err = run_cli(capsys, "experiment", "sweep", "--strategy", "guess",
                                 "--n", "1,2", "--trials", "0", "--seed", "1",
                                 "--out", str(out_path))
        assert code == EXIT_USAGE
        assert out == "" and err.splitlines() == ["error: trials must be >= 1"]
        assert not out_path.exists()

    def test_bad_n_list(self, capsys, tmp_path):
        for n_list, message in [("1,two", "--n must be a comma-separated list of integers"),
                                (",", "--n list is empty")]:
            code, _, err = run_cli(capsys, "experiment", "sweep", "--strategy", "guess",
                                   "--n", n_list, "--trials", "10", "--seed", "1",
                                   "--out", str(tmp_path / "r.csv"))
            assert code == EXIT_USAGE
            (line,) = err.splitlines()
            assert line.startswith("error: ") and message in line

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "sweep", "--bogus"])
        assert exc.value.code == EXIT_USAGE


class TestAttackRemote:
    def test_against_live_server(self, capsys):
        server = MintServer("127.0.0.1", 0, Mint(rng=random.Random(2)),
                            MintPolicy.RETURN_ALWAYS, random.Random(2))
        server.start()
        try:
            host, port = server.address
            code, out, _ = run_cli(capsys, "attack", "remote", "--addr", f"{host}:{port}",
                                   "--n", "8")
            assert code == EXIT_OK
            assert "queries used  : 8" in out
        finally:
            server.stop()

    def test_no_server(self, capsys):
        code, _, err = run_cli(capsys, "attack", "remote", "--addr", "127.0.0.1:1", "--n", "2")
        assert code == EXIT_FAILURE
        assert "error" in err

    def test_mistyped_reply_exits_1(self, capsys):
        # a canned server answers one round of the attack on a 1-qubit
        # bill, then measures a bit that is neither 0 nor 1
        replies = [b'{"type": "minted", "serial": "WQM-' + b"0" * 32 + b'", "handle": 2}',
                   b'{"type": "ok", "handle": 2}',
                   b'{"type": "verified", "result": "VALID", "handle": 3}',
                   b'{"type": "measured", "bit": 2, "handle": 3}']
        peers = []

        def answer():
            peers.append(listener.accept()[0])
            peers[0].sendall(b"\n".join(replies) + b"\n")

        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()
            answerer = threading.Thread(target=answer, daemon=True)
            answerer.start()
            try:
                code, out, err = run_cli(capsys, "attack", "remote", "--addr",
                                         f"{host}:{port}", "--n", "1")
            finally:
                answerer.join(timeout=5)
                for peer in peers:  # closed once the client is done, so no reset
                    peer.close()
        assert code == EXIT_FAILURE
        assert out == "" and err.splitlines() == ["error: malformed reply"]

    def test_n_below_1_is_a_usage_error(self, capsys):
        # refused before connecting: no server listens on port 9
        code, out, err = run_cli(capsys, "attack", "remote", "--addr", "127.0.0.1:9",
                                 "--n", "0")
        assert code == EXIT_USAGE
        assert out == "" and err.splitlines() == ["error: --n must be >= 1"]

    def test_needs_serial_or_n(self, capsys):
        code, _, err = run_cli(capsys, "attack", "remote", "--addr", "127.0.0.1:9")
        assert code == EXIT_USAGE

    def test_serial_and_n_are_exclusive(self, capsys):
        # refused before connecting: no server listens on port 9
        code, out, err = run_cli(capsys, "attack", "remote", "--addr", "127.0.0.1:9",
                                 "--serial", "WQM-" + "0" * 32, "--n", "4")
        assert code == EXIT_USAGE
        assert out == "" and err.splitlines() == ["error: provide --serial or --n, not both"]

    def test_port_out_of_range(self, capsys):
        # 70000 would wrap to port 4464 if it reached the socket
        code, out, err = run_cli(capsys, "attack", "remote", "--addr", "127.0.0.1:70000",
                                 "--n", "2")
        assert code == EXIT_USAGE
        assert out == "" and err.splitlines() == ["error: port must be from 0 to 65535, got 70000"]

    # Arabic-Indic "12" would reach the socket as port 12
    @pytest.mark.parametrize("port", ["\u0661\u0662", "\u00b2"], ids=["arabic-indic", "superscript"])
    def test_port_must_be_ascii_digits(self, capsys, port):
        addr = f"127.0.0.1:{port}"
        code, out, err = run_cli(capsys, "attack", "remote", "--addr", addr, "--n", "2")
        assert code == EXIT_USAGE
        assert out == "" and err.splitlines() == [f"error: address must be host:port, got {addr!r}"]


class TestServe:
    def test_serves_until_ctrl_c(self, capsys):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-c", RUN_CLI, "serve", "--addr", "127.0.0.1:0", "--seed", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        try:
            banner = proc.stdout.readline()
            match = re.fullmatch(r"serving on (\S+) \(policy return-always\)\n", banner)
            assert match, banner
            code, out, _ = run_cli(capsys, "attack", "remote", "--addr", match.group(1), "--n", "8")
            assert code == EXIT_OK
            assert "queries used  : 8" in out
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == EXIT_OK
        finally:
            proc.kill()
            proc.communicate()

    def test_port_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "serve", "--addr", "127.0.0.1:99999")
        assert code == EXIT_USAGE
        assert out == "" and err.splitlines() == ["error: port must be from 0 to 65535, got 99999"]


class TestMain:
    # `main` alone reports a command's failure, as one line
    @pytest.mark.parametrize("exc, code", [
        (OSError("disk gone"), EXIT_FAILURE),
        (DatabaseFormatError("db.json: bad"), EXIT_FAILURE),
        (UnknownSerialError("no bill with serial WQM-0"), EXIT_FAILURE),
        (TransportError("server closed the connection"), EXIT_FAILURE),
        (ProtocolError("BAD_REQUEST", "nope"), EXIT_FAILURE),
        (AttackConsistencyError("branch was not deterministic"), EXIT_FAILURE),
        (cli.UsageError("--n list is empty"), EXIT_USAGE),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_failure_is_one_line(self, capsys, monkeypatch, exc, code):
        def stub(args):
            print("partial output")
            raise exc

        monkeypatch.setattr(cli, "_cmd_attack_baseline", stub)
        got, out, err = run_cli(capsys, "attack", "baseline", "--strategy", "guess",
                                "--n", "1", "--trials", "1", "--seed", "1")
        assert got == code
        assert out == "partial output\n" and err.splitlines() == [f"error: {exc}"]

    def test_other_exceptions_escape(self, capsys, monkeypatch, tmp_path):
        def run_experiment(config):
            raise RuntimeError("a bug")

        # the command imports the harness's name when it runs
        monkeypatch.setattr(harness, "run_experiment", run_experiment)
        with pytest.raises(RuntimeError, match="^a bug$"):
            main(["experiment", "sweep", "--strategy", "guess", "--n", "1", "--trials", "1",
                  "--seed", "1", "--out", str(tmp_path / "r.csv")])
        assert capsys.readouterr().err == ""

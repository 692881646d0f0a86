import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corpus_build import build_all, write_corpus
from evmsem.cli import main
from evmsem.fixtures import (FixtureError, check_expectations, corpus_dir, fixture_to_json,
                             ingest_official_tests, load_corpus, parse_fixture)
from evmsem.state import Account, BlockHeader
from evmsem.transaction import Transaction, execute_transaction
from evmsem.words import address_to_hex


def test_corpus_files_match_builders(tmp_path):
    on_disk = {f.name: fixture_to_json(f) for f in load_corpus()}
    built = {f.name: fixture_to_json(f) for f in build_all()}
    assert on_disk == built
    written = write_corpus(tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in corpus_dir().glob("*.json"))
    for path in written:
        assert path.read_bytes() == (corpus_dir() / path.name).read_bytes(), path.name


def test_fixture_roundtrip_on_corpus():
    for path in sorted(corpus_dir().glob("*.json")):
        f1 = parse_fixture(path)
        j1 = fixture_to_json(f1)
        f2 = parse_fixture(j1, name=f1.name)
        assert fixture_to_json(f2) == j1, path.name


EVERY_PARAM = {
    "contract": "0x" + "c0".rjust(40, "0"),
    "contract_code": {"asm": "PUSH1 0x01\nSTOP"},
    "untrusted": ["0xbb"], "allowed": ["0xaa", "0xcc"],
    "gas_values": ["0x5000", "0x9000"],
    "components": {"timestamp": ["0x2", "0x1"], "number": ["0x7"]},
    "code_variants": {"0xbb": ["0x00", {"asm": "STOP"}]},
    "max_steps": 5000, "mode": "theorem1",
}


def test_every_checker_param_round_trips():
    obj = {"pre": {}, "tx": {"gaslimit": "0x186a0", "sender": "0xaa", "to": "0xc0"},
           "checker_params": EVERY_PARAM}
    f = parse_fixture(copy.deepcopy(obj), "params")
    p = f.checker_params
    assert f.contract() == (0xC0, bytes.fromhex("600100"))
    assert (p["untrusted"], p["allowed"], p["gas_values"]) == ([0xBB], [0xAA, 0xCC],
                                                               [0x5000, 0x9000])
    assert p["components"] == {"timestamp": [2, 1], "number": [7]}
    assert list(p["components"]) == ["timestamp", "number"]
    assert p["code_variants"] == {0xBB: [b"\x00", b"\x00"]}
    assert (p["max_steps"], p["mode"]) == (5000, "theorem1")
    space = f.space()
    assert space.max_steps == 5000
    assert space.gas_values == p["gas_values"]
    assert space.component_values == p["components"]
    assert space.code_variants == p["code_variants"]
    j1 = fixture_to_json(f)
    j2 = fixture_to_json(parse_fixture(copy.deepcopy(j1), "params"))
    assert j2 == j1
    assert j1["checker_params"]["code_variants"] == {"0x00000000000000000000000000000000000000bb":
                                                     ["0x00", "0x00"]}


def test_finpot_samples_is_passed_through_unread():
    # effect independence tries every generic sample (checkers._finpot_samples); no knob caps them
    obj = json.loads((corpus_dir() / "bob_mallory.json").read_text())
    plain = parse_fixture(copy.deepcopy(obj), "bob")
    obj["checker_params"]["finpot_samples"] = 1
    named = parse_fixture(copy.deepcopy(obj), "bob")
    assert named.checker_params["finpot_samples"] == 1
    assert named.space() == plain.space()
    assert fixture_to_json(named)["checker_params"]["finpot_samples"] == 1


def test_account_perturbations_is_passed_through_unread():
    # account-state independence perturbs one fixed set (checkers._account_variants)
    obj = json.loads((corpus_dir() / "balance_gate.json").read_text())
    plain = parse_fixture(copy.deepcopy(obj), "gate")
    knob = {"balance_deltas": [1, True], "storage_set": {"0x0": "0x1"}}
    obj["checker_params"]["account_perturbations"] = knob
    named = parse_fixture(copy.deepcopy(obj), "gate")
    assert named.checker_params["account_perturbations"] == knob
    assert named.space() == plain.space()
    assert fixture_to_json(named)["checker_params"]["account_perturbations"] == knob


def _addr(short):
    return "0x" + short.rjust(40, "0")


EVERY_SCENARIO_KEY = {
    "pre": {"0xc0": {"nonce": "0x1", "balance": "0x64", "storage": {"0x2": "0x7", "0x1": "0x0"},
                     "code": {"asm": "PUSH1 0x01\nSTOP"}},
            "0xaa": {}},
    "tx": {"type": "create", "nonce": "0x2", "gasprice": "0x3", "gaslimit": "0x186a0",
           "value": "0x4", "sender": "0xaa", "input": "0x6001"},
    "header": {"parent": "0x11", "beneficiary": "0xbe", "difficulty": "0x22", "number": "0x8",
               "gaslimit": "0x989680", "timestamp": "0x3e8"},
    "ancestors": [{"hash": "0x77", "parent": "0x66", "beneficiary": "0xbe", "difficulty": "0x1",
                   "number": "0x7", "gaslimit": "0x5", "timestamp": "0x9"},
                  {"hash": "0x66"}],
    "expect": {"post": {"0xc0": {"storage": {"0x1": "0x0"}}}},
}


def test_every_scenario_key_round_trips():
    f = parse_fixture(copy.deepcopy(EVERY_SCENARIO_KEY), "scenario")
    # pre drops the zero storage value; expect.post keeps it, since it is checked
    assert f.pre.get(0xC0) == Account(nonce=1, balance=0x64, storage={2: 7},
                                      code=bytes.fromhex("600100"))
    assert f.pre.get(0xAA) == Account()
    assert f.expect["post"] == {0xC0: {"storage": {1: 0}}}
    assert f.tx == Transaction(nonce=2, gas_price=3, gas_limit=0x186A0, to=None, value=4,
                               sender=0xAA, input=b"\x60\x01")
    assert f.header == BlockHeader(parent=0x11, beneficiary=0xBE, difficulty=0x22, number=8,
                                   gaslimit=0x989680, timestamp=0x3E8)
    assert f.ancestors == {0x77: BlockHeader(0x66, 0xBE, 1, 7, 5, 9), 0x66: BlockHeader()}
    j1 = fixture_to_json(f)
    assert list(j1) == ["name", "pre", "tx", "header", "ancestors", "expect"]
    assert j1["pre"] == {
        _addr("aa"): {"nonce": "0x0", "balance": "0x0", "storage": {}, "code": "0x"},
        _addr("c0"): {"nonce": "0x1", "balance": "0x64", "storage": {"0x2": "0x7"},
                      "code": "0x600100"}}
    assert j1["tx"] == {"type": "create", "nonce": "0x2", "gasprice": "0x3",
                        "gaslimit": "0x186a0", "value": "0x4", "sender": _addr("aa"),
                        "input": "0x6001"}
    assert j1["header"]["beneficiary"] == _addr("be")
    assert j1["ancestors"] == [
        {"hash": "0x66", "parent": "0x0", "beneficiary": _addr("0"), "difficulty": "0x0",
         "number": "0x0", "gaslimit": "0x0", "timestamp": "0x0"},
        {"hash": "0x77", "parent": "0x66", "beneficiary": _addr("be"), "difficulty": "0x1",
         "number": "0x7", "gaslimit": "0x5", "timestamp": "0x9"}]
    assert j1["expect"] == {"post": {_addr("c0"): {"storage": {"0x1": "0x0"}}}}
    assert fixture_to_json(parse_fixture(copy.deepcopy(j1), "scenario")) == j1


def test_absent_scenario_keys_read_as_their_defaults():
    f = parse_fixture({"tx": {"gaslimit": "0x5", "sender": "0xaa", "to": "0xc0"}}, "defaults")
    assert f.pre == {} and f.ancestors == {} and f.expect == {} and f.checker_params == {}
    assert f.tx == Transaction(nonce=0, gas_price=0, gas_limit=5, to=0xC0, value=0,
                               sender=0xAA, input=b"")
    assert f.header == BlockHeader()
    assert fixture_to_json(f) == {
        "name": "defaults",
        "tx": {"type": "call", "nonce": "0x0", "gasprice": "0x0", "gaslimit": "0x5",
               "value": "0x0", "sender": _addr("aa"), "input": "0x", "to": _addr("c0")},
        "header": {"parent": "0x0", "beneficiary": _addr("0"), "difficulty": "0x0",
                   "number": "0x0", "gaslimit": "0x0", "timestamp": "0x0"}}


def test_fixture_asm_code_form(tmp_path):
    obj = {
        "pre": {
            "0x" + "aa".rjust(40, "0"): {"balance": "0x100000000", "code": "0x"},
            "0x" + "10".rjust(40, "0"): {"code": {"asm": "PUSH1 0x01\nPUSH1 0x00\nSSTORE\nSTOP"}},
        },
        "tx": {"gaslimit": "0x186a0", "sender": "0x" + "aa".rjust(40, "0"),
               "to": "0x" + "10".rjust(40, "0")},
    }
    f = parse_fixture(obj, "asmform")
    assert f.pre.get(0x10).code == bytes.fromhex("6001600055" + "00")


def test_fixture_parse_errors():
    with pytest.raises(FixtureError):
        parse_fixture({"tx": {}}, "broken")
    with pytest.raises(FixtureError):
        parse_fixture({"pre": {}, "tx": {"gaslimit": "0x0", "sender": "0x0",
                                         "to": "0x0", "type": "weird"}}, "badtype")
    with pytest.raises(FixtureError, match="must not name a recipient"):
        parse_fixture({"pre": {}, "tx": {"gaslimit": "0x0", "sender": "0x0",
                                         "to": "0xbb", "type": "create"}}, "createto")
    for tx in ({"type": "call"}, {}):
        with pytest.raises(FixtureError, match="call transaction needs a recipient"):
            parse_fixture({"tx": {"gaslimit": "0x0", "sender": "0x0", **tx}}, "callnoto")


def test_expectations_checker():
    f = {x.name: x for x in load_corpus()}["bob_mallory"]
    sigma, _t, receipt = execute_transaction(f.tx, f.header, f.pre)
    assert check_expectations(f, sigma, receipt) == []
    # a deliberately wrong expectation is reported; expect holds decoded values
    f.expect["post"][next(iter(f.expect["post"]))]["balance"] = 0x999
    assert check_expectations(f, sigma, receipt)


def test_every_expect_key_is_decoded_when_read():
    obj = {"pre": {}, "tx": {"gaslimit": "0x186a0", "sender": "0xaa", "to": "0xc0"},
           "expect": {"status": "success", "gas_used": "0x5208", "logs": 1, "created": "0xc1",
                      "post": {"0xc0": {"balance": "0x5", "nonce": "0x1", "code": "0x6001",
                                        "storage": {"0x0": "0x2a"}},
                               "0xc2": {"exists": False}},
                      "verdicts": {"atomicity": "holds"}, "note": "passes through"}}
    f = parse_fixture(copy.deepcopy(obj), "expect")
    assert f.expect == {"status": "success", "gas_used": 0x5208, "logs": 1, "created": 0xC1,
                        "post": {0xC0: {"balance": 5, "nonce": 1, "code": b"\x60\x01",
                                        "storage": {0: 0x2A}},
                                 0xC2: {"exists": False}},
                        "verdicts": {"atomicity": "holds"}, "note": "passes through"}
    j1 = fixture_to_json(f)
    assert fixture_to_json(parse_fixture(copy.deepcopy(j1), "expect")) == j1
    assert j1["expect"]["post"]["0x" + "c0".rjust(40, "0")]["storage"] == {"0x0": "0x2a"}


BOB_POST = ("expect", "post", "0x0000000000000000000000000000000000001001")


@pytest.mark.parametrize("path,value", [
    (("expect", "gas_used"), 5),
    (("expect", "created"), 5),
    (("expect", "logs"), "0x1"),
    (BOB_POST + ("balance",), 5),
    (BOB_POST + ("nonce",), "1"),
    (BOB_POST + ("code",), "0x1"),
    (BOB_POST + ("storage", "0x0"), 5),
    (BOB_POST + ("storage",), []),
    (("expect", "logs"), False),
    (("expect", "status"), "ok"),
    (("expect", "verdicts", "single-entrancy"), "violatd"),
    (("expect", "verdicts", "single-entrancyy"), "violated"),
])
def test_cli_run_malformed_expect_exit_2_without_expect_flag(tmp_path, capsys, path, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_replaced(WELL_FORMED, path, value)))
    assert main(["run", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be" in err


# ---------------------------------------------------------------------------
# CLI


def _fixture_path(name):
    return str(corpus_dir() / f"{name}.json")


def test_cli_run_expect_ok(capsys):
    assert main(["run", _fixture_path("bob_mallory"), "--expect"]) == 0
    out = capsys.readouterr().out
    assert "expectations match" in out
    receipt = json.loads(out[:out.rindex("expectations")])
    assert receipt["status"] == "success"


BOB = "0x0000000000000000000000000000000000001001"
DEAD = "0x000000000000000000000000000000000000dead"


@pytest.mark.parametrize("path,value,says", [
    (("status",), "exception", "status: expected exception, got success"),
    (("gas_used",), "0x1", "gas_used: expected 0x1, got 0x39738"),
    (("logs",), 2, "logs: expected 2, got 0"),
    (("created",), "0x" + "c1".rjust(40, "0"),
     "created: expected 0x00000000000000000000000000000000000000c1, got null"),
    (("post", BOB), {"exists": False}, f"{BOB}: expected deleted, still present"),
    (("post", DEAD), {"balance": "0x0"}, f"{DEAD}: expected present, account missing"),
    (("post", BOB, "nonce"), "0x5", f"{BOB}.nonce: expected 0x5, got 0x0"),
    (("post", BOB, "code"), "0x00", f"{BOB}.code mismatch"),
    (("post", BOB, "storage"), {"0x0": "0x2"}, f"{BOB}.storage[0x0]: expected 0x2, got 0x1"),
])
def test_cli_run_expect_mismatch_exit_1(tmp_path, capsys, path, value, says):
    # bob_mallory with one expectation changed: the run's receipt is still
    # printed, and the one changed expectation is the one mismatch line
    fixture = json.loads((corpus_dir() / "bob_mallory.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_replaced(fixture, ("expect",) + path, value)))
    assert main(["run", str(bad), "--expect"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["gas_used"] == "0x39738"
    assert err == f"mismatch: {says}\n"


def test_cli_run_trace(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    assert main(["run", _fixture_path("gasless_send"), "--trace", str(trace_file)]) == 0
    lines = trace_file.read_text().splitlines()
    assert lines
    actions = [json.loads(l) for l in lines]
    assert any(a["op"] == "CALL" and a["tag"] == "enter" for a in actions)


def test_cli_run_trace_to_stdout(capsys):
    assert main(["run", _fixture_path("gasless_send"), "--trace", "-"]) == 0
    out = capsys.readouterr().out
    assert '"tag": "enter"' in out


def test_create_type_fixture_runs(tmp_path, capsys):
    from evmsem.rlp import fresh_address
    from evmsem.words import address_to_hex
    sender = "0x" + "aa".rjust(40, "0")
    created = address_to_hex(fresh_address(0xAA, 0))
    obj = {
        "pre": {sender: {"balance": "0x10000000", "code": "0x"}},
        "tx": {"type": "create", "gaslimit": "0x186a0", "sender": sender,
               "value": "0x5", "input": "0x60006000f3"},
        "header": {"number": "0x1", "gaslimit": "0x989680"},
        "expect": {"status": "success", "created": created,
                   "post": {created: {"balance": "0x5", "code": "0x"}}},
    }
    path = tmp_path / "create.json"
    path.write_text(json.dumps(obj))
    f = parse_fixture(path)
    assert f.tx.to is None
    assert main(["run", str(path), "--expect"]) == 0
    assert "expectations match" in capsys.readouterr().out
    # a created of none is JSON null, in the fixture and in the mismatch
    obj["expect"]["created"] = None
    path.write_text(json.dumps(obj))
    assert main(["run", str(path), "--expect"]) == 1
    assert capsys.readouterr().err == f"mismatch: created: expected null, got {created}\n"


def test_cli_check_violated_exit_code(capsys):
    assert main(["check", "single-entrancy", _fixture_path("bob_mallory")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == "violated"
    assert report["witness"]


def test_cli_check_expect(capsys):
    assert main(["check", "single-entrancy", _fixture_path("bob_mallory"),
                 "--expect"]) == 0
    assert main(["check", "atomicity", _fixture_path("bank_atomicity"),
                 "--expect"]) == 0
    assert main(["check", "stack-limit", _fixture_path("bounded_recursion"),
                 "--expect"]) == 0


def test_cli_check_expect_without_a_declared_verdict_exit_1(capsys):
    # time_fn declares only env-independence
    assert main(["check", "single-entrancy", _fixture_path("time_fn"), "--expect"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["result"] == "holds"
    assert err == "mismatch: fixture declares no expected verdict for single-entrancy\n"


def test_cli_check_out_of_budget_holds_incomplete(capsys):
    assert main(["check", "stack-limit", _fixture_path("deep_recursion"),
                 "--max-steps", "1000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["result"], report["explored_complete"]) == ("holds", False)
    assert report["notes"] == "step budget exhausted; explored space is incomplete"


def test_cli_check_invalid_scenario_transaction_exit_2(tmp_path, capsys):
    # the sender's nonce is 0, so a transaction at nonce 5 is invalid
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_replaced(WELL_FORMED, ("tx", "nonce"), "0x5")))
    assert main(["check", "single-entrancy", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: scenario transaction is invalid under the given state\n"


def test_cli_run_out_of_budget_exit_1(capsys):
    assert main(["run", _fixture_path("deep_recursion"), "--max-steps", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no final configuration within 10 steps\n"


def test_cli_check_env_component_flags(capsys):
    assert main(["check", "env-independence", _fixture_path("timestamp_lottery"),
                 "--component", "timestamp", "--values", "0x5e000000,0x60000000"]) == 1
    capsys.readouterr()
    # a plain decimal flag item reads as the word it names
    outs = []
    for values in ("5,6", "0x5,0x6"):
        main(["check", "env-independence", _fixture_path("timestamp_lottery"),
              "--component", "timestamp", "--values", values])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["property"] == "env-independence"


def test_cli_check_values_without_component_exit_2(capsys):
    assert main(["check", "env-independence", _fixture_path("timestamp_lottery"),
                 "--values", "1,1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --values needs --component\n"


@pytest.mark.parametrize("values", [[], ["--component", "timestamp", "--values", "5"]])
def test_cli_check_with_one_variant_says_nothing_was_compared(capsys, values):
    assert main(["check", "env-independence", _fixture_path("bob_mallory"), *values]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["result"], report["explored_complete"]) == ("holds", True)
    assert report["notes"] == "nothing compared: fewer than two variants"
    main(["check", "env-independence", _fixture_path("bob_mallory"),
          "--component", "timestamp", "--values", "5,6"])
    assert json.loads(capsys.readouterr().out)["notes"] == ""


def test_cli_check_call_integrity_modes(capsys):
    assert main(["check", "call-integrity", _fixture_path("bob_mallory"),
                 "--mode", "direct"]) == 1
    assert main(["check", "call-integrity", _fixture_path("bob_mallory"),
                 "--mode", "theorem1"]) == 1


def test_cli_check_variants_dir(tmp_path, capsys):
    (tmp_path / "a_benign.easm").write_text("STOP\n")
    (tmp_path / "b_sstore.easm").write_text("PUSH1 0x01\nPUSH1 0x00\nSSTORE\nSTOP\n")
    rc = main(["check", "call-integrity", _fixture_path("call_restriction"),
               "--variants", str(tmp_path), "--mode", "direct"])
    assert rc == 0


def test_cli_check_unknown_property(capsys):
    assert main(["check", "no-such-prop", _fixture_path("bob_mallory")]) == 2
    assert capsys.readouterr().err == (
        "error: unknown property 'no-such-prop'; choose from account-state-independence, "
        "atomicity, call-integrity, call-restriction, code-independence, effect-independence, "
        "env-independence, fuelled-calls, single-entrancy, stack-limit\n")


@pytest.mark.parametrize("args", [
    ["single-entrancy", "reentrant_fp", "--max-steps", "-5", "--expect"],
    ["single-entrancy", "reentrant_fp", "--max-steps", "0", "--expect"],
    ["env-independence", "time_fn", "--component", "foo", "--values", "1,2"],
    ["env-independence", "time_fn", "--component", "foo", "--values", "1"],
])
def test_cli_check_bad_budget_or_component_exit_2(capsys, args):
    prop, name, *flags = args
    assert main(["check", prop, _fixture_path(name), *flags]) == 2
    err = capsys.readouterr().err
    assert "max_steps must be positive" in err or "unknown environment component" in err


# each case's id is its own (the first thirteen keep the positional ids
# they were first collected under), so dropping a case renames no other
@pytest.mark.parametrize("argv,says", [
    pytest.param(["check", "env-independence", "timestamp_lottery", "--component", "timestamp",
                  "--values", f"5,{2**256 + 1}"], "a word must be below 2**256",
                 id="argv0-a word must be below 2**256"),
    pytest.param(["check", "env-independence", "timestamp_lottery", "--component", "timestamp",
                  "--values", "5,0x1" + "0" * 64], "a word must be below 2**256",
                 id="argv1-a word must be below 2**256"),
    pytest.param(["check", "atomicity", "bank_atomicity", "--gas-values=-1,5"],
                 "must be a 0x-prefixed", id="argv2-must be a 0x-prefixed"),
    pytest.param(["check", "atomicity", "bank_atomicity", f"--gas-values=5,{2**300}"],
                 "a word must be below 2**256", id="argv3-a word must be below 2**256"),
    pytest.param(["check", "call-restriction", "call_restriction", "--allowed", "0x1" + "0" * 40],
                 "an address must be below 2**160", id="argv4-an address must be below 2**160"),
    pytest.param(["check", "env-independence", "timestamp_lottery", "--component", "timestamp",
                  "--values", ""], "must be a 0x-prefixed", id="argv5-must be a 0x-prefixed"),
    pytest.param(["check", "single-entrancy", "bob_mallory", "--untrusted", ""],
                 "must be a 0x-prefixed", id="argv6-must be a 0x-prefixed"),
    pytest.param(["check", "single-entrancy", "bob_mallory", "--untrusted", "0x1,,0x2"],
                 "must be a 0x-prefixed", id="argv7-must be a 0x-prefixed"),
    pytest.param(["check", "call-integrity", "bob_mallory", "--mode", "theorem2"],
                 "mode must be one of direct, theorem1",
                 id="argv8-mode must be one of direct, theorem1"),
    pytest.param(["check", "code-independence", "timestamp_lottery", "--variants", "DIR"],
                 "--variants needs an untrusted address",
                 id="argv9---variants needs an untrusted address"),
    pytest.param(["run", "bob_mallory", "--max-steps", "0"], "max_steps must be positive",
                 id="argv10-max_steps must be positive"),
    pytest.param(["run", "bob_mallory", "--max-steps", "-5"], "max_steps must be positive",
                 id="argv11-max_steps must be positive"),
    pytest.param(["check", "env-independence", "timestamp_lottery", "--component", "timestamp",
                  "--values", "5,0x1_0"], "must be 0x followed by hex digits only",
                 id="argv12-must be 0x followed by hex digits only"),
])
def test_cli_flag_decoded_like_its_key_exit_2(tmp_path, capsys, argv, says):
    """A flag that sets a fixture key is decoded by that key's codec."""
    (tmp_path / "a.easm").write_text("STOP\n")
    corpus = {p.stem for p in corpus_dir().glob("*.json")}
    argv = [_fixture_path(a) if a in corpus else str(tmp_path) if a == "DIR" else a
            for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert says in err, err


def test_a_bad_value_names_where_it_sits(tmp_path, capsys):
    """A bad word names its flag's key and index, or its pre account and key."""
    assert main(["check", "atomicity", _fixture_path("bank_atomicity"), "--gas-values=-1,5"]) == 2
    assert capsys.readouterr().err == (
        "error: gas_values[0]: hex value must be a 0x-prefixed string: '-1'\n")
    bad = tmp_path / "bad.json"
    account = "0x0000000000000000000000000000000000001001"
    bad.write_text(json.dumps(_replaced(WELL_FORMED, ("pre", account, "storage"), {"0x0": 5})))
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: bad: pre[{account}].storage[0x0]: hex value must be a 0x-prefixed string: 5\n")


FROZEN_VERDICTS = json.loads((Path(__file__).parent / "data" / "corpus_verdicts.json").read_text())


def _own_params_as_flags(params):
    """A fixture's untrusted, allowed, gas_values and components restated as
    flags: addresses in hex, words in decimal."""
    flags = [f"--{key}={','.join(map(address_to_hex, params[key]))}"
             for key in ("untrusted", "allowed") if key in params]
    if "gas_values" in params:
        flags.append(f"--gas-values={','.join(map(str, params['gas_values']))}")
    if "components" in params:
        (component, values), = params["components"].items()
        flags += ["--component", component, f"--values={','.join(map(str, values))}"]
    return flags


def test_cli_check_expect_on_every_declared_verdict(capsys):
    """Every declared verdict of the corpus prints its frozen verdict, and
    the same bytes again with the fixture's own parameters given as flags."""
    checked = 0
    for f in load_corpus():
        path = _fixture_path(f.name)
        for prop in f.expect.get("verdicts", {}):
            assert main(["check", prop, path, "--expect"]) == 0
            out = capsys.readouterr().out
            verdict = json.dumps(json.loads(FROZEN_VERDICTS[f.name][prop]), indent=1)
            assert out == verdict + "\nexpectations match\n"
            assert main(["check", prop, path, "--expect", *_own_params_as_flags(f.checker_params)]) == 0
            assert capsys.readouterr().out == out
            checked += 1
    assert checked == 19


def test_cli_asm_disasm(tmp_path, capsys):
    src = tmp_path / "p.easm"
    src.write_text("PUSH1 0x01\nPUSH1 0x02\nADD\n")
    assert main(["asm", str(src)]) == 0
    hexcode = capsys.readouterr().out.strip()
    assert hexcode == "0x6001600201"
    assert main(["disasm", hexcode]) == 0
    assert "ADD" in capsys.readouterr().out
    assert main(["disasm", "0xfe"]) == 0
    assert "INVALID" in capsys.readouterr().out


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_cli_deeply_nested_fixture_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["run", str(deep)]) == 2
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"


def test_cli_usage_error_exit_2():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("command", [["run"], ["check", "single-entrancy"]])
def test_cli_directory_as_fixture_exit_2(tmp_path, capsys, command):
    assert main([*command, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_run_trace_to_directory_exit_2(tmp_path, capsys):
    assert main(["run", _fixture_path("gasless_send"), "--trace", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)


def _paths(value, prefix=()):
    """Every path into a JSON value, the empty path included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _paths(inner, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    value = copy.deepcopy(value)
    inner = value
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = new
    return value


# a corpus fixture plus every optional section, so that each can be mutated
WELL_FORMED = json.loads((corpus_dir() / "bob_mallory.json").read_text())
WELL_FORMED["ancestors"] = [{"hash": "0x77", "parent": "0x66", "number": "0x8"}]
WELL_FORMED["checker_params"].update({
    "gas_values": ["0x5000", "0x9000"], "max_steps": 5000,
    "components": {"timestamp": ["0x1", "0x2"]}})


# each case's id is its own (the first twenty-two keep the positional ids
# they were first collected under), so dropping a case renames no other
BOB_ACCOUNT = ("pre", "0x0000000000000000000000000000000000001001")


@pytest.mark.parametrize("path,value", [
    pytest.param((*BOB_ACCOUNT, "balance"), 5, id="path0-5"),
    pytest.param(("pre",), [], id="path1-value1"),
    pytest.param(("tx",), None, id="path2-None"),
    pytest.param((*BOB_ACCOUNT, "storage"), [], id="path3-value3"),
    pytest.param(("checker_params", "max_steps"), -1, id="path4--1"),
    pytest.param(("checker_params", "max_steps"), 0, id="path5-0"),
    pytest.param(("checker_params", "contract_code"), "0x1", id="path6-0x1"),
    pytest.param(("checker_params", "contract_code"), {"asm": 5}, id="path7-value7"),
    pytest.param(("tx",), {k: v for k, v in WELL_FORMED["tx"].items() if k != "gaslimit"},
                 id="path8-value8"),
    pytest.param(("tx", "to"), 5, id="path9-5"),
    pytest.param(("tx", "input"), {"asm": "STOP"}, id="path10-value10"),
    pytest.param((*BOB_ACCOUNT, "nonce"), "1", id="path11-1"),
    pytest.param(("ancestors", 0), {"parent": "0x66", "number": "0x8"}, id="path12-value12"),
    pytest.param(("checker_params", "max_steps"), True, id="path13-True"),
    pytest.param(("checker_params", "gas_values"), ["0x5000", True], id="path14-value14"),
    pytest.param(("checker_params", "mode"), 7, id="path15-7"),
    pytest.param((*BOB_ACCOUNT, "balance"), "0x1" + "0" * 64, id="path16-0x1" + "0" * 64),
    pytest.param(("tx", "to"), "0x1" + "0" * 40, id="path17-0x1" + "0" * 40),
    pytest.param((*BOB_ACCOUNT, "balance"), "0x1_0000", id="path18-0x1_0000"),
    pytest.param((*BOB_ACCOUNT, "balance"), "0x5 ", id="path19-0x5 "),
    pytest.param((*BOB_ACCOUNT, "balance"), "0x_5", id="path20-0x_5"),
    pytest.param(("tx", "input"), "0x0a  0b", id="path21-0x0a  0b"),
])
def test_cli_wrongly_typed_field_exit_2(tmp_path, capsys, path, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_replaced(WELL_FORMED, path, value)))
    assert main(["run", str(bad)]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,says", [
    ("single-entrancy", "violatd", ["verdicts[single-entrancy] must be", "not 'violatd'"]),
    ("single-entrancyy", "violated", ["verdicts key must be", "not 'single-entrancyy'"]),
])
def test_cli_check_malformed_verdict_exit_2_naming_the_key(tmp_path, capsys, key, value, says):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_replaced(WELL_FORMED, ("expect", "verdicts", key), value)))
    assert main(["check", "single-entrancy", str(bad), "--expect"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and all(s in err for s in says), err


@pytest.mark.parametrize("values", [["0x1", "0x2"], ["0x1"]])
def test_cli_check_unknown_fixture_component_exit_2(tmp_path, capsys, values):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_replaced(WELL_FORMED, ("checker_params", "components"),
                                        {"foo": values})))
    assert main(["check", "env-independence", str(bad)]) == 2
    assert "unknown environment component" in capsys.readouterr().err


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_arbitrary_json_gives_fixture_error_or_exit_2(tmp_path_factory, data):
    """Any JSON in any field of a well-formed fixture either parses or raises
    FixtureError, and the CLI exits 2 on it rather than raising."""
    path = data.draw(st.sampled_from(list(_paths(WELL_FORMED))), label="path")
    obj = _replaced(WELL_FORMED, path, data.draw(JSON, label="value"))
    try:
        parse_fixture(obj, "mutated")
        parsed = True
    except FixtureError:
        parsed = False
    fixture = tmp_path_factory.mktemp("fuzz") / "mutated.json"
    fixture.write_text(json.dumps(obj))
    for argv in (["run", str(fixture), "--expect"],
                 ["check", "call-integrity", str(fixture), "--expect"]):
        code = main(argv)
        assert code in ((0, 1, 2) if parsed else (2,)), argv


# ---------------------------------------------------------------------------
# official-test ingestion


def test_ingest_handwritten_state_test():
    fixtures, skipped = ingest_official_tests(corpus_dir() / "state_tests")
    assert skipped == []
    assert len(fixtures) == 1
    f = fixtures[0]
    sigma, _t, receipt = execute_transaction(f.tx, f.header, f.pre)
    assert receipt.status == "success"
    assert sigma.get(0x1010).storage == {1: 42}


def test_ingest_skips_unsupported_and_unreadable(tmp_path, capsys):
    doc = json.loads((corpus_dir() / "state_tests" / "simple_sstore.json").read_text())
    body = doc["simpleStorageFill"]
    # unsupported opcode in an account's code
    import copy
    bad = copy.deepcopy(body)
    bad["pre"]["0x0000000000000000000000000000000000001010"]["code"] = "0x3d00"
    # no sender and no secretKey path
    nosender = copy.deepcopy(body)
    del nosender["transaction"]["sender"]
    (tmp_path / "mixed.json").write_text(json.dumps(
        {"good": body, "badop": bad, "nosender": nosender}))
    (tmp_path / "broken.json").write_text("not json")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    fixtures, skipped = ingest_official_tests(tmp_path)
    assert len(fixtures) == 1
    reasons = {s[0].split("::")[-1] if "::" in s[0] else s[0]: s[1] for s in skipped}
    assert any("unsupported opcode" in r for r in reasons.values())
    assert any("sender" in r for r in reasons.values())
    assert reasons[str(tmp_path / "broken.json")].startswith("unreadable")
    assert reasons[str(tmp_path / "deep.json")].startswith("unreadable")


def test_ingest_skips_tests_whose_sections_are_not_objects(tmp_path):
    doc = json.loads((corpus_dir() / "state_tests" / "simple_sstore.json").read_text())
    body = doc["simpleStorageFill"]
    account = copy.deepcopy(body)
    account["pre"]["0x0000000000000000000000000000000000001010"] = ["0x0"]
    env = copy.deepcopy(body)
    env["env"] = "0x0"
    (tmp_path / "array.json").write_text(json.dumps([body]))
    (tmp_path / "sections.json").write_text(json.dumps(
        {"good": body, "account": account, "env": env}))
    fixtures, skipped = ingest_official_tests(tmp_path)
    assert [f.name for f in fixtures] == ["good"]
    reasons = {src.split("/")[-1]: reason for src, reason in skipped}
    assert reasons == {
        "array.json": "untranslatable: top level must be a JSON object",
        "sections.json::account": "untranslatable: pre[0x0000000000000000000000000000000000001010]"
                                  " must be a JSON object, not list",
        "sections.json::env": "untranslatable: env must be a JSON object, not str"}


def test_ingest_skips_an_empty_variant_list(tmp_path):
    doc = json.loads((corpus_dir() / "state_tests" / "simple_sstore.json").read_text())
    doc["simpleStorageFill"]["transaction"]["gasLimit"] = []
    (tmp_path / "empty.json").write_text(json.dumps(doc))
    fixtures, skipped = ingest_official_tests(tmp_path)
    assert fixtures == []
    assert [reason for _src, reason in skipped] == ["untranslatable: list index out of range"]


def test_ingest_empty_dir(tmp_path):
    assert ingest_official_tests(tmp_path) == ([], [])


def test_cli_ingest(capsys):
    assert main(["ingest", str(corpus_dir() / "state_tests")]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["missing", "file.json"])
def test_cli_ingest_not_a_directory_exit_2(tmp_path, capsys, name):
    (tmp_path / "file.json").write_text("{}")
    assert main(["ingest", str(tmp_path / name)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {tmp_path / name}: not a directory\n")

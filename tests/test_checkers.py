"""Targeted scenarios for every checker, plus witness replay and the
monitors-don't-alter-execution invariant."""

import json
from collections import Counter
from pathlib import Path

import pytest

import corpus_build
from corpus_build import ALLY, MALLORY, OUTSIDER, PAYEE, asm
from evmsem import checkers
from evmsem.bytecode import assemble, instructions, push_size
from evmsem.checkers import (ScenarioSpace, check_account_state_independence,
                             check_atomicity, check_call_integrity,
                             check_call_restriction, check_code_independence,
                             check_effect_independence, check_env_independence,
                             check_fuelled_calls, check_single_entrancy,
                             check_stack_limit_compliance)
from evmsem.cli import main
from evmsem.fixtures import Fixture, fixture_to_json, load_corpus, parse_fixture
from evmsem.rlp import fresh_address
from evmsem.state import Account, BlockHeader, GlobalState
from evmsem.transaction import Transaction, execute_transaction
from evmsem.words import address_to_hex

SENDER = 0xAAAA
C = 0x7001
U = 0x7002  # untrusted
W = 0x7003  # second call target

HEADER = BlockHeader(parent=0, beneficiary=0x5001, difficulty=1, number=1,
                     gaslimit=10**7, timestamp=1000)


def space_for(accounts, to, gas_limit=200_000, input_=b"", **kw):
    accounts = dict(accounts)
    accounts.setdefault(SENDER, Account(0, 10**15, {}, b""))
    tx = Transaction(nonce=0, gas_price=1, gas_limit=gas_limit, to=to, value=0,
                     sender=SENDER, input=input_)
    return ScenarioSpace(pre=GlobalState(accounts), tx=tx, header=HEADER, **kw)


def corpus_fixture(name):
    return {f.name: f for f in load_corpus()}[name]


# ---------------------------------------------------------------------------
# monitors


def test_single_entrancy_no_calls_holds():
    code = assemble("PUSH1 0x01\nPUSH1 0x02\nADD\nSTOP")
    space = space_for({C: Account(0, 0, {}, code)}, C)
    v = check_single_entrancy(space, (C, code))
    assert v.result == "holds" and v.explored_complete


def test_single_entrancy_guarded_holds():
    f = corpus_fixture("reentrant_fp")
    v = check_single_entrancy(f.space(), f.contract())
    assert v.result == "holds"


def test_single_entrancy_guarded_holds_across_gas_range():
    # enumerate small gas limits: no budget makes the guarded contract emit
    # a nested call from a reentered frame
    f = corpus_fixture("reentrant_fp")
    base = f.space()
    for gas_limit in range(21_000, 121_000, 4_000):
        space = base._replace(tx=f.tx._replace(gas_limit=gas_limit))
        v = check_single_entrancy(space, f.contract())
        assert v.result == "holds", gas_limit


def test_single_entrancy_violated_with_replayable_witness():
    f = corpus_fixture("bob_mallory")
    v = check_single_entrancy(f.space(), f.contract())
    assert v.violated
    assert v.witness["action"]["op"] == "CALL"
    assert v.witness["reentry_depth"] >= 3
    # replay: the same space and contract reproduce the violation
    again = check_single_entrancy(f.space(), f.contract())
    assert again.violated and again.witness == v.witness


def test_call_restriction_transitive():
    f = corpus_fixture("call_restriction")
    v = check_call_restriction(f.space(), f.contract(), [ALLY])
    assert v.violated
    assert v.witness["entered"].endswith(format(OUTSIDER, "x"))
    # widening the set makes it hold
    v2 = check_call_restriction(f.space(), f.contract(), [ALLY, OUTSIDER])
    assert v2.result == "holds"


def test_call_restriction_direct_violation():
    code = assemble("PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\n"
                    f"PUSH1 0x00\nPUSH2 {hex(U)}\nGAS\nCALL\nSTOP")
    space = space_for({C: Account(0, 0, {}, code), U: Account(0, 0, {}, b"")}, C)
    v = check_call_restriction(space, (C, code), [W])
    assert v.violated


def test_fuelled_calls():
    f = corpus_fixture("gasless_send")
    v = check_fuelled_calls(f.space(), f.contract())
    assert v.violated
    # with a value transfer the stipend fuels the callee
    code = assemble("PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\n"
                    f"PUSH1 0x01\nPUSH2 {hex(U)}\nPUSH1 0x00\nCALL\nSTOP")
    space = space_for({C: Account(0, 10, {}, code), U: Account(0, 0, {}, b"")}, C)
    v2 = check_fuelled_calls(space, (C, code))
    assert v2.result == "holds"
    # no calls at all
    stop = assemble("STOP")
    v3 = check_fuelled_calls(space_for({C: Account(0, 0, {}, stop)}, C), (C, stop))
    assert v3.result == "holds"


def test_stack_limit_compliance():
    f = corpus_fixture("deep_recursion")
    v = check_stack_limit_compliance(f.space(), f.contract())
    assert v.violated and v.witness["residual_depth"] == 1024
    f2 = corpus_fixture("bounded_recursion")
    v2 = check_stack_limit_compliance(f2.space(), f2.contract())
    assert v2.result == "holds"
    # non-calling contract trivially complies
    stop = assemble("STOP")
    v3 = check_stack_limit_compliance(
        space_for({C: Account(0, 0, {}, stop)}, C), (C, stop))
    assert v3.result == "holds"


def test_monitors_do_not_alter_execution():
    f = corpus_fixture("bob_mallory")
    sigma1, trace1, receipt1 = execute_transaction(f.tx, f.header, f.pre)
    check_single_entrancy(f.space(), f.contract())
    sigma2, trace2, receipt2 = execute_transaction(f.tx, f.header, f.pre)
    assert sigma1 == sigma2 and trace1 == trace2 and receipt1 == receipt2


# ---------------------------------------------------------------------------
# atomicity


def test_atomicity_corpus_pair():
    bad = corpus_fixture("bank_atomicity")
    v = check_atomicity(bad.space(), bad.contract())
    assert v.violated
    good = corpus_fixture("bank_atomicity_fixed")
    assert check_atomicity(good.space(), good.contract()).result == "holds"


def test_atomicity_pure_contract_holds():
    stop = assemble("STOP")
    space = space_for({C: Account(0, 0, {}, stop)}, C,
                      gas_values=(30_000, 100_000))
    assert check_atomicity(space, (C, stop)).result == "holds"


def test_atomicity_requires_two_gas_values():
    stop = assemble("STOP")
    space = space_for({C: Account(0, 0, {}, stop)}, C, gas_values=(5,))
    with pytest.raises(ValueError):
        check_atomicity(space, (C, stop))


def test_atomicity_equal_gas_values_compare_nothing(monkeypatch):
    # a label names one input, so a gas value given twice is one variant
    stop = assemble("STOP")
    space = space_for({C: Account(0, 0, {}, stop)}, C, gas_values=(50_000, 50_000))
    runs = counting(monkeypatch, "run_frame")
    v = check_atomicity(space, (C, stop))
    assert v.result == "holds" and v.explored_complete
    assert v.notes == "nothing compared: fewer than two variants"
    assert runs == []


# ---------------------------------------------------------------------------
# environment independence


def test_env_independence_corpus():
    for name, want in [("timestamp_lottery", "violated"), ("time_fn", "violated"),
                       ("time_fp", "holds")]:
        f = corpus_fixture(name)
        v = check_env_independence(f.space(), f.contract())
        assert v.result == want, name


def test_env_independence_ignoring_contract_holds():
    code = assemble("PUSH1 0x01\nPUSH1 0x02\nADD\nSTOP")
    space = space_for({C: Account(0, 0, {}, code)}, C,
                      component_values={"timestamp": [1, 2]})
    v = check_env_independence(space, (C, code))
    assert v.result == "holds"


def test_env_independence_log_only_read_holds():
    # TIMESTAMP flows into a log topic, never into a call
    code = assemble("TIMESTAMP\nPUSH1 0x00\nPUSH1 0x00\nLOG1\n"
                    "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\n"
                    f"PUSH1 0x00\nPUSH2 {hex(U)}\nPUSH2 0x0fff\nCALL\nSTOP")
    space = space_for({C: Account(0, 0, {}, code), U: Account(0, 0, {}, b"")}, C,
                      component_values={"timestamp": [1, 2]})
    v = check_env_independence(space, (C, code))
    assert v.result == "holds"


def counting(monkeypatch, name):
    """Wrap checkers.<name> so that its calls are counted."""
    calls = []
    original = getattr(checkers, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(checkers, name, wrapper)
    return calls


def test_env_independence_stops_at_the_first_difference(monkeypatch):
    # c calls the address given by TIMESTAMP: values 1 and 2 already give
    # different calls, so the run with value 3 is never made
    code = assemble("PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\n"
                    "PUSH1 0x00\nTIMESTAMP\nPUSH2 0x0fff\nCALL\nSTOP")
    space = space_for({C: Account(0, 0, {}, code)}, C,
                      component_values={"timestamp": [1, 2, 3]})
    runs = counting(monkeypatch, "run_frame")
    v = check_env_independence(space, (C, code))
    assert v.violated and v.witness["values"] == ["0x1", "0x2"]
    assert len(runs) == 2


@pytest.mark.parametrize("component,op", [("origin", "ORIGIN"), ("gasprice", "GASPRICE")])
def test_env_independence_varies_origin_and_gasprice(component, op):
    # c calls the address that its ORIGIN or GASPRICE gives
    code = assemble("PUSH1 0x00\n" * 5 + f"{op}\nPUSH2 0x0fff\nCALL\nSTOP")
    space = space_for({C: Account(0, 0, {}, code)}, C, component_values={component: [1, 2]})
    v = check_env_independence(space, (C, code))
    assert v.violated and v.witness["component"] == component
    assert v.witness["values"] == ["0x1", "0x2"]


def test_env_independence_unknown_component_rejected():
    stop = assemble("STOP")
    for values in ([1], [1, 2]):
        space = space_for({C: Account(0, 0, {}, stop)}, C, component_values={"foo": values})
        with pytest.raises(ValueError, match="unknown environment component"):
            check_env_independence(space, (C, stop))


def test_env_independence_missing_values_rejected():
    stop = assemble("STOP")
    space = space_for({C: Account(0, 0, {}, stop)}, C, component_values={"timestamp": []})
    with pytest.raises(ValueError, match="no value set for component 'timestamp'"):
        check_env_independence(space, (C, stop))


# ---------------------------------------------------------------------------
# account-state independence


def test_account_state_balance_gate():
    f = corpus_fixture("balance_gate")
    v = check_account_state_independence(f.space(), f.contract())
    assert v.violated
    assert "balance" in v.witness["perturbation"]


def test_account_state_guard_flag_is_dependence():
    # a one-shot guard flag is mutable state that changes the calls: c sets
    # storage[0] and calls U, sending no value, only while storage[0] is
    # clear, so of the fixed perturbations only storage[0]=1 changes them
    code = asm([
        "PUSH1 0x00", "SLOAD", "PUSH1 @done", "JUMPI",
        "PUSH1 0x01", "PUSH1 0x00", "SSTORE",
        *_const_call(U), "POP",
        "LABEL done", "JUMPDEST", "STOP",
    ])
    space = space_for({C: Account(0, 10, {}, code), U: Account(0, 0, {}, b"")}, C)
    v = check_account_state_independence(space, (C, code))
    assert v.violated
    assert v.witness["perturbation"] == "storage[0]=1"


def test_account_state_stateless_forwarder_holds():
    code = assemble("PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\n"
                    f"PUSH1 0x00\nPUSH2 {hex(U)}\nPUSH2 0x0fff\nCALL\nSTOP")
    space = space_for({C: Account(0, 500, {}, code), U: Account(0, 0, {}, b"")}, C)
    v = check_account_state_independence(space, (C, code))
    assert v.result == "holds"


def test_account_state_runs_each_distinct_perturbation_once(monkeypatch):
    # at balance 1, the -balance and +balance deltas repeat balance-1 and
    # balance+1: the runs are the unperturbed one, balance+1, balance-1,
    # nonce+1 and storage[0]=1
    code = asm([*_const_call(U), "STOP"])
    space = space_for({C: Account(0, 1, {}, code), U: Account(0, 0, {}, b"")}, C)
    runs = counting(monkeypatch, "run_frame")
    v = check_account_state_independence(space, (C, code))
    assert v.to_json() == {"property": "account-state-independence", "result": "holds",
                           "explored_complete": True, "witness": None, "notes": ""}
    assert len(runs) == 5


def test_account_state_exhausted_base_compares_perturbations():
    # c, at balance 0, spins until the step budget runs out unless
    # storage[0] or its own balance is nonzero, and then calls address
    # storage[0] + 2*balance: the unperturbed run never completes, so the
    # perturbed runs are compared with the first that completes
    # (balance+1), and the witness names that reference
    code = asm([
        "PUSH1 0x00", "SLOAD", "ADDRESS", "BALANCE", "OR", "PUSH1 @go", "JUMPI",
        "LABEL spin", "JUMPDEST", "PUSH1 @spin", "JUMP",
        "LABEL go", "JUMPDEST",
        "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00",
        "PUSH1 0x00", "SLOAD", "ADDRESS", "BALANCE", "PUSH1 0x02", "MUL", "ADD",
        "PUSH2 0x0fff", "CALL", "STOP",
    ])
    space = space_for({C: Account(0, 0, {}, code)}, C, max_steps=500)
    v = check_account_state_independence(space, (C, code))
    assert v.violated
    assert (v.witness["reference"], v.witness["perturbation"]) == ("balance+1",
                                                                   "storage[0]=1")


# ---------------------------------------------------------------------------
# code independence


def _const_call(to):
    return ["PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00",
            "PUSH1 0x00", f"PUSH2 {hex(to)}", "PUSH2 0x0fff", "CALL"]


def _extcodesize_brancher():
    # calls W when EXTCODESIZE(U) is zero, PAYEE otherwise
    return asm([
        f"PUSH2 {hex(U)}", "EXTCODESIZE",
        "PUSH1 @nonzero", "JUMPI",
        *_const_call(W), "STOP",
        "LABEL nonzero", "JUMPDEST",
        *_const_call(PAYEE), "STOP",
    ])


def test_code_independence_extcodesize_branch():
    code = _extcodesize_brancher()
    accounts = {C: Account(0, 0, {}, code), U: Account(0, 0, {}, b""),
                W: Account(0, 0, {}, b""), PAYEE: Account(0, 0, {}, b"")}
    space = space_for(accounts, C,
                      code_variants={U: [b"", b"\x00"]})   # lengths 0 and 1
    v = check_code_independence(space, (C, code), [U])
    assert v.violated
    # equal variants: trivially equal traces
    space_eq = space_for(accounts, C, code_variants={U: [b"\x00", b"\x00"]})
    assert check_code_independence(space_eq, (C, code), [U]).result == "holds"


def test_code_independence_one_assignment_runs_nothing(monkeypatch):
    # one code assignment gives nothing to compare, so no variant is run
    code = _extcodesize_brancher()
    accounts = {C: Account(0, 0, {}, code), U: Account(0, 0, {}, b""),
                W: Account(0, 0, {}, b""), PAYEE: Account(0, 0, {}, b"")}
    runs = counting(monkeypatch, "run_with_local_updates")
    v = check_code_independence(space_for(accounts, C, code_variants={U: [b""]}),
                                (C, code), [U])
    assert v.result == "holds" and v.explored_complete
    assert runs == []


def test_code_independence_without_extcode_reads_holds():
    f = corpus_fixture("bob_mallory")
    v = check_code_independence(f.space(), f.contract(), [MALLORY])
    assert v.result == "holds"


# ---------------------------------------------------------------------------
# effect independence


def _result_brancher():
    # branches on the callee's success flag to choose between two calls
    return asm([
        *_const_call(U),
        "PUSH1 @ok", "JUMPI",
        *_const_call(W), "STOP",
        "LABEL ok", "JUMPDEST",
        *_const_call(PAYEE), "STOP",
    ])


def test_effect_independence_result_branch_violated():
    code = _result_brancher()
    accounts = {C: Account(0, 0, {}, code), U: Account(0, 0, {}, b""),
                W: Account(0, 0, {}, b""), PAYEE: Account(0, 0, {}, b"")}
    space = space_for(accounts, C)
    v = check_effect_independence(space, (C, code), [U])
    assert v.violated
    assert "exc" in v.witness["samples"] or "exc" in v.witness["samples"][0]


def test_effect_independence_ignoring_result_holds():
    code = assemble("PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\n"
                    f"PUSH1 0x00\nPUSH2 {hex(U)}\nPUSH2 0x0fff\nCALL\nPOP\nSTOP")
    accounts = {C: Account(0, 0, {}, code), U: Account(0, 0, {}, b"")}
    space = space_for(accounts, C)
    v = check_effect_independence(space, (C, code), [U])
    assert v.result == "holds"


def _gas_forwarder():
    """c ignores U's result but forwards its remaining gas to W: strictly
    the g argument of the second call depends on U's consumption, relaxed
    comparison masks exactly that."""
    code = asm([
        *_const_call(U), "POP",
        "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00",
        "PUSH1 0x00", f"PUSH2 {hex(W)}", "GAS", "CALL",
        "STOP",
    ])
    return code, {C: Account(0, 0, {}, code), U: Account(0, 0, {}, b""),
                  W: Account(0, 0, {}, b"")}


def test_relaxed_gas_mode_masks_forwarded_gas():
    code, accounts = _gas_forwarder()
    strict = check_effect_independence(space_for(accounts, C), (C, code), [U])
    assert strict.violated
    relaxed = check_effect_independence(
        space_for(accounts, C, relaxed_gas=True), (C, code), [U])
    assert relaxed.result == "holds"


def test_cli_relaxed_gas_flag_masks_forwarded_gas(tmp_path, capsys):
    _code, accounts = _gas_forwarder()
    space = space_for(accounts, C)
    fixture = Fixture("forwarder", space.pre, space.tx, space.header,
                      checker_params={"contract": C, "untrusted": [U]})
    path = tmp_path / "forwarder.json"
    path.write_text(json.dumps(fixture_to_json(fixture)))
    assert main(["check", "effect-independence", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["result"] == "violated"
    assert main(["check", "effect-independence", str(path), "--relaxed-gas"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "holds"


def test_effect_independence_state_readback_violated():
    # c re-reads state the callee may perturb (its balance) to pick targets
    code = asm([
        *_const_call(U), "POP",
        f"PUSH2 {hex(U)}", "BALANCE",
        "PUSH1 @rich", "JUMPI",
        *_const_call(W), "STOP",
        "LABEL rich", "JUMPDEST",
        *_const_call(PAYEE), "STOP",
    ])
    accounts = {C: Account(0, 0, {}, code), U: Account(0, 0, {}, b""),
                W: Account(0, 0, {}, b""), PAYEE: Account(0, 0, {}, b"")}
    space = space_for(accounts, C)
    v = check_effect_independence(space, (C, code), [U])
    assert v.violated


def _return_word(k):
    return assemble(f"PUSH1 {hex(k)}\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN")


def _call_into_word0(gas):
    # CALL U with gas, its output written to memory word 0, the flag popped
    return ["PUSH1 0x20", "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00",
            f"PUSH2 {hex(U)}", gas, "CALL", "POP"]


def _word0_gate(k):
    # CALL W only if memory word 0 holds k
    return ["PUSH1 0x00", "MLOAD", f"PUSH1 {hex(k)}", "EQ", "PUSH1 @w", "JUMPI", "STOP",
            "LABEL w", "JUMPDEST", *_const_call(W), "STOP"]


def test_effect_independence_samples_a_storage_key_of_the_callee():
    # U returns its slot 5; c calls it twice and calls W only if the second
    # call returns 7. Only the sample that clears U's slot 5 at the first
    # call changes what the second returns
    code = asm([*_call_into_word0("PUSH2 0x2710"), *_call_into_word0("PUSH2 0x2710"),
                *_word0_gate(7)])
    callee = assemble("PUSH1 0x05\nSLOAD\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN")
    accounts = {C: Account(0, 0, {}, code), U: Account(0, 0, {5: 7}, callee),
                W: Account(0, 0, {}, b"")}
    v = check_effect_independence(space_for(accounts, C, relaxed_gas=True), (C, code), [U])
    assert v.violated
    assert (v.witness["call_site"], v.witness["samples"]) == (0, ["exc", "halt_flip[5]"])


def test_effect_independence_tries_the_ninth_generic_sample():
    # all nine generic samples exist: U has a stored key, c a balance, and
    # no account is at the probe address 0xf1a9. c calls W only if that
    # address has a balance, which only the last sample, halt_new_acct, gives
    code = asm([*_const_call(U), "POP", "PUSH2 0xf1a9", "BALANCE", "PUSH1 @w", "JUMPI", "STOP",
                "LABEL w", "JUMPDEST", *_const_call(W), "STOP"])
    accounts = {C: Account(0, 10, {}, code), U: Account(0, 0, {5: 7}, assemble("STOP")),
                W: Account(0, 0, {}, b"")}
    v = check_effect_independence(space_for(accounts, C), (C, code), [U])
    assert v.violated
    assert (v.witness["call_site"], v.witness["samples"]) == (0, ["exc", "halt_new_acct"])


def _returned_word_gate():
    # c calls U with all its gas and calls W only if U returned the word 2;
    # U's code variants return the words 0 and 2
    code = asm([*_call_into_word0("GAS"), *_word0_gate(2)])
    accounts = {C: Account(0, 0, {}, code), U: Account(0, 0, {}, _return_word(0)),
                W: Account(0, 0, {}, b"")}
    return code, accounts, {U: [_return_word(0), _return_word(2)]}


def test_theorem1_never_weaker_than_direct_on_a_returned_word():
    # no generic sample returns the word 2; the outcome U realizes under its
    # second code variant does
    code, accounts, variants = _returned_word_gate()
    space = space_for(accounts, C, code_variants=variants)
    assert check_call_integrity(space, (C, code), [U], "direct").violated
    t1 = check_call_integrity(space, (C, code), [U], "theorem1")
    assert t1.violated and t1.explored_complete
    assert t1.witness["failing_conjuncts"] == ["effect-independence"]
    assert t1.witness["conjunct_witnesses"]["effect-independence"]["samples"] == [
        "exc", "variant1"]
    assert check_effect_independence(space, (C, code), [U]).violated


def test_effect_independence_variant_run_out_of_budget_is_incomplete():
    # U's second variant loops until its gas runs out, past the step budget:
    # its sample is left out, and the verdict says the space is incomplete
    code, accounts, _variants = _returned_word_gate()
    variants = {U: [_return_word(0), assemble("JUMPDEST\nPUSH1 0x00\nJUMP")]}
    space = space_for(accounts, C, code_variants=variants, max_steps=500)
    v = check_effect_independence(space, (C, code), [U])
    assert v.result == "holds" and not v.explored_complete


# U returns EXTCODESIZE(ADDRESS): its code variants are this code and the
# same code plus three STOPs, 10 and 13 bytes long
_SELF_SIZE = "ADDRESS\nEXTCODESIZE\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN"
_SELF_SIZES = [assemble(_SELF_SIZE), assemble(_SELF_SIZE + "\nSTOP" * 3)]


def test_effect_independence_runs_a_variant_that_reads_its_own_code():
    # c calls W only if U returns 13, the longer variant's length, which
    # only a U that reads the variant at its own address returns
    code = asm([*_call_into_word0("GAS"), *_word0_gate(13)])
    accounts = {C: Account(0, 0, {}, code), U: Account(0, 0, {}, _SELF_SIZES[0]),
                W: Account(0, 0, {}, b"")}
    space = space_for(accounts, C, code_variants={U: _SELF_SIZES})
    for mode in ("direct", "theorem1"):
        v = check_call_integrity(space, (C, code), [U], mode)
        assert v.violated and v.explored_complete, mode
    assert v.witness["failing_conjuncts"] == ["effect-independence"]
    assert v.witness["conjunct_witnesses"]["effect-independence"]["samples"] == [
        "exc", "variant1"]


def test_effect_independence_puts_the_callees_real_code_back():
    # after the call, c calls W only if U's code is 13 bytes long: no
    # outcome of U changes its code, so the variant's code must not stay
    code = asm([*_call_into_word0("GAS"), f"PUSH2 {hex(U)}", "EXTCODESIZE", "PUSH1 0x00",
                "MSTORE", *_word0_gate(13)])
    accounts = {C: Account(0, 0, {}, code), U: Account(0, 0, {}, _SELF_SIZES[0]),
                W: Account(0, 0, {}, b"")}
    space = space_for(accounts, C, code_variants={U: _SELF_SIZES})
    v = check_effect_independence(space, (C, code), [U])
    assert v.result == "holds" and v.explored_complete


# ---------------------------------------------------------------------------
# call integrity


def test_call_integrity_bob_mallory_both_modes():
    f = corpus_fixture("bob_mallory")
    direct = check_call_integrity(f.space(), f.contract(), [MALLORY], "direct")
    assert direct.violated
    t1 = check_call_integrity(f.space(), f.contract(), [MALLORY], "theorem1")
    assert t1.violated
    assert "single-entrancy" in t1.witness["failing_conjuncts"]


def test_call_integrity_no_external_calls_holds():
    code = assemble("PUSH1 0x01\nPUSH1 0x00\nSSTORE\nSTOP")
    accounts = {C: Account(0, 0, {}, code), U: Account(0, 0, {}, b"")}
    space = space_for(accounts, C, code_variants={U: [b"", b"\x00"]})
    for mode in ("direct", "theorem1"):
        v = check_call_integrity(space, (C, code), [U], mode)
        assert v.result == "holds", mode


def test_call_integrity_unknown_mode():
    f = corpus_fixture("bob_mallory")
    with pytest.raises(ValueError):
        check_call_integrity(f.space(), f.contract(), [MALLORY], "nonsense")


def test_theorem1_never_weaker_than_direct_on_corpus():
    # empirical check of the theorem's direction on all fixtures that
    # declare an untrusted set
    for f in load_corpus():
        untrusted = f.checker_params.get("untrusted")
        if not untrusted or "code_variants" not in f.checker_params:
            continue
        direct = check_call_integrity(f.space(), f.contract(), untrusted, "direct")
        t1 = check_call_integrity(f.space(), f.contract(), untrusted, "theorem1")
        assert not (t1.result == "holds" and direct.result == "violated"), f.name


def test_verdict_json_shape():
    f = corpus_fixture("gasless_send")
    v = check_fuelled_calls(f.space(), f.contract())
    js = v.to_json()
    assert js["property"] == "fuelled-calls"
    assert js["result"] == "violated"
    assert js["witness"]["callee"]
    assert js["explored_complete"] is True


def test_paired_witness_replays():
    # narrowing the space to the witnessed pair reproduces the violation
    f = corpus_fixture("timestamp_lottery")
    v = check_env_independence(f.space(), f.contract())
    assert v.violated
    comp = v.witness["component"]
    pair = [int(x, 16) for x in v.witness["values"]]
    space = f.space()
    narrowed = space._replace(component_values={comp: pair})
    again = check_env_independence(narrowed, f.contract())
    assert again.violated
    assert again.witness["first_divergence"] == v.witness["first_divergence"]

    g = corpus_fixture("bank_atomicity")
    va = check_atomicity(g.space(), g.contract())
    assert va.violated
    narrowed = g.space()._replace(gas_values=tuple(va.witness["gas_pair"]))
    assert check_atomicity(narrowed, g.contract()).violated


# ---------------------------------------------------------------------------
# metamorphic relations: how a verdict must move when its inputs move

CORPUS_VERDICTS = Path(__file__).parent / "data" / "corpus_verdicts.json"


def _reversed(space: ScenarioSpace):
    """space with gas_values, each component's values and each code-variant
    list reversed, or None when that changes nothing. Every corpus list
    has at most two entries, so reversing is the only other order."""
    moved = space._replace(
        gas_values=space.gas_values[::-1],
        component_values={k: v[::-1] for k, v in space.component_values.items()},
        code_variants={a: v[::-1] for a, v in space.code_variants.items()})
    return None if moved == space else moved


def test_verdicts_are_blind_to_the_order_of_their_value_sets():
    # reordering a generator set may change which labels a witness names,
    # never the result or whether the space was explored completely
    frozen = json.loads(CORPUS_VERDICTS.read_text())
    compared = 0
    for f in load_corpus():
        space = _reversed(f.space())
        if space is None:
            continue
        for prop, verdict_json in frozen[f.name].items():
            want = json.loads(verdict_json)
            got = checkers.CHECKERS[prop](space, f.contract(), f.checker_params)
            assert (got.result, got.explored_complete) == (
                want["result"], want["explored_complete"]), (f.name, prop)
            compared += 1
    assert compared > 90


def _renamed(value, names: dict, key=None):
    """A verdict's JSON with every address that `names` maps renamed: in
    address and word strings and in the PUSH immediates of code."""
    if isinstance(value, dict):
        return {k: _renamed(v, names, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_renamed(v, names) for v in value]
    if not isinstance(value, str) or not value.startswith("0x"):
        return value
    if key == "code":
        code = bytearray(bytes.fromhex(value[2:]))
        for pc in instructions(bytes(code)):
            k = push_size(code[pc])
            word = int.from_bytes(code[pc + 1:pc + 1 + k], "big")
            if k and word in names:
                code[pc + 1:pc + 1 + k] = names[word].to_bytes(k, "big")
        return "0x" + code.hex()
    word = int(value, 16)
    if word not in names:
        return value
    return address_to_hex(names[word]) if len(value) == 42 else hex(names[word])


def test_verdicts_are_blind_to_the_names_of_addresses(monkeypatch):
    # the corpus rebuilt with every address constant renamed by an
    # order-preserving bijection onto other 2-byte addresses, clear of the
    # checkers' 0xf1a9 probe, gives every frozen verdict once the names,
    # those of accounts a CREATE derives from a renamed creator included,
    # are mapped back
    constants = {n: v for n, v in vars(corpus_build).items()
                 if n.isupper() and isinstance(v, int)}
    new = {a: a + 0x101 for a in constants.values()}
    assert max(new.values()) < 0x10000 and 0xF1A9 not in new.values()
    assert not set(new.values()) & set(new)
    for name, a in constants.items():
        monkeypatch.setattr(corpus_build, name, new[a])
    back = {b: a for a, b in new.items()}
    back.update({fresh_address(b, nonce): fresh_address(a, nonce)
                 for a, b in new.items() for nonce in range(3)})
    frozen = json.loads(CORPUS_VERDICTS.read_text())
    compared = moved = 0
    for build in corpus_build.BUILDERS:
        built = build()
        f = parse_fixture(fixture_to_json(built), built.name)
        for prop, verdict_json in frozen[f.name].items():
            got = checkers.CHECKERS[prop](f.space(), f.contract(), f.checker_params).to_json()
            want = json.loads(verdict_json)
            assert _renamed(got, back) == want, (f.name, prop)
            compared += 1
            moved += got != want
    assert (compared, moved) == (131, 36)     # every violated witness names an address


def _frozen_corpus():
    """(fixture, property, frozen verdict JSON) of every frozen corpus
    verdict but deep_recursion's, as tests/test_oracle.py leaves it out."""
    frozen = json.loads(CORPUS_VERDICTS.read_text())
    for f in load_corpus():
        if f.name != "deep_recursion":
            for prop, verdict_json in frozen[f.name].items():
                yield f, prop, verdict_json


def test_complete_verdicts_are_monotone_in_the_budget():
    # a check that explored everything within max_steps makes the same runs,
    # to the same ends, under twice the budget
    compared = 0
    for f, prop, verdict_json in _frozen_corpus():
        if not json.loads(verdict_json)["explored_complete"]:
            continue
        space = f.space()
        got = checkers.CHECKERS[prop](space._replace(max_steps=2 * space.max_steps),
                                      f.contract(), f.checker_params)
        assert json.dumps(got.to_json()) == verdict_json, (f.name, prop)
        compared += 1
    assert compared == 130


FALSIFIERS = ("atomicity", "env-independence", "account-state-independence",
              "code-independence", "effect-independence", "call-integrity")


def _widened(space: ScenarioSpace):
    """space with one new value, one above the largest, put first in
    gas_values and in each component's values."""
    def widen(values):
        return type(values)((max(values) + 1, *values)) if values else values

    return space._replace(gas_values=widen(space.gas_values),
                          component_values={k: widen(v)
                                            for k, v in space.component_values.items()})


def test_violations_are_monotone_in_the_generator_sets():
    # _explore compares each run with the first one that completes; a new
    # first run agrees with at most one of two runs that differ, and a run
    # that exhausts its budget is skipped, so a violation survives
    kept = Counter()
    for f, prop, verdict_json in _frozen_corpus():
        if prop not in FALSIFIERS or json.loads(verdict_json)["result"] != "violated":
            continue
        got = checkers.CHECKERS[prop](_widened(f.space()), f.contract(), f.checker_params)
        assert got.violated, (f.name, prop)
        kept[prop] += 1
    # the four that draw their variants from the widened sets, and 13 others
    assert (kept["atomicity"], kept["env-independence"], sum(kept.values())) == (2, 2, 17)

"""Builds the shipped scenario corpus, hand-assembled to bytecode.

Every builder returns a Fixture with expected verdicts; `write_corpus`
freezes them to the JSON files under `src/evmsem/corpus/`, which are the
corpus the package ships. Programs are written in the textual assembly format
with a tiny label pass on top (targets are referenced as `@name` in PUSH1
immediates and defined by `LABEL name` lines).

Regenerate the shipped files from the root of the repository with
`PYTHONPATH=src python tests/corpus_build.py`.
"""

from __future__ import annotations

import json
from pathlib import Path

from evmsem.bytecode import MNEMONIC_TO_BYTE, assemble, push_size
from evmsem.fixtures import Fixture, corpus_dir, fixture_to_json
from evmsem.rlp import fresh_address
from evmsem.state import Account, BlockHeader, GlobalState
from evmsem.transaction import Transaction, execute_transaction
from evmsem.words import address_to_hex

# every builder reads these when it is called, never at import, so a test
# can rebuild the corpus with its addresses renamed
EOA = 0xAAAA
MINER = 0x5001
PAYEE = 0x4001
SINK = 0x4002
REGISTRY = 0x4004

BOB = 0x1001
MALLORY = 0x2002
BANK = 0x1002
DEPOSITOR = 0x2003
LOTTERY_WRAPPER = 0x1003
REENTRANT_FN = 0x1004
ATTACKER_FN = 0x2004
GUARDED = 0x1005
ATTACKER_G = 0x2005
CHAIN_ROOT = 0x1006
ALLY = 0x3001
OUTSIDER = 0x3002
DEEP = 0x1007
BOUNDED = 0x1008
GASLESS = 0x1009
BANK_FIXED = 0x100A
BANK_EXC_FN = 0x100B
BANK_EXC_FP = 0x100C
LOTTERY_DIRECT = 0x100D
BALANCE_GATE = 0x100E


def asm(lines) -> bytes:
    """Assemble lines with `LABEL name` definitions and `@name` references."""
    offsets = {}
    pos = 0
    cooked = []
    for raw in lines:
        parts = raw.split()
        if parts[0] == "LABEL":
            offsets[parts[1]] = pos
            continue
        cooked.append(parts)
        pos += 1 + push_size(MNEMONIC_TO_BYTE[parts[0]])
    text = []
    for parts in cooked:
        if len(parts) == 2 and parts[1].startswith("@"):
            target = offsets[parts[1][1:]]
            if target > 0xFF:
                raise ValueError(f"label {parts[1]} beyond PUSH1 range")
            text.append(f"{parts[0]} {hex(target)}")
        else:
            text.append(" ".join(parts))
    return assemble("\n".join(text))


def _zeros(n=4):
    return ["PUSH1 0x00"] * n


# ---------------------------------------------------------------------------
# contract programs


def bob_code() -> bytes:
    # forwards all but 31000 gas (kept for the 20000-gas flag write after
    # the call), so every unwinding frame can still commit its effects
    return asm([
        "PUSH1 0x00", "SLOAD",          # sent flag
        "PUSH1 @end", "JUMPI",
        *_zeros(),                       # os oo is io
        "PUSH1 0x02",                    # va = 2 wei
        "PUSH1 0x00", "CALLDATALOAD",    # to = argument
        "GAS", "PUSH2 0x7918", "SWAP1", "SUB",   # g = gas - 31000
        "CALL", "POP",
        "PUSH1 0x01", "PUSH1 0x00", "SSTORE",    # sent := 1, after the call
        "LABEL end",
        "JUMPDEST", "STOP",
    ])


def mallory_code() -> bytes:
    # dies deterministically once its budget falls under a floor wider than
    # the per-level gas decay, which reverts the transfer it just received
    return asm([
        "GAS",
        "PUSH2 0x8ca0",                  # 36000 gas floor
        "GT",
        "PUSH1 @die", "JUMPI",
        "ADDRESS", "PUSH1 0x00", "MSTORE",
        "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x20", "PUSH1 0x00",
        "PUSH1 0x00",                    # va = 0
        f"PUSH2 {hex(BOB)}",
        "GAS",
        "CALL", "POP", "STOP",
        "LABEL die",
        "JUMPDEST", "INVALID",
    ])


def benign_mallory_code() -> bytes:
    return asm(["STOP"])


def depositor_burn_code() -> bytes:
    # fallback burning ~446k gas through one large memory touch
    return asm(["PUSH3 0x0704e0", "MLOAD", "POP", "STOP"])


def bank_code() -> bytes:
    # record := 0 unconditionally after a forward-all-gas payout
    return asm([
        *_zeros(),
        "PUSH1 0x00", "SLOAD",           # va = record
        f"PUSH2 {hex(DEPOSITOR)}",
        "GAS",
        "CALL", "POP",
        "PUSH1 0x00", "PUSH1 0x00", "SSTORE",
        "STOP",
    ])


def bank_fixed_code() -> bytes:
    return asm([
        *_zeros(),
        "PUSH1 0x00", "SLOAD",
        f"PUSH2 {hex(DEPOSITOR)}",
        "GAS",
        "CALL",
        "PUSH1 @update", "JUMPI",
        "STOP",
        "LABEL update",
        "JUMPDEST",
        "PUSH1 0x00", "PUSH1 0x00", "SSTORE",
        "STOP",
    ])


def bank_exc_fn_code() -> bytes:
    # checks the flag, but only to guard a success counter; the record is
    # zeroed either way
    return asm([
        *_zeros(),
        "PUSH1 0x00", "SLOAD",
        f"PUSH2 {hex(DEPOSITOR)}",
        "GAS",
        "CALL",
        "ISZERO",
        "PUSH1 @skip", "JUMPI",
        "PUSH1 0x01", "SLOAD", "PUSH1 0x01", "ADD", "PUSH1 0x01", "SSTORE",
        "LABEL skip",
        "JUMPDEST",
        "PUSH1 0x00", "PUSH1 0x00", "SSTORE",
        "STOP",
    ])


def bank_exc_fp_code() -> bytes:
    # outcome parked in memory, checked later; record only updated on success
    return asm([
        *_zeros(),
        "PUSH1 0x00", "SLOAD",
        f"PUSH2 {hex(DEPOSITOR)}",
        "GAS",
        "CALL",
        "PUSH1 0x00", "MSTORE",
        "PUSH1 0x00", "MLOAD",
        "PUSH1 @update", "JUMPI",
        "STOP",
        "LABEL update",
        "JUMPDEST",
        "PUSH1 0x00", "PUSH1 0x00", "SSTORE",
        "STOP",
    ])


def _pay_const_gas() -> list:
    return [
        "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00",
        "PUSH1 0x01",                    # va = 1 wei
        f"PUSH2 {hex(PAYEE)}",
        "PUSH2 0x0fff",                  # constant g keeps traces comparable
        "CALL", "POP",
    ]


def lottery_direct_code() -> bytes:
    return asm([
        "TIMESTAMP",
        "PUSH4 0x5f000000",
        "GT",                            # threshold > timestamp
        "PUSH1 @pay", "JUMPI",
        "STOP",
        "LABEL pay",
        "JUMPDEST",
        *_pay_const_gas(),
        "STOP",
    ])


def lottery_runtime_fn() -> bytes:
    return asm([
        "PUSH1 0x00", "SLOAD",
        "PUSH1 @pay", "JUMPI",
        "STOP",
        "LABEL pay",
        "JUMPDEST",
        *_pay_const_gas(),
        "STOP",
    ])


def lottery_runtime_fp() -> bytes:
    # reads the stored gate, but both branches pay identically
    return asm([
        "PUSH1 0x00", "SLOAD",
        "PUSH1 @gated", "JUMPI",
        *_pay_const_gas(),
        "STOP",
        "LABEL gated",
        "JUMPDEST",
        *_pay_const_gas(),
        "STOP",
    ])


def lottery_init(runtime: bytes) -> bytes:
    head = asm([
        "TIMESTAMP",
        "PUSH4 0x5f000000",
        "GT",
        "PUSH1 0x00", "SSTORE",          # gate := (timestamp < threshold)
        f"PUSH1 {hex(len(runtime))}", "PUSH1 0x00", "PUSH1 0x00", "CODECOPY",
        f"PUSH1 {hex(len(runtime))}", "PUSH1 0x00", "RETURN",
    ])
    # CODECOPY's source offset is the blob position, patched in afterwards
    blob_off = len(head)
    patched = asm([
        "TIMESTAMP",
        "PUSH4 0x5f000000",
        "GT",
        "PUSH1 0x00", "SSTORE",
        f"PUSH1 {hex(len(runtime))}", f"PUSH1 {hex(blob_off)}", "PUSH1 0x00", "CODECOPY",
        f"PUSH1 {hex(len(runtime))}", "PUSH1 0x00", "RETURN",
    ])
    return patched + runtime


def wrapper_code(created: int) -> bytes:
    # copies calldata to memory, CREATEs it with 2 wei, then calls the
    # precomputed address
    return asm([
        "CALLDATASIZE", "PUSH1 0x00", "PUSH1 0x00", "CALLDATACOPY",
        "CALLDATASIZE", "PUSH1 0x00", "PUSH1 0x02", "CREATE",
        "POP",
        *_zeros(),
        "PUSH1 0x00",
        f"PUSH20 {address_to_hex(created)}",
        "PUSH2 0x7530",                  # constant 30000 gas
        "CALL", "POP", "STOP",
    ])


def reentrant_fn_code() -> bytes:
    # registry ping first (cheap call), then a stipend-only send to the
    # calldata target
    return asm([
        *_zeros(),
        "PUSH1 0x00",
        f"PUSH2 {hex(REGISTRY)}",
        "PUSH1 0x00",
        "CALL", "POP",
        *_zeros(),
        "PUSH1 0x01",
        "PUSH1 0x00", "CALLDATALOAD",
        "PUSH1 0x00",                    # send: zero gas plus stipend
        "CALL", "POP",
        "STOP",
    ])


def callback_attacker_code(target: int) -> bytes:
    return asm([
        "ADDRESS", "PUSH1 0x00", "MSTORE",
        "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x20", "PUSH1 0x00",
        "PUSH1 0x00",
        f"PUSH2 {hex(target)}",
        "GAS",
        "CALL", "POP", "STOP",
    ])


def guarded_code() -> bytes:
    return asm([
        "PUSH1 0x00", "SLOAD",
        "PUSH1 @end", "JUMPI",
        "PUSH1 0x01", "PUSH1 0x00", "SSTORE",    # flag set before the call
        *_zeros(),
        "PUSH1 0x01",
        "PUSH1 0x00", "CALLDATALOAD",
        "GAS",
        "CALL", "POP",
        "LABEL end",
        "JUMPDEST", "STOP",
    ])


def forwarder_code(to: int) -> bytes:
    return asm([
        *_zeros(),
        "PUSH1 0x00",
        f"PUSH2 {hex(to)}",
        "GAS",
        "CALL", "POP", "STOP",
    ])


def bounded_recursion_code() -> bytes:
    return asm([
        "PUSH1 0x00", "SLOAD",
        "PUSH1 0x10", "LT",              # 16 < counter
        "PUSH1 @stop", "JUMPI",
        "PUSH1 0x00", "SLOAD", "PUSH1 0x01", "ADD", "PUSH1 0x00", "SSTORE",
        *_zeros(),
        "PUSH1 0x00",
        f"PUSH2 {hex(BOUNDED)}",
        "GAS",
        "CALL", "POP",
        "LABEL stop",
        "JUMPDEST", "STOP",
    ])


def gasless_send_code() -> bytes:
    return asm([
        *_zeros(),
        "PUSH1 0x00",
        f"PUSH2 {hex(SINK)}",
        "PUSH1 0x00",
        "CALL", "POP", "STOP",
    ])


def balance_gate_code() -> bytes:
    return asm([
        "ADDRESS", "BALANCE",
        "PUSH1 0x64", "LT",              # 100 < balance
        "PUSH1 @pay", "JUMPI",
        "STOP",
        "LABEL pay",
        "JUMPDEST",
        *_pay_const_gas(),
        "STOP",
    ])


# ---------------------------------------------------------------------------
# fixture builders


def _account(balance=0, code=b"", nonce=0, storage=None):
    return Account(nonce, balance, storage or {}, code)


def _base_header(timestamp=0x3E8):
    return BlockHeader(parent=0, beneficiary=MINER, difficulty=0x20000,
                       number=1, gaslimit=10_000_000, timestamp=timestamp)


def _tx(to, gas_limit, input_=b""):
    return Transaction(nonce=0, gas_price=1, gas_limit=gas_limit, to=to, value=0,
                       sender=EOA, input=input_)


def _fixture(name, accounts, tx, expect=None, checker_params=None,
             header=None) -> Fixture:
    accounts = dict(accounts)
    accounts.setdefault(EOA, _account(balance=10**18))
    return Fixture(name=name, pre=GlobalState(accounts), tx=tx,
                   header=header or _base_header(),
                   expect=expect or {}, checker_params=checker_params or {})


def build_bob_mallory() -> Fixture:
    bob, mal = bob_code(), mallory_code()
    arg = MALLORY.to_bytes(32, "big")
    tx = _tx(BOB, 500_000, input_=arg)
    probe = _fixture("bob_mallory", {
        BOB: _account(balance=10**6, code=bob),
        MALLORY: _account(balance=0, code=mal),
    }, tx)
    sigma, _trace, receipt = execute_transaction(probe.tx, probe.header, probe.pre)
    assert receipt.status == "success"
    gain = sigma.get(MALLORY).balance
    assert gain > 0 and gain % 2 == 0, "reentrancy drain did not happen"
    k = gain // 2
    # fund Bob 2(k+1): k committed transfers plus the reverted deepest one
    fixture = _fixture("bob_mallory", {
        BOB: _account(balance=2 * (k + 1), code=bob),
        MALLORY: _account(balance=0, code=mal),
    }, tx, expect={
        "status": "success",
        "post": {
            MALLORY: {"balance": 2 * k},
            BOB: {"balance": 2, "storage": {0: 1}},
        },
        "verdicts": {"single-entrancy": "violated", "call-integrity": "violated"},
        "committed_transfers": k,
    }, checker_params={
        "contract": BOB,
        "untrusted": [MALLORY],
        "code_variants": {MALLORY: [mal, benign_mallory_code()]},
    })
    return fixture


def _bank_fixture(name, code, owner, verdict) -> Fixture:
    tx = _tx(owner, 900_000)
    return _fixture(name, {
        owner: _account(balance=1000, code=code, storage={0: 50}),
        DEPOSITOR: _account(balance=0, code=depositor_burn_code()),
    }, tx, expect={
        "status": "success",
        "verdicts": {"atomicity": verdict},
    }, checker_params={
        "contract": owner,
        "gas_values": [800_000, 341_000],
    })


def build_bank_atomicity() -> Fixture:
    return _bank_fixture("bank_atomicity", bank_code(), BANK, "violated")


def build_bank_atomicity_fixed() -> Fixture:
    return _bank_fixture("bank_atomicity_fixed", bank_fixed_code(), BANK_FIXED, "holds")


def build_exc_fn() -> Fixture:
    return _bank_fixture("exc_fn", bank_exc_fn_code(), BANK_EXC_FN, "violated")


def build_exc_fp() -> Fixture:
    return _bank_fixture("exc_fp", bank_exc_fp_code(), BANK_EXC_FP, "holds")


def build_timestamp_lottery() -> Fixture:
    code = lottery_direct_code()
    tx = _tx(LOTTERY_DIRECT, 100_000)
    return _fixture("timestamp_lottery", {
        LOTTERY_DIRECT: _account(balance=10, code=code),
        PAYEE: _account(balance=0),
    }, tx, expect={
        "verdicts": {"env-independence": "violated"},
    }, checker_params={
        "contract": LOTTERY_DIRECT,
        "components": {"timestamp": [0x5E000000, 0x60000000]},
    })


def _creation_gated_fixture(name, runtime, verdict) -> Fixture:
    rho = fresh_address(LOTTERY_WRAPPER, 1)
    wrapper = wrapper_code(rho)
    init = lottery_init(runtime)
    tx = _tx(LOTTERY_WRAPPER, 300_000, input_=init)
    return _fixture(name, {
        LOTTERY_WRAPPER: _account(balance=100, code=wrapper, nonce=1),
        PAYEE: _account(balance=0),
    }, tx, expect={
        "verdicts": {"env-independence": verdict},
    }, checker_params={
        "contract": rho,
        "contract_code": runtime,
        "components": {"timestamp": [0x5E000000, 0x60000000]},
    })


def build_time_fn() -> Fixture:
    return _creation_gated_fixture("time_fn", lottery_runtime_fn(), "violated")


def build_time_fp() -> Fixture:
    return _creation_gated_fixture("time_fp", lottery_runtime_fp(), "holds")


def build_reentrant_fn() -> Fixture:
    code = reentrant_fn_code()
    tx = _tx(REENTRANT_FN, 100_000, input_=ATTACKER_FN.to_bytes(32, "big"))
    return _fixture("reentrant_fn", {
        REENTRANT_FN: _account(balance=10, code=code),
        ATTACKER_FN: _account(balance=0, code=callback_attacker_code(REENTRANT_FN)),
        REGISTRY: _account(balance=0, code=asm(["STOP"])),
    }, tx, expect={
        "verdicts": {"single-entrancy": "violated"},
    }, checker_params={"contract": REENTRANT_FN})


def build_reentrant_fp() -> Fixture:
    code = guarded_code()
    attacker = callback_attacker_code(GUARDED)
    tx = _tx(GUARDED, 200_000, input_=ATTACKER_G.to_bytes(32, "big"))
    return _fixture("reentrant_fp", {
        GUARDED: _account(balance=10, code=code),
        ATTACKER_G: _account(balance=0, code=attacker),
    }, tx, expect={
        "verdicts": {"single-entrancy": "holds",
                     "account-state-independence": "violated",
                     "call-integrity": "holds"},
    }, checker_params={
        "contract": GUARDED,
        "untrusted": [ATTACKER_G],
        "code_variants": {ATTACKER_G: [attacker, benign_mallory_code()]},
    })


def build_call_restriction() -> Fixture:
    tx = _tx(CHAIN_ROOT, 200_000)
    return _fixture("call_restriction", {
        CHAIN_ROOT: _account(balance=0, code=forwarder_code(ALLY)),
        ALLY: _account(balance=0, code=forwarder_code(OUTSIDER)),
        OUTSIDER: _account(balance=0, code=asm(["STOP"])),
    }, tx, expect={
        "verdicts": {"call-restriction": "violated", "call-integrity": "holds"},
    }, checker_params={
        "contract": CHAIN_ROOT,
        "allowed": [ALLY],
        "untrusted": [OUTSIDER],
        "code_variants": {OUTSIDER: [asm(["STOP"]),
                                     asm(["PUSH1 0x01", "PUSH1 0x00", "SSTORE", "STOP"])]},
    })


def build_deep_recursion() -> Fixture:
    # the 1/64 withhold compounds over 1024 levels, so the budget is huge
    tx = _tx(DEEP, 600_000_000_000)
    return _fixture("deep_recursion", {
        DEEP: _account(balance=0, code=forwarder_code(DEEP)),
    }, tx, expect={
        "verdicts": {"stack-limit": "violated"},
    }, checker_params={"contract": DEEP, "max_steps": 100_000})


def build_bounded_recursion() -> Fixture:
    tx = _tx(BOUNDED, 600_000)
    return _fixture("bounded_recursion", {
        BOUNDED: _account(balance=0, code=bounded_recursion_code()),
    }, tx, expect={
        "verdicts": {"stack-limit": "holds"},
    }, checker_params={"contract": BOUNDED})


def build_gasless_send() -> Fixture:
    tx = _tx(GASLESS, 100_000)
    return _fixture("gasless_send", {
        GASLESS: _account(balance=10, code=gasless_send_code()),
        SINK: _account(balance=0, code=asm(["STOP"])),
    }, tx, expect={
        "verdicts": {"fuelled-calls": "violated"},
    }, checker_params={"contract": GASLESS})


def build_balance_gate() -> Fixture:
    tx = _tx(BALANCE_GATE, 100_000)
    return _fixture("balance_gate", {
        BALANCE_GATE: _account(balance=100, code=balance_gate_code()),
        PAYEE: _account(balance=0),
    }, tx, expect={
        "verdicts": {"account-state-independence": "violated"},
    }, checker_params={"contract": BALANCE_GATE})


BUILDERS = [
    build_bob_mallory,
    build_bank_atomicity,
    build_bank_atomicity_fixed,
    build_exc_fn,
    build_exc_fp,
    build_timestamp_lottery,
    build_time_fn,
    build_time_fp,
    build_reentrant_fn,
    build_reentrant_fp,
    build_call_restriction,
    build_deep_recursion,
    build_bounded_recursion,
    build_gasless_send,
    build_balance_gate,
]


def build_all() -> list:
    return [b() for b in BUILDERS]


def write_corpus(directory=None) -> list:
    directory = Path(directory) if directory else corpus_dir()
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for fixture in build_all():
        path = directory / f"{fixture.name}.json"
        path.write_text(json.dumps(fixture_to_json(fixture), indent=1) + "\n")
        paths.append(path)
    return paths


if __name__ == "__main__":
    for p in write_corpus():
        print(p)

"""Table-driven fidelity suite: for every opcode family, at least one
positive case asserting the exact gas delta and state transition, plus every
exception case (stack underflow, out-of-gas, bad jump; call-level depth and
balance failures live in test_calls.py). All expected numbers are hand-derived
from the cost schedule and frozen here."""

import pytest
from hypothesis import given, settings, strategies as hst

from evmsem import bytecode, semantics
from evmsem.gas import c_mem, sha3_cost
from evmsem.keccak import keccak256
from evmsem.semantics import StepOutcome, step
from evmsem.state import (EXC, BlockHeader, CallStack, Frame, Halt, LogEvent, MachineState,
                          Regular, is_final, memory_read)
from evmsem.traces import CALL_ACTION_ARITY, Action
from evmsem.words import TWO_255, TWO_256, U256_MAX
from helpers import (DEFAULT_HEADER, MINER, ORIGIN, SELF, make_env, make_frame, stack_of,
                     step_one)
from test_keccak_rlp import _ref_keccak256

W = TWO_256


def run_op(code, stack=(), gas=1_000_000, **kw):
    """One step; returns (state-or-EXC, gas_delta or None)."""
    frame = make_frame(code, stack=stack, gas=gas, **kw)
    out = step_one(frame)
    assert len(out.stack) == 1
    state = out.stack[0].state
    if isinstance(state, Regular):
        return state, gas - state.mu.gas
    if isinstance(state, Halt):
        return state, gas - state.gas
    return state, None


# name, code, pre-stack(top first), expected stack(top first), exact gas cost
BINOP_CASES = [
    ("ADD", "ADD", (2, 3), (5,), 3),
    ("ADD wrap", "ADD", (W - 1, 1), (0,), 3),
    ("SUB", "SUB", (5, 3), (2,), 3),
    ("SUB wrap", "SUB", (3, 5), (W - 2,), 3),
    ("MUL", "MUL", (7, 6), (42,), 5),
    ("DIV", "DIV", (7, 2), (3,), 5),
    ("DIV zero", "DIV", (7, 0), (0,), 5),
    ("SDIV", "SDIV", (W - 8, 2), (W - 4,), 5),
    ("SDIV overflow", "SDIV", (TWO_255, W - 1), (0,), 5),
    ("MOD", "MOD", (7, 2), (1,), 5),
    ("MOD zero", "MOD", (7, 0), (0,), 5),
    ("SMOD", "SMOD", (W - 7, 2), (W - 1,), 5),
    ("LT", "LT", (1, 2), (1,), 3),
    ("GT", "GT", (1, 2), (0,), 3),
    ("SLT", "SLT", (W - 1, 0), (1,), 3),
    ("SGT", "SGT", (W - 1, 0), (0,), 3),
    ("EQ", "EQ", (4, 4), (1,), 3),
    ("AND", "AND", (0b1100, 0b1010), (0b1000,), 3),
    ("OR", "OR", (0b1100, 0b1010), (0b1110,), 3),
    ("XOR", "XOR", (0b1100, 0b1010), (0b0110,), 3),
    ("BYTE", "BYTE", (31, 0x1234), (0x34,), 3),
    ("BYTE high", "BYTE", (32, 0x1234), (0,), 3),
    ("SIGNEXTEND", "SIGNEXTEND", (0, 0xFF), (W - 1,), 5),
    ("ISZERO", "ISZERO", (0,), (1,), 3),
    ("ISZERO nz", "ISZERO", (9,), (0,), 3),
    ("NOT", "NOT", (0,), (U256_MAX,), 3),
    ("ADDMOD", "ADDMOD", (5, 6, 7), (4,), 8),
    ("ADDMOD zero", "ADDMOD", (5, 6, 0), (0,), 8),
    ("MULMOD", "MULMOD", (5, 6, 7), (2,), 8),
    ("EXP zero", "EXP", (5, 0), (1,), 10),
    ("EXP small", "EXP", (2, 10), (1024,), 20),
    ("EXP two byte", "EXP", (2, 256), (pow(2, 256, W),), 30),
]


@pytest.mark.parametrize("name,code,pre,post,cost", BINOP_CASES,
                         ids=[c[0] for c in BINOP_CASES])
def test_stack_ops(name, code, pre, post, cost):
    state, delta = run_op(code, pre)
    assert isinstance(state, Regular)
    assert state.mu.stack == post
    assert delta == cost
    assert state.mu.pc == 1


UNDERFLOW_CASES = [
    ("ADD", (1,)), ("SUB", ()), ("MUL", (1,)), ("BYTE", (1,)),
    ("SIGNEXTEND", ()), ("EXP", (1,)), ("SHA3", (1,)), ("ISZERO", ()),
    ("NOT", ()), ("ADDMOD", (1, 2)), ("MULMOD", (1,)), ("CALLDATALOAD", ()),
    ("CALLDATACOPY", (1, 2)), ("CODECOPY", (1,)), ("BALANCE", ()),
    ("EXTCODESIZE", ()), ("EXTCODECOPY", (1, 2, 3)), ("BLOCKHASH", ()),
    ("POP", ()), ("DUP1", ()), ("DUP16", tuple(range(15))),
    ("SWAP1", (1,)), ("SWAP16", tuple(range(16))), ("JUMP", ()),
    ("JUMPI", (1,)), ("MLOAD", ()), ("MSTORE", (1,)), ("MSTORE8", (1,)),
    ("SLOAD", ()), ("SSTORE", (1,)), ("LOG0", (1,)), ("LOG2", (1, 2, 3)),
    ("LOG4", (1, 2, 3, 4, 5)), ("RETURN", (1,)), ("SELFDESTRUCT", ()),
    ("CALL", tuple(range(6))), ("CALLCODE", tuple(range(6))),
    ("DELEGATECALL", tuple(range(5))), ("CREATE", (1, 2)),
]


@pytest.mark.parametrize("code,pre", UNDERFLOW_CASES,
                         ids=[c[0] for c in UNDERFLOW_CASES])
def test_stack_underflow(code, pre):
    frame = make_frame(code, stack=pre)
    out = step_one(frame)
    assert out.stack[0].state is EXC
    assert len(out.stack) == 1


OOG_CASES = [
    ("ADD", (1, 2), 2), ("MUL", (1, 2), 4), ("EXP", (2, 1), 19),
    ("SHA3", (0, 32), 38), ("ISZERO", (1,), 2), ("ADDMOD", (1, 2, 3), 7),
    ("ADDRESS", (), 1), ("CALLER", (), 1), ("CALLVALUE", (), 1),
    ("CODESIZE", (), 1), ("CALLDATASIZE", (), 1), ("ORIGIN", (), 1),
    ("GASPRICE", (), 1), ("COINBASE", (), 1), ("TIMESTAMP", (), 1),
    ("NUMBER", (), 1), ("DIFFICULTY", (), 1), ("GASLIMIT", (), 1),
    ("CALLDATALOAD", (0,), 2), ("CALLDATACOPY", (0, 0, 1), 8),
    ("CODECOPY", (0, 0, 1), 8), ("BALANCE", (1,), 399),
    ("EXTCODESIZE", (1,), 699), ("EXTCODECOPY", (1, 0, 0, 1), 705),
    ("BLOCKHASH", (1,), 19), ("POP", (1,), 1), ("PUSH1 0x01", (), 2),
    ("DUP1", (5,), 2), ("SWAP1", (1, 2), 2), ("JUMPDEST", (), 0),
    ("MLOAD", (0,), 5), ("MSTORE", (0, 1), 5), ("MSTORE8", (0, 1), 5),
    ("SLOAD", (0,), 199), ("SSTORE", (0, 0), 4999),
    ("PC", (), 1), ("MSIZE", (), 1), ("GAS", (), 1),
    ("LOG0", (0, 0), 374), ("RETURN", (0, 32), 2),
    ("SELFDESTRUCT", (OTHER_BEN := 0xBBBB,), 4999),
]


@pytest.mark.parametrize("code,pre,gas", OOG_CASES, ids=[c[0] for c in OOG_CASES])
def test_out_of_gas(code, pre, gas):
    # one unit short of the exact cost
    frame = make_frame(code, stack=pre, gas=gas)
    out = step_one(frame)
    assert out.stack[0].state is EXC
    # and the exact cost succeeds
    frame = make_frame(code, stack=pre, gas=gas + 1)
    out = step_one(frame)
    assert out.stack[0].state is not EXC


def test_jump_family():
    code = "PUSH1 0x03\nJUMP\nJUMPDEST\nSTOP"
    state, delta = run_op(code, (3,), pc=2)   # the JUMP itself
    assert state.mu.pc == 3 and delta == 8 and state.mu.stack == ()

    # bad destination
    frame = make_frame(code, stack=(1,), pc=2)
    assert step_one(frame).stack[0].state is EXC

    # JUMPI taken / not taken
    code = "JUMPI\nSTOP\nJUMPDEST"
    state, delta = run_op(code, (2, 1))
    assert state.mu.pc == 2 and delta == 10
    state, delta = run_op(code, (2, 0))
    assert state.mu.pc == 1 and delta == 10
    # invalid destination faults even when the condition is zero (as printed)
    frame = make_frame(code, stack=(1, 0))
    assert step_one(frame).stack[0].state is EXC

    state, delta = run_op("JUMPDEST", ())
    assert delta == 1 and state.mu.pc == 1


def test_env_access_values():
    cases = {
        "ADDRESS": SELF,
        "CALLER": ORIGIN,
        "CALLVALUE": 33,
        "CODESIZE": 1,
        "CALLDATASIZE": 4,
        "ORIGIN": ORIGIN,
        "GASPRICE": 3,
        "COINBASE": MINER,
        "TIMESTAMP": DEFAULT_HEADER.timestamp,
        "NUMBER": 9,
        "DIFFICULTY": 0x20000,
        "GASLIMIT": 10_000_000,
    }
    for op, want in cases.items():
        state, delta = run_op(op, (), input=b"abcd", value=33)
        assert state.mu.stack == (want,), op
        assert delta == 2, op


def test_machine_state_access():
    state, delta = run_op("PC", ())
    assert state.mu.stack == (0,) and delta == 2
    state, delta = run_op("MSIZE", (), active_words=3)
    assert state.mu.stack == (96,) and delta == 2
    # GAS pushes the pre-charge gas as printed
    state, delta = run_op("GAS", (), gas=500)
    assert state.mu.stack == (500,) and delta == 2


def test_calldataload_padding():
    data = bytes(range(1, 11))  # 10 bytes
    state, _ = run_op("CALLDATALOAD", (0,), input=data)
    assert state.mu.stack == (int.from_bytes(data.ljust(32, b"\x00"), "big"),)
    state, _ = run_op("CALLDATALOAD", (8,), input=data)
    assert state.mu.stack == (int.from_bytes(data[8:].ljust(32, b"\x00"), "big"),)
    state, delta = run_op("CALLDATALOAD", (100,), input=data)
    assert state.mu.stack == (0,) and delta == 3


def test_calldatacopy():
    data = b"\x11\x22\x33"
    state, delta = run_op("CALLDATACOPY", (5, 1, 4), input=data)
    # cost: Cmem(0, ceil(9/32)=1)=3 + 3 + 3*ceil(4/32)
    assert delta == 9
    assert state.mu.active_words == 1
    assert list(memory_read(state.mu.memory, 5, 4)) == [0x22, 0x33, 0, 0]
    assert state.mu.stack == ()


def test_codecopy_stop_padding():
    code = "PUSH1 0x07\nSTOP"
    state, delta = run_op(code, (0, 0, 5), pc=0)
    # wait: run_op executes code[pc]=PUSH1... use explicit CODECOPY program
    state, delta = run_op("CODECOPY", (0, 0, 5))
    # code is the single CODECOPY byte 0x39; rest padded with STOP (0x00)
    assert list(memory_read(state.mu.memory, 0, 5)) == [0x39, 0, 0, 0, 0]
    assert delta == 3 + 3 + 3


def test_sha3():
    # hash of 4 memory bytes
    mem = {0: 0xDE, 1: 0xAD, 2: 0xBE, 3: 0xEF}
    state, delta = run_op("SHA3", (0, 4), memory=mem, active_words=1)
    assert state.mu.stack == (keccak256(bytes.fromhex("deadbeef")),)
    assert delta == 30 + 6  # no further memory growth
    # empty input at huge offset: size 0 means no expansion
    state, delta = run_op("SHA3", (10**30, 0))
    assert state.mu.stack == (keccak256(b""),)
    assert delta == 30


# region size, active words after, gas: 100 bytes of memory (4 active words),
# read from offset 50, so each region runs past the end of memory; gas is
# sha3_base 30 + 6 per word of the region, plus 3 per new word and the
# quadratic term aw**2 // 512 (0 below 23 words)
SHA3_PAST_END_CASES = [
    (135, 6, 30 + 6 * 5 + 3 * 2),   # one byte short of the 136-byte rate
    (136, 6, 30 + 6 * 5 + 3 * 2),   # exactly one block before padding
    (137, 6, 30 + 6 * 5 + 3 * 2),
    (272, 11, 30 + 6 * 9 + 3 * 7),  # exactly two blocks
]


@pytest.mark.parametrize("size,aw,cost", SHA3_PAST_END_CASES,
                         ids=[str(c[0]) for c in SHA3_PAST_END_CASES])
def test_sha3_region_past_the_end_of_memory(size, aw, cost):
    mem = {i: (7 * i + 1) % 256 for i in range(100)}
    state, delta = run_op("SHA3", (50, size), memory=mem, active_words=4)
    region = bytes(mem[i] for i in range(50, 100)).ljust(size, b"\x00")
    assert state.mu.stack == (int.from_bytes(_ref_keccak256(region), "big"),)
    assert state.mu.active_words == aw
    assert delta == cost == c_mem(4, aw) + sha3_cost(size)


def test_balance_and_extcode():
    state, delta = run_op("BALANCE", (SELF,))
    assert state.mu.stack == (1000,) and delta == 400
    state, delta = run_op("BALANCE", (0xDEAD,))
    assert state.mu.stack == (0,) and delta == 400
    # address is reduced mod 2**160
    state, _ = run_op("BALANCE", (SELF + 2**160,))
    assert state.mu.stack == (1000,)

    state, delta = run_op("EXTCODESIZE", (0xBBBB,))
    assert state.mu.stack == (1,) and delta == 700   # OTHER has 1-byte code
    state, delta = run_op("EXTCODESIZE", (0xDEAD,))
    assert state.mu.stack == (0,) and delta == 700

    state, delta = run_op("EXTCODECOPY", (0xBBBB, 0, 0, 3))
    assert list(memory_read(state.mu.memory, 0, 3)) == [0, 0, 0]  # STOP pad
    assert delta == 700 + 3 + 3
    assert state.mu.stack == ()


def test_blockhash_chain_walk():
    h7 = BlockHeader(parent=0x66, number=7)
    h8 = BlockHeader(parent=0x77, number=8)   # hash 0x88 -> parent hash 0x77
    anc = {0x77: h7, 0x88: h8}
    tenv = make_env(header=BlockHeader(parent=0x88, number=9), ancestors=anc)

    def bh(n):
        frame = make_frame("BLOCKHASH", stack=(n,))
        out = step_one(frame, tenv=tenv)
        return out.stack[0].state.mu.stack[0]

    assert bh(8) == 0x88
    assert bh(7) == 0x77
    assert bh(6) == 0      # beyond the supplied ancestor list
    assert bh(9) == 0      # n beyond the first visited header
    assert bh(100) == 0
    frame = make_frame("BLOCKHASH", stack=(8,))
    out = step_one(frame, tenv=tenv)
    assert 1_000_000 - out.stack[0].state.mu.gas == 20


def test_blockhash_walks_at_most_256_parents():
    # a chain of 300 known headers, each block n's hash 0x1000 + n: the walk
    # from block 300 finds the 256 most recent ancestors and stops there
    chain = {0x1000 + n: BlockHeader(parent=0x1000 + n - 1, number=n) for n in range(1, 300)}
    tenv = make_env(header=BlockHeader(parent=0x1000 + 299, number=300), ancestors=chain)

    def bh(n):
        return step_one(make_frame("BLOCKHASH", stack=(n,)), tenv=tenv).stack[0].state.mu.stack[0]

    assert bh(299) == 0x1000 + 299
    assert bh(44) == 0x1000 + 44           # the 256th parent hop
    assert bh(43) == 0                     # known, but 257 hops away


def test_push_dup_swap_pop():
    state, delta = run_op("PUSH1 0x2a", ())
    assert state.mu.stack == (42,) and delta == 3 and state.mu.pc == 2

    state, delta = run_op("PUSH32 " + "0x" + "11" * 32, ())
    assert state.mu.stack == (int("11" * 32, 16),) and state.mu.pc == 33

    # truncated immediate reads zeros past the end of the code
    state, _ = run_op(bytes([0x61, 0xAA]), ())
    assert state.mu.stack == (0xAA00,)

    state, delta = run_op("DUP1", (7,))
    assert state.mu.stack == (7, 7) and delta == 3
    state, _ = run_op("DUP16", tuple(range(16)))
    assert state.mu.stack == (15,) + tuple(range(16))

    state, delta = run_op("SWAP1", (1, 2))
    assert state.mu.stack == (2, 1) and delta == 3
    state, _ = run_op("SWAP16", tuple(range(17)))
    assert state.mu.stack == (16,) + tuple(range(1, 16)) + (0,)

    state, delta = run_op("POP", (9, 8))
    assert state.mu.stack == (8,) and delta == 2


def test_machine_stack_overflow():
    # the printed validity check rejects a new stack size reaching 1024
    frame = make_frame("PUSH1 0x01", stack=tuple(range(1023)))
    assert step_one(frame).stack[0].state is EXC
    frame = make_frame("PUSH1 0x01", stack=tuple(range(1022)))
    assert step_one(frame).stack[0].state is not EXC


def test_memory_ops():
    state, delta = run_op("MSTORE", (0, 0x1122))
    assert list(memory_read(state.mu.memory, 30, 2)) == [0x11, 0x22]
    assert state.mu.active_words == 1 and delta == 3 + 3

    state, delta = run_op("MSTORE8", (1, 0x1FF))
    assert memory_read(state.mu.memory, 1, 1)[0] == 0xFF
    assert state.mu.active_words == 1 and delta == 3 + 3

    mem = {31: 0x2A}
    state, delta = run_op("MLOAD", (0,), memory=mem, active_words=1)
    assert state.mu.stack == (0x2A,) and delta == 3   # no growth
    state, delta = run_op("MLOAD", (32,), memory=mem, active_words=1)
    assert state.mu.stack == (0,) and delta == 3 + (3 * 1 + 0)  # one more word


def test_storage_ops():
    state, delta = run_op("SLOAD", (5,), storage={5: 77})
    assert state.mu.stack == (77,) and delta == 200
    state, delta = run_op("SLOAD", (6,), storage={5: 77})
    assert state.mu.stack == (0,)

    # fresh write: 20000, no refund
    state, delta = run_op("SSTORE", (1, 9))
    assert delta == 20000
    assert state.sigma.get(SELF).storage == {1: 9}
    assert state.eta.refund == 0

    # overwrite: 5000
    state, delta = run_op("SSTORE", (1, 3), storage={1: 9})
    assert delta == 5000 and state.sigma.get(SELF).storage == {1: 3}

    # delete: 5000 plus 15000 refund; zero entry removed
    state, delta = run_op("SSTORE", (1, 0), storage={1: 9})
    assert delta == 5000
    assert state.sigma.get(SELF).storage == {}
    assert state.eta.refund == 15000


def test_log_family():
    state, delta = run_op("LOG0", (0, 0))
    assert delta == 375
    assert state.eta.logs == (LogEvent(SELF, (), b""),)

    mem = {0: 0xAB}
    state, delta = run_op("LOG2", (0, 3, 7, 8), memory=mem, active_words=1)
    assert delta == 375 + 8 * 3 + 2 * 375
    assert state.eta.logs == (LogEvent(SELF, (7, 8), b"\xab\x00\x00"),)
    assert state.mu.stack == ()


def test_halting_family():
    # STOP: free, no data
    state, delta = run_op("STOP", (1, 2), gas=55)
    assert isinstance(state, Halt)
    assert state.gas == 55 and state.data == b""

    # RETURN pays only memory growth and slices [io, io+is-1]
    mem = {0: 1, 1: 2}
    state, delta = run_op("RETURN", (0, 2), memory=mem, active_words=1)
    assert isinstance(state, Halt)
    assert state.data == b"\x01\x02" and delta == 0
    state, delta = run_op("RETURN", (0, 64), memory=mem, active_words=1)
    assert delta == 3  # one extra word
    assert len(state.data) == 64


def test_selfdestruct_existing_beneficiary():
    state, delta = run_op("SELFDESTRUCT", (0xBBBB,), gas=6000)
    assert isinstance(state, Halt)
    assert delta == 5000 and state.data == b""
    assert state.sigma.get(SELF).balance == 0
    assert state.sigma.get(0xBBBB).balance == 77 + 1000
    assert state.eta.suicides == frozenset({SELF})
    assert state.eta.refund == 24000


def test_selfdestruct_fresh_beneficiary():
    state, delta = run_op("SELFDESTRUCT", (0xDEAD,), gas=40000)
    assert delta == 37000
    fresh = state.sigma.get(0xDEAD)
    assert fresh.balance == 1000 and fresh.code == b"" and fresh.nonce == 0
    assert state.sigma.get(SELF).balance == 0


def test_selfdestruct_no_double_refund():
    from evmsem.state import TransactionEffects
    eta = TransactionEffects(suicides=frozenset({SELF}))
    frame = make_frame("SELFDESTRUCT", stack=(0xBBBB,), gas=6000, eta=eta)
    out = step_one(frame)
    assert out.stack[0].state.eta.refund == 0


def test_invalid_and_unknown_bytes():
    for raw in (b"\xfe", b"\x21", b"\xf5"):
        frame = make_frame(raw, gas=10**6)
        out = step_one(frame)
        assert out.stack[0].state is EXC


def test_empty_code_halts_via_stop_fallback():
    state, delta = run_op(b"", (), gas=77)
    assert isinstance(state, Halt) and state.gas == 77


def test_run_accumulates_costs_and_trace():
    from helpers import run_code
    final, trace = run_code("PUSH1 0x01\nPUSH1 0x02\nADD\nSTOP", gas=100)
    assert isinstance(final[0].state, Halt)
    assert final[0].state.gas == 100 - 3 - 3 - 3
    assert [a.op for a in trace] == ["PUSH1", "PUSH1", "ADD", "STOP"]
    assert trace[2].args == (2, 1)


def test_run_jump_to_non_dest_is_exc():
    from helpers import run_code
    # code[0] is JUMP itself, not a JUMPDEST
    final, trace = run_code("PUSH1 0x00\nJUMP", gas=100)
    assert final[0].state is EXC
    assert trace[-1].tag == "exc"


def test_gas_refund_visible_within_budget_and_not_after():
    from evmsem.semantics import BudgetExhausted, run
    from helpers import make_env, make_frame
    frame = make_frame("JUMPDEST\nPUSH1 0x00\nJUMP", gas=10**6)
    with pytest.raises(BudgetExhausted):
        run(make_env(), stack_of(frame), 100)


def test_selfdestruct_to_itself_burns_the_balance():
    # the beneficiary is credited before the actor is zeroed (Yellow Paper
    # order), so naming oneself as beneficiary destroys the balance
    state, delta = run_op("ADDRESS\nSELFDESTRUCT", (SELF,), gas=6000, pc=1, balance=100)
    assert isinstance(state, Halt)
    assert delta == 5000
    assert state.sigma.get(SELF).balance == 0
    assert state.eta.suicides == frozenset({SELF})


def test_call_to_itself_keeps_the_value():
    # the caller is debited before the callee is credited, so a CALL with
    # value to the caller's own address leaves its balance where it was
    frame = make_frame("CALL", stack=(10_000, SELF, 5, 0, 0, 0, 0), balance=1000)
    out = step_one(frame)
    assert len(out.stack) == 2 and out.action.tag == "enter"
    callee = out.stack[0].state
    assert isinstance(callee, Regular) and callee.iota.value == 5
    assert callee.sigma.get(SELF).balance == 1000
    assert callee.sigma.total_balance() == frame.state.sigma.total_balance()


def test_rule_table_is_indexed_by_opcode_byte():
    # every byte's rule carries the mnemonic of the opcode table; bytes
    # outside it fire the INVALID rule
    assert len(semantics._RULES) == 256
    assert [r.name for r in semantics._RULES] == [bytecode.mnemonic(b) for b in range(256)]


# ---------------------------------------------------------------------------
# the byte table at every pc, and the run table built from it


@settings(max_examples=200, deadline=None)
@given(body=hst.binary(max_size=48), push=hst.integers(0x60, 0x7F),
       tail=hst.binary(max_size=31))
def test_every_pc_steps_as_the_byte_table_does(body, push, tail):
    # random bytes, a PUSH2 whose data are JUMPDEST bytes, a PC, and a PUSH
    # cut short by the end of the code
    k = push - 0x5F
    code = body + bytes([0x61, 0x5B, 0x5B, 0x58, push]) + tail[:k - 1]
    for pc, byte in enumerate(code):
        want = semantics._RULES[byte]
        # a PUSH or PC at any pc, inside PUSH data too, pushes its word
        if want.name == "PC" or want.name.startswith("PUSH"):
            imm = bytes(code[pc + 1:pc + 1 + want.k]).ljust(want.k, b"\x00")
            word = pc if want.name == "PC" else int.from_bytes(imm, "big")
            out = step_one(make_frame(code, pc=pc))
            assert out.action.op == want.name, pc
            assert out.stack.top.state.mu.stack == (word,), pc
    for pc in (len(code), len(code) + 1, 10**40):
        out = step_one(make_frame(code, pc=pc))
        assert (out.action.op, out.action.tag) == ("STOP", "halt")
    # each run, applied in one call from its first pc, leaves the stack its
    # steps leave one at a time
    tenv = make_env()
    for start, run in semantics._runs(code).items():
        stack = stack_of(make_frame(code, pc=start, stack=range(max(20, run.need))))
        after = semantics._run_block(tenv, stack, stack.top.state, run, None)
        for _ in range(run.steps):
            stack = step(tenv, stack).stack
        assert after == stack, start


# ---------------------------------------------------------------------------
# records built with tuple.__new__


def test_step_records_have_exactly_their_classes():
    tenv = make_env()
    stacks = [stack_of(make_frame(code, stack=stack)) for code, stack in (
        ("PUSH1 0x01", ()), ("ADD", (1, 2)), ("ADD", ()), ("STOP", ()),
        ("CALL", (1000, 0xC0DE, 0, 0, 0, 0, 0)), ("CREATE", (0, 0, 0)))]
    for stack in stacks:
        while True:
            out = step(tenv, stack)
            assert type(out) is StepOutcome
            assert type(out.action) is Action
            assert type(out.stack) is CallStack and type(out.stack.top) is Frame
            state = out.stack.top.state
            assert type(state) in (Regular, Halt) or state is EXC
            if type(state) is Regular:
                assert type(state.mu) is MachineState
            if is_final(out.stack):
                break
            stack = out.stack


def test_call_rules_pop_their_action_arity():
    # an enter or fail action carries the rule's n popped words, which is
    # as many as an action of its op must carry
    for name in ("CALL", "CALLCODE", "DELEGATECALL", "CREATE"):
        r = semantics._RULES[bytecode.MNEMONIC_TO_BYTE[name]]
        assert r.n == CALL_ACTION_ARITY[name], name
    stack = stack_of(make_frame("CALL", stack=(1000, 0xC0DE, 0, 0, 0, 0, 0)))
    out = step(make_env(), stack)
    assert out.action.tag == "enter" and out.action.args == (1000, 0xC0DE, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        Action("CALL", None, (1, 2), "enter")

"""Cross-frame effect propagation: what the caller adopts from a halting
callee and what an exception erases, for each call flavor."""

from evmsem.bytecode import assemble
from evmsem.gas import c_gascap
from evmsem.semantics import run
from evmsem.state import Account, GlobalState, Halt
from helpers import OTHER, SELF, make_env, make_frame, make_state, stack_of

TARGET = 0xC0DE


def run_calling(op, callee_code, caller_gas=200_000, g_arg=50_000, va=0,
                self_balance=1000, extra_stack=""):
    """Caller does one call of the given flavor and stops."""
    callee = assemble(callee_code)
    lines = ["PUSH1 0x00"] * 4
    if op != "DELEGATECALL":
        lines.append(f"PUSH2 {hex(va)}")
    lines += [f"PUSH2 {hex(TARGET)}", f"PUSH3 {hex(g_arg)}", op, "STOP"]
    code = assemble("\n".join(lines))
    sigma = make_state(code=code, balance=self_balance,
                       accounts={TARGET: Account(0, 5, {7: 8}, callee)})
    frame = make_frame(code, gas=caller_gas, sigma=sigma, value=11)
    final, trace = run(make_env(), stack_of(frame), 1000)
    assert isinstance(final[0].state, Halt)
    return final[0].state, trace


def test_callcode_sstore_writes_callers_storage():
    st, _ = run_calling("CALLCODE", "PUSH1 0x2a\nPUSH1 0x01\nSSTORE\nSTOP")
    # the borrowed code ran in the caller's context: SELF's storage changed,
    # the code owner's storage did not
    assert st.sigma.get(SELF).storage.get(1) == 0x2A
    assert st.sigma.get(TARGET).storage == {7: 8}


def test_call_sstore_writes_callees_storage():
    st, _ = run_calling("CALL", "PUSH1 0x2a\nPUSH1 0x01\nSSTORE\nSTOP")
    assert st.sigma.get(SELF).storage.get(1) is None
    assert st.sigma.get(TARGET).storage == {7: 8, 1: 0x2A}


def test_delegatecall_sstore_and_inherited_value():
    # the borrowed code sees the caller's value and writes caller storage
    st, _ = run_calling("DELEGATECALL", "CALLVALUE\nPUSH1 0x02\nSSTORE\nSTOP")
    assert st.sigma.get(SELF).storage.get(2) == 11
    assert st.sigma.get(TARGET).storage == {7: 8}


def test_callcode_exception_rolls_back_callers_storage():
    st, trace = run_calling("CALLCODE",
                            "PUSH1 0x2a\nPUSH1 0x01\nSSTORE\nINVALID")
    assert st.sigma.get(SELF).storage.get(1) is None
    assert any(a.tag == "exc_ret" for a in trace)


def test_callee_logs_adopted_on_halt_reverted_on_exc():
    st, _ = run_calling("CALL", "PUSH1 0x00\nPUSH1 0x00\nLOG0\nSTOP")
    assert len(st.eta.logs) == 1
    assert st.eta.logs[0].address == TARGET
    st, _ = run_calling("CALL", "PUSH1 0x00\nPUSH1 0x00\nLOG0\nINVALID")
    assert st.eta.logs == ()


def test_selfdestruct_as_callee():
    st, trace = run_calling("CALL", f"PUSH2 {hex(OTHER)}\nSELFDESTRUCT", va=3)
    # callee halts via SELFDESTRUCT: suicide set and transfer adopted
    assert TARGET in st.eta.suicides
    assert st.eta.refund == 24000
    assert st.sigma.get(TARGET).balance == 0
    assert st.sigma.get(OTHER).balance == 77 + 5 + 3   # pre + callee balance
    # caller saw a successful return (1 pushed, then consumed by STOP path)
    assert any(a.tag == "ret" for a in trace)


def test_callcode_return_gas_accounting():
    g_arg = 700
    st, _ = run_calling("CALLCODE", "STOP", caller_gas=100_000, g_arg=g_arg)
    spent_before = 4 * 3 + 3 + 3 + 3   # zeros, va, target, gas pushes
    cc = c_gascap(0, 1, g_arg, 100_000 - spent_before)
    assert cc == g_arg
    # 700 base + cc charged, cc refunded back (STOP spends nothing)
    assert st.gas == 100_000 - spent_before - 700 - cc + cc


def test_delegatecall_return_gas_accounting():
    g_arg = 444
    st, _ = run_calling("DELEGATECALL", "STOP", caller_gas=100_000, g_arg=g_arg)
    spent_before = 4 * 3 + 3 + 3   # zeros, target, gas pushes
    cc = c_gascap(0, 1, g_arg, 100_000 - spent_before)
    assert cc == g_arg
    assert st.gas == 100_000 - spent_before - 700 - cc + cc


def test_extcodecopy_reads_real_external_bytes():
    from evmsem.semantics import step
    from evmsem.state import memory_read

    external = assemble("PUSH1 0x2a\nPUSH1 0x01\nSSTORE\nSTOP")
    # EXTCODECOPY pops (addr, mem offset, code offset, size)
    code = assemble(f"PUSH1 0x04\nPUSH1 0x00\nPUSH1 0x00\nPUSH2 {hex(TARGET)}\n"
                    "EXTCODECOPY\nSTOP")
    sigma = make_state(code=code, accounts={TARGET: Account(0, 0, {}, external)})
    stack = stack_of(make_frame(code, sigma=sigma))
    for _ in range(5):   # four pushes plus the copy
        stack = step(make_env(), stack).stack
    got = memory_read(stack[0].state.mu.memory, 0, 4)
    assert got == external[:4]

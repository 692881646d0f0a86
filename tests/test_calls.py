"""CALL/CALLCODE/DELEGATECALL/CREATE rules: entry, every call-time exception,
both return rules, rollback, and the printed differences between the flavors."""

import pytest

from evmsem import rlp, semantics
from evmsem.bytecode import assemble
from evmsem.gas import SCHEDULE, c_gascap, l_all_but_one_64th
from evmsem.keccak import keccak256
from evmsem.rlp import fresh_address
from evmsem.semantics import (MalformedConfiguration, run, run_frame, run_with_local_updates,
                              step)
from evmsem.state import (EXC, Account, ExecutionEnvironment, Frame, GlobalState, Halt, Regular,
                          is_final, memory_read)
from helpers import OTHER, SELF, make_env, make_frame, make_state, stack_of, step_one

CALLEE = 0xC0DE
ABSENT = 0xD00D


def call_stack_args(g=50_000, to=CALLEE, va=0, io=0, isz=0, oo=0, os_=0):
    return (g, to, va, io, isz, oo, os_)


def make_call_frame(op="CALL", gas=100_000, stack=None, callee_code="STOP",
                    balance=1000, **kw):
    code = assemble(op)
    accounts = {CALLEE: Account(0, 5, {}, assemble(callee_code))}
    sigma = make_state(code=code, balance=balance, accounts=accounts)
    return make_frame(code, stack=stack or call_stack_args(), gas=gas,
                      sigma=sigma, **kw)


def test_call_pushes_fresh_frame_and_moves_value():
    frame = make_call_frame(stack=call_stack_args(va=7, io=0, isz=4),
                            memory={0: 0xAA, 2: 0xBB}, active_words=1)
    after, action = step_one(frame)
    assert len(after) == 2
    callee = after[0]
    st = callee.state
    assert isinstance(st, Regular)
    # fresh machine state: budget, pc 0, zero memory, empty stack
    assert st.mu.gas == c_gascap(7, 1, 50_000, 100_000)
    assert st.mu.pc == 0 and st.mu.memory == b"" and st.mu.stack == ()
    assert st.mu.active_words == 0
    # environment rewired to the callee
    assert st.iota.actor == CALLEE and st.iota.sender == SELF
    assert st.iota.value == 7 and st.iota.input == b"\xaa\x00\xbb\x00"
    assert st.iota.code == assemble("STOP")
    # value moved in the callee's sigma; caller frame untouched
    assert st.sigma.get(CALLEE).balance == 5 + 7
    assert st.sigma.get(SELF).balance == 1000 - 7
    assert after.below.top == frame
    assert callee.contract == (CALLEE, assemble("STOP"))
    assert action.tag == "enter" and action.op == "CALL"
    assert action.args == call_stack_args(va=7, io=0, isz=4)


def test_call_to_absent_account_creates_it():
    frame = make_call_frame(stack=call_stack_args(to=ABSENT, va=3))
    after, _action = step_one(frame)
    st = after[0].state
    created = st.sigma.get(ABSENT)
    assert created == Account(0, 3, {}, b"")
    assert st.iota.code == b""
    # flag = 0: the 25000 new-account charge applies inside the cap formula
    assert st.mu.gas == c_gascap(3, 0, 50_000, 100_000)


def _two_puts(sigma, actor, to, va):
    """sigma after a CALL's debit of the actor and credit of `to`."""
    payer = sigma.get(actor) or Account()
    sigma = sigma.put(actor, payer.with_balance(payer.balance - va))
    payee = sigma.get(to) or Account()
    return sigma.put(to, payee.with_balance(payee.balance + va))


@pytest.mark.parametrize("to,va,actor_exists,skipped", [
    (CALLEE, 0, True, True),
    (SELF, 0, True, True),            # the self-call of a recursion
    (ABSENT, 0, True, False),         # creates the callee
    (CALLEE, 0, False, False),        # creates the caller
    (CALLEE, 7, True, False),
    (SELF, 7, True, False),
], ids=["zero", "zero-to-self", "zero-to-absent", "zero-from-absent", "value", "value-to-self"])
def test_call_sigma_is_what_the_debit_and_credit_give(to, va, actor_exists, skipped):
    frame = make_call_frame(stack=call_stack_args(to=to, va=va))
    sigma = frame.state.sigma if actor_exists else frame.state.sigma.delete(SELF)
    frame = frame._replace(state=frame.state._replace(sigma=sigma))
    after, _action = step_one(frame)
    st = after[0].state
    assert st.sigma == _two_puts(sigma, SELF, to, va)
    # without value between two existing accounts no put is made
    assert (st.sigma is sigma) == skipped


def test_zero_value_call_to_absent_account_pays_for_creating_it():
    frame = make_call_frame(stack=call_stack_args(to=ABSENT))
    tenv = make_env()
    after, _action = step(tenv, stack_of(frame))
    assert after[0].state.sigma.get(ABSENT) == Account()
    stack, _trace = run_frame(tenv, after, 10)
    resumed, _action = step(tenv, stack)
    caller = resumed[0].state
    assert caller.mu.stack == (1,)
    assert caller.mu.gas == 100_000 - SCHEDULE["call_base"] - SCHEDULE["call_new_account"]


@pytest.mark.parametrize("op", ["CALL", "CALLCODE", "DELEGATECALL"])
def test_callee_environment_is_the_callers_with_the_call_fields_replaced(op):
    words = call_stack_args(va=7, isz=2)
    if op == "DELEGATECALL":
        words = words[:2] + words[3:]
    frame = make_call_frame(op=op, stack=words, memory={0: 0xAA}, active_words=1,
                            value=3, sender=0x5E4D)
    after, _action = step_one(frame)
    st = after[0].state
    iota, code = frame.state.iota, assemble("STOP")
    assert st.iota == {
        "CALL": iota._replace(sender=SELF, actor=CALLEE, value=7, input=b"\xaa\x00",
                              code=code),
        "CALLCODE": iota._replace(sender=SELF, value=7, input=b"\xaa\x00", code=code),
        "DELEGATECALL": iota._replace(input=b"\xaa\x00", code=code),
    }[op]
    if op != "CALL":
        assert st.sigma is frame.state.sigma


@pytest.mark.parametrize("op", ["CALL", "CALLCODE", "DELEGATECALL", "CREATE"])
def test_the_callee_environment_is_the_one_its_constructor_builds(op):
    # the step builds it with tuple.__new__, skipping the constructor; the
    # record must still be a read-only ExecutionEnvironment like any other
    if op == "CREATE":
        frame = create_frame(va=9, init="PUSH1 0x00\nPUSH1 0x00\nRETURN")
    else:
        words = call_stack_args(va=7, isz=2)
        frame = make_call_frame(op=op, stack=words[:2] + words[3:] if op == "DELEGATECALL"
                                else words, memory={0: 0xAA}, active_words=1, value=3)
    after, _action = step_one(frame)
    iota = after[0].state.iota
    built = ExecutionEnvironment(iota.actor, iota.input, iota.sender, iota.value, iota.code)
    assert type(iota) is ExecutionEnvironment
    assert iota == built and hash(iota) == hash(built) and repr(iota) == repr(built)
    assert list(iota._asdict().items()) == list(built._asdict().items())
    assert iota._replace(value=5) == built._replace(value=5) != iota
    with pytest.raises(AttributeError):
        iota.value = 5


def test_call_balance_failure_pushes_exc():
    frame = make_call_frame(stack=call_stack_args(va=10_000), balance=100)
    after, action = step_one(frame)
    assert len(after) == 2
    assert after[0].state is EXC
    assert after[0].contract is None
    assert after.below.top == frame
    assert action.tag == "fail"


def test_call_depth_failure_pushes_exc():
    frame = make_call_frame()
    below = tuple(make_frame("CALL", stack=call_stack_args()) for _ in range(1023))
    after, _action = step(make_env(), stack_of(frame, *below))
    assert len(after) == 1025
    assert after[0].state is EXC
    # at 1023 frames below (1024 total) the call is still allowed
    after, _action = step(make_env(), stack_of(frame, *below[:1022]))
    assert isinstance(after[0].state, Regular)
    assert len(after) == 1024


def test_call_out_of_gas_replaces_frame():
    # va=1, g=0: charge is Cbase(1,1) + stipend = 7200 + 2300 = 9500;
    # one unit short means EXC replaces the caller itself
    frame = make_call_frame(gas=9499, stack=call_stack_args(g=0, va=1))
    after, _action = step_one(frame)
    assert len(after) == 1
    assert after[0].state is EXC
    frame = make_call_frame(gas=9500, stack=call_stack_args(g=0, va=1))
    after, _action = step_one(frame)
    assert len(after) == 2 and isinstance(after[0].state, Regular)


def test_call_success_return_exact_gas():
    g_arg = 600
    frame = make_call_frame(stack=call_stack_args(g=g_arg), gas=100_000,
                            callee_code="PUSH1 0x2a\nPUSH1 0x00\nMSTORE\n"
                                        "PUSH1 0x20\nPUSH1 0x00\nRETURN")
    # oops: RETURN pops io then is; program pushes is=0x20 then io=0x00
    after, _action = step_one(frame)
    tenv = make_env()
    stack, trace = run_frame(tenv, after, 100)
    assert isinstance(stack[0].state, Halt)
    returned, _action = step(tenv, stack)
    caller = returned[0]
    assert len(returned) == 1
    st = caller.state
    assert st.mu.stack == (1,)
    assert st.mu.pc == 1
    # cost = Cbase(0,1)=700 + Cmem(0,0)=0 + c_call, refunded callee remainder
    callee_budget = c_gascap(0, 1, g_arg, 100_000)
    assert callee_budget == g_arg
    spent_inside = 3 + 3 + (3 + 3) + 3 + 3  # pushes, mstore+mem, pushes
    assert st.mu.gas == 100_000 - (700 + callee_budget) + (callee_budget - spent_inside)
    # sigma/eta adopted (unchanged here), return data not requested (os=0)
    assert st.sigma.get(CALLEE).balance == 5


def test_call_return_data_written_to_caller_memory():
    # callee returns the 32-byte word 42; caller asked for only os=2 bytes
    frame = make_call_frame(
        stack=call_stack_args(g=5000, oo=10, os_=2),
        callee_code="PUSH1 0x2a\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN")
    tenv = make_env()
    entered, _action = step_one(frame)
    stack, _ = run_frame(tenv, entered, 100)
    after, _action = step(tenv, stack)
    mu = after[0].state.mu
    # only min(os, |d|) = 2 bytes land at oo=10; word value 42 sits in byte 31
    assert memory_read(mu.memory, 10, 2) == bytes(2)
    assert mu.stack == (1,)
    # i was extended to cover [oo, oo+os) at call time: M(M(0,0,0),10,2) = 1
    assert mu.active_words == 1


def test_call_exception_return_rolls_back():
    frame = make_call_frame(stack=call_stack_args(g=30_000, va=2),
                            callee_code="PUSH1 0x01\nPUSH1 0x00\nSSTORE\nINVALID")
    tenv = make_env()
    after, _action = step_one(frame)
    stack, _ = run_frame(tenv, after, 100)
    assert stack[0].state is EXC
    returned, _action = step(tenv, stack)
    caller = returned[0].state
    # caller's sigma and eta are bit-identical to call time
    assert caller.sigma == frame.state.sigma
    assert caller.eta == frame.state.eta
    assert caller.mu.stack == (0,)
    # the full allocation is consumed
    cc = c_gascap(2, 1, 30_000, 100_000)
    assert caller.mu.gas == 100_000 - (7200 + cc)


def test_callcode_keeps_actor_no_transfer():
    frame = make_call_frame(op="CALLCODE", stack=call_stack_args(va=7),
                            callee_code="STOP")
    after, _action = step_one(frame)
    st = after[0].state
    assert st.iota.actor == SELF            # context stays with the caller
    assert st.iota.sender == SELF
    assert st.iota.value == 7
    assert st.iota.code == assemble("STOP")
    # no balance movement at all
    assert st.sigma.get(SELF).balance == 1000
    assert st.sigma.get(CALLEE).balance == 5
    # still annotated with the code-owning contract
    assert after[0].contract == (CALLEE, assemble("STOP"))
    # balance guard still applies
    poor = make_call_frame(op="CALLCODE", stack=call_stack_args(va=10**9))
    after, _action = step_one(poor)
    assert after[0].state is EXC and len(after) == 2


def test_callcode_to_absent_runs_empty_code_without_creating():
    frame = make_call_frame(op="CALLCODE", stack=call_stack_args(to=ABSENT, va=1))
    after, _action = step_one(frame)
    st = after[0].state
    assert st.sigma.get(ABSENT) is None
    assert st.iota.code == b""
    # CALLCODE always charges with flag = 1
    assert st.mu.gas == c_gascap(1, 1, 50_000, 100_000)


def test_delegatecall_pops_six_and_inherits_context():
    code = assemble("DELEGATECALL")
    accounts = {CALLEE: Account(0, 5, {}, assemble("STOP"))}
    sigma = make_state(code=code, accounts=accounts)
    frame = make_frame(code, stack=(40_000, CALLEE, 0, 0, 0, 0, 0xDEAD),
                       sigma=sigma, value=99, sender=0x5E4D)
    after, action = step_one(frame)
    st = after[0].state
    assert st.iota.actor == SELF
    assert st.iota.sender == 0x5E4D        # preserved, not rewritten
    assert st.iota.value == 99             # preserved
    assert st.iota.code == assemble("STOP")
    # six arguments popped: 0xDEAD is still on the caller's stack
    assert after.below.top.state.mu.stack[-1] == 0xDEAD
    assert action.args == (40_000, CALLEE, 0, 0, 0, 0)
    assert st.mu.gas == c_gascap(0, 1, 40_000, 1_000_000)
    # absent code account: runs empty code, nothing created
    frame = make_frame(code, stack=(40_000, ABSENT, 0, 0, 0, 0), sigma=sigma)
    after, _action = step_one(frame)
    st = after[0].state
    assert st.sigma.get(ABSENT) is None and st.iota.code == b""


def test_delegatecall_depth_guard_only():
    code = assemble("DELEGATECALL")
    frame = make_frame(code, stack=(40_000, CALLEE, 0, 0, 0, 0),
                       sigma=make_state(code=code, balance=0))
    below = tuple(make_frame("STOP") for _ in range(1023))
    after, _action = step(make_env(), stack_of(frame, *below))
    assert after[0].state is EXC and len(after) == 1025


# ---------------------------------------------------------------------------
# CREATE


def create_frame(gas=200_000, va=0, init="STOP", balance=1000, nonce=3,
                 collision=None):
    init_code = assemble(init)
    mem = {i: b for i, b in enumerate(init_code) if b}
    code = assemble("CREATE")
    accounts = dict(collision or {})
    sigma = GlobalState({SELF: Account(nonce, balance, {}, code),
                         OTHER: Account(0, 77, {}, b""), **accounts})
    return make_frame(code, stack=(va, 0, len(init_code)), gas=gas, sigma=sigma,
                      memory=mem, active_words=(len(init_code) + 31) // 32 or 0)


def test_create_entry():
    frame = create_frame(va=9, init="PUSH1 0x00\nPUSH1 0x00\nRETURN")
    after, action = step_one(frame)
    st = after[0].state
    rho = fresh_address(SELF, 3)
    assert after[0].contract is None   # initialization code: bottom
    assert st.iota.actor == rho and st.iota.sender == SELF
    assert st.iota.input == b"" and st.iota.value == 9
    assert st.iota.code == assemble("PUSH1 0x00\nPUSH1 0x00\nRETURN")
    assert st.sigma.get(rho) == Account(0, 9, {}, b"")
    assert st.sigma.get(SELF).nonce == 4
    assert st.sigma.get(SELF).balance == 1000 - 9
    # budget: all but one 64th of (gas - Cmem - 32000)
    aw_cost = 0  # memory already active
    assert st.mu.gas == l_all_but_one_64th(200_000 - 32_000 - aw_cost)
    assert action.op == "CREATE" and action.args == (9, 0, 5)


def test_create_collision_merges_balance():
    rho = fresh_address(SELF, 3)
    existing = {rho: Account(7, 50, {3: 4}, b"\x00")}
    frame = create_frame(va=9, collision=existing)
    after, _action = step_one(frame)
    st = after[0].state
    assert st.sigma.get(rho) == Account(0, 59, {}, b"")


def test_two_creates_at_nonce_0_make_two_accounts():
    # each CREATE sends 1 wei to an account whose empty init code halts
    code = assemble("PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x01\nCREATE\n" * 2 + "STOP")
    sigma = GlobalState({SELF: Account(0, 10, {}, code)})
    frame = make_frame(code, gas=200_000, sigma=sigma)
    stack, _ = run(make_env(), stack_of(frame), 100)
    st = stack[0].state
    assert isinstance(st, Halt)
    first, second = fresh_address(SELF, 0), fresh_address(SELF, 1)
    assert first != second
    assert st.sigma.get(first) == st.sigma.get(second) == Account(0, 1, {}, b"")
    assert st.sigma.get(SELF).nonce == 2 and st.sigma.get(SELF).balance == 8


def test_create_balance_and_depth_failures():
    frame = create_frame(va=10**9)
    after, _action = step_one(frame)
    assert after[0].state is EXC and len(after) == 2

    frame = create_frame()
    below = tuple(make_frame("STOP") for _ in range(1023))
    after, _action = step(make_env(), stack_of(frame, *below))
    assert after[0].state is EXC and len(after) == 1025


def test_create_oog_and_underflow():
    frame = create_frame(gas=31_000)
    after, _action = step_one(frame)
    assert after[0].state is EXC and len(after) == 1


def test_create_success_return_deploys_code():
    # init returns 2 bytes of code: MSTORE8 them and RETURN(0,2)
    init = ("PUSH1 0x5b\nPUSH1 0x00\nMSTORE8\n"
            "PUSH1 0x00\nPUSH1 0x01\nMSTORE8\n"
            "PUSH1 0x02\nPUSH1 0x00\nRETURN")
    frame = create_frame(init=init, gas=200_000, va=1)
    tenv = make_env()
    entered, _action = step_one(frame)
    stack, _ = run_frame(tenv, entered, 100)
    assert isinstance(stack[0].state, Halt)
    callee_gas = stack[0].state.gas
    after, _action = step(tenv, stack)
    st = after[0].state
    rho = fresh_address(SELF, 3)
    assert st.mu.stack == (rho,)
    assert st.sigma.get(rho).code == b"\x5b\x00"
    assert st.sigma.get(rho).balance == 1
    # caller gas: full allocation charged, remainder and withhold returned
    allocation = 32_000 + l_all_but_one_64th(200_000 - 32_000)
    c_final = 200 * 2
    assert st.mu.gas == 200_000 - allocation - c_final + callee_gas
    # per-frame gas strictly decreased across the whole create
    assert st.mu.gas < 200_000


def test_a_successful_create_hashes_its_address_once(monkeypatch):
    hashed = []
    monkeypatch.setattr(rlp, "keccak256", lambda data: hashed.append(data) or keccak256(data))
    rlp.fresh_address.cache_clear()
    tenv = make_env()
    entered, _action = step_one(create_frame(init="STOP"))
    stack, _ = run_frame(tenv, entered, 100)
    after, action = step(tenv, stack)
    assert hashed == [rlp.rlp_encode_pair(SELF, 3)]
    assert action.tag == "ret" and after[0].state.mu.stack == (fresh_address(SELF, 3),)


def test_create_final_fee_unpayable_replaces_caller():
    # give CREATE so little gas that the returned 32-byte code cannot cover
    # its 200*32 = 6400 deployment fee
    frame = create_frame(init="PUSH1 0x20\nPUSH1 0x00\nRETURN", gas=38_500)
    tenv = make_env()
    entered, _action = step_one(frame)
    stack, _ = run_frame(tenv, entered, 100)
    halt = stack[0].state
    assert isinstance(halt, Halt) and halt.gas < 200 * 32
    after, _action = step(tenv, stack)
    assert len(after) == 1
    assert after[0].state is EXC


def test_an_unpayable_create_fee_ends_the_run_only_on_the_bottom_frame():
    # the one return that leaves its caller in EXC: a drive reads finality
    # from the stack alone, which is final when that caller is the bottom frame
    frame = create_frame(init="PUSH1 0x20\nPUSH1 0x00\nRETURN", gas=38_500)
    tenv = make_env()
    for below in ((), (make_frame("STOP"),)):
        entered, _action = step_one(frame, tenv, below)
        stack, _ = run_frame(tenv, entered, 100)
        after, _action = step(tenv, stack)
        assert after[0].state is EXC and is_final(after) == (not below)


def test_create_exception_return():
    frame = create_frame(init="INVALID", gas=100_000)
    tenv = make_env()
    entered, _action = step_one(frame)
    stack, _ = run_frame(tenv, entered, 100)
    assert stack[0].state is EXC
    after, _action = step(tenv, stack)
    st = after[0].state
    assert st.mu.stack == (0,)
    assert st.sigma == frame.state.sigma    # rollback
    allocation = 32_000 + l_all_but_one_64th(100_000 - 32_000)
    assert st.mu.gas == 100_000 - allocation


# ---------------------------------------------------------------------------
# return processing errors


def test_halt_above_non_call_is_malformed():
    reg = make_frame("ADD", stack=(1, 2))
    halted = Frame(Halt(GlobalState(), 5, b"", reg.state.eta), None)
    with pytest.raises(MalformedConfiguration):
        step(make_env(), stack_of(halted, reg))


def test_final_configuration_cannot_step():
    halted = Frame(Halt(GlobalState(), 5, b"", make_frame("STOP").state.eta), None)
    with pytest.raises(MalformedConfiguration):
        step(make_env(), stack_of(halted))


# ---------------------------------------------------------------------------
# code overrides (local update semantics)


def test_extcodesize_consults_override():
    code = assemble("EXTCODESIZE")
    frame = make_frame(code, stack=(OTHER,))
    override = {OTHER: b"\x01\x02\x03"}
    after, _action = step_one(frame, override=override)
    assert after[0].state.mu.stack == (3,)
    # without the override: OTHER's real code (1 byte STOP)
    after, _action = step_one(frame)
    assert after[0].state.mu.stack == (1,)


def test_extcodecopy_consults_override():
    code = assemble("EXTCODECOPY")
    frame = make_frame(code, stack=(OTHER, 0, 0, 2))
    override = {OTHER: b"\xaa\xbb"}
    after, _action = step_one(frame, override=override)
    mem = after[0].state.mu.memory
    assert list(memory_read(mem, 0, 2)) == [0xAA, 0xBB]


def test_override_does_not_change_called_code():
    # the local update only affects EXTCODE reads, not the code that runs
    code = assemble("PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\n"
                    "PUSH1 0x00\nPUSH2 0xbbbb\nPUSH2 0x0fff\nCALL")
    frame = make_frame(code, sigma=make_state(code=code))
    override = {OTHER: assemble("INVALID")}
    tenv = make_env()
    stack = stack_of(frame)
    for _ in range(8):
        stack, _action = step(tenv, stack, override)
    callee = stack[0]
    assert callee.state.iota.code == assemble("STOP")   # from sigma, not f


def _creating_frame(tail: str = "STOP", init: str = "PUSH1 0x00\nPUSH1 0x00\nRETURN"):
    """SELF, at nonce 3, creates an account whose init code is init (by
    default, one that deposits empty code), then runs tail."""
    init_code = assemble(init)
    mem = {i: b for i, b in enumerate(init_code) if b}
    code = assemble(f"PUSH1 {hex(len(init_code))}\nPUSH1 0x00\nPUSH1 0x00\nCREATE\n{tail}")
    sigma = GlobalState({SELF: Account(3, 100, {}, code)})
    return make_frame(code, gas=200_000, sigma=sigma, memory=mem, active_words=1)


def test_a_local_code_update_reads_the_code_a_frame_created():
    # SELF creates an account whose init code deposits 0xaabb; under an
    # update that does not name it, EXTCODESIZE of it reads that code
    deposit = "PUSH2 0xaabb\nPUSH1 0x00\nMSTORE\nPUSH1 0x02\nPUSH1 0x1e\nRETURN"
    frame = _creating_frame("EXTCODESIZE\nPUSH1 0x00\nSSTORE\nSTOP", deposit)
    update = {OTHER: b"\x01"}
    stack, trace = run_with_local_updates(make_env(), stack_of(frame), update, 1000)
    assert isinstance(stack[0].state, Halt)
    assert stack[0].state.sigma.get(fresh_address(SELF, 3)).code == b"\xaa\xbb"
    assert stack[0].state.sigma.get(SELF).storage_get(0) == 2
    assert update == {OTHER: b"\x01"}          # the caller's update is not changed


def test_an_override_entry_at_a_created_address_wins():
    # the update already gives the new address a 2-byte code: the create
    # does not replace it, and EXTCODESIZE of the new address reads it
    rho = fresh_address(SELF, 3)
    update = {rho: b"\xaa\xbb", OTHER: b"\x01"}
    frame = _creating_frame("EXTCODESIZE\nPUSH1 0x00\nSSTORE\nSTOP")
    stack, trace = run_with_local_updates(make_env(), stack_of(frame), update, 1000)
    assert update == {rho: b"\xaa\xbb", OTHER: b"\x01"}
    assert stack[0].state.sigma.get(SELF).storage_get(0) == 2
    assert stack[0].state.sigma.get(rho).code == b""


@pytest.mark.parametrize("op", ["CALL", "CALLCODE", "DELEGATECALL"])
def test_a_call_reads_its_callee_once_and_costs_once(monkeypatch, op):
    # a zero-value call to an existing account: the CALL step reads the
    # callee from sigma once, and its return recomputes the call's cost
    # from the same caller state
    lookups, caps = [], []
    get, cap = GlobalState.get, semantics.c_gascap

    def counting_get(sigma, key, default=None):
        lookups.append(key)
        return get(sigma, key, default)

    def counting_cap(*args):
        caps.append(args)
        return cap(*args)

    monkeypatch.setattr(GlobalState, "get", counting_get)
    monkeypatch.setattr(semantics, "c_gascap", counting_cap)
    n = 6 if op == "DELEGATECALL" else 7
    frame = make_call_frame(op, stack=call_stack_args()[:n])
    tenv = make_env()
    after, action = step(tenv, stack_of(frame))
    assert action.tag == "enter"
    assert lookups.count(CALLEE) == 1
    stack, _trace = run_frame(tenv, after, 10)
    resumed, resumed_action = step(tenv, stack)
    assert resumed_action.tag == "ret" and resumed.top.state.mu.stack == (1,)
    assert len(caps) == 2 and caps[0] == caps[1]

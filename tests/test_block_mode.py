"""Block mode against one-op-at-a-time stepping.

`iterate_steps(..., ops=False)`, the checkers' mode, applies each
straight-line run of constant-cost plain ops in one call and yields no
plain-op step. Whatever it skips, it must show the same steps per-op
stepping shows for every step it yields: the same action at the same step
index, between the same call stacks, the same final stack and step count,
and BudgetExhausted for exactly the same budgets. Checked here over the
criterion-5 programs and every corpus scenario, and at the edges of a run:
gas, stack underflow and overflow, GAS and PC inside a run, a local code
update read by EXTCODESIZE in the analyzed frame and not in the frame it
calls, and a budget that ends inside a run. Over the corpus, a step also
deepens the stack exactly when its action tag is "enter" or "fail", the
rule the checkers read steps by.
"""

import pytest

from evmsem import semantics
from evmsem.bytecode import assemble, valid_jump_dests
from evmsem.fixtures import load_corpus
from evmsem.semantics import (BudgetExhausted, is_final, iterate_steps,
                              run_frame, run_to_depth, run_with_local_updates)
from evmsem.state import CALL_DEPTH_LIMIT, EXC, Account, CallStack, Regular
from evmsem.transaction import execute_transaction, t_init
from helpers import (OTHER, checking_block_mode, make_env, make_frame, make_state,
                     modes_in_lockstep, stack_of)
from proputil import STEP_BUDGET, program_frame

N_PROGRAMS = 10_000
CUT_EVERY = 50      # every 50th program, and every corpus scenario, is cut
CUTS = 80           # at every step count up to 80, and at its last three


def _drive(steps):
    """(the steps of a drive, whether its budget ran out)."""
    out = []
    try:
        for item in steps:
            out.append(item)
    except BudgetExhausted:
        return out, True
    return out, False


def _kept(steps, out: list):
    """The steps of a drive, each also appended to out."""
    for item in steps:
        out.append(item)
        yield item


def assert_modes_agree(tenv, stack, budget, override=None):
    """Block mode yields per-op stepping's non-op steps, between the same
    stacks, and ends as it does (helpers.modes_in_lockstep); returns the
    per-op steps, kept from the per-op drive of that lockstep, which it
    drains."""
    per_op = []

    def keeping(tenv, stack, max_steps, override, ops):
        steps = iterate_steps(tenv, stack, max_steps, override, ops)
        return _kept(steps, per_op) if ops else steps

    _drive(modes_in_lockstep(keeping, tenv, stack, budget, override))
    return per_op


def _counting_steps(monkeypatch):
    """Count the calls of semantics.step."""
    calls = []
    real = semantics.step

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(semantics, "step", counted)
    return calls


def assert_cuts_agree(tenv, stack, budgets, override=None):
    for budget in budgets:
        assert_modes_agree(tenv, stack, budget, override)


def _cuts(steps: int):
    """The budgets a drive of `steps` steps is cut at."""
    return sorted({*range(1, min(steps, CUTS) + 1), *range(max(steps - 1, 1), steps + 2)})


# ---------------------------------------------------------------------------
# the criterion-5 programs and the corpus


def test_modes_agree_on_the_criterion_5_programs():
    tenv = make_env()
    for seed in range(N_PROGRAMS):
        stack = stack_of(program_frame(seed))
        per_op = assert_modes_agree(tenv, stack, STEP_BUDGET)
        if seed % CUT_EVERY == 0:
            assert_cuts_agree(tenv, stack, _cuts(len(per_op)))


def _corpus_stacks():
    for f in load_corpus():
        tenv, frame, _created = t_init(f.tx, f.header, f.pre, f.ancestors)
        yield f.name, tenv, CallStack(frame, None, 1)


def assert_tags_mark_deepening(steps):
    """A step deepens the stack exactly when its action tag is "enter",
    which pushes a running frame, or "fail", which pushes EXC: the rule the
    checkers' monitors read steps by. Returns the depths the "fail" steps
    start from."""
    fails = []
    for _index, before, action, after in steps:
        deeper = after.depth > before.depth
        assert deeper == (action.tag in ("enter", "fail")), action
        if action.tag == "enter":
            assert isinstance(after.top.state, Regular)
        elif action.tag == "fail":
            assert after.top.state is EXC
            fails.append(before.depth)
    return fails


@pytest.mark.parametrize("name,tenv,stack", list(_corpus_stacks()),
                         ids=[name for name, *_ in _corpus_stacks()])
def test_modes_agree_on_every_corpus_scenario(monkeypatch, name, tenv, stack):
    per_op = assert_modes_agree(tenv, stack, 1_000_000)
    assert is_final(per_op[-1][3])
    # block mode, as the checkers drive it, yields these very steps but the
    # plain ops (modes_in_lockstep checks it), so the rule holds there too
    fails = assert_tags_mark_deepening(per_op)
    if name == "deep_recursion":
        assert fails == [CALL_DEPTH_LIMIT]
    assert_cuts_agree(tenv, stack, _cuts(len(per_op)))
    # the drivers the checkers call keep just the non-op actions in their traces
    final, trace = per_op[-1][3], tuple(a for _i, _b, a, _s in per_op if a.tag != "op")
    steps = _counting_steps(monkeypatch)
    assert run_frame(tenv, stack, 1_000_000) == (final, trace)
    assert len(steps) < len(per_op)        # block mode applied at least one run


def test_one_op_at_a_time_execution_builds_no_run_table():
    semantics._runs.cache_clear()
    for f in load_corpus():
        execute_transaction(f.tx, f.header, f.pre, ancestors=f.ancestors)
    assert semantics._runs.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the edges of a run

RUN = "PUSH1 0x01\nPUSH1 0x02\nADD\nGAS\nPC\nDUP2\nSWAP1\nPOP\nJUMPDEST\nPOP"


def _frame_stack(code, **kw):
    return stack_of(make_frame(code, **kw))


def _first_run(code):
    return semantics._runs(assemble(code))[0]


def test_runs_stop_at_any_rule_outside_the_plain_ones():
    # a JUMPDEST ends one run and starts the next
    code = assemble("PUSH1 0x01\nPUSH1 0x00\nMSTORE\nJUMPDEST\nPUSH1 0x02\nJUMPDEST\nSTOP")
    runs = semantics._runs(code)
    assert {pc: (r.steps, r.end) for pc, r in runs.items()} == {
        0: (2, 4), 5: (2, 8), 8: (1, 9)}


def test_run_bounds():
    run = _first_run(RUN)
    # PUSH1 PUSH1 ADD GAS PC DUP2 SWAP1 POP (JUMPDEST starts the next run)
    assert (run.steps, run.cost, run.need, run.growth, run.end) == (8, 21, 0, 4, 10)
    assert _first_run("PUSH1 0x01\nADD\nADD\nSTOP").need == 2


@pytest.mark.parametrize("short", [0, 1], ids=["gas=cost", "gas=cost-1"])
def test_gas_equal_to_the_run_cost_and_one_less(monkeypatch, short):
    code = "PUSH1 0x01\nPUSH1 0x02\nADD\nGAS\nPC\nDUP2\nSWAP1\nPOP\nSTOP"
    cost = _first_run(code).cost
    stack = _frame_stack(code, gas=cost - short)
    per_op = assert_modes_agree(make_env(), stack, 100)
    assert per_op[-1][2].tag == ("exc" if short else "halt")
    steps = _counting_steps(monkeypatch)
    _drive(iterate_steps(make_env(), stack, 100, ops=False))
    assert len(steps) == (len(per_op) if short else 1)


@pytest.mark.parametrize("words", [1, 2], ids=["one-short", "enough"])
def test_a_stack_one_word_short_of_the_run(monkeypatch, words):
    code = "PUSH1 0x01\nADD\nADD\nSTOP"
    stack = _frame_stack(code, stack=(5,) * words)
    per_op = assert_modes_agree(make_env(), stack, 100)
    if words == 1:      # the second ADD underflows, partway in
        assert [(a.op, a.tag) for _i, _b, a, _s in per_op] == [
            ("PUSH1", "op"), ("ADD", "op"), ("ADD", "exc")]
    steps = _counting_steps(monkeypatch)
    _drive(iterate_steps(make_env(), stack, 100, ops=False))
    assert len(steps) == (3 if words == 1 else 1)


@pytest.mark.parametrize("size", [1021, 1022], ids=["fits", "overflows"])
def test_a_stack_within_the_run_growth_of_the_limit(size):
    code = "PUSH1 0x01\nPUSH1 0x02\nPOP\nPUSH1 0x03\nSTOP"
    assert _first_run(code).growth == 2
    per_op = assert_modes_agree(make_env(), _frame_stack(code, stack=(7,) * size), 100)
    assert per_op[-1][2].tag == ("halt" if size == 1021 else "exc")


def test_gas_and_pc_in_the_middle_of_a_run():
    code = "PUSH1 0x01\nGAS\nPUSH2 0x1234\nPC\nGAS\nDUP2\nPOP\nSTOP"
    tenv, stack = make_env(), _frame_stack(code, gas=10_000)
    per_op = assert_modes_agree(tenv, stack, 100)
    final, _trace = run_frame(tenv, stack, 100)
    before_stop = per_op[-1][1].top.state
    assert before_stop.mu.stack == (9_990, 6, 0x1234, 9_997, 1)
    assert final == per_op[-1][3]


def _pushes(length):
    """length PUSH1..PUSH32 and PC ops, with distinct words."""
    return [f"PUSH{i % 32 + 1} 0x" + "".join(f"{(i + j) % 256:02x}" for j in range(i % 32 + 1))
            if i % 5 else "PC" for i in range(length)]


@pytest.mark.parametrize("tail", ["GAS", "DUP", "SWAP"])
def test_a_stretch_of_pushes_then_gas_dup_or_swap(tail):
    # the stretch is fused into one op; the run ends at the STOP
    tenv = make_env()
    for length in range(1, 33):
        n = min(length, 16)
        code = "\n".join(_pushes(length) + [{"GAS": "GAS", "DUP": f"DUP{n}",
                                             "SWAP": f"SWAP{n}"}[tail], "STOP"])
        stack = _frame_stack(code, stack=(0xEE,), gas=50_000)
        per_op = assert_modes_agree(tenv, stack, 100)
        run = _first_run(code)
        assert (run.steps, len(run.ops)) == (length + 1, 2)
        after = semantics._run_block(tenv, stack, stack.top.state, run, None)
        assert after == per_op[length][3] == per_op[-1][1], length


def test_chained_runs_agree_with_cuts_at_each_chain(monkeypatch):
    # JUMPDESTs inside straight-line code: three runs, each starting where
    # the one before it ends, applied one after another without a step
    code = "PUSH1 0x01\nPUSH1 0x02\nJUMPDEST\nADD\nPC\nJUMPDEST\nGAS\nDUP2\nPOP\nSTOP"
    runs = semantics._runs(assemble(code))
    assert [(pc, r.steps, r.end, r.chain) for pc, r in sorted(runs.items())] == [
        (0, 2, 4, True), (4, 3, 7, True), (7, 4, 11, False)]
    cost = sum(r.cost for r in runs.values())
    tenv = make_env()
    for gas in (cost - 1, cost, cost + 1):    # one short: the last run's POP faults
        stack = _frame_stack(code, gas=gas)
        per_op = assert_modes_agree(tenv, stack, 100)
        assert len(per_op) == (10 if gas >= cost else 9)
        # the chains are at steps 2 and 5: cut there and one step either side
        assert_cuts_agree(tenv, stack, range(1, 12))
    stack = _frame_stack(code)
    for budget in range(1, 12):
        _steps, exhausted = _drive(iterate_steps(tenv, stack, budget, ops=False))
        assert exhausted == (budget < 10)
    steps = _counting_steps(monkeypatch)
    _drive(iterate_steps(tenv, stack, 100, ops=False))
    assert len(steps) == 1                  # the three runs, then STOP alone


def test_extcodesize_in_a_run_under_a_local_code_update(monkeypatch):
    # the run PUSH2 OTHER, EXTCODESIZE, PUSH1 0 ends at the SSTORE that
    # records the size; the update gives OTHER a 3-byte code
    code = f"PUSH2 {hex(OTHER)}\nEXTCODESIZE\nPUSH1 0x00\nSSTORE\nSTOP"
    frame = make_frame(code)
    tenv, stack = make_env(), stack_of(frame, make_frame("STOP"))
    update = {OTHER: b"\x00\x00\x00"}
    assert len(semantics._runs(assemble(code))[0].ops) == 3
    assert_modes_agree(tenv, CallStack(frame, None, 2), 100, update)
    # the driver's own override view, stepped alongside one op at a time
    monkeypatch.setattr(semantics, "iterate_steps", checking_block_mode(iterate_steps))
    final, trace = run_with_local_updates(tenv, stack, update, 100)
    assert [a.op for a in trace] == ["STOP"]      # a trace without plain ops
    assert final.top.state.sigma.get(frame.contract[0]).storage_get(0) == 3
    assert update == {OTHER: b"\x00\x00\x00"}     # the caller's update is not changed


@pytest.mark.parametrize("below", [0, 1], ids=["alone", "above-a-frame"])
def test_a_local_code_update_does_not_reach_a_sub_execution(monkeypatch, below):
    # the analyzed frame calls 0xCA11, then records EXTCODESIZE of OTHER in
    # its slot 0; the callee records it in its own slot 0 the same way. The
    # update gives OTHER 3 bytes; its real code, STOP, is 1 byte
    record = f"PUSH2 {hex(OTHER)}\nEXTCODESIZE\nPUSH1 0x00\nSSTORE\nSTOP"
    callee = 0xCA11
    code = "PUSH1 0x00\n" * 5 + f"PUSH2 {hex(callee)}\nGAS\nCALL\nPOP\n" + record
    sigma = make_state(code=assemble(code), accounts={callee: Account(0, 0, {}, assemble(record))})
    frame = make_frame(code, sigma=sigma)
    tenv, stack = make_env(), stack_of(frame, *[make_frame("STOP")] * below)
    update = {OTHER: b"\x00\x00\x00"}
    monkeypatch.setattr(semantics, "iterate_steps", checking_block_mode(iterate_steps))
    final, trace = run_with_local_updates(tenv, stack, update, 100)
    assert [a.op for a in trace] == ["CALL", "STOP", "CALLRET", "STOP"]
    slot0 = [final.top.state.sigma.get(a).storage_get(0) for a in (frame.contract[0], callee)]
    assert slot0 == [3, 1]
    assert update == {OTHER: b"\x00\x00\x00"}


def test_a_budget_that_ends_partway_through_a_run():
    tenv, stack = make_env(), _frame_stack(RUN + "\nSTOP")
    per_op = assert_modes_agree(tenv, stack, 100)
    assert len(per_op) == 11               # runs of 8 and 2 steps, then STOP
    for budget in range(1, 13):
        _steps, exhausted = _drive(iterate_steps(tenv, stack, budget))
        assert exhausted == (budget < 11)
    assert_cuts_agree(tenv, stack, range(1, 13))


def test_a_call_between_runs_keeps_its_step_index():
    # the enter, return and halt steps come after runs and are numbered as
    # per-op stepping numbers them
    callee = assemble("PUSH1 0x01\nPUSH1 0x02\nADD\nPOP\nSTOP")
    code = ("PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\n"
            f"PUSH2 {hex(0xC0DE)}\nGAS\nCALL\nPOP\nSTOP")
    sigma = make_state(code=assemble(code), accounts={0xC0DE: Account(0, 0, {}, callee)})
    stack = _frame_stack(code, sigma=sigma)
    tenv = make_env()
    block, _exhausted = _drive(iterate_steps(tenv, stack, 100, ops=False))
    assert [(i, a.op, a.tag) for i, _b, a, _s in block] == [
        (8, "CALL", "enter"), (13, "STOP", "halt"), (14, "CALLRET", "ret"),
        (16, "STOP", "halt")]
    assert_modes_agree(tenv, stack, 100)
    assert_cuts_agree(tenv, stack, range(1, 18))
    _final, trace = run_to_depth(tenv, stack, 1, 100)
    assert [a.tag for a in trace] == ["enter", "halt", "ret", "halt"]


# a contract that calls itself with its input less one, until the input is 0
SELF_CHAIN = """
PUSH1 0x00\nCALLDATALOAD\nDUP1\nISZERO\nPUSH1 0x22\nJUMPI
PUSH1 0x01\nSWAP1\nSUB\nPUSH1 0x00\nMSTORE
PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x20\nPUSH1 0x00\nPUSH1 0x00\nADDRESS\nGAS\nCALL
POP\nPUSH1 0x01\nPUSH1 0x02\nADD
JUMPDEST\nSTOP
"""


def test_drives_stop_at_each_depth_of_a_self_call_chain():
    # input 2: frames entered at depths 1, 2 and 3; a drive of each entry,
    # detached at its depth, stops when that frame halts, its return not yet
    # processed, where run_frame and run_to_depth stop on the full stack
    code = assemble(SELF_CHAIN)
    assert valid_jump_dests(code) == {0x22}
    stack = _frame_stack(code, sigma=make_state(code=code), input=(2).to_bytes(32, "big"))
    tenv = make_env()
    entries = [stack] + [after for _i, before, _a, after in iterate_steps(tenv, stack, 1000)
                         if after.depth > before.depth]
    assert [entry.depth for entry in entries] == [1, 2, 3]
    stops = []
    for entry in entries:
        detached = CallStack(entry.top, None, entry.depth)
        per_op = assert_modes_agree(tenv, detached, 1000)
        index, _before, action, last = per_op[-1]
        assert (last.depth, last.below, action.tag) == (entry.depth, None, "halt")
        assert_cuts_agree(tenv, detached, (index - 1, index, index + 1))
        trace = tuple(a for _i, _b, a, _s in per_op if a.tag != "op")
        assert run_frame(tenv, entry, 1000) == (CallStack(last.top, entry.below, entry.depth),
                                                trace)
        # from the deepest entry's full stack, to this entry's depth
        final, _trace = run_to_depth(tenv, entries[-1], entry.depth, 1000)
        assert final == CallStack(last.top, entry.below, entry.depth)
        stops.append(index)
    assert stops[0] > stops[1] > stops[2]


@pytest.mark.parametrize("depth", [0, 2])
def test_run_to_depth_rejects_a_depth_outside_the_stack(depth):
    with pytest.raises(ValueError, match="outside the stack"):
        run_to_depth(make_env(), _frame_stack("STOP"), depth, 100)

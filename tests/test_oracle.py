"""Differential oracle for the interpreter core.

`tests/oracle` holds a frozen copy of the core as it stood before the
rule-table rewrite. Every `step` evmsem takes below is also taken by the
frozen copy from the same configuration, and the two must agree on the
successor stack, frame by frame, and the trace action: over the criterion-5
programs, a seeded deck of call edges, every corpus transaction, and every
corpus checker run. The checkers drive in block mode, which applies runs of
plain ops without `step`; here each of their drives is also stepped one op
at a time alongside it, and the two must show the same non-op steps between
the same stacks. The checkers must also return byte-identical verdicts when driven
by the frozen core, one op at a time, and match the verdicts frozen in
`tests/data/corpus_verdicts.json`.

The frozen core steps tuples of frames, top first, where evmsem steps a
CallStack cons list; the helpers below convert between the two and give
the frozen core the tuple-form `is_final` and `validate_stack` it was
written against.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from evmsem import checkers, semantics
from evmsem.fixtures import load_corpus
from evmsem.bytecode import MNEMONIC_TO_BYTE, assemble
from evmsem.state import Account, CallStack, Halt, Regular, frames, validate_stack
from evmsem.transaction import t_init
from helpers import checking_block_mode, make_env, make_frame, make_state, stack_of
from oracle import semantics as frozen
from proputil import STEP_BUDGET, program_frame

N_PROGRAMS = 10_000
# the verdict JSON of every corpus checker run, key order included, as it
# stood before the checkers were rebuilt around one engine
FROZEN_VERDICTS = Path(__file__).parent / "data" / "corpus_verdicts.json"
# verdicts too slow for the suite: every property except the declared ones
SLOW_FIXTURES = {"deep_recursion"}
# what the checkers take from the core, swapped for the frozen copy's
CORE_CLASSES = ("BudgetExhausted",)
CORE_DRIVERS = ("run_frame", "run_to_depth", "run_with_local_updates")


def _tuple_is_final(stack) -> bool:
    return len(stack) == 1 and not isinstance(stack[0].state, Regular)


def _tuple_validate_stack(stack) -> None:
    validate_stack(stack_of(*stack))


@pytest.fixture(autouse=True)
def tuple_grammar(monkeypatch):
    """The frozen core imports these from evmsem.state, which now reads
    CallStacks; give it their tuple forms."""
    monkeypatch.setattr(frozen, "is_final", _tuple_is_final)
    monkeypatch.setattr(frozen, "validate_stack", _tuple_validate_stack)


def _cut(old_depth: int, new_depth: int):
    """How many cells of the old stack a step replaced: 0 for a push, 1 for
    a replaced top, 2 for a processed return; None for anything else."""
    cut = old_depth - new_depth + 1
    return cut if 0 <= cut <= 2 else None


def _padded(stack: CallStack):
    """(the frames of stack, top first, padded to its depth with its bottom
    frame; the pad's length). The frozen core reads a stack's depth as its
    length, so a detached stack needs frames below its bottom one; no step
    reads them."""
    fs = tuple(frames(stack))
    pad = stack.depth - len(fs)
    return fs + fs[-1:] * pad, pad


def _unpadded(padded: tuple, pad: int) -> CallStack:
    """The inverse of _padded: the detached stack of padded less its pad."""
    stack = None
    for depth, frame in enumerate(reversed(padded[:len(padded) - pad]), start=pad + 1):
        stack = CallStack(frame, stack, depth)
    return stack


def _frames_like(new: CallStack, old: CallStack, old_frames: tuple, pad: int) -> tuple:
    """The frames of new, the successor of old whose frames are old_frames,
    padded as old's are by their last `pad`. When new's cells below its top
    are old's (shown by `is`), their frames are a suffix of old_frames;
    otherwise every cell is walked."""
    cut = _cut(old.depth, new.depth)
    if cut is not None:
        rest = old
        for _ in range(cut):
            rest = rest.below
        if new.below is rest:
            return (new.top,) + old_frames[cut:]
    return tuple(frames(new)) + old_frames[len(old_frames) - pad:]


def _stack_like(new_frames: tuple, old: CallStack, old_frames: tuple) -> CallStack:
    """The inverse of _frames_like: the CallStack of new_frames, sharing old's
    cells where new_frames ends with old_frames' suffix."""
    cut = _cut(len(old_frames), len(new_frames))
    if cut is not None and new_frames[1:] == old_frames[cut:]:
        rest = old
        for _ in range(cut):
            rest = rest.below
        return CallStack(new_frames[0], rest, len(new_frames))
    return stack_of(*new_frames)


class Lockstep:
    """Counts the steps compared and the deepest call stack reached, and
    keeps the padded frames of the last successor, from which a run goes on."""

    def __init__(self):
        self.steps = 0
        self.deepest = 0
        self.last = None, (), 0

    def frames_of(self, stack: CallStack) -> tuple:
        """_padded(stack)."""
        last, last_frames, pad = self.last
        return (last_frames, pad) if stack is last else _padded(stack)


@pytest.fixture
def lockstep(monkeypatch):
    """Route every step evmsem takes through both cores and compare them. A
    detached stack goes to the frozen core padded to its depth; a step that
    finishes its bottom frame leaves a stack that `is_final` reads as final,
    where the frozen core's is not."""
    new_step = semantics.step
    seen = Lockstep()

    def both(tenv, stack, override=None):
        out = new_step(tenv, stack, override)
        new, action = out
        before, pad = seen.frames_of(stack)
        ref = frozen.step(tenv, before, override)
        after = _frames_like(new, stack, before, pad)
        final = len(ref.stack) == pad + 1 and not isinstance(ref.stack[0].state, Regular)
        # the records are tuples, and tuple equality ignores the class: a
        # Halt with the same field values would equal a Regular
        if ((after, action, semantics.is_final(new)) != (ref.stack, ref.action, final)
                or new.depth != len(ref.stack)
                or [type(f.state) for f in after[:2]]
                != [type(f.state) for f in ref.stack[:2]]):
            raise AssertionError(f"step {seen.steps} at depth {stack.depth} diverges:"
                                 f" {action} != {ref.action}")
        seen.steps += 1
        seen.deepest = max(seen.deepest, new.depth)
        seen.last = new, after, pad
        return out

    monkeypatch.setattr(semantics, "step", both)
    return seen


def test_criterion_5_programs_step_alike(lockstep):
    tenv = make_env()
    for seed in range(N_PROGRAMS):
        try:
            semantics.run(tenv, stack_of(program_frame(seed)), STEP_BUDGET)
        except semantics.BudgetExhausted:
            pass
    assert lockstep.steps > 100_000


def test_corpus_transactions_step_alike(lockstep):
    for f in load_corpus():
        tenv, frame, _created = t_init(f.tx, f.header, f.pre, f.ancestors)
        stack, _trace = semantics.run(tenv, stack_of(frame), 1_000_000)
        assert semantics.is_final(stack)
    assert lockstep.deepest == 1025          # deep_recursion's EXC at the depth limit


# the call-edge deck: the criterion-5 programs' calls all pass empty in and
# out ranges (tests/proputil.py _call_prefix), so they never extend memory
# at a call or write a callee's output back; this deck does, seeded
N_CALL_EDGES = 240
CALL_EDGES = ("ranges", "far_empty", "value", "absent", "out_of_gas")
CALL_OPS = ("CALL", "CALLCODE", "DELEGATECALL")
EDGE_BALANCE = 1_000
FAR = 2**255
ABSENT = 0xD00D
CALLEES = {  # address -> code: RETURN 64 bytes, RETURN 3 bytes, STOP, INVALID
    0xCA11: f"PUSH32 {hex(2**256 - 3)}\nPUSH1 0x00\nMSTORE\nPUSH1 0x40\nPUSH1 0x00\nRETURN",
    0xCA12: f"PUSH32 {hex(0xABCDEF)}\nPUSH1 0x00\nMSTORE\nPUSH1 0x03\nPUSH1 0x1d\nRETURN",
    0xCA13: "STOP",
    0xCA14: "INVALID",
}


def _pushes(*words) -> str:
    """Assembly that pushes words, the last on top; a mnemonic pushes its own."""
    return "".join(f"{w}\n" if isinstance(w, str) else f"PUSH32 {hex(w)}\n" for w in words)


def _edge_frame(rng: random.Random, op: str, words: tuple, gas: int, tail: str):
    """A frame that stores a random word at a random offset below 64, so
    memory holds one to three words, then makes one call of op with the
    words (g, to, va, io, is, oo, os), DELEGATECALL leaving out va, and
    goes on with tail."""
    g, to, va, io, isz, oo, os_ = words
    pushed = (os_, oo, isz, io) + ((va,) if op != "DELEGATECALL" else ()) + (to, g)
    code = assemble(f"{_pushes(rng.getrandbits(256), rng.randrange(64))}MSTORE\n"
                    f"{_pushes(*pushed)}{op}\n{tail}")
    accounts = {addr: Account(0, 0, {}, assemble(callee)) for addr, callee in CALLEES.items()}
    sigma = make_state(code=code, balance=EDGE_BALANCE, accounts=accounts)
    return make_frame(code, gas=gas, sigma=sigma)


def call_edge(seed: int):
    """(edge, frame) of one seed of the deck: CALL_EDGES in turn, each with
    a random op, callee and ranges."""
    rng = random.Random(seed)
    edge = CALL_EDGES[seed % len(CALL_EDGES)]
    op = rng.choice(CALL_OPS[:2] if edge == "value" else CALL_OPS)
    to = rng.choice(sorted(CALLEES))
    g, va, gas = rng.randrange(60_000), rng.randrange(4), 200_000
    io, oo = rng.randrange(160), rng.randrange(160)        # memory ends below 96
    isz, os_ = (rng.choice((0, rng.randrange(1, 80))) for _ in range(2))
    if edge == "far_empty":          # empty ranges; at least one at 2**255
        io, oo = rng.choice(((FAR, FAR), (FAR, oo), (io, FAR)))
        isz = os_ = 0
    elif edge == "value":
        va = EDGE_BALANCE + rng.randrange(2)
    elif edge == "absent":
        to = ABSENT
    elif edge == "out_of_gas":       # far ranges, whose memory the gas may not cover
        io, oo = (FAR if rng.random() < 0.1 else 2**rng.randrange(10, 18) for _ in range(2))
        g, gas = rng.randrange(2_000), rng.randrange(800, 60_000)
    return edge, _edge_frame(rng, op, (g, to, va, io, isz, oo, os_), gas, "STOP")


def depth_edge(op: str):
    """A frame that calls itself with op, nonzero ranges and all its gas
    until the call at depth 1,024 fails; each frame then returns 40 bytes."""
    rng = random.Random(op)
    words = ("GAS", "ADDRESS", 0, rng.randrange(96), 33, rng.randrange(96), 20)
    return _edge_frame(rng, op, words, 10**13, "PUSH1 0x28\nPUSH1 0x08\nRETURN")


def test_call_edges_step_alike(lockstep):
    tenv = make_env()
    seen = Counter()
    decks = [call_edge(seed) for seed in range(N_CALL_EDGES)]
    decks += [("depth", depth_edge(op)) for op in CALL_OPS]
    for edge, frame in decks:
        aw = None
        for _i, before, action, after in semantics.iterate_steps(tenv, stack_of(frame), 200_000):
            if action.op in CALL_OPS and before.depth in (1, 1024):
                aw = before.top.state.mu.active_words
                seen[edge, action.op, action.tag, before.depth] += 1
            elif after.depth in (1, 1024) and action.op[:-3] in CALL_OPS:   # its return
                words = before.below.top.state.mu.stack
                os_, done = words[5 if action.op == "DELEGATECALLRET" else 6], before.top.state
                if done.__class__ is Halt and os_:
                    seen[edge, "longer" if len(done.data) > os_ else "not longer"] += 1
                seen[edge, action.tag] += 1
                if edge == "far_empty":
                    assert after.top.state.mu.active_words == aw
        assert semantics.is_final(after)
    assert lockstep.deepest == 1025
    for op in CALL_OPS:
        assert seen["depth", op, "fail", 1024] == 1
        for edge in ("ranges", "far_empty", "absent", "out_of_gas"):
            assert seen[edge, op, "enter", 1] > 0, (edge, op)
        assert seen["out_of_gas", op, "exc", 1] > 0
    for op in CALL_OPS[:2]:
        assert seen["value", op, "enter", 1] > 0 and seen["value", op, "fail", 1] > 0
    for key in (("ranges", "ret"), ("ranges", "exc_ret"), ("ranges", "longer"),
                ("ranges", "not longer"), ("far_empty", "ret"), ("absent", "ret"),
                ("out_of_gas", "ret"), ("depth", "exc_ret"), ("depth", "ret")):
        assert seen[key] > 0, key


# the plain rules: constant cost, and an effect on the machine stack alone
PLAIN_RULES = (
    "ADDRESS CALLER CALLVALUE CODESIZE CALLDATASIZE ORIGIN GASPRICE COINBASE TIMESTAMP NUMBER"
    " DIFFICULTY GASLIMIT PC MSIZE GAS ISZERO NOT ADDMOD MULMOD CALLDATALOAD BALANCE"
    " EXTCODESIZE BLOCKHASH SLOAD POP JUMPDEST ADD SUB LT GT SLT SGT EQ AND OR XOR BYTE"
    " MUL DIV SDIV MOD SMOD SIGNEXTEND").split() + [
    f"{op}{k}" for op, ks in (("PUSH", 32), ("DUP", 16), ("SWAP", 16)) for k in range(1, ks + 1)]


def test_plain_rules_step_alike_at_their_bounds(lockstep):
    # each plain rule from a machine stack of 1,023 and of 1,022 words, from
    # one word fewer than it reads, and with gas equal to its cost and one less
    assert len(PLAIN_RULES) == 107
    rng = random.Random(7)
    words = tuple(rng.choice((0, 1, rng.getrandbits(8), rng.getrandbits(256)))
                  for _ in range(1023))
    tenv, seen = make_env(), Counter()
    for name in PLAIN_RULES:
        r = semantics._RULES[MNEMONIC_TO_BYTE[name]]
        code = bytes([MNEMONIC_TO_BYTE[name]]) + rng.randbytes(32)
        cases = {"1023": (words, 10**6), "1022": (words[1:], 10**6),
                 "gas=cost": (words[:r.n], r.cost), "gas=cost-1": (words[:r.n], r.cost - 1)}
        if r.n:
            cases["n-1"] = (words[:r.n - 1], 10**6)
        for kind, (stack, gas) in cases.items():
            _after, action = semantics.step(tenv, stack_of(make_frame(code, stack=stack, gas=gas)))
            seen[kind, action.tag] += 1
    # 63 rules push one word more than they pop: the 32 PUSHes, the 16 DUPs
    # and the 15 that read no stack word (ADDRESS to GAS above)
    assert seen == {("1023", "exc"): 63, ("1023", "op"): 44, ("1022", "op"): 107,
                    ("gas=cost", "op"): 107, ("gas=cost-1", "exc"): 107, ("n-1", "exc"): 59}
    assert lockstep.steps == 107 * 4 + 59


def _verdicts(fixture):
    """JSON of every verdict the fixture has parameters for."""
    props = checkers.CHECKERS
    if fixture.name in SLOW_FIXTURES:
        props = fixture.expect["verdicts"]
    out = {}
    for prop in props:
        try:
            verdict = checkers.CHECKERS[prop](fixture.space(), fixture.contract(),
                                              fixture.checker_params)
        except ValueError:                   # no generator set for this property
            continue
        out[prop] = json.dumps(verdict.to_json())
    return out


def _frozen_driver(name: str):
    """The frozen driver `name` as the checkers call it: with a CallStack,
    padded to its depth, returning one. It steps the frozen core one op at
    a time; the checkers read its trace only through `project`, which drops
    the plain ops that block mode leaves out. A local code update, a dict in
    evmsem, goes to the frozen core in its CodeOverride."""
    def driver(tenv, stack, *args):
        args = [frozen.CodeOverride(a) if isinstance(a, dict) else a for a in args]
        padded, pad = _padded(stack)
        final, *rest = getattr(frozen, name)(tenv, padded, *args)
        return (_unpadded(final, pad), *rest)
    return driver


def _frozen_iterate_steps(tenv, stack, max_steps, ops=True):
    """frozen.iterate_steps as the checkers call it, yielding numbered
    CallStacks that share their cells as evmsem's do. It takes the `ops`
    mode and still yields every step, one op at a time."""
    for index, (before_frames, action, after_frames) in enumerate(
            frozen.iterate_steps(tenv, tuple(frames(stack)), max_steps), start=1):
        after = _stack_like(after_frames, stack, before_frames)
        yield index, stack, action, after
        stack = after


def test_corpus_checkers_step_alike_and_agree(lockstep, monkeypatch):
    corpus = load_corpus()
    checked = checking_block_mode(semantics.iterate_steps)
    with monkeypatch.context() as patch:
        for module in (semantics, checkers):
            patch.setattr(module, "iterate_steps", checked)
        new = {f.name: _verdicts(f) for f in corpus}
    assert lockstep.deepest == 1025
    assert new == json.loads(FROZEN_VERDICTS.read_text())
    for f in corpus:
        for prop, want in f.expect.get("verdicts", {}).items():
            assert json.loads(new[f.name][prop])["result"] == want, (f.name, prop)
    for name in CORE_CLASSES:
        monkeypatch.setattr(checkers, name, getattr(frozen, name))
    for name in CORE_DRIVERS:
        monkeypatch.setattr(checkers, name, _frozen_driver(name))
    monkeypatch.setattr(checkers, "iterate_steps", _frozen_iterate_steps)
    assert {f.name: _verdicts(f) for f in corpus} == new


# deep_recursion's entries compared with the frozen core: the first two, the
# middle one and the last two of its 1,024 (a frozen run of every one takes
# minutes, each an O(depth) tuple copy per step)
DEEP_ENTRIES = (0, 1, 511, 1022, 1023)


def test_entry_frames_run_detached_as_on_the_full_stack():
    # every entry configuration of c the checkers run, detached from the
    # frames below it, gives the frozen run_frame's non-op trace, final top
    # frame and depth on the full tuple stack
    checked = Counter()
    for f in load_corpus():
        space, c = f.space(), f.contract()

        def entry(_index, _before, action, after):
            return after if action.tag == "enter" and after.top.contract == c else None

        tenv, stack, full, complete = checkers._scan(space, entry)
        full = [stack] * (stack.top.contract == c) + full
        _tenv, detached, _complete = checkers._entry_configs(space, c)
        assert complete and [(d.top, d.below, d.depth) for d in detached] == [
            (e.top, None, e.depth) for e in full]
        for i in DEEP_ENTRIES if f.name in SLOW_FIXTURES else range(len(full)):
            final, trace = semantics.run_frame(tenv, detached[i], space.max_steps)
            want, want_trace = frozen.run_frame(tenv, tuple(frames(full[i])), space.max_steps)
            assert trace == tuple(a for a in want_trace if a.tag != "op"), (f.name, i)
            assert (final.top, type(final.top.state), final.depth) == (
                want[0], type(want[0].state), len(want)), (f.name, i)
            checked[f.name in SLOW_FIXTURES] += 1
    assert checked == {False: 46, True: 5}

"""Differential oracle for the interpreter core.

`tests/oracle` holds a frozen copy of the core as it stood before the
rule-table rewrite. Every `step` evmsem takes below is also taken by the
frozen copy from the same configuration, and the two must agree on the
successor stack, frame by frame, and the trace action: over the criterion-5
programs, every corpus transaction, and every corpus checker run. The
checkers drive in block mode, which applies runs of plain ops without
`step`; here each of their drives is also stepped one op at a time
alongside it, and the two must show the same non-op steps between the same
stacks. The checkers must also return byte-identical verdicts when driven
by the frozen core, one op at a time, and match the verdicts frozen in
`tests/data/corpus_verdicts.json`.

The frozen core steps tuples of frames, top first, where evmsem steps a
CallStack cons list; the helpers below convert between the two and give
the frozen core the tuple-form `is_final` and `validate_stack` it was
written against.
"""

import json
from pathlib import Path

import pytest

from evmsem import checkers, semantics
from evmsem.fixtures import load_corpus
from evmsem.state import CallStack, Regular, frames, validate_stack
from evmsem.transaction import t_init
from helpers import checking_block_mode, make_env, stack_of
from oracle import semantics as frozen
from proputil import STEP_BUDGET, program_frame

N_PROGRAMS = 10_000
# the verdict JSON of every corpus checker run, key order included, as it
# stood before the checkers were rebuilt around one engine
FROZEN_VERDICTS = Path(__file__).parent / "data" / "corpus_verdicts.json"
# verdicts too slow for the suite: every property except the declared ones
SLOW_FIXTURES = {"deep_recursion"}
# what the checkers take from the core, swapped for the frozen copy's
CORE_CLASSES = ("BudgetExhausted", "CodeOverride")
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


def _frames_like(new: CallStack, old: CallStack, old_frames: tuple) -> tuple:
    """The frames of new, the successor of old whose frames are old_frames.
    When new's cells below its top are old's (shown by `is`), their frames
    are a suffix of old_frames; otherwise every cell is walked."""
    cut = _cut(old.depth, new.depth)
    if cut is not None:
        rest = old
        for _ in range(cut):
            rest = rest.below
        if new.below is rest:
            return (new.top,) + old_frames[cut:]
    return tuple(frames(new))


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
    keeps the frames of the last successor, from which a run goes on."""

    def __init__(self):
        self.steps = 0
        self.deepest = 0
        self.last = None, ()

    def frames_of(self, stack: CallStack) -> tuple:
        last, last_frames = self.last
        return last_frames if stack is last else tuple(frames(stack))


@pytest.fixture
def lockstep(monkeypatch):
    """Route every step evmsem takes through both cores and compare them."""
    new_step = semantics.step
    seen = Lockstep()

    def both(tenv, stack, override=None):
        out = new_step(tenv, stack, override)
        before = seen.frames_of(stack)
        ref = frozen.step(tenv, before, override)
        after = _frames_like(out.stack, stack, before)
        # the records are tuples, and tuple equality ignores the class: a
        # Halt with the same field values would equal a Regular
        if ((after, out.action, out.final) != (ref.stack, ref.action, ref.final)
                or out.stack.depth != len(ref.stack)
                or [type(f.state) for f in after[:2]]
                != [type(f.state) for f in ref.stack[:2]]):
            raise AssertionError(f"step {seen.steps} at depth {stack.depth} diverges:"
                                 f" {out.action} != {ref.action}")
        seen.steps += 1
        seen.deepest = max(seen.deepest, out.stack.depth)
        seen.last = out.stack, after
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
    returning one. It steps the frozen core one op at a time; the checkers
    read its trace only through `project`, which drops the plain ops that
    block mode leaves out."""
    def driver(tenv, stack, *args):
        final, *rest = getattr(frozen, name)(tenv, tuple(frames(stack)), *args)
        return (stack_of(*final), *rest)
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

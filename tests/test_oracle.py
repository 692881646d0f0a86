"""Differential oracle for the interpreter core.

`tests/oracle` holds a frozen copy of the core as it stood before the
rule-table rewrite. Every step evmsem takes below is also taken by the
frozen copy from the same configuration, and the two must agree on the
successor stack and the trace action: over the criterion-5 programs, every
corpus transaction, and every corpus checker run. The checkers must also
return byte-identical verdicts when driven by the frozen core, and match
the verdicts frozen in `tests/data/corpus_verdicts.json`.
"""

import json
from pathlib import Path

import pytest

from evmsem import checkers, semantics
from evmsem.corpus import load_corpus
from evmsem.transaction import t_init
from helpers import make_env
from oracle import semantics as frozen
from proputil import STEP_BUDGET, program_frame

N_PROGRAMS = 10_000
# the verdict JSON of every corpus checker run, key order included, as it
# stood before the checkers were rebuilt around one engine
FROZEN_VERDICTS = Path(__file__).parent / "data" / "corpus_verdicts.json"
# verdicts too slow for the suite: every property except the declared ones
SLOW_FIXTURES = {"deep_recursion"}
# what the checkers take from the core, swapped for the frozen copy's
CORE_NAMES = ("BudgetExhausted", "CodeOverride", "StepBudget", "iterate_steps", "run",
              "run_frame", "run_to_depth", "run_with_local_updates")


class Lockstep:
    """Counts the steps compared and the deepest call stack reached."""

    def __init__(self):
        self.steps = 0
        self.deepest = 0


@pytest.fixture
def lockstep(monkeypatch):
    """Route every step evmsem takes through both cores and compare them."""
    new_step = semantics.step
    seen = Lockstep()

    def both(tenv, stack, override=None):
        out = new_step(tenv, stack, override)
        ref = frozen.step(tenv, stack, override)
        # the records are tuples, and tuple equality ignores the class: a
        # Halt with the same field values would equal a Regular
        if ((out.stack, out.action, out.final) != (ref.stack, ref.action, ref.final)
                or [type(f.state) for f in out.stack[:2]]
                != [type(f.state) for f in ref.stack[:2]]):
            raise AssertionError(f"step {seen.steps} at depth {len(stack)} diverges:"
                                 f" {out.action} != {ref.action}")
        seen.steps += 1
        seen.deepest = max(seen.deepest, len(out.stack))
        return out

    monkeypatch.setattr(semantics, "step", both)
    return seen


def test_criterion_5_programs_step_alike(lockstep):
    tenv = make_env()
    for seed in range(N_PROGRAMS):
        try:
            semantics.run(tenv, (program_frame(seed),), semantics.StepBudget(STEP_BUDGET))
        except semantics.BudgetExhausted:
            pass
    assert lockstep.steps > 100_000


def test_corpus_transactions_step_alike(lockstep):
    for f in load_corpus():
        tenv, frame, _created = t_init(f.tx, f.header, f.pre, f.ancestors)
        stack, _trace = semantics.run(tenv, (frame,), semantics.StepBudget(1_000_000))
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


def test_corpus_checkers_step_alike_and_agree(lockstep, monkeypatch):
    corpus = load_corpus()
    new = {f.name: _verdicts(f) for f in corpus}
    assert lockstep.deepest == 1025
    assert new == json.loads(FROZEN_VERDICTS.read_text())
    for f in corpus:
        for prop, want in f.expect.get("verdicts", {}).items():
            assert json.loads(new[f.name][prop])["result"] == want, (f.name, prop)
    for name in CORE_NAMES:
        monkeypatch.setattr(checkers, name, getattr(frozen, name))
    assert {f.name: _verdicts(f) for f in corpus} == new

"""Randomized interpreter properties at development scale; the acceptance
suite reruns the same machinery over the full 10,000-program corpus."""

import random

from evmsem.bytecode import valid_jump_dests
from evmsem.semantics import BudgetExhausted, run
from evmsem.state import is_final
from helpers import make_env, stack_of
from proputil import (check_program, make_program_frame, monitored_run,
                      random_program)

N_DEV = 400


def test_randomized_program_properties():
    stats = {"steps": 0, "exhausted": 0, "programs": 0}
    for seed in range(N_DEV):
        out = check_program(seed)
        stats["programs"] += 1
        stats["steps"] += out["steps"]
        stats["exhausted"] += out["exhausted"]
    # sanity: the corpus actually exercises the interpreter
    assert stats["steps"] > 5 * N_DEV
    assert stats["exhausted"] < N_DEV // 10


def test_monitored_run_agrees_with_plain_run():
    tenv = make_env()
    rng = random.Random(0xC0FFEE)
    for _ in range(60):
        code = random_program(rng)
        frame = make_program_frame(code, rng.randrange(100, 1200))
        try:
            f1, t1 = monitored_run(tenv, stack_of(frame))
        except BudgetExhausted:
            continue
        f2, t2 = run(tenv, stack_of(frame), 10_000)
        assert f1 == f2 and t1 == t2
        assert is_final(f1)


def test_deterministic_across_fresh_state_construction():
    # two structurally equal but distinct input objects give equal results
    code = random_program(random.Random(7))
    tenv = make_env()
    r1 = monitored_run(tenv, stack_of(make_program_frame(code, 800)))
    r2 = monitored_run(tenv, stack_of(make_program_frame(code, 800)))
    assert r1 == r2


def test_jumpdest_scan_on_random_programs():
    rng = random.Random(42)
    for _ in range(300):
        code = random_program(rng)
        for i in valid_jump_dests(code):
            assert code[i] == 0x5B

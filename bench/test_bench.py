"""Tests of the benchmark itself: python3 -m pytest bench"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_DECK = [("compute", 8, 2), ("memory", 1, 0.5, 3), ("storage", 4, 3),
              ("sha3", 64, 2, 2), ("chain", 3, 5)]
SMALL_DEPTHS = (4, 6)


def _ops(workload, seed, ev=None):
    ev = ev or workloads.import_evmsem(run.ROOT)
    return ev, workloads.build_ops(workload, ev, seed, deck=SMALL_DECK, depths=SMALL_DEPTHS)


def _traced(workload, seed):
    ev = workloads.import_evmsem(run.ROOT)
    tracer = Tracer(ev)
    tracer.install()
    try:
        _, ops = _ops(workload, seed, ev)
        result = run.measure(ops, passes=1, tracer=tracer)
    finally:
        tracer.restore()
    return tracer, result


def test_reference_keccak_matches_published_digests():
    assert synth.keccak256(b"").hex() == (
        "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470")
    assert synth.keccak256(b"abc").hex() == (
        "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45")


def test_seed_fixes_the_inputs():
    assert synth.generate(3) == synth.generate(3)
    assert synth.generate(3) != synth.generate(4)
    for workload in ("check-corpus", "check-deep"):
        labels = [[op.label for op in _ops(workload, seed)[1]] for seed in (3, 3, 4)]
        assert labels[0] == labels[1]
        assert labels[0] != labels[2]


def test_same_seed_gives_same_counts():
    for workload in workloads.WORKLOADS:
        first, second = _traced(workload, 5), _traced(workload, 5)
        for tracer, result in (first, second):
            assert result["failed"] == 0
        counts = [(t.calls["step"], t.calls["forks"], t.calls["verdicts"], r["steps"])
                  for t, r in (first, second)]
        assert counts[0] == counts[1]
        assert counts[0][0] > 0


def test_tracing_changes_no_step_count():
    _, ops = _ops("exec-synth", 7)
    plain = run.measure(ops, passes=1)
    tracer, traced = _traced("exec-synth", 7)
    assert plain["failed"] == traced["failed"] == 0
    assert tracer.calls["step"] == traced["steps"] == plain["steps"] > 0


def test_every_patched_name_is_restored():
    ev = workloads.import_evmsem(run.ROOT)
    owners = [*ev.modules, ev.state.GlobalState, ev.state.Account]

    def snapshot():
        return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}

    before = snapshot()
    tracer = Tracer(ev)
    tracer.install()
    try:
        assert snapshot() != before
        assert not tracer.missing
    finally:
        tracer.restore()
    assert snapshot() == before


def test_a_wrong_answer_is_a_failed_op():
    ev, ops = _ops("exec-synth", 2)
    prog = synth.generate(2, SMALL_DECK)[0]
    wrong = synth.Program(**{**prog.__dict__,
                             "expect_storage": {**prog.expect_storage, 12345: 1}})
    result = run.measure([workloads.tx_op(ev, wrong), *ops], passes=1)
    assert result["failed"] == 1
    assert len(result["latencies"]) == len(ops) + 1


def test_an_op_past_the_cap_is_capped_and_failed(monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.05)

    def stall():
        time.sleep(2)
        return True, 0, False

    t0 = time.perf_counter()
    result = run.measure([workloads.Op("stall", None, stall)], passes=1)
    assert time.perf_counter() - t0 < 1
    assert result["failed"] == 1
    assert result["latencies"] == [0.05]

from hypothesis import given, strategies as st

from evmsem.fixtures import load_corpus
from evmsem.semantics import iterate_steps
from evmsem.state import CallStack
from evmsem.traces import (CALL_OPS, Action, action_to_json, actions_equal, calls_of,
                           first_divergence, project)
from evmsem.transaction import t_init
from helpers import traces_equal

C1 = (0x11, b"\x01")
C2 = (0x22, b"\x02")


def call(c, g=10, tag="enter"):
    return Action("CALL", c, (g, 5, 0, 0, 0, 0, 0), tag)


def plain(op="ADD", c=C1):
    return Action(op, c, (1, 2), "op")


actions = st.sampled_from([call(C1), call(C2), plain(), plain("MUL"),
                           plain("ADD", C2), Action("CREATE", C1, (0, 0, 0), "enter")])
trace_strategy = st.lists(actions, max_size=12).map(tuple)


def test_project_empty():
    assert project((), lambda a: True) == ()


@given(trace_strategy)
def test_project_true_is_identity(tr):
    assert project(tr, lambda a: True) == tr


def test_project_keeps_order():
    tr = (plain(), call(C1), plain("MUL"), call(C1, g=11))
    kept = project(tr, calls_of(C1))
    assert kept == (call(C1), call(C1, g=11))


@given(trace_strategy)
def test_project_idempotent(tr):
    pred = calls_of(C1)
    assert project(project(tr, pred), pred) == project(tr, pred)


@given(trace_strategy)
def test_project_shrinks(tr):
    assert len(project(tr, calls_of(C1))) <= len(tr)


def test_calls_of_matches_only_own_calls():
    pred = calls_of(C1)
    assert pred(call(C1))
    assert pred(Action("CREATE", C1, (1, 2, 3), "enter"))
    assert pred(Action("CALLCODE", C1, (1, 2, 3, 4, 5, 6, 7), "enter"))
    assert pred(Action("DELEGATECALL", C1, (1, 2, 3, 4, 5, 6), "enter"))
    assert not pred(call(C2))
    assert not pred(plain())                      # ADD action of c
    assert not pred(call(C1, tag="fail"))         # failed call attempts
    assert not pred(Action("CALLRET", C1, (), "ret"))


def test_action_arity_enforced():
    # the rule table is the one statement of each arity: every call and
    # create enter action of a corpus transaction, driven one op at a time,
    # carries its op's Yellow Paper arity
    arity = {"CALL": 7, "CALLCODE": 7, "DELEGATECALL": 6, "CREATE": 3}
    assert set(CALL_OPS) == set(arity)
    seen = set()
    for f in load_corpus():
        tenv, frame, _created = t_init(f.tx, f.header, f.pre, f.ancestors)
        for _i, _before, action, _after in iterate_steps(tenv, CallStack(frame, None, 1),
                                                         1_000_000):
            if action.tag == "enter" and action.op in arity:
                assert len(action.args) == arity[action.op], (f.name, action)
                seen.add(action.op)
    assert seen == {"CALL", "CREATE"}


def test_relaxed_gas_equality():
    a, b = call(C1, g=10), call(C1, g=99)
    assert not actions_equal(a, b)
    assert actions_equal(a, b, ignore_gas=True)
    # other argument differences still distinguish
    c = Action("CALL", C1, (10, 6, 0, 0, 0, 0, 0), "enter")
    assert not actions_equal(a, c, ignore_gas=True)
    # the gas word of non-call actions is not masked
    assert not actions_equal(plain(), Action("ADD", C1, (1, 3), "op"), True)


def test_relaxed_equality_still_compares_op_contract_and_tag():
    # only the gas word is masked: with the same args, a different op,
    # contract or tag still tells the actions apart
    a = call(C1, g=10)
    for b in (Action("CALLCODE", C1, (99, 5, 0, 0, 0, 0, 0), "enter"),
              call(C2, g=99), call(C1, g=10, tag="fail")):
        assert not actions_equal(a, b, ignore_gas=True), b
        assert not actions_equal(b, a, ignore_gas=True), b


def test_first_divergence():
    t1 = (plain(), call(C1))
    t2 = (plain(), call(C1, g=99))
    assert first_divergence(t1, t1) is None
    assert first_divergence(t1, t2) == 1
    assert first_divergence(t1, t2, ignore_gas=True) is None
    assert first_divergence(t1, t1 + (plain(),)) == 2
    assert traces_equal(t1, t2, ignore_gas=True)


def test_action_json():
    js = action_to_json(call(C1))
    assert js["op"] == "CALL" and js["tag"] == "enter"
    assert js["contract"]["address"].endswith("11")
    assert js["args"][0] == "0xa"
    assert action_to_json(Action("STOP", None, (), "halt"))["contract"] is None

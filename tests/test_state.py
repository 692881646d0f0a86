import itertools

import pytest
from hypothesis import given, strategies as st

from evmsem.checkers import CHECKERS, ScenarioSpace, Verdict
from evmsem.fixtures import Fixture, load_corpus
from evmsem.semantics import StepOutcome, step
from evmsem.state import (ENV_COMPONENTS, EXC, Account, BlockHeader, ExecutionEnvironment, Frame,
                          GlobalState, Halt, LogEvent, MachineState, Regular, TransactionEffects,
                          TransactionEnvironment, account, env_with_component, frames,
                          memory_read, memory_write, validate_stack, with_top_state)
from evmsem.traces import Action
from evmsem.transaction import Receipt, Transaction, execute_transaction
from helpers import (SELF, make_env, make_frame, stack_diff, stack_of, state_eq_up_to,
                     step_one, substack)


def _frames(n, tag=""):
    return tuple(make_frame("STOP", gas=i + 1, input=tag.encode()) for i in range(n))


# ---------------------------------------------------------------------------
# substack / stack_diff


def test_empty_is_strict_substack_of_nonempty():
    (x,) = _frames(1)
    assert substack(stack_of(), stack_of(x))


def test_strictness():
    a, b = _frames(2)
    assert not substack(stack_of(a, b), stack_of(a, b))
    assert not substack(stack_of(), stack_of())


def test_three_element_enumeration():
    # oracle: enumerate every decomposition outer = s :: (S' ++ inner)
    frames = _frames(3) + _frames(2, "alt")

    def oracle(inner, outer):
        if not outer:
            return False
        for cut in range(len(outer)):
            if tuple(outer[1 + cut:]) == tuple(inner) and 1 + cut + len(inner) == len(outer):
                return True
        return False

    pool = list(frames[:4])
    stacks = [tuple(c) for n in range(4) for c in itertools.product(pool, repeat=n)]
    for inner in stacks:
        for outer in stacks:
            if len(outer) > 3:
                continue
            assert (substack(stack_of(*inner), stack_of(*outer))
                    == oracle(inner, outer)), (inner, outer)


def test_substack_example_from_middle():
    x, a, b = _frames(3)
    assert substack(stack_of(b), stack_of(x, a, b))


def test_stack_diff_suffix():
    x, y, z = _frames(3)
    assert stack_diff(stack_of(x, y, z), stack_of(z)) == (x, y)
    assert stack_diff(stack_of(x), stack_of(y)) == ()
    s = stack_of(x, y)
    assert stack_diff(s, s) == ()


def test_stack_diff_concat_inverse():
    x, y, z = _frames(3)
    a = (x, y, z)
    for cut in range(len(a) + 1):
        b = a[cut:]
        assert stack_diff(stack_of(*a), stack_of(*b)) + b == a


# ---------------------------------------------------------------------------
# the call stack: a persistent cons list


def test_frames_and_stack_of_round_trip():
    fs = _frames(4)
    stack = stack_of(*fs)
    assert tuple(frames(stack)) == fs
    assert stack_of(*frames(stack)) == stack
    assert stack_of() is None and tuple(frames(None)) == ()


def test_len_is_the_depth_and_index_0_the_top_frame():
    fs = _frames(3)
    stack = stack_of(*fs)
    assert len(stack) == stack.depth == 3
    assert stack[0] is stack.top is fs[0]
    assert len(stack.below) == 2 and stack.below[0] is fs[1]
    top = with_top_state(stack, EXC)
    assert top.top == Frame(EXC, fs[0].contract) and top.below is stack.below


def _deep(top, depth=1024):
    """top over depth - 1 running frames."""
    return stack_of(top, *_frames(depth - 1))


def test_a_step_at_depth_1024_shares_the_frames_below():
    stack = _deep(make_frame("PUSH1 0x01\nSTOP"))
    out = step(make_env(), stack)
    assert out.action.tag == "op"
    assert out.stack.depth == 1024 and out.stack.below is stack.below


def test_a_call_and_its_return_at_depth_1024_share_the_frames_below():
    call = make_frame("CALL", stack=(0x1000, 0xBBBB, 0, 0, 0, 0, 0))
    below_limit = _deep(call, 1023)
    entered = step(make_env(), below_limit)
    assert entered.action.tag == "enter" and isinstance(entered.stack.top.state, Regular)
    assert entered.stack.depth == 1024 and entered.stack.below is below_limit
    stack = _deep(call)
    entered = step(make_env(), stack)
    assert entered.action.tag == "fail" and entered.stack.top.state is EXC
    assert entered.stack.depth == 1025 and entered.stack.below is stack
    returned = step(make_env(), entered.stack)
    assert returned.action.tag == "exc_ret"
    assert returned.stack.depth == 1024 and returned.stack.below is stack.below


def test_deep_stacks_compare_frame_by_frame():
    fs = _frames(1025)
    a, b = stack_of(*fs), stack_of(*fs)
    assert a is not b and a == b and not a != b
    other_bottom = stack_of(*fs[:-1], make_frame("STOP", gas=9999))
    assert a != other_bottom and not a == other_bottom
    assert a != stack_of(*fs[1:]) and a == stack_of(fs[0], *frames(b.below))


# ---------------------------------------------------------------------------
# grammar validation


def test_halt_below_top_rejected():
    reg = make_frame("STOP")
    halted = Frame(Halt(GlobalState(), 5, b"", reg.state.eta), None)
    validate_stack(stack_of(halted, reg))
    with pytest.raises(ValueError):
        validate_stack(stack_of(reg, halted))
    with pytest.raises(ValueError):
        validate_stack(stack_of(reg, Frame(EXC, None)))
    with pytest.raises(ValueError):
        validate_stack(stack_of())


def test_stack_length_bound():
    frames = tuple(make_frame("STOP") for _ in range(1026))
    with pytest.raises(ValueError):
        validate_stack(stack_of(*frames))
    validate_stack(stack_of(*frames[:1025]))


# ---------------------------------------------------------------------------
# state_eq_up_to


def _acct(**kw):
    base = dict(nonce=1, balance=10, storage={1: 2}, code=b"\x00")
    base.update(kw)
    return Account(**base)


def test_eq_identical_any_mask():
    a = GlobalState({5: _acct()})
    b = GlobalState({5: _acct()})
    assert state_eq_up_to(a, b)
    assert state_eq_up_to(a, b, {"code"}, {5})
    assert state_eq_up_to(a, b, {"code", "nonce", "balance", "storage"}, {5})


def test_eq_code_difference_masked():
    a = GlobalState({5: _acct(code=b"\x01")})
    b = GlobalState({5: _acct(code=b"\x02")})
    assert not state_eq_up_to(a, b)
    assert state_eq_up_to(a, b, {"code"}, {5})
    assert not state_eq_up_to(a, b, {"code"}, {6})


def test_eq_balance_difference_not_masked():
    a = GlobalState({5: _acct(balance=1), 6: _acct()})
    b = GlobalState({5: _acct(balance=2), 6: _acct()})
    assert not state_eq_up_to(a, b, {"code"}, {6})


def test_eq_existence_must_agree():
    a = GlobalState({5: _acct()})
    b = GlobalState({})
    assert not state_eq_up_to(a, b, {"code", "nonce", "balance", "storage"}, {5})


def test_eq_unknown_component_rejected():
    with pytest.raises(ValueError):
        state_eq_up_to(GlobalState(), GlobalState(), {"pc"}, set())


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_eq_up_to_is_equivalence(x, y, z):
    states = [GlobalState({1: _acct(balance=v)}) for v in (x, y, z)]
    ignore, at = frozenset({"balance"}), frozenset({1})
    a, b, c = states
    assert state_eq_up_to(a, a, ignore, at)
    assert state_eq_up_to(a, b, ignore, at) == state_eq_up_to(b, a, ignore, at)
    if state_eq_up_to(a, b, ignore, at) and state_eq_up_to(b, c, ignore, at):
        assert state_eq_up_to(a, c, ignore, at)


# ---------------------------------------------------------------------------
# normalization and copy-on-write


def test_storage_zero_write_removes_key():
    acct = Account(storage={1: 2})
    assert acct.storage_set(1, 0).storage == {}
    assert acct.storage_set(3, 0).storage == {1: 2}
    assert acct.storage_set(1, 5).storage == {1: 5}


def _dict_memory_read(memory: dict, offset: int, size: int) -> bytes:
    """The byte-dict memory_read that bytes memory replaced: the reference."""
    if size == 0:
        return b""
    return bytes(memory.get(offset + i, 0) for i in range(size))


def _dict_memory_write(memory: dict, offset: int, data: bytes) -> dict:
    """The byte-dict memory_write that bytes memory replaced: the reference."""
    if not data:
        return memory
    new = dict(memory)
    for i, byte in enumerate(data):
        if byte:
            new[offset + i] = byte
        else:
            new.pop(offset + i, None)
    return new


_DATA = st.lists(st.integers(0, 255) | st.just(0), max_size=40).map(bytes)
_MEMORY_OPS = st.lists(st.tuples(st.sampled_from(("write", "read")), st.integers(0, 200), _DATA,
                                 st.integers(0, 64)), max_size=30)


@given(_MEMORY_OPS)
def test_memory_matches_the_byte_dict_reference(ops):
    # writes past the end (gaps), zero bytes, overwrites and reads past the
    # end; every snapshot taken must still read as its reference did
    mem, ref = b"", {}
    snapshots = [(mem, ref)]
    for kind, offset, data, size in ops:
        if kind == "write":
            mem, ref = memory_write(mem, offset, data), _dict_memory_write(ref, offset, data)
            assert len(mem) <= max(len(snapshots[-1][0]), offset + len(data))
            snapshots.append((mem, ref))
        else:
            assert memory_read(mem, offset, size) == _dict_memory_read(ref, offset, size)
    for mem, ref in snapshots:
        assert memory_read(mem, 0, 300) == _dict_memory_read(ref, 0, 300)


_STATE_OPS = st.lists(st.tuples(st.sampled_from(("put", "delete", "delete-put")),
                                st.integers(0, 30), st.integers(0, 5)), max_size=60)


@given(st.dictionaries(st.integers(0, 30), st.integers(0, 5), max_size=20), _STATE_OPS)
def test_global_state_matches_a_dict_model(pre, ops):
    start = GlobalState({a: _acct(balance=b) for a, b in pre.items()})
    history = [(start, {a: _acct(balance=b) for a, b in pre.items()})]
    # seven distinct puts make the delta outgrow any base of up to 31
    # accounts, so every sequence crosses the fold rule at least once
    for kind, addr, balance in ops + [("put", addr, 1) for addr in range(7)]:
        state, model = history[-1]
        model = dict(model)
        if kind in ("delete", "delete-put"):
            state = state.delete(addr)
            model.pop(addr, None)
        if kind in ("put", "delete-put"):
            state = state.put(addr, _acct(balance=balance))
            model[addr] = _acct(balance=balance)
        history.append((state, model))
    assert any(state._base is not start._base for state, _ in history)
    # every snapshot, older ones included, still reads as its model
    for state, model in history:
        for addr in range(31):
            assert state.get(addr) == model.get(addr)
            assert (addr in state) == (addr in model)
        items = list(state.items())
        assert len(items) == len(model) and dict(items) == model
        assert set(state) == set(model)
        assert state.total_balance() == sum(a.balance for a in model.values())
        assert state == GlobalState(dict(model))
    for (a, model_a), (b, model_b) in itertools.combinations(history, 2):
        assert (a == b) == (model_a == model_b)


_STORAGE_WRITES = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)), max_size=60)


@given(st.dictionaries(st.integers(0, 30), st.integers(1, 5), max_size=20), _STORAGE_WRITES)
def test_account_storage_matches_a_dict_model(pre, writes):
    # storage shares GlobalState's map: a plain dict until its first write,
    # and every snapshot reads like the dict it models, 0 meaning absent
    start, pre_entries = Account(storage=pre), dict(pre)
    history = [(start, pre_entries)]
    for key, value in writes + [(key, 1) for key in range(7)]:
        acct, model = history[-1]
        model = {k: v for k, v in model.items() if k != key}
        if value:
            model[key] = value
        history.append((acct.storage_set(key, value), model))
    assert pre == pre_entries
    for acct, model in history:
        stor = acct.storage
        assert stor == model and model == stor and acct == Account(storage=dict(model))
        assert set(stor) == set(model) and dict(stor.items()) == model
        for key in range(31):
            assert stor.get(key) == model.get(key) and (key in stor) == (key in model)
            assert acct.storage_get(key) == model.get(key, 0)
    for (a, model_a), (b, model_b) in itertools.combinations(history, 2):
        assert (a == b) == (model_a == model_b)


def test_first_storage_write_shares_the_dict():
    slots = {k: 1 for k in range(16)}
    acct = Account(storage=slots).storage_set(99, 2)
    assert acct.storage._base is slots and slots == {k: 1 for k in range(16)}


def test_global_state_copy_on_write():
    g1 = GlobalState({1: _acct(balance=5)})
    g2 = g1.put(1, _acct(balance=9))
    assert g1.get(1).balance == 5
    assert g2.get(1).balance == 9
    g3 = g2.delete(1)
    assert g2.get(1) is not None and g3.get(1) is None


# ---------------------------------------------------------------------------
# the records built on every step


def _transaction(**kw):
    return Transaction(**{"nonce": 0, "gas_price": 1, "gas_limit": 21000, "to": SELF,
                          "value": 0, "sender": 2, "input": b"", **kw})


def _records():
    frame = make_frame("PUSH1 0x01\nSTOP", stack=(7,))
    st = frame.state
    halt = Halt(st.sigma, 5, b"\x01", st.eta)
    action = Action("ADD", frame.contract, (1, 2))
    space = ScenarioSpace(pre=st.sigma, tx=_transaction(), header=BlockHeader())
    return [(st.mu, "gas", 9), (st, "mu", MachineState(9, 1, b"", 0, ())), (halt, "gas", 6),
            (frame, "state", halt), (action, "tag", "exc"),
            (step_one(frame), "action", action), (_acct(), "balance", 11),
            (TransactionEffects(1, (), frozenset({7})), "refund", 3), (st.iota, "value", 5),
            (make_env(ancestors={0x77: BlockHeader()}), "gas_price", 9),
            (BlockHeader(number=8), "timestamp", 7), (Receipt("success", 21000, ()), "gas_used", 1),
            (Verdict("stack-limit", "holds"), "result", "violated"),
            (_transaction(), "to", None), (space, "max_steps", 9),
            (Fixture(name="f", pre=st.sigma, tx=space.tx, header=space.header), "expect",
             {"status": "success"})]


@pytest.mark.parametrize("record, name, value", _records(),
                         ids=lambda x: type(x).__name__ if hasattr(x, "_fields") else None)
def test_record_fields_are_read_only_and_replace_one(record, name, value):
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    changed = record._replace(**{name: value})
    assert type(changed) is type(record)
    assert getattr(changed, name) == value
    assert changed._replace(**{name: getattr(record, name)}) == record
    for other in record._fields:
        if other != name:
            assert getattr(changed, other) is getattr(record, other)


def test_step_returns_state_records():
    out = step_one(make_frame("PUSH1 0x01\nSTOP"))
    assert type(out) is StepOutcome
    assert type(out.stack[0]) is Frame
    assert type(out.stack[0].state) is Regular
    assert type(out.stack[0].state.mu) is MachineState
    assert type(out.action) is Action
    halted = step_one(out.stack[0])
    assert type(halted.stack[0]) is Frame and type(halted.stack[0].state) is Halt
    # an SSTORE that clears a slot changes an account and refunds
    cleared = step_one(make_frame("SSTORE", stack=(0, 0), storage={0: 5})).stack[0].state
    assert type(cleared.sigma.get(SELF)) is Account and cleared.sigma.get(SELF).storage_get(0) == 0
    assert type(cleared.eta) is TransactionEffects and cleared.eta.refund == 15000
    logged = step_one(make_frame("LOG1", stack=(0, 0, 9))).stack[0].state
    assert type(logged.eta) is TransactionEffects
    assert logged.eta.logs == (LogEvent(SELF, (9,), b""),) and type(logged.eta.logs[0]) is LogEvent


def test_an_absent_address_reads_as_one_shared_empty_account():
    """account() gives the same empty account for every absent address, and
    it is still empty after every corpus transaction and declared verdict
    has run: no code writes an account's storage in place."""
    sigma = GlobalState({1: _acct()})
    empty = account(sigma, 2)
    assert empty == Account() and account(sigma, 3) is empty
    assert account(sigma.delete(1), 1) is empty
    assert _run_the_corpus() == 19
    assert account(sigma, 2) is empty and empty == Account(0, 0, {}, b"")


def _run_the_corpus() -> int:
    """Run every corpus transaction and declared verdict; the number of verdicts."""
    declared = 0
    for f in load_corpus():
        execute_transaction(f.tx, f.header, f.pre, ancestors=f.ancestors)
        for prop, want in f.expect.get("verdicts", {}).items():
            assert CHECKERS[prop](f.space(), f.contract(), f.checker_params).result == want
            declared += 1
    return declared


def test_the_shared_empty_defaults_of_spaces_and_fixtures_stay_empty():
    """A ScenarioSpace or Fixture built without a dict field shares its {}
    default, which is still empty after every corpus transaction and
    declared verdict has run."""
    defaults = [v for record in (ScenarioSpace, Fixture)
                for v in record._field_defaults.values() if isinstance(v, dict)]
    assert len(defaults) == 6 and all(d == {} for d in defaults)
    space = ScenarioSpace(pre=GlobalState(), tx=_transaction(), header=BlockHeader())
    assert space.component_values is ScenarioSpace._field_defaults["component_values"]
    assert _run_the_corpus() == 19
    assert all(d == {} for d in defaults)


def test_records_keep_keyword_construction_and_repr():
    mu = MachineState(gas=1, pc=2, memory=b"", active_words=0, stack=(3,))
    assert mu == MachineState(1, 2, b"", 0, (3,))
    assert repr(mu) == "MachineState(gas=1, pc=2, memory=b'', active_words=0, stack=(3,))"
    assert repr(Frame(EXC, None)) == "Frame(state=EXC, contract=None)"
    assert repr(Action("STOP", None)) == "Action(op='STOP', contract=None, args=(), tag='op')"
    iota = ExecutionEnvironment(actor=1, input=b"", sender=2, value=3, code=b"\x00")
    assert iota == ExecutionEnvironment(1, b"", 2, 3, b"\x00")
    assert repr(iota) == ("ExecutionEnvironment(actor=1, input=b'', sender=2, value=3, "
                          "code=b'\\x00')")
    header = BlockHeader(number=8)
    assert header == BlockHeader(0, 0, 0, 8, 0, 0)
    assert repr(header) == ("BlockHeader(parent=0, beneficiary=0, difficulty=0, number=8, "
                            "gaslimit=0, timestamp=0)")
    tenv = TransactionEnvironment(origin=1, gas_price=2, header=header)
    assert tenv == TransactionEnvironment(1, 2, header, {}) and tenv.ancestors == {}
    assert repr(tenv) == (f"TransactionEnvironment(origin=1, gas_price=2, header={header!r}, "
                          "ancestors={})")
    receipt = Receipt(status="success", gas_used=21000, logs=())
    assert receipt == Receipt("success", 21000, (), None, b"")
    assert repr(receipt) == ("Receipt(status='success', gas_used=21000, logs=(), created=None, "
                             "output=b'')")
    tx = Transaction(nonce=1, gas_price=2, gas_limit=21000, to=None, value=3, sender=4,
                     input=b"")
    assert tx == Transaction(1, 2, 21000, None, 3, 4, b"")
    assert repr(tx) == ("Transaction(nonce=1, gas_price=2, gas_limit=21000, to=None, value=3, "
                        "sender=4, input=b'')")
    pre = GlobalState()
    space = ScenarioSpace(pre=pre, tx=tx, header=header)
    assert space == ScenarioSpace(pre, tx, header, {}, 200_000, (), {}, {}, False)
    assert space._replace(max_steps=5).max_steps == 5 and space.max_steps == 200_000
    fixture = Fixture(name="f", pre=pre, tx=tx, header=header)
    assert fixture == Fixture("f", pre, tx, header, {}, {}, {})
    verdict = Verdict(property_name="stack-limit", result="holds")
    assert verdict == Verdict("stack-limit", "holds", None, True, "") and not verdict.violated
    assert repr(verdict) == ("Verdict(property_name='stack-limit', result='holds', witness=None, "
                             "explored_complete=True, notes='')")


# ---------------------------------------------------------------------------
# the transaction environment's components


def _components(tenv) -> dict:
    """Each of the ENV_COMPONENTS with its value in tenv."""
    return {"origin": tenv.origin, "gasprice": tenv.gas_price, **tenv.header._asdict()}


@pytest.mark.parametrize("name", ENV_COMPONENTS)
def test_env_with_component_changes_that_component_only(name):
    ancestors = {0x77: BlockHeader(parent=0x66, number=7)}
    tenv = make_env(header=BlockHeader(1, 2, 3, 4, 5, 6), ancestors=ancestors)
    changed = env_with_component(tenv, name, 99)
    assert set(_components(tenv)) == set(ENV_COMPONENTS)
    assert _components(changed) == {**_components(tenv), name: 99} != _components(tenv)
    assert changed.ancestors is ancestors
    assert type(changed) is TransactionEnvironment and type(changed.header) is BlockHeader


def test_env_with_component_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown environment component 'weather'") as e:
        env_with_component(make_env(), "weather", 1)
    assert all(name in str(e.value) for name in ENV_COMPONENTS)

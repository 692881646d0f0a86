"""Shared builders and comparisons for semantics tests."""

from evmsem.bytecode import assemble
from evmsem.semantics import BudgetExhausted, run, step
from evmsem.state import (EMPTY_EFFECTS, Account, BlockHeader, CallStack,
                          ExecutionEnvironment, Frame, GlobalState, MachineState,
                          Regular, TransactionEnvironment, frames)
from evmsem.traces import first_divergence

SELF = 0x1001
OTHER = 0xBBBB
ORIGIN = 0xAAAA
MINER = 0x5001

DEFAULT_HEADER = BlockHeader(parent=0x77, beneficiary=MINER, difficulty=0x20000,
                             number=9, gaslimit=10_000_000, timestamp=0x5E00_0000)


def make_env(origin=ORIGIN, gas_price=3, header=DEFAULT_HEADER, ancestors=None):
    return TransactionEnvironment(origin, gas_price, header, ancestors or {})


def make_state(code=b"", balance=1000, nonce=1, storage=None, accounts=None):
    base = {
        SELF: Account(nonce, balance, dict(storage or {}), bytes(code)),
        OTHER: Account(0, 77, {}, assemble("STOP")),
    }
    if accounts:
        base.update(accounts)
    return GlobalState(base)


def make_frame(code, stack=(), gas=1_000_000, memory=None, active_words=0,
               pc=0, input=b"", value=0, sigma=None, eta=EMPTY_EFFECTS,
               actor=SELF, sender=ORIGIN, contract="auto", storage=None,
               balance=1000):
    code = assemble(code) if isinstance(code, str) else bytes(code)
    sigma = sigma if sigma is not None else make_state(code=code, storage=storage,
                                                       balance=balance)
    iota = ExecutionEnvironment(actor=actor, input=input, sender=sender,
                                value=value, code=code)
    memory = memory or {}   # offset -> byte
    mu = MachineState(gas=gas, pc=pc,
                      memory=bytes(memory.get(i, 0) for i in range(max(memory, default=-1) + 1)),
                      active_words=active_words, stack=tuple(stack))
    if contract == "auto":
        contract = (actor, code)
    return Frame(Regular(mu, iota, sigma, eta), contract)


def stack_of(*fs) -> CallStack:
    """The call stack of the frames fs, top first; None, the empty stack,
    when there are none."""
    stack = None
    for depth, frame in enumerate(reversed(fs), start=1):
        stack = CallStack(frame, stack, depth)
    return stack


def step_one(frame, tenv=None, rest=(), override=None):
    return step(tenv or make_env(), stack_of(frame, *rest), override)


def run_code(code, gas=1_000_000, budget=100_000, **kw):
    frame = make_frame(code, gas=gas, **kw)
    return run(make_env(), stack_of(frame), budget)


# ---------------------------------------------------------------------------
# comparisons of call stacks, global states and traces


def substack(inner: CallStack, outer: CallStack) -> bool:
    """True iff outer = s :: (S' ++ inner) for some state s and list S'."""
    inner, outer = tuple(frames(inner)), tuple(frames(outer))
    if len(inner) >= len(outer):
        return False
    return outer[len(outer) - len(inner):] == inner


def stack_diff(a: CallStack, b: CallStack) -> tuple:
    """The frames of the unique prefix S' with S' ++ b = a when b is a suffix
    of a, else (); top first."""
    a, b = tuple(frames(a)), tuple(frames(b))
    la, lb = len(a), len(b)
    if lb <= la and a[la - lb:] == b:
        return a[:la - lb]
    return ()


def same_stack(a: CallStack, b: CallStack, known: dict) -> bool:
    """a == b, walking down only to a pair of cells found equal before;
    `known` keeps those pairs, and with them the cells their ids name."""
    while a is not b and (id(a), id(b)) not in known:
        if a.depth != b.depth or a.top != b.top:
            return False
        known[id(a), id(b)] = a, b
        a, b = a.below, b.below
    return True


def _next_shown(steps):
    """The next step of a drive that is not a plain op: None when the drive
    ends after one, BudgetExhausted when it raises that."""
    item = None
    try:
        for item in steps:
            if item[2].tag != "op":
                return item
    except BudgetExhausted:
        return BudgetExhausted
    assert item is None, f"a drive ended on a plain op: {item[2]}"
    return None


def modes_in_lockstep(iterate_steps, tenv, stack, max_steps, override=None):
    """Drive iterate_steps in block mode and, alongside it from the same
    stack, one op at a time; yield the block-mode steps, each checked to be
    the per-op drive's next non-op step (index, action and both stacks), and
    end or raise BudgetExhausted as the per-op drive does. The two drives
    advance together and share `override`, so a driver that extends the
    update between steps extends it for both."""
    per_op = iterate_steps(tenv, stack, max_steps, override, True)
    block = iterate_steps(tenv, stack, max_steps, override, False)
    known = {}
    while True:
        want, got = _next_shown(per_op), _next_shown(block)
        if want is None or want is BudgetExhausted or got is None or got is BudgetExhausted:
            assert got is want, f"block mode gave {got}, per-op stepping {want}"
            if got is None:
                return
            raise BudgetExhausted(f"no final configuration within {max_steps} steps")
        assert (got[0], got[2]) == (want[0], want[2]), (got[0], got[2], want[0], want[2])
        assert same_stack(got[1], want[1], known) and same_stack(got[3], want[3], known)
        yield got


def checking_block_mode(iterate_steps):
    """iterate_steps, with each block-mode drive checked by modes_in_lockstep."""
    def checked(tenv, stack, max_steps, override=None, ops=True):
        if ops:
            return iterate_steps(tenv, stack, max_steps, override, True)
        return modes_in_lockstep(iterate_steps, tenv, stack, max_steps, override)
    return checked


_COMPONENTS = ("nonce", "balance", "storage", "code")


def state_eq_up_to(a: GlobalState, b: GlobalState, ignore: frozenset | set = frozenset(),
                   at: frozenset | set = frozenset()) -> bool:
    """Equality of global states except possibly the `ignore` components at
    the `at` addresses. Account existence must always agree."""
    unknown = set(ignore) - set(_COMPONENTS)
    if unknown:
        raise ValueError(f"unknown state components: {sorted(unknown)}")
    addrs = set(a) | set(b)
    for addr in addrs:
        aa, ab = a.get(addr), b.get(addr)
        if (aa is None) != (ab is None):
            return False
        if aa is None:
            continue
        skip = ignore if addr in at else frozenset()
        for comp in _COMPONENTS:
            if comp in skip:
                continue
            if getattr(aa, comp) != getattr(ab, comp):
                return False
    return True


def traces_equal(a, b, ignore_gas: bool = False) -> bool:
    return first_divergence(a, b, ignore_gas) is None

"""Shared builders and comparisons for semantics tests."""

from evmsem.bytecode import assemble
from evmsem.semantics import StepBudget, run, step
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
    return run(make_env(), stack_of(frame), StepBudget(budget))


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

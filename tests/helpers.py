"""Shared builders for semantics tests."""

from evmsem.bytecode import assemble
from evmsem.semantics import StepBudget, run, step
from evmsem.state import (EMPTY_EFFECTS, Account, BlockHeader, ExecutionEnvironment,
                          Frame, GlobalState, MachineState, Regular,
                          TransactionEnvironment)

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


def step_one(frame, tenv=None, rest=(), override=None):
    return step(tenv or make_env(), (frame,) + tuple(rest), override)


def run_code(code, gas=1_000_000, budget=100_000, **kw):
    frame = make_frame(code, gas=gas, **kw)
    return run(make_env(), (frame,), StepBudget(budget))

"""Configuration types: accounts, global state, machine state, execution
environments, transaction effects/environments, execution states and
annotated call stacks.

Everything here is treated as an immutable snapshot: mutators return new
objects and share unchanged substructure, which is what makes forking a
configuration (and exception rollback) cheap. The records built on every
step (`MachineState`, `Regular`, `Halt`, `Frame`) are NamedTuples, which
are cheaper to build than frozen dataclasses; change a field with
`._replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple, Optional, Union

from .words import Address, Word256

STACK_LIMIT = 1024
CALL_DEPTH_LIMIT = 1024


@dataclass(frozen=True)
class Account:
    nonce: int = 0
    balance: int = 0
    storage: dict = field(default_factory=dict)  # Word256 -> Word256, no zero entries
    code: bytes = b""

    def storage_get(self, key: Word256) -> Word256:
        return self.storage.get(key, 0)

    def storage_set(self, key: Word256, value: Word256) -> "Account":
        stor = dict(self.storage)
        if value == 0:
            stor.pop(key, None)
        else:
            stor[key] = value
        return Account(self.nonce, self.balance, stor, self.code)

    def with_balance(self, balance: int) -> "Account":
        return Account(self.nonce, balance, self.storage, self.code)

    def with_nonce(self, nonce: int) -> "Account":
        return Account(nonce, self.balance, self.storage, self.code)

    def with_code(self, code: bytes) -> "Account":
        return Account(self.nonce, self.balance, self.storage, code)


class GlobalState:
    """Partial map address -> account; absent addresses are nonexistent,
    which is distinct from an all-zero account.

    A snapshot is a base dict, shared with the snapshots it was forked
    from, plus a small dict of the addresses changed since that base, in
    which None marks a deleted address. Neither dict changes once a
    snapshot holds it, so `put` and `delete` copy only the small one.
    Fold rule: when a write leaves more changed addresses than the square
    root of the base size (len(delta)**2 > len(base)), the new snapshot's
    base is the merged map and its delta is empty. So a write copies at
    most about sqrt(n) entries, and about one write in sqrt(n) copies the
    whole map of n accounts once."""

    __slots__ = ("_base", "_delta")

    def __init__(self, accounts: Optional[dict] = None):
        self._base = accounts if accounts is not None else {}
        self._delta = {}

    def _with(self, addr: Address, acct: Optional[Account]) -> "GlobalState":
        """A snapshot with addr set to acct (None: deleted), folded by the
        rule above."""
        new = GlobalState.__new__(GlobalState)
        new._base, new._delta = self._base, {**self._delta, addr: acct}
        if len(new._delta) ** 2 > len(new._base):
            new._base, new._delta = new._accounts(), {}
        return new

    def _accounts(self) -> dict:
        """The whole map; the base itself when nothing changed since it."""
        if not self._delta:
            return self._base
        accounts = dict(self._base)
        for a, v in self._delta.items():
            if v is None:
                accounts.pop(a, None)
            else:
                accounts[a] = v
        return accounts

    def get(self, addr: Address) -> Optional[Account]:
        delta = self._delta
        if addr in delta:
            return delta[addr]
        return self._base.get(addr)

    def put(self, addr: Address, acct: Account) -> "GlobalState":
        return self._with(addr, acct)

    def delete(self, addr: Address) -> "GlobalState":
        if self.get(addr) is None:
            return self
        return self._with(addr, None)

    def addresses(self) -> Iterator[Address]:
        return iter(self._accounts())

    def items(self):
        return self._accounts().items()

    def __contains__(self, addr: Address) -> bool:
        return self.get(addr) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, GlobalState):
            return NotImplemented
        return self._accounts() == other._accounts()

    def __hash__(self):
        raise TypeError("GlobalState is not hashable")

    def __repr__(self) -> str:
        return f"GlobalState({len(self._accounts())} accounts)"

    def total_balance(self) -> int:
        return sum(a.balance for a in self._accounts().values())


class LogEvent(NamedTuple):
    address: Address
    topics: tuple
    data: bytes


@dataclass(frozen=True)
class TransactionEffects:
    refund: int = 0
    logs: tuple = ()
    suicides: frozenset = frozenset()

    def add_refund(self, amount: int) -> "TransactionEffects":
        if amount == 0:
            return self
        return TransactionEffects(self.refund + amount, self.logs, self.suicides)

    def append_log(self, event: LogEvent) -> "TransactionEffects":
        return TransactionEffects(self.refund, self.logs + (event,), self.suicides)

    def register_suicide(self, addr: Address) -> "TransactionEffects":
        return TransactionEffects(self.refund, self.logs, self.suicides | {addr})


EMPTY_EFFECTS = TransactionEffects()


@dataclass(frozen=True)
class BlockHeader:
    parent: Word256 = 0
    beneficiary: Address = 0
    difficulty: Word256 = 0
    number: Word256 = 0
    gaslimit: Word256 = 0
    timestamp: Word256 = 0


@dataclass(frozen=True)
class TransactionEnvironment:
    origin: Address
    gas_price: Word256
    header: BlockHeader
    # hash -> header chain for BLOCKHASH; empty means no known ancestors
    ancestors: dict = field(default_factory=dict, compare=False)


# accessors a miner or sender controls; used by the env-independence checker
ENV_COMPONENTS = {
    "origin": lambda t: t.origin,
    "gasprice": lambda t: t.gas_price,
    "parent": lambda t: t.header.parent,
    "beneficiary": lambda t: t.header.beneficiary,
    "difficulty": lambda t: t.header.difficulty,
    "number": lambda t: t.header.number,
    "gaslimit": lambda t: t.header.gaslimit,
    "timestamp": lambda t: t.header.timestamp,
}


def env_with_component(tenv: TransactionEnvironment, name: str, value: int) -> TransactionEnvironment:
    """tenv with one of the ENV_COMPONENTS set to value."""
    if name == "origin":
        return replace(tenv, origin=value)
    if name == "gasprice":
        return replace(tenv, gas_price=value)
    if name not in ENV_COMPONENTS:
        raise ValueError(f"unknown environment component {name!r}; choose from "
                         f"{', '.join(sorted(ENV_COMPONENTS))}")
    return replace(tenv, header=replace(tenv.header, **{name: value}))


@dataclass(frozen=True)
class ExecutionEnvironment:
    actor: Address
    input: bytes
    sender: Address
    value: Word256
    code: bytes


class MachineState(NamedTuple):
    gas: int
    pc: int
    memory: bytes         # never longer than 32 * active_words; zero past its end
    active_words: int
    stack: tuple          # Word256s, top first


def memory_read(memory: bytes, offset: int, size: int) -> bytes:
    """The size bytes at offset; bytes past the end of memory read as zero."""
    return memory[offset:offset + size].ljust(size, b"\x00")


def memory_write(memory: bytes, offset: int, data: bytes) -> bytes:
    """Copy-on-write interval update: memory with data spliced in at offset,
    zero-filling any gap past its end. The caller has already charged for
    the active words covering [offset, offset + len(data))."""
    if not data:
        return memory
    gap = offset - len(memory)
    if gap > 0:
        return memory + bytes(gap) + data
    return memory[:offset] + data + memory[offset + len(data):]


# --------------------------------------------------------------------------
# execution states and annotated call stacks


class Regular(NamedTuple):
    mu: MachineState
    iota: ExecutionEnvironment
    sigma: GlobalState
    eta: TransactionEffects


class Halt(NamedTuple):
    sigma: GlobalState
    gas: int
    data: bytes
    eta: TransactionEffects


class ExcState:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EXC"


EXC = ExcState()

ExecutionState = Union[Regular, Halt, ExcState]

# a contract is (address, code); None annotates initialization-code frames
Contract = tuple


class Frame(NamedTuple):
    state: ExecutionState
    contract: Optional[Contract]


CallStack = tuple  # of Frame, top first


def is_final(stack: CallStack) -> bool:
    return len(stack) == 1 and not isinstance(stack[0].state, Regular)


def validate_stack(stack: CallStack) -> None:
    """Reject stacks violating the grammar: Halt/Exc only on top, length
    bounded by 1024 frames plus one transient halting top."""
    if not stack:
        raise ValueError("empty call stack")
    if len(stack) > CALL_DEPTH_LIMIT + 1:
        raise ValueError(f"call stack longer than {CALL_DEPTH_LIMIT + 1}")
    for frame in stack[1:]:
        if not isinstance(frame.state, Regular):
            raise ValueError("Halt/Exc below the top of a call stack")

"""Configuration types: accounts, global state, machine state, execution
environments, transaction effects/environments, execution states and
annotated call stacks.

Everything here is treated as an immutable snapshot: mutators return new
objects and share unchanged substructure, which is what makes forking a
configuration (and exception rollback) cheap. Every record of the package
is a NamedTuple, which is cheaper to build and smaller than a dataclass,
and checks none of its input; the core builds them with tuple.__new__,
and other code changes a field with `._replace`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Union

from .words import Address, Word256

STACK_LIMIT = 1024
CALL_DEPTH_LIMIT = 1024


class _PMap:
    """A persistent map (after Okasaki, Purely Functional Data Structures,
    1998) that reads like a dict: a base dict shared between snapshots plus
    a small dict of the keys changed since it, None marking a deleted key.
    Neither dict changes once a snapshot holds it, so a write copies only
    the small one. Fold rule: when a write leaves len(delta)**2 > len(base),
    the new snapshot's base is the merged map and its delta is empty, so a
    write copies about sqrt(n) entries and one write in sqrt(n) copies n."""

    __slots__ = ("_base", "_delta")

    def __init__(self, base: Optional[dict] = None):
        self._base, self._delta = {} if base is None else base, {}

    def _set(self, key, value):
        """A snapshot with key set to value (None: deleted)."""
        if value is None and self.get(key) is None:
            return self
        new = object.__new__(type(self))
        new._base, new._delta = self._base, {**self._delta, key: value}
        if len(new._delta) ** 2 > len(new._base):
            new._base, new._delta = new._whole(), {}
        return new

    def _whole(self) -> dict:
        """The whole map; the base itself when nothing changed since it."""
        if not self._delta:
            return self._base
        whole = dict(self._base)
        for k, v in self._delta.items():
            if v is None:
                whole.pop(k, None)
            else:
                whole[k] = v
        return whole

    def get(self, key, default=None):
        delta = self._delta
        if key in delta:
            value = delta[key]
            return default if value is None else value
        return self._base.get(key, default)

    def items(self):
        return self._whole().items()

    def __iter__(self):
        return iter(self._whole())

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __eq__(self, other) -> bool:
        if isinstance(other, _PMap):
            other = other._whole()
        return self._whole() == other if isinstance(other, dict) else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self._whole())


class Account(NamedTuple):
    nonce: int = 0
    balance: int = 0
    # Word256 -> Word256 with no zero entries: a dict, or the _PMap that the
    # first storage_set wraps around it without copying. Never written in
    # place: accounts built without storage share the default dict.
    storage: dict = {}
    code: bytes = b""

    def storage_get(self, key: Word256) -> Word256:
        return self.storage.get(key, 0)

    def storage_set(self, key: Word256, value: Word256) -> "Account":
        stor = self.storage if isinstance(self.storage, _PMap) else _PMap(self.storage)
        return tuple.__new__(Account, (self.nonce, self.balance, stor._set(key, value or None),
                                       self.code))

    def with_balance(self, balance: int) -> "Account":
        return tuple.__new__(Account, (self.nonce, balance, self.storage, self.code))

    def with_nonce(self, nonce: int) -> "Account":
        return tuple.__new__(Account, (nonce, self.balance, self.storage, self.code))

    def with_code(self, code: bytes) -> "Account":
        return tuple.__new__(Account, (self.nonce, self.balance, self.storage, code))


# what an absent address reads as
EMPTY_ACCOUNT = Account()


class GlobalState(_PMap):
    """Partial map address -> account, as a _PMap; absent addresses are
    nonexistent, which is distinct from an all-zero account."""

    __slots__ = ()

    def put(self, addr: Address, acct: Account) -> "GlobalState":
        return self._set(addr, acct)

    def delete(self, addr: Address) -> "GlobalState":
        return self._set(addr, None)

    def __repr__(self) -> str:
        return f"GlobalState({len(self._whole())} accounts)"

    def total_balance(self) -> int:
        return sum(a.balance for a in self._whole().values())


def account(sigma: GlobalState, addr: Address) -> Account:
    """The account at addr; an absent one reads as empty."""
    return sigma.get(addr, EMPTY_ACCOUNT)


def credit(sigma: GlobalState, addr: Address, amount: int) -> GlobalState:
    """sigma with amount added to addr's balance, which opens an absent account."""
    acct = account(sigma, addr)
    return sigma.put(addr, acct.with_balance(acct.balance + amount))


def charge(sigma: GlobalState, addr: Address, amount: int) -> GlobalState:
    """sigma with addr's nonce bumped and amount taken from its balance: what a
    transaction does to its sender and a create to its creator."""
    acct = account(sigma, addr)
    return sigma.put(addr, tuple.__new__(Account, (acct.nonce + 1, acct.balance - amount,
                                                   acct.storage, acct.code)))


class LogEvent(NamedTuple):
    address: Address
    topics: tuple
    data: bytes


class TransactionEffects(NamedTuple):
    refund: int = 0
    logs: tuple = ()
    suicides: frozenset = frozenset()

    def add_refund(self, amount: int) -> "TransactionEffects":
        if amount == 0:
            return self
        return tuple.__new__(TransactionEffects, (self.refund + amount, self.logs, self.suicides))

    def append_log(self, event: LogEvent) -> "TransactionEffects":
        return tuple.__new__(TransactionEffects, (self.refund, self.logs + (event,), self.suicides))

    def register_suicide(self, addr: Address) -> "TransactionEffects":
        return tuple.__new__(TransactionEffects, (self.refund, self.logs, self.suicides | {addr}))


EMPTY_EFFECTS = TransactionEffects()


class BlockHeader(NamedTuple):
    parent: Word256 = 0
    beneficiary: Address = 0
    difficulty: Word256 = 0
    number: Word256 = 0
    gaslimit: Word256 = 0
    timestamp: Word256 = 0


class TransactionEnvironment(NamedTuple):
    origin: Address
    gas_price: Word256
    header: BlockHeader
    # hash -> header chain for BLOCKHASH; empty means no known ancestors.
    # Never written in place: environments built without one share the default.
    ancestors: dict = {}


# the components a miner or sender controls, which env-independence varies
ENV_COMPONENTS = ("origin", "gasprice") + BlockHeader._fields


def env_with_component(tenv: TransactionEnvironment, name: str, value: int) -> TransactionEnvironment:
    """tenv with one of the ENV_COMPONENTS set to value."""
    if name == "origin":
        return tenv._replace(origin=value)
    if name == "gasprice":
        return tenv._replace(gas_price=value)
    if name not in ENV_COMPONENTS:
        raise ValueError(f"unknown environment component {name!r}; choose from "
                         f"{', '.join(sorted(ENV_COMPONENTS))}")
    return tenv._replace(header=tenv.header._replace(**{name: value}))


class ExecutionEnvironment(NamedTuple):
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


class CallStack(NamedTuple):
    """A persistent cons list of frames (Okasaki, 1998), below None under the
    bottom frame: a push, a pop or a new top builds one cell, at any depth.
    Steps build cells and frames with tuple.__new__, which costs half the
    NamedTuple constructor.
    stack[0] is the top frame and len(stack) the depth, as for a tuple of
    frames; never use _make or _replace, which read len()."""
    top: Frame
    below: Optional["CallStack"]
    depth: int

    def __len__(self) -> int:
        return self.depth

    def __repr__(self) -> str:
        return f"CallStack(top={self.top!r}, depth={self.depth})"

    def __eq__(self, other) -> bool:
        """Frame by frame down to the first cell both stacks share; tuple
        equality would recurse once per frame and overflow near 1,000."""
        if not isinstance(other, CallStack):
            return NotImplemented
        a, b = self, other
        while a is not b:
            if a.depth != b.depth or a.top != b.top:
                return False
            a, b = a.below, b.below
        return True

    def __ne__(self, other) -> bool:
        return not self == other


def with_top_state(stack: CallStack, state: ExecutionState) -> CallStack:
    """stack with its top frame in state, under the same contract."""
    top = tuple.__new__(Frame, (state, stack.top.contract))
    return tuple.__new__(CallStack, (top, stack.below, stack.depth))


def frames(stack: Optional[CallStack]) -> Iterator[Frame]:
    """The frames of a call stack, top first."""
    while stack is not None:
        yield stack.top
        stack = stack.below


def is_final(stack: CallStack) -> bool:
    return stack.below is None and stack.top.state.__class__ is not Regular


def validate_stack(stack: Optional[CallStack]) -> None:
    """Reject stacks violating the grammar: Halt/Exc only on top, depth
    bounded by 1024 frames plus one transient halting top."""
    if stack is None:
        raise ValueError("empty call stack")
    if stack.depth > CALL_DEPTH_LIMIT + 1:
        raise ValueError(f"call stack longer than {CALL_DEPTH_LIMIT + 1}")
    if any(not isinstance(frame.state, Regular) for frame in frames(stack.below)):
        raise ValueError("Halt/Exc below the top of a call stack")

"""Frozen copy of the interpreter core, kept as a differential oracle: the
tests step it in lockstep with evmsem.semantics and require identical
(stack, action) pairs. Do not edit; it records the reference behaviour.

The small-step relation over annotated call stacks.

`step` maps one configuration to its successor and emits one trace action;
`run` is the reflexive-transitive closure under a step budget. Both are pure
with respect to their inputs: all mutation happens on freshly copied
snapshots, so checkers can fork execution at any configuration by keeping a
reference to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from evmsem import bytecode as bc
from ._helpers import dup_index, log_topics, swap_index
from .gas import (c_base, c_gascap, c_mem, copy_cost, exp_cost, l_all_but_one_64th,
                  log_cost, mem_ext, sha3_cost, sstore_cost, sstore_refund)
from evmsem.keccak import keccak256
from evmsem.rlp import fresh_address
from evmsem.state import (CALL_DEPTH_LIMIT, EXC, Account, CallStack, Frame, GlobalState,
                    Halt, LogEvent, MachineState, Regular, STACK_LIMIT,
                    TransactionEnvironment, is_final, memory_read, memory_write,
                    validate_stack)
from evmsem.traces import Action
from evmsem.words import ADDR_MASK, binop, to_address, word_from_bytes


class MalformedConfiguration(Exception):
    """No rule matches: the call stack is outside the reachable grammar."""


class BudgetExhausted(Exception):
    """The step budget ran out (distinct from in-model out-of-gas)."""


@dataclass(frozen=True)
class StepBudget:
    max_steps: int

    def __post_init__(self):
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class CodeOverride:
    """Partial map address -> code consulted by EXTCODESIZE/EXTCODECOPY
    in place of the global state (local code update)."""
    mapping: dict

    def get(self, addr: int) -> Optional[bytes]:
        return self.mapping.get(addr)

    def domain(self) -> frozenset:
        return frozenset(self.mapping)


def extend_override_after_create(f: CodeOverride, created) -> CodeOverride:
    """Union with newly created (address, code) pairs; existing entries win."""
    mapping = dict(f.mapping)
    for addr, code in created:
        if addr not in mapping:
            mapping[addr] = code
    return CodeOverride(mapping)


@dataclass(frozen=True)
class StepOutcome:
    stack: CallStack
    action: Action
    final: bool


_BINOPS_CHEAP = frozenset(
    ["ADD", "SUB", "LT", "GT", "SLT", "SGT", "EQ", "AND", "OR", "XOR", "BYTE"])
_BINOPS_EXPENSIVE = frozenset(["MUL", "DIV", "SDIV", "MOD", "SMOD", "SIGNEXTEND"])
_ENV_READS = {
    "ADDRESS": lambda mu, iota, tenv: iota.actor,
    "CALLER": lambda mu, iota, tenv: iota.sender,
    "CALLVALUE": lambda mu, iota, tenv: iota.value,
    "CODESIZE": lambda mu, iota, tenv: len(iota.code),
    "CALLDATASIZE": lambda mu, iota, tenv: len(iota.input),
    "ORIGIN": lambda mu, iota, tenv: tenv.origin,
    "GASPRICE": lambda mu, iota, tenv: tenv.gas_price,
    "COINBASE": lambda mu, iota, tenv: tenv.header.beneficiary,
    "TIMESTAMP": lambda mu, iota, tenv: tenv.header.timestamp,
    "NUMBER": lambda mu, iota, tenv: tenv.header.number,
    "DIFFICULTY": lambda mu, iota, tenv: tenv.header.difficulty,
    "GASLIMIT": lambda mu, iota, tenv: tenv.header.gaslimit,
    "PC": lambda mu, iota, tenv: mu.pc,
    "MSIZE": lambda mu, iota, tenv: 32 * mu.active_words,
    "GAS": lambda mu, iota, tenv: mu.gas,
}


def _valid(gas: int, cost: int, new_stack_size: int) -> bool:
    return gas >= cost and new_stack_size < STACK_LIMIT


def _account_code(sigma: GlobalState, addr: int, override: Optional[CodeOverride]) -> bytes:
    if override is not None:
        code = override.get(addr)
        if code is not None:
            return code
    acct = sigma.get(addr)
    return acct.code if acct is not None else b""


def _blockhash_lookup(tenv: TransactionEnvironment, n: int) -> int:
    """Walk parent headers for the hash of block n; 0 past 256 hops, past an
    unknown ancestor, or when n lies beyond the visited header."""
    h = tenv.header.parent
    for _ in range(256):
        if h == 0:
            return 0
        header = tenv.ancestors.get(h)
        if header is None or n > header.number:
            return 0
        if n == header.number:
            return h
        h = header.parent
    return 0


def step(tenv: TransactionEnvironment, stack: CallStack,
         override: Optional[CodeOverride] = None) -> StepOutcome:
    """Apply exactly one small-step rule to a non-final configuration."""
    if not stack:
        raise MalformedConfiguration("empty call stack")
    top = stack[0]
    if isinstance(top.state, Regular):
        new_stack, action = _step_regular(tenv, stack, override)
    else:
        if len(stack) < 2:
            raise MalformedConfiguration("final configuration cannot be stepped")
        new_stack, action = _process_return(tenv, stack)
    return StepOutcome(new_stack, action, is_final(new_stack))


def run(tenv: TransactionEnvironment, stack: CallStack, limits: StepBudget,
        override: Optional[CodeOverride] = None):
    """Iterate step until a final configuration; returns (final stack, trace)."""
    validate_stack(stack)
    trace = []
    for _ in range(limits.max_steps):
        if is_final(stack):
            return stack, tuple(trace)
        out = step(tenv, stack, override)
        trace.append(out.action)
        stack = out.stack
    if is_final(stack):
        return stack, tuple(trace)
    raise BudgetExhausted(f"no final configuration within {limits.max_steps} steps")


def iterate_steps(tenv: TransactionEnvironment, stack: CallStack, max_steps: int,
                  override: Optional[CodeOverride] = None) -> Iterator[tuple]:
    """Yield (stack_before, action, stack_after) until final or budget end.

    Raises BudgetExhausted when the budget ends before a final configuration.
    """
    for _ in range(max_steps):
        if is_final(stack):
            return
        out = step(tenv, stack, override)
        yield stack, out.action, out.stack
        stack = out.stack
    if not is_final(stack):
        raise BudgetExhausted(f"no final configuration within {max_steps} steps")


def run_to_depth(tenv: TransactionEnvironment, stack: CallStack, target_len: int,
                 max_steps: int, override: Optional[CodeOverride] = None):
    """Run until the stack has target_len frames with Halt/Exc on top (the
    frame at that depth finalized, its return not yet processed)."""
    trace = []
    for _ in range(max_steps):
        if len(stack) == target_len and not isinstance(stack[0].state, Regular):
            return stack, tuple(trace)
        if is_final(stack):
            return stack, tuple(trace)
        out = step(tenv, stack, override)
        trace.append(out.action)
        stack = out.stack
    if len(stack) == target_len and not isinstance(stack[0].state, Regular):
        return stack, tuple(trace)
    raise BudgetExhausted(f"frame did not finalize within {max_steps} steps")


def run_frame(tenv: TransactionEnvironment, stack: CallStack, max_steps: int,
              override: Optional[CodeOverride] = None):
    """Run until the frame currently on top has become Halt/Exc at the same
    depth (without processing its return); returns (stack, trace)."""
    return run_to_depth(tenv, stack, len(stack), max_steps, override)


def run_with_local_updates(tenv: TransactionEnvironment, stack: CallStack,
                           f: CodeOverride, max_steps: int):
    """Run the top frame to a final state under a local code update.

    The override feeds EXTCODESIZE/EXTCODECOPY of the analyzed frame only;
    sub-executions run under the plain semantics, and after each one returns
    the override is extended with the accounts it created.

    Returns (stack, trace, extended override).
    """
    base_depth = len(stack)
    trace = []
    sigma_at_call = None
    for _ in range(max_steps):
        depth = len(stack)
        if depth == base_depth and not isinstance(stack[0].state, Regular):
            return stack, tuple(trace), f
        ov = f if depth == base_depth else None
        if depth == base_depth and isinstance(stack[0].state, Regular):
            sigma_at_call = stack[0].state.sigma
        out = step(tenv, stack, ov)
        trace.append(out.action)
        prev_depth = depth
        stack = out.stack
        if (len(stack) == base_depth and prev_depth > base_depth
                and isinstance(stack[0].state, Regular) and sigma_at_call is not None):
            sigma_now = stack[0].state.sigma
            created = [(a, acct.code) for a, acct in sigma_now.items()
                       if sigma_at_call.get(a) is None]
            if created:
                f = extend_override_after_create(f, created)
    if len(stack) == base_depth and not isinstance(stack[0].state, Regular):
        return stack, tuple(trace), f
    raise BudgetExhausted(f"frame did not finalize within {max_steps} steps")


# ---------------------------------------------------------------------------
# regular steps


def _step_regular(tenv, stack, override):
    frame = stack[0]
    rest = stack[1:]
    st = frame.state
    mu, iota, sigma, eta = st.mu, st.iota, st.sigma, st.eta
    op = bc.current_opcode(mu, iota)
    name = bc.mnemonic(op)
    c = frame.contract
    s = mu.stack

    def exc(args=()):
        return ((Frame(EXC, c),) + rest,
                Action(name, c, args, "exc"))

    def ok(mu_new, sigma_new=None, eta_new=None, args=()):
        new_frame = Frame(Regular(mu_new, iota,
                                  sigma if sigma_new is None else sigma_new,
                                  eta if eta_new is None else eta_new), c)
        return ((new_frame,) + rest, Action(name, c, args, "op"))

    def halt(sigma_new, gas, data, eta_new, args=()):
        return ((Frame(Halt(sigma_new, gas, data, eta_new), c),) + rest,
                Action(name, c, args, "halt"))

    # --- halting, cheap families first -------------------------------------
    if op == 0x00:  # STOP
        return halt(sigma, mu.gas, b"", eta)

    if name in _ENV_READS:
        cost = 2
        if not _valid(mu.gas, cost, len(s) + 1):
            return exc()
        value = _ENV_READS[name](mu, iota, tenv)
        mu2 = MachineState(mu.gas - cost, mu.pc + 1, mu.memory, mu.active_words,
                           (value,) + s)
        return ok(mu2)

    if name in _BINOPS_CHEAP or name in _BINOPS_EXPENSIVE:
        cost = 3 if name in _BINOPS_CHEAP else 5
        if len(s) < 2 or not _valid(mu.gas, cost, len(s) - 1):
            return exc()
        a, b = s[0], s[1]
        mu2 = MachineState(mu.gas - cost, mu.pc + 1, mu.memory, mu.active_words,
                           (binop(name, a, b),) + s[2:])
        return ok(mu2, args=(a, b))

    if op == 0x0A:  # EXP
        if len(s) < 2:
            return exc()
        a, b = s[0], s[1]
        cost = exp_cost(b)
        if not _valid(mu.gas, cost, len(s) - 1):
            return exc()
        mu2 = MachineState(mu.gas - cost, mu.pc + 1, mu.memory, mu.active_words,
                           (pow(a, b, 2**256),) + s[2:])
        return ok(mu2, args=(a, b))

    if op == 0x20:  # SHA3
        if len(s) < 2:
            return exc()
        pos, size = s[0], s[1]
        aw = mem_ext(mu.active_words, pos, size)
        cost = c_mem(mu.active_words, aw) + sha3_cost(size)
        if not _valid(mu.gas, cost, len(s) - 1):
            return exc()
        digest = keccak256(memory_read(mu.memory, pos, size))
        mu2 = MachineState(mu.gas - cost, mu.pc + 1, mu.memory, aw,
                           (digest,) + s[2:])
        return ok(mu2, args=(pos, size))

    if op in (0x15, 0x19):  # ISZERO, NOT
        if len(s) < 1 or not _valid(mu.gas, 3, len(s)):
            return exc()
        a = s[0]
        value = (1 if a == 0 else 0) if op == 0x15 else a ^ (2**256 - 1)
        mu2 = MachineState(mu.gas - 3, mu.pc + 1, mu.memory, mu.active_words,
                           (value,) + s[1:])
        return ok(mu2, args=(a,))

    if op in (0x08, 0x09):  # ADDMOD, MULMOD
        if len(s) < 3 or not _valid(mu.gas, 8, len(s) - 2):
            return exc()
        a, b, m = s[0], s[1], s[2]
        if m == 0:
            value = 0
        else:
            value = (a + b) % m if op == 0x08 else (a * b) % m
        mu2 = MachineState(mu.gas - 8, mu.pc + 1, mu.memory, mu.active_words,
                           (value,) + s[3:])
        return ok(mu2, args=(a, b, m))

    if op == 0x35:  # CALLDATALOAD
        if len(s) < 1 or not _valid(mu.gas, 3, len(s)):
            return exc()
        a = s[0]
        data = iota.input
        k = 0 if len(data) - a < 0 else min(len(data) - a, 32)
        value = word_from_bytes(bytes(data[a:a + k]).ljust(32, b"\x00"))
        mu2 = MachineState(mu.gas - 3, mu.pc + 1, mu.memory, mu.active_words,
                           (value,) + s[1:])
        return ok(mu2, args=(a,))

    if op in (0x37, 0x39):  # CALLDATACOPY, CODECOPY
        if len(s) < 3:
            return exc()
        pos_m, pos_src, size = s[0], s[1], s[2]
        aw = mem_ext(mu.active_words, pos_m, size)
        cost = c_mem(mu.active_words, aw) + copy_cost(3, size)
        if not _valid(mu.gas, cost, len(s) - 3):
            return exc()
        src = iota.input if op == 0x37 else iota.code
        k = 0 if len(src) - pos_src < 0 else min(len(src) - pos_src, size)
        data = bytes(src[pos_src:pos_src + k]).ljust(size, b"\x00")
        mu2 = MachineState(mu.gas - cost, mu.pc + 1,
                           memory_write(mu.memory, pos_m, data), aw, s[3:])
        return ok(mu2, args=(pos_m, pos_src, size))

    if op == 0x31:  # BALANCE
        if len(s) < 1 or not _valid(mu.gas, 400, len(s)):
            return exc()
        a = s[0]
        acct = sigma.get(to_address(a))
        mu2 = MachineState(mu.gas - 400, mu.pc + 1, mu.memory, mu.active_words,
                           (acct.balance if acct is not None else 0,) + s[1:])
        return ok(mu2, args=(a,))

    if op == 0x3B:  # EXTCODESIZE
        if len(s) < 1 or not _valid(mu.gas, 700, len(s)):
            return exc()
        a = s[0]
        code = _account_code(sigma, to_address(a), override)
        mu2 = MachineState(mu.gas - 700, mu.pc + 1, mu.memory, mu.active_words,
                           (len(code),) + s[1:])
        return ok(mu2, args=(a,))

    if op == 0x3C:  # EXTCODECOPY
        if len(s) < 4:
            return exc()
        a, pos_m, pos_code, size = s[0], s[1], s[2], s[3]
        aw = mem_ext(mu.active_words, pos_m, size)
        cost = c_mem(mu.active_words, aw) + copy_cost(700, size)
        if not _valid(mu.gas, cost, len(s) - 4):
            return exc()
        code = _account_code(sigma, to_address(a), override)
        k = 0 if len(code) - pos_code < 0 else min(len(code) - pos_code, size)
        data = bytes(code[pos_code:pos_code + k]).ljust(size, b"\x00")
        mu2 = MachineState(mu.gas - cost, mu.pc + 1,
                           memory_write(mu.memory, pos_m, data), aw, s[4:])
        return ok(mu2, args=(a, pos_m, pos_code, size))

    if op == 0x40:  # BLOCKHASH
        if len(s) < 1 or not _valid(mu.gas, 20, len(s)):
            return exc()
        n = s[0]
        h = _blockhash_lookup(tenv, n)
        mu2 = MachineState(mu.gas - 20, mu.pc + 1, mu.memory, mu.active_words,
                           (h,) + s[1:])
        return ok(mu2, args=(n,))

    if op == 0x50:  # POP
        if len(s) < 1 or not _valid(mu.gas, 2, len(s) - 1):
            return exc()
        mu2 = MachineState(mu.gas - 2, mu.pc + 1, mu.memory, mu.active_words, s[1:])
        return ok(mu2, args=(s[0],))

    if bc.is_push(op):
        if not _valid(mu.gas, 3, len(s) + 1):
            return exc()
        n = bc.push_size(op)
        imm = bytes(iota.code[mu.pc + 1:mu.pc + 1 + n]).ljust(n, b"\x00")
        mu2 = MachineState(mu.gas - 3, mu.pc + n + 1, mu.memory, mu.active_words,
                           (word_from_bytes(imm),) + s)
        return ok(mu2)

    if 0x80 <= op <= 0x8F:  # DUP1..16
        n = dup_index(op)
        if len(s) < n or not _valid(mu.gas, 3, len(s) + 1):
            return exc()
        mu2 = MachineState(mu.gas - 3, mu.pc + 1, mu.memory, mu.active_words,
                           (s[n - 1],) + s)
        return ok(mu2)

    if 0x90 <= op <= 0x9F:  # SWAP1..16
        n = swap_index(op)
        if len(s) < n + 1 or not _valid(mu.gas, 3, len(s)):
            return exc()
        swapped = (s[n],) + s[1:n] + (s[0],) + s[n + 1:]
        mu2 = MachineState(mu.gas - 3, mu.pc + 1, mu.memory, mu.active_words, swapped)
        return ok(mu2)

    if op == 0x56:  # JUMP
        if len(s) < 1:
            return exc()
        i = s[0]
        if i not in bc.valid_jump_dests(iota.code) or not _valid(mu.gas, 8, len(s) - 1):
            return exc(args=(i,))
        mu2 = MachineState(mu.gas - 8, i, mu.memory, mu.active_words, s[1:])
        return ok(mu2, args=(i,))

    if op == 0x57:  # JUMPI
        if len(s) < 2:
            return exc()
        i, b = s[0], s[1]
        if i not in bc.valid_jump_dests(iota.code) or not _valid(mu.gas, 10, len(s) - 2):
            return exc(args=(i, b))
        j = mu.pc + 1 if b == 0 else i
        mu2 = MachineState(mu.gas - 10, j, mu.memory, mu.active_words, s[2:])
        return ok(mu2, args=(i, b))

    if op == 0x5B:  # JUMPDEST
        if not _valid(mu.gas, 1, len(s)):
            return exc()
        mu2 = MachineState(mu.gas - 1, mu.pc + 1, mu.memory, mu.active_words, s)
        return ok(mu2)

    if op == 0x51:  # MLOAD
        if len(s) < 1:
            return exc()
        a = s[0]
        aw = mem_ext(mu.active_words, a, 32)
        cost = c_mem(mu.active_words, aw) + 3
        if not _valid(mu.gas, cost, len(s)):
            return exc()
        value = word_from_bytes(memory_read(mu.memory, a, 32))
        mu2 = MachineState(mu.gas - cost, mu.pc + 1, mu.memory, aw,
                           (value,) + s[1:])
        return ok(mu2, args=(a,))

    if op in (0x52, 0x53):  # MSTORE, MSTORE8
        if len(s) < 2:
            return exc()
        a, b = s[0], s[1]
        width = 32 if op == 0x52 else 1
        aw = mem_ext(mu.active_words, a, width)
        cost = c_mem(mu.active_words, aw) + 3
        if not _valid(mu.gas, cost, len(s) - 2):
            return exc()
        data = b.to_bytes(32, "big") if op == 0x52 else bytes([b % 256])
        mu2 = MachineState(mu.gas - cost, mu.pc + 1,
                           memory_write(mu.memory, a, data), aw, s[2:])
        return ok(mu2, args=(a, b))

    if op == 0x54:  # SLOAD
        if len(s) < 1 or not _valid(mu.gas, 200, len(s)):
            return exc()
        a = s[0]
        acct = sigma.get(iota.actor)
        value = acct.storage_get(a) if acct is not None else 0
        mu2 = MachineState(mu.gas - 200, mu.pc + 1, mu.memory, mu.active_words,
                           (value,) + s[1:])
        return ok(mu2, args=(a,))

    if op == 0x55:  # SSTORE
        if len(s) < 2:
            return exc()
        a, b = s[0], s[1]
        acct = sigma.get(iota.actor)
        current = acct.storage_get(a) if acct is not None else 0
        cost = sstore_cost(current, b)
        if not _valid(mu.gas, cost, len(s) - 2):
            return exc()
        if acct is None:
            acct = Account()
        sigma2 = sigma.put(iota.actor, acct.storage_set(a, b))
        eta2 = eta.add_refund(sstore_refund(current, b))
        mu2 = MachineState(mu.gas - cost, mu.pc + 1, mu.memory, mu.active_words, s[2:])
        return ok(mu2, sigma2, eta2, args=(a, b))

    if 0xA0 <= op <= 0xA4:  # LOG0..4
        n = log_topics(op)
        if len(s) < n + 2:
            return exc()
        pos, size = s[0], s[1]
        topics = s[2:2 + n]
        aw = mem_ext(mu.active_words, pos, size)
        cost = c_mem(mu.active_words, aw) + log_cost(size, n)
        if not _valid(mu.gas, cost, len(s) - n - 2):
            return exc()
        data = memory_read(mu.memory, pos, size)
        eta2 = eta.append_log(LogEvent(iota.actor, tuple(topics), data))
        mu2 = MachineState(mu.gas - cost, mu.pc + 1, mu.memory, aw, s[2 + n:])
        return ok(mu2, eta_new=eta2, args=(pos, size) + tuple(topics))

    if op == 0xF3:  # RETURN
        if len(s) < 2:
            return exc()
        io, isz = s[0], s[1]
        aw = mem_ext(mu.active_words, io, isz)
        cost = c_mem(mu.active_words, aw)
        if not _valid(mu.gas, cost, len(s) - 2):
            return exc()
        data = memory_read(mu.memory, io, isz)
        return halt(sigma, mu.gas - cost, data, eta, args=(io, isz))

    if op == 0xFF:  # SELFDESTRUCT
        if len(s) < 1:
            return exc()
        a_ben = s[0]
        a = a_ben & ADDR_MASK
        target = sigma.get(a)
        cost = 5000 if target is not None else 37000
        if not _valid(mu.gas, cost, len(s) - 1):
            return exc()
        # Yellow Paper order: credit the beneficiary, then zero the actor, so
        # a contract that names itself as beneficiary burns its balance
        actor_acct = sigma.get(iota.actor)
        actor_balance = actor_acct.balance if actor_acct is not None else 0
        if target is not None:
            sigma2 = sigma.put(a, target.with_balance(target.balance + actor_balance))
        else:
            sigma2 = sigma.put(a, Account(0, actor_balance, {}, b""))
        actor_acct = sigma2.get(iota.actor)
        if actor_acct is not None:
            sigma2 = sigma2.put(iota.actor, actor_acct.with_balance(0))
        refund = 0 if iota.actor in eta.suicides else 24000
        eta2 = eta.register_suicide(iota.actor).add_refund(refund)
        return ((Frame(Halt(sigma2, mu.gas - cost, b"", eta2), c),) + rest,
                Action(name, c, (a_ben,), "halt"))

    if op == 0xF1 or op == 0xF2:  # CALL, CALLCODE
        return _do_call(tenv, stack, name, op)

    if op == 0xF4:  # DELEGATECALL
        return _do_delegatecall(tenv, stack)

    if op == 0xF0:  # CREATE
        return _do_create(tenv, stack)

    # INVALID and every byte outside the table
    return ((Frame(EXC, c),) + rest, Action("INVALID", c, (), "exc"))


# ---------------------------------------------------------------------------
# calling


def _call_costs(mu, va: int, flag: int, g: int, io: int, isz: int, oo: int, os_: int):
    aw = mem_ext(mem_ext(mu.active_words, io, isz), oo, os_)
    cc = c_gascap(va, flag, g, mu.gas)
    total = c_base(va, flag) + c_mem(mu.active_words, aw) + cc
    return aw, cc, total


def _do_call(tenv, stack, name, op):
    frame, rest = stack[0], stack[1:]
    st = frame.state
    mu, iota, sigma, eta = st.mu, st.iota, st.sigma, st.eta
    c = frame.contract
    s = mu.stack
    if len(s) < 7:
        return ((Frame(EXC, c),) + rest, Action(name, c, (), "exc"))
    g, to, va, io, isz, oo, os_ = s[:7]
    s_rest = s[7:]
    to_a = to & ADDR_MASK
    callee = sigma.get(to_a)
    flag = 0 if (op == 0xF1 and callee is None) else 1
    aw, cc, total = _call_costs(mu, va, flag, g, io, isz, oo, os_)
    args = (g, to, va, io, isz, oo, os_)
    if not _valid(mu.gas, total, len(s) - 6):
        return ((Frame(EXC, c),) + rest, Action(name, c, args, "exc"))
    actor_acct = sigma.get(iota.actor)
    if actor_acct is None:
        actor_acct = Account()
    actor_balance = actor_acct.balance
    if va > actor_balance or len(stack) + 1 > CALL_DEPTH_LIMIT:
        # failure on the callee level: EXC pushed on top of the caller
        return ((Frame(EXC, None),) + stack, Action(name, c, args, "fail"))

    data = memory_read(mu.memory, io, isz)
    mu_new = MachineState(cc, 0, b"", 0, ())
    if op == 0xF1:  # CALL: move value, hand control to the callee account
        # debit first, then credit the callee as it reads after the debit
        debited = sigma.put(iota.actor, actor_acct.with_balance(actor_balance - va))
        if callee is not None:
            code = callee.code
            payee = debited.get(to_a)
            sigma2 = debited.put(to_a, payee.with_balance(payee.balance + va))
        else:
            code = b""
            sigma2 = debited.put(to_a, Account(0, va, {}, b""))
        iota_new = iota._replace(sender=iota.actor, actor=to_a,
                                 value=va, input=data, code=code)
    else:  # CALLCODE: run the code in the caller's context, no transfer
        code = callee.code if callee is not None else b""
        sigma2 = sigma
        iota_new = iota._replace(sender=iota.actor, value=va, input=data, code=code)
    callee_frame = Frame(Regular(mu_new, iota_new, sigma2, eta), (to_a, code))
    return ((callee_frame,) + stack, Action(name, c, args, "enter"))


def _do_delegatecall(tenv, stack):
    frame, rest = stack[0], stack[1:]
    st = frame.state
    mu, iota, sigma, eta = st.mu, st.iota, st.sigma, st.eta
    c = frame.contract
    s = mu.stack
    if len(s) < 6:
        return ((Frame(EXC, c),) + rest, Action("DELEGATECALL", c, (), "exc"))
    g, to, io, isz, oo, os_ = s[:6]
    to_a = to & ADDR_MASK
    aw, cc, total = _call_costs(mu, 0, 1, g, io, isz, oo, os_)
    args = (g, to, io, isz, oo, os_)
    if not _valid(mu.gas, total, len(s) - 5):
        return ((Frame(EXC, c),) + rest, Action("DELEGATECALL", c, args, "exc"))
    if len(stack) + 1 > CALL_DEPTH_LIMIT:
        return ((Frame(EXC, None),) + stack, Action("DELEGATECALL", c, args, "fail"))
    callee = sigma.get(to_a)
    code = callee.code if callee is not None else b""
    data = memory_read(mu.memory, io, isz)
    mu_new = MachineState(cc, 0, b"", 0, ())
    iota_new = iota._replace(input=data, code=code)
    callee_frame = Frame(Regular(mu_new, iota_new, sigma, eta), (to_a, code))
    return ((callee_frame,) + stack, Action("DELEGATECALL", c, args, "enter"))


def _do_create(tenv, stack):
    frame, rest = stack[0], stack[1:]
    st = frame.state
    mu, iota, sigma, eta = st.mu, st.iota, st.sigma, st.eta
    c = frame.contract
    s = mu.stack
    if len(s) < 3:
        return ((Frame(EXC, c),) + rest, Action("CREATE", c, (), "exc"))
    va, io, isz = s[:3]
    aw = mem_ext(mu.active_words, io, isz)
    cost = c_mem(mu.active_words, aw) + 32000
    args = (va, io, isz)
    if not _valid(mu.gas, cost, len(s) - 2):
        return ((Frame(EXC, c),) + rest, Action("CREATE", c, (), "exc"))
    actor_acct = sigma.get(iota.actor)
    if actor_acct is None:
        actor_acct = Account()
    actor_balance = actor_acct.balance
    if va > actor_balance or len(stack) + 1 > CALL_DEPTH_LIMIT:
        return ((Frame(EXC, None),) + stack, Action("CREATE", c, args, "fail"))
    rho = fresh_address(iota.actor, actor_acct.nonce)
    existing = sigma.get(rho)
    initial_balance = va if existing is None else existing.balance + va
    sigma2 = (sigma.put(rho, Account(0, initial_balance, {}, b""))
                   .put(iota.actor,
                        Account(actor_acct.nonce + 1, actor_balance - va,
                                actor_acct.storage, actor_acct.code)))
    init_code = memory_read(mu.memory, io, isz)
    iota_new = iota._replace(sender=iota.actor, actor=rho,
                             value=va, code=init_code, input=b"")
    mu_new = MachineState(l_all_but_one_64th(mu.gas - cost), 0, b"", 0, ())
    callee_frame = Frame(Regular(mu_new, iota_new, sigma2, eta), None)
    return ((callee_frame,) + stack, Action("CREATE", c, args, "enter"))


# ---------------------------------------------------------------------------
# return processing


def _process_return(tenv, stack):
    top, caller = stack[0], stack[1]
    if not isinstance(caller.state, Regular):
        raise MalformedConfiguration("halting state above a non-regular frame")
    op = bc.current_opcode(caller.state.mu, caller.state.iota)
    depth = len(caller.state.mu.stack)
    if op in (0xF1, 0xF2) and depth >= 7:
        return _return_call(stack, bc.mnemonic(op))
    if op == 0xF4 and depth >= 6:
        return _return_delegatecall(stack)
    if op == 0xF0 and depth >= 3:
        return _return_create(stack)
    raise MalformedConfiguration(
        f"halting state above a frame not executing a call (op {op:#x})")


def _return_call(stack, name):
    top, caller = stack[0], stack[1]
    rest = stack[2:]
    st = caller.state
    mu, iota, sigma, eta = st.mu, st.iota, st.sigma, st.eta
    s = mu.stack
    g, to, va, io, isz, oo, os_ = s[:7]
    s_rest = s[7:]
    to_a = to & ADDR_MASK
    flag = 0 if (name == "CALL" and sigma.get(to_a) is None) else 1
    aw, cc, total = _call_costs(mu, va, flag, g, io, isz, oo, os_)
    if isinstance(top.state, Halt):
        h = top.state
        written = h.data[:os_]
        mu2 = MachineState(mu.gas + h.gas - total, mu.pc + 1,
                           memory_write(mu.memory, oo, written), aw,
                           (1,) + s_rest)
        new_frame = Frame(Regular(mu2, iota, h.sigma, h.eta), caller.contract)
        return ((new_frame,) + rest,
                Action(name + "RET", caller.contract, (), "ret"))
    # exceptional return: caller state untouched, gas for the call consumed
    mu2 = MachineState(mu.gas - total, mu.pc + 1, mu.memory, aw, (0,) + s_rest)
    new_frame = Frame(Regular(mu2, iota, sigma, eta), caller.contract)
    return ((new_frame,) + rest,
            Action(name + "RET", caller.contract, (), "exc_ret"))


def _return_delegatecall(stack):
    top, caller = stack[0], stack[1]
    rest = stack[2:]
    st = caller.state
    mu, iota, sigma, eta = st.mu, st.iota, st.sigma, st.eta
    s = mu.stack
    g, to, io, isz, oo, os_ = s[:6]
    s_rest = s[6:]
    aw, cc, total = _call_costs(mu, 0, 1, g, io, isz, oo, os_)
    if isinstance(top.state, Halt):
        h = top.state
        written = h.data[:os_]
        mu2 = MachineState(mu.gas + h.gas - total, mu.pc + 1,
                           memory_write(mu.memory, oo, written), aw,
                           (1,) + s_rest)
        new_frame = Frame(Regular(mu2, iota, h.sigma, h.eta), caller.contract)
        return ((new_frame,) + rest,
                Action("DELEGATECALLRET", caller.contract, (), "ret"))
    mu2 = MachineState(mu.gas - total, mu.pc + 1, mu.memory, aw, (0,) + s_rest)
    new_frame = Frame(Regular(mu2, iota, sigma, eta), caller.contract)
    return ((new_frame,) + rest,
            Action("DELEGATECALLRET", caller.contract, (), "exc_ret"))


def _return_create(stack):
    top, caller = stack[0], stack[1]
    rest = stack[2:]
    st = caller.state
    mu, iota, sigma, eta = st.mu, st.iota, st.sigma, st.eta
    s = mu.stack
    va, io, isz = s[:3]
    s_rest = s[3:]
    aw = mem_ext(mu.active_words, io, isz)
    c_local = c_mem(mu.active_words, aw) + 32000
    # full allocation: local cost plus the all-but-one-64th budget handed over
    total = c_local + l_all_but_one_64th(mu.gas - c_local)
    if isinstance(top.state, Halt):
        h = top.state
        c_final = 200 * len(h.data)
        if h.gas < c_final:
            return ((Frame(EXC, caller.contract),) + rest,
                    Action("CREATERET", caller.contract, (), "exc"))
        actor_acct = sigma.get(iota.actor)
        rho = fresh_address(iota.actor, actor_acct.nonce if actor_acct else 0)
        created = h.sigma.get(rho)
        if created is None:
            created = Account(0, 0, {}, b"")
        sigma2 = h.sigma.put(rho, created.with_code(bytes(h.data)))
        mu2 = MachineState(mu.gas + h.gas - total - c_final, mu.pc + 1,
                           mu.memory, aw, (rho,) + s_rest)
        new_frame = Frame(Regular(mu2, iota, sigma2, h.eta), caller.contract)
        return ((new_frame,) + rest,
                Action("CREATERET", caller.contract, (), "ret"))
    mu2 = MachineState(mu.gas - total, mu.pc + 1, mu.memory, aw, (0,) + s_rest)
    new_frame = Frame(Regular(mu2, iota, sigma, eta), caller.contract)
    return ((new_frame,) + rest,
            Action("CREATERET", caller.contract, (), "exc_ret"))

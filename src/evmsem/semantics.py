"""The small-step relation over annotated call stacks.

`step` maps one configuration to its successor and emits one trace action.
A regular step is one lookup, by the code byte at pc (STOP past the end), in
`_RULES`, the one dispatch table: indexed by opcode byte, each entry carries
the mnemonic, the constant cost from `gas.SCHEDULE` and the function that
fires the rule; return processing reads the caller's rule the same way. A
plain rule (constant cost, machine stack only) is defined by its kernel, the
machine stack after it: `step` applies one kernel through `_plain`, and
block mode applies the kernels of a straight-line run of plain rules in
one call, from `_runs(code)`, the one table built per code. `iterate_steps`
is the one loop over `step`: each drive finishes the bottom frame of its
stack. `run_to_depth`, `run_frame` and `run_with_local_updates` drive, in
block mode, the frames down to one, detached from those below it, which no
step reads. A local code update, a dict from address to code, reaches only
a drive's bottom frame, the analyzed frame, not its sub-executions. All
of them are pure with respect to their inputs: all mutation happens on
freshly copied snapshots, so checkers can fork execution at any
configuration by keeping a reference to it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Callable, Iterator, NamedTuple, Optional

from . import bytecode as bc
from .gas import (SCHEDULE, c_base, c_gascap, c_mem, copy_cost, exp_cost, l_all_but_one_64th,
                  log_cost, mem_ext, sha3_cost, sstore_cost, sstore_refund)
from .keccak import keccak256
from .rlp import fresh_address
from .state import (CALL_DEPTH_LIMIT, EXC, Account, CallStack, ExecutionEnvironment, Frame,
                    GlobalState, Halt, LogEvent, MachineState, Regular, STACK_LIMIT,
                    TransactionEnvironment, account, charge, credit, is_final, memory_read,
                    memory_write, validate_stack, with_top_state)
from .traces import Action
from .words import ADDR_MASK, U256_MAX, binop, to_address, word_from_bytes


class MalformedConfiguration(Exception):
    """No rule matches: the call stack is outside the reachable grammar."""


class BudgetExhausted(Exception):
    """The step budget ran out (distinct from in-model out-of-gas)."""


def step(tenv: TransactionEnvironment, stack: CallStack,
         override: Optional[dict] = None) -> tuple:
    """Apply exactly one small-step rule to a non-final configuration; the
    rule builds the outcome, the pair (successor stack, trace action), and
    `is_final(stack)` says if that stack ends a drive."""
    if stack is None:
        raise MalformedConfiguration("empty call stack")
    st = stack.top.state
    if st.__class__ is Regular:
        code, pc = st.iota.code, st.mu.pc
        rule = _RULES[code[pc]] if pc < len(code) else _STOP
        if len(st.mu.stack) < rule.n:
            return _exc(rule, stack)                        # stack underflow
        return rule.fire(rule, st, tenv, stack, override)
    if stack.below is None:
        raise MalformedConfiguration("final configuration cannot be stepped")
    return _process_return(stack)


# ---------------------------------------------------------------------------
# the driver


def iterate_steps(tenv: TransactionEnvironment, stack: CallStack, max_steps: int,
                  override: Optional[dict] = None, ops: bool = True) -> Iterator[tuple]:
    """Yield (index, stack_before, action, stack_after) for each step until
    the stack is final (`is_final`: its bottom frame has finished), index
    counting every step from 1; raise BudgetExhausted if max_steps steps end
    first, and ValueError, before any step, if max_steps is not positive.
    The local code update `override` reaches the steps and runs of the
    bottom frame only, not its sub-executions.

    This is the only loop over `step`. Block mode (ops=False, the checkers')
    yields no step tagged "op" and applies each run of `_runs` that
    cannot fault in one call, with no per-op records. No step of a run
    changes the depth or finishes a frame, so the drive tests `is_final`
    before the first step and after each step, never after a run, and a run
    that outlasts the budget is applied whole and the drive raises, having
    yielded what it would one op at a time. After a run, the next is looked
    for only when one starts at its end."""
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if is_final(stack):
        return
    index, look, watch = 0, not ops, override is not None
    ov = override if stack.below is None else None
    while index < max_steps:
        if look:
            st = stack.top.state
            if (st.__class__ is Regular and (run := _runs(st.iota.code).get(st.mu.pc)) is not None
                    and (ran := _run_block(tenv, stack, st, run, ov)) is not None):
                stack, index, look = ran, index + run.steps, run.chain
                continue
        after, action = step(tenv, stack, ov)
        index += 1
        if ops or action.tag != "op":
            yield index, stack, action, after
        stack, look = after, not ops
        if is_final(stack):
            return
        if watch:
            ov = override if stack.below is None else None
    raise BudgetExhausted(f"no final configuration within {max_steps} steps")


def _drain(steps, stack):
    """(last stack, trace) of a driver started at `stack`."""
    trace = []
    for _index, _before, action, stack in steps:
        trace.append(action)
    return stack, tuple(trace)


def _detach(stack: CallStack, depth: int):
    """(stack's frames down to the one at depth, on None; the cells below)."""
    cells = [stack]
    while cells[-1].depth > depth:
        cells.append(cells[-1].below)
    detached = reduce(lambda d, cell: CallStack(cell.top, d, cell.depth), reversed(cells), None)
    return detached, cells[-1].below


def run(tenv: TransactionEnvironment, stack: CallStack, max_steps: int):
    """Iterate step until a final configuration; returns (final stack, trace)."""
    validate_stack(stack)
    return _drain(iterate_steps(tenv, stack, max_steps), stack)


def run_to_depth(tenv: TransactionEnvironment, stack: CallStack, depth: int,
                 max_steps: int, override: Optional[dict] = None):
    """Run, in block mode, until the stack has depth frames with Halt/Exc on
    top (the frame at that depth finalized, its return not yet processed),
    the local code update `override` reaching that frame only."""
    if not 1 <= depth <= stack.depth:
        raise ValueError(f"depth {depth} is outside the stack's 1..{stack.depth}")
    detached, below = _detach(stack, depth)
    final, trace = _drain(iterate_steps(tenv, detached, max_steps, override, False), detached)
    return CallStack(final.top, below, depth), trace


def run_frame(tenv: TransactionEnvironment, stack: CallStack, max_steps: int):
    """Run, in block mode, the top frame until it is Halt/Exc: run_to_depth at its depth."""
    return run_to_depth(tenv, stack, stack.depth, max_steps)


def run_with_local_updates(tenv: TransactionEnvironment, stack: CallStack,
                           f: dict, max_steps: int):
    """run_frame under a local code update f, a partial map address -> code,
    which feeds EXTCODESIZE/EXTCODECOPY of the top frame only; its
    sub-executions run under the plain semantics. Returns (stack, trace)."""
    return run_to_depth(tenv, stack, stack.depth, max_steps, f)


# ---------------------------------------------------------------------------
# rule results


class _Rule(NamedTuple):
    name: str                 # mnemonic, from the bytecode opcode table
    fire: Callable            # fire(rule, state, tenv, stack, override) -> (stack, action)
    cost: int = 0             # constant cost, from SCHEDULE
    n: int = 0                # stack words read (and popped, except by DUP and SWAP)
    k: int = 0                # PUSH immediate size, DUP/SWAP index, LOG topics, MSTORE width
    size: int = 1             # length in bytes
    value: Optional[Callable] = None   # a copy's source(state, tenv, override, *words)
    kernel: Optional[Callable] = None  # a plain rule's kernel(s, state, tenv, override): the
                                       # machine stack after it, from the stack s before it
    height: int = 0           # a plain rule's change in machine-stack height


# the records a step builds are NamedTuples, whose Python-level __new__ costs
# about twice tuple.__new__; build them with _new(Record, (fields...))
_new = tuple.__new__
_FAILED = Frame(EXC, None)        # what a call-time failure pushes


@lru_cache(maxsize=256)      # about 15 bytes per code byte
def _pushes(code: bytes) -> dict:
    """The immediate word, zero-padded past the end, of every pc of code
    whose byte is a PUSH, whether or not it starts an instruction: each
    decoded once per code, for a PUSH stepped alone and for `_runs`."""
    words = {}
    for pc, byte in enumerate(code):
        if bc.PUSH1 <= byte <= bc.PUSH32:
            k = byte - bc.PUSH1 + 1
            data = code[pc + 1:pc + 1 + k]
            words[pc] = int.from_bytes(data, "big") << 8 * (k - len(data))
    return words


@lru_cache(maxsize=256)      # a run table holds about 23 bytes per code byte
def _runs(code: bytes) -> dict:
    """The runs of code's rules, by first pc; built the first time block
    mode asks, so one-op-at-a-time stepping never pays for them. A run goes
    from pc 0, a JUMPDEST or the pc after any other rule to the next of
    these, over instructions, and holds their kernels in order. Each stretch
    of PUSH and PC is kept as the tuple of its words, top first, read here
    once (a PUSH's from `_pushes`), which the run puts on the stack; a GAS
    gets a kernel that pushes the gas left at its own position: the entry
    gas less the cost before it."""
    runs, pc, pushes = {}, 0, _pushes(code)
    while pc < len(code):
        start, ops, steps, cost, height, need, growth = pc, [], 0, 0, 0, 0, 0
        while (pc < len(code) and (r := _RULES[code[pc]]).fire is _plain
               and (pc == start or r.name != "JUMPDEST")):
            need = max(need, r.n - height)
            if r.name == "PC" or r.size > 1:      # a word, on top of the stretch's words
                word = pc if r.name == "PC" else pushes[pc]
                if ops and ops[-1].__class__ is tuple:
                    ops[-1] = (word,) + ops[-1]
                else:
                    ops.append((word,))
            else:
                ops.append(_gas(cost) if r.name == "GAS" else r.kernel)
            height += r.height
            steps, growth, cost = steps + 1, max(growth, height), cost + r.cost
            pc += r.size
        if ops:
            chain = pc < len(code) and code[pc] == bc.JUMPDEST
            runs[start] = _Run(tuple(ops), steps, cost, need, growth, pc, chain)
        else:
            pc += 1
    return runs


def _gas(spent: int) -> Callable:
    """GAS's kernel where `spent` gas has gone since the state's own gas."""
    return lambda s, st, tenv, ov: (st.mu.gas - spent,) + s


class _Run(NamedTuple):
    """Straight-line plain rules, none of which faults when the frame has
    `cost` gas, `need` words and room for `growth` more."""
    ops: tuple                # the rules' kernels in order, each stretch of PUSH and
                              # PC fused into the tuple of its words, top first
    steps: int                # rules applied
    cost: int                 # summed constant gas
    need: int                 # machine-stack words the run reads
    growth: int               # largest growth of the machine stack after an op
    end: int                  # pc after the run
    chain: bool               # another run starts at end (a JUMPDEST)


def _run_block(tenv, stack: CallStack, st: Regular, run: _Run, override):
    """The stack after `run`, at the pc of `st`, the top frame's state,
    applied in one call; None when it might fault."""
    mu = st.mu
    s = mu.stack
    if mu.gas < run.cost or len(s) < run.need or len(s) + run.growth >= STACK_LIMIT:
        return None
    for op in run.ops:
        s = op + s if op.__class__ is tuple else op(s, st, tenv, override)
    mu2 = _new(MachineState, (mu.gas - run.cost, run.end, mu.memory, mu.active_words, s))
    top = _new(Frame, (_new(Regular, (mu2, st.iota, st.sigma, st.eta)), stack.top.contract))
    return _new(CallStack, (top, stack.below, stack.depth))


def _valid(gas: int, cost: int, new_stack_size: int) -> bool:
    return gas >= cost and new_stack_size < STACK_LIMIT


def _exc(r: _Rule, stack, args=()) -> tuple:
    """The top frame ends in an exception."""
    action = _new(Action, (r.name, stack.top.contract, args, "exc"))
    return with_top_state(stack, EXC), action


def _next(r: _Rule, stack, mu: tuple, args=(), sigma=None, eta=None) -> tuple:
    """The top frame goes on with machine state fields mu (and sigma/eta if given)."""
    st, c = stack.top
    state = _new(Regular, (_new(MachineState, mu), st.iota, st.sigma if sigma is None else sigma,
                           st.eta if eta is None else eta))
    top = _new(Frame, (state, c))
    return _new(CallStack, (top, stack.below, stack.depth)), _new(Action, (r.name, c, args, "op"))


def _halt(r: _Rule, stack, sigma, gas: int, data: bytes, eta, args=()) -> tuple:
    """The top frame halts."""
    action = _new(Action, (r.name, stack.top.contract, args, "halt"))
    return with_top_state(stack, _new(Halt, (sigma, gas, data, eta))), action


def _enter(r: _Rule, stack, callee: Frame, args, tag="enter") -> tuple:
    """Push the callee, or EXC for a call-time failure; args are the rule's n
    popped words, so the rule table states each call and create arity."""
    pushed = _new(CallStack, (callee, stack, stack.depth + 1))
    return pushed, _new(Action, (r.name, stack.top.contract, args, tag))


def _resume(r: _Rule, stack, state, tag) -> tuple:
    """The caller below the finished top frame goes on in `state`."""
    caller = stack.below
    action = _new(Action, (r.name + "RET", caller.top.contract, (), tag))
    return with_top_state(caller, state), action


# ---------------------------------------------------------------------------
# regular rules: fire(rule, state, tenv, stack, override) -> (stack, action),
# where state is the top frame's Regular state and its machine stack holds
# at least the rule's n words


def _invalid(r, st, tenv, stack, override):
    return _exc(r, stack)


def _stop(r, st, tenv, stack, override):
    return _halt(r, stack, st.sigma, st.mu.gas, b"", st.eta)


def _plain(r, st, tenv, stack, override):
    """Constant cost; the kernel gives the machine stack after the rule. The
    trace args are the n words it pops; a rule with a k (PUSH, DUP, SWAP)
    pops none."""
    mu = st.mu
    s = mu.stack
    if mu.gas < r.cost or len(s) + r.height >= STACK_LIMIT:
        return _exc(r, stack)
    return _next(r, stack, (mu.gas - r.cost, mu.pc + r.size, mu.memory, mu.active_words,
                            r.kernel(s, st, tenv, override)), () if r.k else s[:r.n])


def _exp(r, st, tenv, stack, override):
    mu = st.mu
    s = mu.stack
    a, b = s[0], s[1]
    cost = exp_cost(b)
    if not _valid(mu.gas, cost, len(s) - 1):
        return _exc(r, stack)
    return _next(r, stack, (mu.gas - cost, mu.pc + 1, mu.memory, mu.active_words,
                            (pow(a, b, 2**256),) + s[2:]), (a, b))


def _sha3(r, st, tenv, stack, override):
    mu = st.mu
    s = mu.stack
    pos, size = s[0], s[1]
    aw = mem_ext(mu.active_words, pos, size)
    cost = c_mem(mu.active_words, aw) + sha3_cost(size)
    if not _valid(mu.gas, cost, len(s) - 1):
        return _exc(r, stack)
    digest = keccak256(memory_read(mu.memory, pos, size))
    return _next(r, stack, (mu.gas - cost, mu.pc + 1, mu.memory, aw, (digest,) + s[2:]),
                 (pos, size))


def _copy(r, st, tenv, stack, override):
    """CALLDATACOPY, CODECOPY, EXTCODECOPY: the last three of the r.n popped
    words are (memory offset, source offset, size); r.value gives the source
    from the words before them (EXTCODECOPY's address)."""
    mu = st.mu
    s = mu.stack
    n = r.n
    args = s[:n]
    pos_m, pos_src, size = args[n - 3:]
    aw = mem_ext(mu.active_words, pos_m, size)
    cost = c_mem(mu.active_words, aw) + copy_cost(r.cost, size)
    if not _valid(mu.gas, cost, len(s) - n):
        return _exc(r, stack)
    src = r.value(st, tenv, override, *args[:n - 3])
    data = memory_read(src, pos_src, size)
    return _next(r, stack, (mu.gas - cost, mu.pc + 1, memory_write(mu.memory, pos_m, data),
                            aw, s[n:]), args)


def _mload(r, st, tenv, stack, override):
    mu = st.mu
    s = mu.stack
    a = s[0]
    aw = mem_ext(mu.active_words, a, 32)
    cost = c_mem(mu.active_words, aw) + r.cost
    if not _valid(mu.gas, cost, len(s)):
        return _exc(r, stack)
    value = word_from_bytes(memory_read(mu.memory, a, 32))
    return _next(r, stack, (mu.gas - cost, mu.pc + 1, mu.memory, aw, (value,) + s[1:]), (a,))


def _mstore(r, st, tenv, stack, override):
    """MSTORE and MSTORE8: write the low r.k bytes of the value."""
    mu = st.mu
    s = mu.stack
    a, b = s[0], s[1]
    aw = mem_ext(mu.active_words, a, r.k)
    cost = c_mem(mu.active_words, aw) + r.cost
    if not _valid(mu.gas, cost, len(s) - 2):
        return _exc(r, stack)
    data = b.to_bytes(32, "big")[32 - r.k:]
    return _next(r, stack, (mu.gas - cost, mu.pc + 1, memory_write(mu.memory, a, data), aw,
                            s[2:]), (a, b))


def _sstore(r, st, tenv, stack, override):
    mu = st.mu
    s = mu.stack
    a, b = s[0], s[1]
    acct = account(st.sigma, st.iota.actor)
    current = acct.storage_get(a)
    cost = sstore_cost(current, b)
    if not _valid(mu.gas, cost, len(s) - 2):
        return _exc(r, stack)
    sigma = st.sigma.put(st.iota.actor, acct.storage_set(a, b))
    eta = st.eta.add_refund(sstore_refund(current, b))
    return _next(r, stack, (mu.gas - cost, mu.pc + 1, mu.memory, mu.active_words, s[2:]),
                 (a, b), sigma, eta)


def _jump(r, st, tenv, stack, override):
    """JUMP (r.n=1) and JUMPI (r.n=2, taken unless its condition is 0); a
    destination that is not a JUMPDEST faults even when JUMPI is not taken."""
    mu = st.mu
    s = mu.stack
    n = r.n
    args = s[:n]
    i = s[0]
    if i not in bc.valid_jump_dests(st.iota.code) or not _valid(mu.gas, r.cost, len(s) - n):
        return _exc(r, stack, args)
    pc = mu.pc + 1 if n == 2 and s[1] == 0 else i
    return _next(r, stack, (mu.gas - r.cost, pc, mu.memory, mu.active_words, s[n:]), args)


def _log(r, st, tenv, stack, override):
    mu = st.mu
    s = mu.stack
    n = r.k
    pos, size = s[0], s[1]
    aw = mem_ext(mu.active_words, pos, size)
    cost = c_mem(mu.active_words, aw) + log_cost(size, n)
    if not _valid(mu.gas, cost, len(s) - n - 2):
        return _exc(r, stack)
    event = LogEvent(st.iota.actor, s[2:2 + n], memory_read(mu.memory, pos, size))
    return _next(r, stack, (mu.gas - cost, mu.pc + 1, mu.memory, aw, s[2 + n:]),
                 s[:2 + n], eta=st.eta.append_log(event))


def _return(r, st, tenv, stack, override):
    mu = st.mu
    s = mu.stack
    io, isz = s[0], s[1]
    aw = mem_ext(mu.active_words, io, isz)
    cost = c_mem(mu.active_words, aw)
    if not _valid(mu.gas, cost, len(s) - 2):
        return _exc(r, stack)
    return _halt(r, stack, st.sigma, mu.gas - cost, memory_read(mu.memory, io, isz), st.eta,
                 (io, isz))


def _selfdestruct(r, st, tenv, stack, override):
    mu, sigma, actor = st.mu, st.sigma, st.iota.actor
    a = mu.stack[0] & ADDR_MASK
    cost = r.cost if a in sigma else SCHEDULE["selfdestruct_new_account"]
    if not _valid(mu.gas, cost, len(mu.stack) - 1):
        return _exc(r, stack)
    # Yellow Paper order: credit the beneficiary, then zero the actor, so
    # a contract that names itself as beneficiary burns its balance
    sigma = credit(sigma, a, account(sigma, actor).balance)
    if actor in sigma:
        sigma = sigma.put(actor, sigma.get(actor).with_balance(0))
    refund = 0 if actor in st.eta.suicides else SCHEDULE["selfdestruct_refund"]
    eta = st.eta.register_suicide(actor).add_refund(refund)
    return _halt(r, stack, sigma, mu.gas - cost, b"", eta, mu.stack[:1])


# ---------------------------------------------------------------------------
# calling and return processing


def _call_words(args: tuple) -> tuple:
    """(g, to, va, io, is, oo, os) of the r.n words a call pops; DELEGATECALL
    pops no va and is costed as a zero-value call."""
    return args if len(args) == 7 else (*args[:2], 0, *args[2:])


def _call_costs(new_account: bool, mu, g, va, io, isz, oo, os_):
    """(active words, callee budget, total cost) of a call from machine state
    mu, which its return recomputes; a CALL to an absent account
    (new_account) also pays for creating it."""
    flag = 0 if new_account else 1
    cc = c_gascap(va, flag, g, mu.gas)
    if not (isz or os_):                # two empty ranges: memory as it is, at no cost
        return mu.active_words, cc, c_base(va, flag) + cc
    aw = mem_ext(mem_ext(mu.active_words, io, isz), oo, os_)
    return aw, cc, c_base(va, flag) + c_mem(mu.active_words, aw) + cc


def _call(r, st, tenv, stack, override):
    """CALL, CALLCODE and DELEGATECALL, which pop r.n = 7, 7 and 6 words. A
    call of no value reads no balance, and an empty input range no memory."""
    mu, iota, sigma = st.mu, st.iota, st.sigma
    args = mu.stack[:r.n]
    g, to, va, io, isz, oo, os_ = _call_words(args)
    to_a = to & ADDR_MASK
    found = sigma.get(to_a)
    aw, cc, total = _call_costs(r.name == "CALL" and found is None, mu, g, va, io, isz, oo, os_)
    if not _valid(mu.gas, total, len(mu.stack) - r.n + 1):
        return _exc(r, stack, args)
    if stack.depth >= CALL_DEPTH_LIMIT or va and va > account(sigma, iota.actor).balance:
        return _enter(r, stack, _FAILED, args, "fail")
    code = b"" if found is None else found.code
    data = memory_read(mu.memory, io, isz) if isz else b""
    if r.name == "CALL":  # move value, hand control to the callee account
        # debit first, then credit the callee as read after the debit, so a call
        # to the caller's own address keeps the value; with no value between two
        # existing accounts (as a caller that finds itself is), no put is needed
        if va or found is None or to_a != iota.actor and iota.actor not in sigma:
            sigma = credit(credit(sigma, iota.actor, -va), to_a, va)
        env = (to_a, data, iota.actor, va, code)
    elif r.name == "CALLCODE":  # run the code in the caller's context, no transfer
        env = (iota.actor, data, iota.actor, va, code)
    else:  # DELEGATECALL: the caller's context, its sender and value too
        env = (iota.actor, data, iota.sender, iota.value, code)
    return _enter(r, stack, callee_frame(cc, env, sigma, st.eta, (to_a, code)), args)


def callee_frame(gas: int, env: tuple, sigma: GlobalState, eta, contract) -> Frame:
    """The frame a transaction, a call or a create starts: pc 0, empty memory
    and stack, labelled with its contract (None for init code), and the
    ExecutionEnvironment fields env."""
    iota = _new(ExecutionEnvironment, env)
    mu = _new(MachineState, (gas, 0, b"", 0, ()))
    return _new(Frame, (_new(Regular, (mu, iota, sigma, eta)), contract))


def _create_costs(r, mu, io: int, isz: int):
    """(active words, local cost, budget handed to the init code)."""
    aw = mem_ext(mu.active_words, io, isz)
    cost = c_mem(mu.active_words, aw) + r.cost
    return aw, cost, l_all_but_one_64th(mu.gas - cost)


def _create(r, st, tenv, stack, override):
    mu, iota, sigma = st.mu, st.iota, st.sigma
    args = mu.stack[:3]
    va, io, isz = args
    aw, cost, budget = _create_costs(r, mu, io, isz)
    if not _valid(mu.gas, cost, len(mu.stack) - 2):
        return _exc(r, stack)
    actor_acct = account(sigma, iota.actor)
    if stack.depth >= CALL_DEPTH_LIMIT or va > actor_acct.balance:
        return _enter(r, stack, _FAILED, args, "fail")
    rho = fresh_address(iota.actor, actor_acct.nonce)
    sigma = charge(open_account(sigma, rho, va), iota.actor, va)
    env = (rho, b"", iota.actor, va, memory_read(mu.memory, io, isz))
    return _enter(r, stack, callee_frame(budget, env, sigma, st.eta, None), args)


def open_account(sigma: GlobalState, rho: int, value: int) -> GlobalState:
    """sigma with the account a create opens at its fresh address rho: nonce
    0, no storage, no code, and the balance rho already held plus value."""
    return sigma.put(rho, tuple.__new__(Account, (0, account(sigma, rho).balance + value, {}, b"")))


def deposit_code(halt: Halt, rho: int) -> Optional[tuple]:
    """Deposit the code a create's init code returned at rho, paid from the
    gas it left: (sigma, gas left after the fee), or None when that gas does
    not cover create_per_code_byte for each byte."""
    gas = halt.gas - SCHEDULE["create_per_code_byte"] * len(halt.data)
    if gas < 0:
        return None
    return halt.sigma.put(rho, account(halt.sigma, rho).with_code(bytes(halt.data))), gas


def _process_return(stack):
    caller = stack.below.top.state
    if caller.__class__ is not Regular:
        raise MalformedConfiguration("halting state above a non-regular frame")
    code, pc = caller.iota.code, caller.mu.pc
    r = _RULES[code[pc]] if pc < len(code) else _STOP
    if (ret := _RETURNS.get(r.fire)) is None or len(caller.mu.stack) < r.n:
        raise MalformedConfiguration(f"halting state above a frame not executing a call "
                                     f"({r.name})")
    return ret(r, stack)


def _exc_return(r, stack, total: int, aw: int):
    """The callee failed: the caller's state is untouched, the gas for the
    call is consumed, and 0 is pushed."""
    st = stack.below.top.state
    mu = st.mu
    mu2 = _new(MachineState, (mu.gas - total, mu.pc + 1, mu.memory, aw, (0,) + mu.stack[r.n:]))
    return _resume(r, stack, _new(Regular, (mu2, st.iota, st.sigma, st.eta)), "exc_ret")


def _return_call(r, stack):
    top, st = stack.top.state, stack.below.top.state
    mu = st.mu
    g, to, va, io, isz, oo, os_ = _call_words(mu.stack[:r.n])
    absent = r.name == "CALL" and st.sigma.get(to & ADDR_MASK) is None
    aw, _cc, total = _call_costs(absent, mu, g, va, io, isz, oo, os_)
    if top.__class__ is not Halt:
        return _exc_return(r, stack, total, aw)
    memory = memory_write(mu.memory, oo, top.data[:os_]) if os_ else mu.memory
    mu2 = _new(MachineState, (mu.gas + top.gas - total, mu.pc + 1, memory, aw,
                              (1,) + mu.stack[r.n:]))
    return _resume(r, stack, _new(Regular, (mu2, st.iota, top.sigma, top.eta)), "ret")


def _return_create(r, stack):
    top, st = stack.top.state, stack.below.top.state
    mu, iota = st.mu, st.iota
    aw, cost, budget = _create_costs(r, mu, mu.stack[1], mu.stack[2])
    total = cost + budget        # full allocation: local cost plus the budget handed over
    if top.__class__ is not Halt:
        return _exc_return(r, stack, total, aw)
    rho = fresh_address(iota.actor, account(st.sigma, iota.actor).nonce)
    deposit = deposit_code(top, rho)
    if deposit is None:
        return _resume(r, stack, EXC, "exc")
    sigma, gas = deposit
    mu2 = _new(MachineState, (mu.gas + gas - total, mu.pc + 1, mu.memory, aw,
                              (rho,) + mu.stack[r.n:]))
    return _resume(r, stack, _new(Regular, (mu2, iota, sigma, top.eta)), "ret")


_RETURNS = {_call: _return_call, _create: _return_create}


# ---------------------------------------------------------------------------
# the rule table


def _account_code(st: Regular, word: int, override) -> bytes:
    """Code at the address in `word`; a local code update takes precedence."""
    addr = to_address(word)
    code = override.get(addr) if override is not None else None
    return code if code is not None else account(st.sigma, addr).code


def _calldataload(s, st, tenv, ov):
    return (word_from_bytes(memory_read(st.iota.input, s[0], 32)),) + s[1:]


def _push(s, st, tenv, ov):
    return (_pushes(st.iota.code)[st.mu.pc],) + s


def _blockhash(tenv, n: int) -> int:
    """Walk parent headers for the hash of block n; 0 past 256 hops, past an
    unknown ancestor, or when n lies beyond the visited header."""
    h = tenv.header.parent
    for _ in range(256):
        header = tenv.ancestors.get(h) if h != 0 else None
        if header is None or n > header.number:
            return 0
        if n == header.number:
            return h
        h = header.parent
    return 0


def _rule_table() -> tuple:
    """The 256 rules, indexed by opcode byte."""
    spec = {  # mnemonic -> (rule, SCHEDULE key or None, n, copy source, k)
        "STOP": (_stop, None, 0, None),
        "EXP": (_exp, None, 2, None),
        "SHA3": (_sha3, None, 2, None),
        "CALLDATACOPY": (_copy, "copy_base", 3, lambda st, tenv, ov: st.iota.input),
        "CODECOPY": (_copy, "copy_base", 3, lambda st, tenv, ov: st.iota.code),
        "EXTCODECOPY": (_copy, "extcode", 4, lambda st, tenv, ov, a: _account_code(st, a, ov)),
        "MLOAD": (_mload, "verylow", 1, None),
        "MSTORE": (_mstore, "verylow", 2, None, 32),
        "MSTORE8": (_mstore, "verylow", 2, None, 1),
        "SSTORE": (_sstore, None, 2, None),
        "JUMP": (_jump, "jump", 1, None),
        "JUMPI": (_jump, "jumpi", 2, None),
        "RETURN": (_return, None, 2, None),
        "SELFDESTRUCT": (_selfdestruct, "selfdestruct", 1, None),
        "CREATE": (_create, "create", 3, None),
        "CALL": (_call, None, 7, None),
        "CALLCODE": (_call, None, 7, None),
        "DELEGATECALL": (_call, None, 6, None),
    }
    plain = {  # mnemonic -> (SCHEDULE key, n, height, kernel(s, state, tenv, override), k, size)
        "ADDRESS": ("base_access", 0, 1, lambda s, st, tenv, ov: (st.iota.actor,) + s),
        "CALLER": ("base_access", 0, 1, lambda s, st, tenv, ov: (st.iota.sender,) + s),
        "CALLVALUE": ("base_access", 0, 1, lambda s, st, tenv, ov: (st.iota.value,) + s),
        "CODESIZE": ("base_access", 0, 1, lambda s, st, tenv, ov: (len(st.iota.code),) + s),
        "CALLDATASIZE": ("base_access", 0, 1, lambda s, st, tenv, ov: (len(st.iota.input),) + s),
        "ORIGIN": ("base_access", 0, 1, lambda s, st, tenv, ov: (tenv.origin,) + s),
        "GASPRICE": ("base_access", 0, 1, lambda s, st, tenv, ov: (tenv.gas_price,) + s),
        "COINBASE": ("base_access", 0, 1, lambda s, st, tenv, ov: (tenv.header.beneficiary,) + s),
        "TIMESTAMP": ("base_access", 0, 1, lambda s, st, tenv, ov: (tenv.header.timestamp,) + s),
        "NUMBER": ("base_access", 0, 1, lambda s, st, tenv, ov: (tenv.header.number,) + s),
        "DIFFICULTY": ("base_access", 0, 1, lambda s, st, tenv, ov: (tenv.header.difficulty,) + s),
        "GASLIMIT": ("base_access", 0, 1, lambda s, st, tenv, ov: (tenv.header.gaslimit,) + s),
        "PC": ("base_access", 0, 1, lambda s, st, tenv, ov: (st.mu.pc,) + s),
        "MSIZE": ("base_access", 0, 1, lambda s, st, tenv, ov: (32 * st.mu.active_words,) + s),
        "GAS": ("base_access", 0, 1, _gas(0)),
        "ISZERO": ("unop", 1, 0, lambda s, st, tenv, ov: (1 if s[0] == 0 else 0,) + s[1:]),
        "NOT": ("unop", 1, 0, lambda s, st, tenv, ov: (s[0] ^ U256_MAX,) + s[1:]),
        "ADDMOD": ("ternary", 3, -2, lambda s, st, tenv, ov:
                   ((s[0] + s[1]) % s[2] if s[2] else 0,) + s[3:]),
        "MULMOD": ("ternary", 3, -2, lambda s, st, tenv, ov:
                   ((s[0] * s[1]) % s[2] if s[2] else 0,) + s[3:]),
        "CALLDATALOAD": ("verylow", 1, 0, _calldataload),
        "BALANCE": ("balance", 1, 0, lambda s, st, tenv, ov:
                    (account(st.sigma, to_address(s[0])).balance,) + s[1:]),
        "EXTCODESIZE": ("extcode", 1, 0, lambda s, st, tenv, ov:
                        (len(_account_code(st, s[0], ov)),) + s[1:]),
        "BLOCKHASH": ("blockhash", 1, 0, lambda s, st, tenv, ov:
                      (_blockhash(tenv, s[0]),) + s[1:]),
        "SLOAD": ("sload", 1, 0, lambda s, st, tenv, ov:
                  (account(st.sigma, st.iota.actor).storage_get(s[0]),) + s[1:]),
        "POP": ("base_access", 1, -1, lambda s, st, tenv, ov: s[1:]),
        "JUMPDEST": ("jumpdest", 0, 0, lambda s, st, tenv, ov: s),
    }
    for key, names in (("binop_cheap", "ADD SUB LT GT SLT SGT EQ AND OR XOR BYTE"),
                       ("binop_expensive", "MUL DIV SDIV MOD SMOD SIGNEXTEND")):
        for name in names.split():
            plain[name] = (key, 2, -1, lambda s, st, tenv, ov, name=name:
                           (binop(name, s[0], s[1]),) + s[2:])
    for k in range(1, 33):      # a PUSH stepped alone, in PUSH data too, reads its word
        plain[f"PUSH{k}"] = ("verylow", 0, 1, _push, k, k + 1)
    for k in range(1, 17):
        plain[f"DUP{k}"] = ("verylow", k, 1, lambda s, st, tenv, ov, i=k - 1: (s[i],) + s, k)
        plain[f"SWAP{k}"] = ("verylow", k + 1, 0, lambda s, st, tenv, ov, k=k:
                             (s[k],) + s[1:k] + (s[0],) + s[k + 1:], k)
    for k in range(5):
        spec[f"LOG{k}"] = (_log, None, k + 2, None, k)
    rules = [_Rule("INVALID", _invalid)] * 256     # INVALID and every byte outside the table
    for name, (fire, key, n, value, *k) in spec.items():
        cost = SCHEDULE[key] if key else 0
        rules[bc.MNEMONIC_TO_BYTE[name]] = _Rule(name, fire, cost, n, *k, value=value)
    for name, (key, n, height, kernel, *k) in plain.items():
        rules[bc.MNEMONIC_TO_BYTE[name]] = _Rule(name, _plain, SCHEDULE[key], n, *k,
                                                 kernel=kernel, height=height)
    return tuple(rules)


_RULES = _rule_table()
_STOP = _RULES[bc.STOP]

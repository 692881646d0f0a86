"""Randomized-program machinery shared by the property suite and the
acceptance run: a weighted program generator plus monitored executions
checking determinism, per-frame gas decrease, rollback bit-equality,
machine-stack bounds, memory held within the active words, that no step
changes the total wei (except a SELFDESTRUCT to the actor itself, which
burns it), that every address a CREATE enters was absent before, and
call-stack indifference."""

import random
from functools import cache

from evmsem.bytecode import MNEMONIC_TO_BYTE, assemble
from evmsem.semantics import BudgetExhausted, is_final, step
from evmsem.state import (EXC, Account, ExecutionEnvironment, Frame, GlobalState,
                          Halt, MachineState, Regular, EMPTY_EFFECTS)
from evmsem.words import ADDR_MASK
from helpers import ORIGIN, SELF, OTHER, make_env, stack_diff, stack_of

STEP_BUDGET = 10_000

# (mnemonic, pops, pushes) for the generator's arity tracking
_OP_ARITY = [
    ("ADD", 2, 1), ("SUB", 2, 1), ("MUL", 2, 1), ("DIV", 2, 1), ("SDIV", 2, 1),
    ("MOD", 2, 1), ("SMOD", 2, 1), ("LT", 2, 1), ("GT", 2, 1), ("SLT", 2, 1),
    ("SGT", 2, 1), ("EQ", 2, 1), ("AND", 2, 1), ("OR", 2, 1), ("XOR", 2, 1),
    ("BYTE", 2, 1), ("SIGNEXTEND", 2, 1), ("ISZERO", 1, 1), ("NOT", 1, 1),
    ("ADDMOD", 3, 1), ("MULMOD", 3, 1), ("EXP", 2, 1), ("SHA3", 2, 1),
    ("ADDRESS", 0, 1), ("BALANCE", 1, 1), ("ORIGIN", 0, 1), ("CALLER", 0, 1),
    ("CALLVALUE", 0, 1), ("CALLDATALOAD", 1, 1), ("CALLDATASIZE", 0, 1),
    ("CALLDATACOPY", 3, 0), ("CODESIZE", 0, 1), ("CODECOPY", 3, 0),
    ("GASPRICE", 0, 1), ("EXTCODESIZE", 1, 1), ("EXTCODECOPY", 4, 0),
    ("BLOCKHASH", 1, 1), ("COINBASE", 0, 1), ("TIMESTAMP", 0, 1),
    ("NUMBER", 0, 1), ("DIFFICULTY", 0, 1), ("GASLIMIT", 0, 1),
    ("POP", 1, 0), ("MLOAD", 1, 1), ("MSTORE", 2, 0), ("MSTORE8", 2, 0),
    ("SLOAD", 1, 1), ("SSTORE", 2, 0), ("JUMP", 1, 0), ("JUMPI", 2, 0),
    ("PC", 0, 1), ("MSIZE", 0, 1), ("GAS", 0, 1), ("JUMPDEST", 0, 0),
    ("DUP1", 1, 2), ("DUP2", 2, 3), ("DUP3", 3, 4), ("SWAP1", 2, 2),
    ("SWAP2", 3, 3), ("LOG0", 2, 0), ("LOG1", 3, 0),
    ("CREATE", 3, 1), ("CALL", 7, 1), ("CALLCODE", 7, 1),
    ("DELEGATECALL", 6, 1), ("RETURN", 2, 0), ("SELFDESTRUCT", 1, 0),
    ("INVALID", 0, 0), ("STOP", 0, 0),
]


def random_program(rng: random.Random, origin: int = 0) -> bytes:
    """A weighted instruction mix that tracks an estimated stack depth so
    most instructions find their operands, with forward branches that are
    taken or not, and a small arity-violating and raw-byte tail for
    exception coverage. `origin` is the offset the program will be loaded
    at, which the branch destinations count from."""
    out = bytearray()
    depth = 0
    length = rng.randrange(8, 48)
    for _ in range(length):
        if rng.random() < 0.08:
            # PUSH1 cond, PUSH2 dest, JUMPI, PUSH1 x, POP, JUMPDEST: the jump
            # to the JUMPDEST skips the PUSH1/POP pair unless cond is 0
            dest = origin + len(out) + 9
            out += assemble(f"PUSH1 {hex(rng.randrange(4))}\nPUSH2 {hex(dest)}\nJUMPI\n"
                            f"PUSH1 {hex(rng.randrange(256))}\nPOP\nJUMPDEST")
            continue
        roll = rng.random()
        if roll < 0.33 or (depth == 0 and roll < 0.85):
            width = rng.choice((1, 1, 1, 1, 2, 2, 32))
            out.append(MNEMONIC_TO_BYTE[f"PUSH{width}"])
            if rng.random() < 0.6:
                payload = rng.randrange(64).to_bytes(width, "big")
            else:
                payload = rng.randrange(1 << (8 * width)).to_bytes(width, "big")
            out += payload
            depth += 1
        elif roll < 0.95:
            fitting = [(m, p, q) for m, p, q in _OP_ARITY if p <= depth]
            name, pops, pushes = rng.choice(fitting)
            out.append(MNEMONIC_TO_BYTE[name])
            depth += pushes - pops
        elif roll < 0.985:
            name, pops, pushes = rng.choice(_OP_ARITY)   # arity not checked
            out.append(MNEMONIC_TO_BYTE[name])
            depth = max(depth + pushes - pops, 0)
        else:
            out.append(rng.randrange(256))  # raw byte, possibly undefined
    if rng.random() < 0.3:
        out += assemble("ADDRESS\nSELFDESTRUCT")   # the actor as its own beneficiary
    return bytes(out)


def make_program_frame(code: bytes, gas: int, tag=b""):
    sigma = GlobalState({
        SELF: Account(1, 1_000, {0: 5}, code),
        OTHER: Account(0, 40, {}, assemble("PUSH1 0x01\nPUSH1 0x00\nSSTORE\nSTOP")),
    })
    iota = ExecutionEnvironment(actor=SELF, input=b"\x01\x02" + tag,
                                sender=ORIGIN, value=3, code=code)
    mu = MachineState(gas=gas, pc=0, memory=b"", active_words=0, stack=())
    return Frame(Regular(mu, iota, sigma, EMPTY_EFFECTS), (SELF, code))


def canonical_sigma(sigma: GlobalState):
    return tuple(sorted(
        (addr, a.nonce, a.balance, tuple(sorted(a.storage.items())), bytes(a.code))
        for addr, a in sigma.items()))


def canonical_eta(eta):
    return (eta.refund, eta.logs, tuple(sorted(eta.suicides)))


class PropertyViolation(AssertionError):
    pass


def _burns(state, action) -> bool:
    """A SELFDESTRUCT naming the actor as beneficiary, which destroys its
    balance: the one step allowed to change the total wei."""
    return (action.op == "SELFDESTRUCT" and isinstance(state, Regular)
            and action.args[0] & ADDR_MASK == state.iota.actor)


def monitored_run(tenv, stack, budget=STEP_BUDGET):
    """Run to a final configuration while checking the safety properties;
    returns (final stack, trace) or raises PropertyViolation/BudgetExhausted."""
    trace = []
    call_snapshots = []   # per open frame: (sigma, eta) canonical at call time
    last_gas = [stack.top.state.mu.gas if isinstance(stack.top.state, Regular) else None]

    for _ in range(budget):
        if is_final(stack):
            return stack, tuple(trace)
        before = stack
        out = step(tenv, before)
        trace.append(out.action)
        after = out.stack

        top = after.top.state
        if isinstance(top, Regular):
            if len(top.mu.stack) > 1024:
                raise PropertyViolation(f"machine stack grew to {len(top.mu.stack)}")
            if len(top.mu.memory) > 32 * top.mu.active_words:
                raise PropertyViolation(
                    f"{out.action.op} left {len(top.mu.memory)} bytes of memory in"
                    f" {top.mu.active_words} active words")
        if (top is not EXC and before.top.state is not EXC
                and top.sigma.total_balance() != before.top.state.sigma.total_balance()
                and not _burns(before.top.state, out.action)):
            raise PropertyViolation(f"{out.action.op} changed the total wei")

        if after.depth == before.depth:
            prev, cur = before.top.state, after.top.state
            if isinstance(prev, Regular) and isinstance(cur, Regular):
                if cur.mu.gas >= prev.mu.gas:
                    raise PropertyViolation(
                        f"gas did not strictly decrease: {prev.mu.gas} -> {cur.mu.gas}"
                        f" after {out.action.op}")
                last_gas[-1] = cur.mu.gas
            elif isinstance(prev, Regular) and isinstance(cur, Halt):
                if cur.gas > prev.mu.gas:
                    raise PropertyViolation("halting increased gas")
        elif after.depth > before.depth:
            caller = before.top.state
            if (out.action.op == "CREATE" and isinstance(top, Regular)
                    and top.iota.actor in caller.sigma):
                raise PropertyViolation(f"CREATE entered the existing account"
                                        f" {hex(top.iota.actor)}")
            call_snapshots.append((canonical_sigma(caller.sigma),
                                   canonical_eta(caller.eta)))
            if isinstance(top, Regular):
                last_gas.append(top.mu.gas)
            else:
                last_gas.append(None)   # transient EXC pushed at call time
        else:
            finished = before.top.state
            sig_snap, eta_snap = call_snapshots.pop()
            last_gas.pop()
            resumed = top
            if finished is EXC:
                if canonical_sigma(resumed.sigma) != sig_snap:
                    raise PropertyViolation("exception rollback changed sigma")
                if canonical_eta(resumed.eta) != eta_snap:
                    raise PropertyViolation("exception rollback changed eta")
            if last_gas[-1] is not None and resumed.mu.gas >= last_gas[-1]:
                raise PropertyViolation(
                    f"caller gas did not decrease across the call:"
                    f" {last_gas[-1]} -> {resumed.mu.gas}")
            last_gas[-1] = resumed.mu.gas

        stack = after
    if is_final(stack):
        return stack, tuple(trace)
    raise BudgetExhausted("program did not terminate in budget")


def _call_prefix(rng: random.Random) -> bytes:
    """A plausible call so nested frames, returns and rollbacks get exercised;
    recursing into the program's own account is the interesting case."""
    target = rng.choice((SELF, SELF, OTHER, 0xD00D))
    va = rng.choice((0, 0, 1, 3, 5000))   # 5000 exceeds the account balance
    g = rng.randrange(0, 20_000)
    op = rng.choice(("CALL", "CALL", "CALLCODE", "DELEGATECALL", "CREATE"))
    if op == "CREATE":
        lines = [f"PUSH1 {hex(rng.randrange(4))}", "PUSH1 0x00",
                 f"PUSH2 {hex(va)}", "CREATE"]
    else:
        lines = ["PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00", "PUSH1 0x00"]
        if op != "DELEGATECALL":
            lines.append(f"PUSH2 {hex(va)}")
        lines += [f"PUSH2 {hex(target)}", f"PUSH2 {hex(g)}", op]
    return assemble("\n".join(lines))


def _create_pair(rng: random.Random) -> bytes:
    """Two CREATEs from one frame, 32,000 gas each. The init code either
    halts at once or makes two CREATEs of its own from the new account,
    whose nonce is 0, with init code that halts at once."""
    init = rng.choice((b"", assemble("STOP"),
                       assemble("PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nCREATE\n" * 2 + "STOP")))
    create = f"PUSH1 {hex(len(init))}\nPUSH1 0x00\nPUSH1 {hex(rng.randrange(2))}\nCREATE\n"
    return assemble(f"PUSH32 0x{init.ljust(32, bytes(1)).hex()}\nPUSH1 0x00\nMSTORE\n"
                    + create * 2)


@cache
def program_frame(seed: int):
    """The criterion-5 program of one seed, as a frame ready to run. Three
    tests drive all 10,000 programs, so each frame is built once per session
    and shared: a frame is an immutable snapshot."""
    rng = random.Random(seed)
    roll = rng.random()
    if roll < 0.35:
        prefix, gas = _call_prefix(rng), (1_000, 30_000)
    elif roll < 0.38:
        prefix, gas = _create_pair(rng), (60_000, 250_000)
    else:
        prefix, gas = b"", (30, 3_000)
    code = prefix + random_program(rng, origin=len(prefix))
    return make_program_frame(code, rng.randrange(*gas))


def check_program(seed: int) -> dict:
    """All criterion-5 properties for one random program; returns counters."""
    tenv = make_env()
    stats = {"steps": 0, "exhausted": 0}

    frame = program_frame(seed)
    try:
        final1, trace1 = monitored_run(tenv, stack_of(frame))
    except BudgetExhausted:
        stats["exhausted"] = 1
        return stats
    stats["steps"] = len(trace1)

    # determinism: bit-identical replay
    final2, trace2 = monitored_run(tenv, stack_of(frame))
    if final1 != final2 or trace1 != trace2:
        raise PropertyViolation(f"nondeterministic replay for seed {seed}")

    # call-stack indifference up to size: same frame on two different
    # equal-length base stacks yields identical traces and stack diffs
    base_a = make_program_frame(assemble("STOP"), 50, tag=b"A")
    base_b = make_program_frame(assemble("JUMPDEST\nSTOP"), 999, tag=b"B")
    fa, ta = run_frame_monitorless(tenv, stack_of(frame, base_a))
    fb, tb = run_frame_monitorless(tenv, stack_of(frame, base_b))
    if ta != tb:
        raise PropertyViolation(f"base stack changed the trace for seed {seed}")
    if stack_diff(fa, stack_of(base_a)) != stack_diff(fb, stack_of(base_b)):
        raise PropertyViolation(f"base stack changed the stack diff for seed {seed}")
    return stats


def run_frame_monitorless(tenv, stack, budget=STEP_BUDGET):
    depth = stack.depth
    trace = []
    for _ in range(budget):
        if stack.depth == depth and not isinstance(stack.top.state, Regular):
            return stack, tuple(trace)
        out = step(tenv, stack)
        trace.append(out.action)
        stack = out.stack
    raise BudgetExhausted("frame did not finalize")

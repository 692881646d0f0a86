"""Per-layer tracing from outside evmsem.

Each public function is wrapped where its callers look it up: every evmsem
module attribute bound to the original function is replaced by the wrapper
(the checkers and semantics modules import names directly), and methods are
replaced on their class. `restore` puts every original back.

Time keys hold seconds, and each figure is reported as a total in ms or a
mean per call in µs. Times measured under tracing include the cost of the
wrappers nested inside them; `trace.overhead_ratio` states how large that is.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

PROPERTIES = ("single-entrancy", "call-restriction", "fuelled-calls", "stack-limit",
              "atomicity", "env-independence", "account-state-independence",
              "code-independence", "effect-independence", "call-integrity")
FAMILIES = ("arith", "stack", "env", "memory", "storage", "sha3", "jump", "log",
            "call", "return", "halt")
DRIVERS = ("run", "iterate_steps", "run_to_depth", "run_frame", "run_with_local_updates")

_END = object()


def _families() -> list:
    """Opcode byte -> step family. "return" is reserved for return
    processing (a Halt or exception state on top of a caller)."""
    fam = ["halt"] * 256                                   # STOP RETURN SELFDESTRUCT INVALID
    for ops, name in (
        ((*range(0x01, 0x0C), *range(0x10, 0x1B)), "arith"),
        ((0x50, *range(0x60, 0xA0)), "stack"),
        ((*range(0x30, 0x37), 0x38, 0x3A, 0x3B, *range(0x40, 0x46), 0x58, 0x59, 0x5A), "env"),
        ((0x37, 0x39, 0x3C, 0x51, 0x52, 0x53), "memory"),
        ((0x54, 0x55), "storage"),
        ((0x20,), "sha3"),
        ((0x56, 0x57, 0x5B), "jump"),
        (range(0xA0, 0xA5), "log"),
        ((0xF0, 0xF1, 0xF2, 0xF4), "call"),
    ):
        for op in ops:
            fam[op] = name
    return fam


FAMILY = _families()


class Tracer:
    def __init__(self, ev):
        self.ev = ev
        self.calls = Counter()
        self.secs = Counter()
        self.size = Counter()
        self.missing = []            # patch points not found in this evmsem
        self._saved = []             # (owner, attribute, original)
        self._depth = 0              # nesting of run-loop calls
        self._prop = None            # checker property being computed, if any
        self._jump_cache = None

    # -- patching ------------------------------------------------------------

    def _replace(self, name: str, original, wrapper) -> None:
        hits = 0
        for mod in self.ev.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            self.missing.append(name)

    def _function(self, module, attr):
        fn = getattr(getattr(self.ev, module), attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
        return fn

    def _wrap(self, module: str, attr: str, key: str, size=None, out_size=None) -> None:
        fn = self._function(module, attr)
        if fn is None:
            return
        calls, secs, sizes = self.calls, self.secs, self.size

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            secs[key] += perf_counter() - t0
            calls[key] += 1
            if size is not None:
                sizes[key] += size(args)
            if out_size is not None:
                sizes[key + ".out"] += out_size(result)
            return result

        self._replace(f"{module}.{attr}", fn, wrapper)

    def _wrap_method(self, cls, attr: str, key: str) -> None:
        fn = getattr(cls, attr, None)
        if fn is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        calls, secs = self.calls, self.secs

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            secs[key] += perf_counter() - t0
            calls[key] += 1
            return result

        self._saved.append((cls, attr, fn))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        ev = self.ev
        self._wrap_step()
        for name in DRIVERS:
            self._wrap_driver(name)
        self._wrap("state", "memory_write", "memory_write", size=lambda a: len(a[2]))
        self._wrap("state", "memory_read", "memory_read", size=lambda a: a[2])
        self._wrap_method(ev.state.GlobalState, "put", "GlobalState.put")
        self._wrap_method(ev.state.Account, "storage_set", "Account.storage_set")
        self._wrap("words", "binop", "binop")
        self._wrap("keccak", "keccak256", "keccak256", size=lambda a: len(a[0]))
        self._wrap("rlp", "fresh_address", "fresh_address")
        for attr, fn in list(vars(ev.gas).items()):
            if (callable(fn) and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == ev.gas.__name__):
                self._wrap("gas", attr, "gas")
        self._wrap("traces", "project", "project", size=lambda a: len(a[0]), out_size=len)
        self._wrap("traces", "first_divergence", "first_divergence")
        self._wrap("transaction", "t_init", "t_init")
        self._wrap("transaction", "t_final", "t_final")
        self._wrap("fixtures", "parse_fixture", "parse_fixture")
        jump = getattr(ev.bytecode, "valid_jump_dests", None)
        if jump is not None and hasattr(jump, "cache_info"):
            self._jump_cache = (jump, jump.cache_info())
        else:
            self.missing.append("bytecode.valid_jump_dests.cache_info")

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self._jump_cache is not None:
            jump, before = self._jump_cache
            after = jump.cache_info()
            self.calls["jump_hits"] = after.hits - before.hits
            self.calls["jump_misses"] = after.misses - before.misses
            self._jump_cache = None

    def _wrap_step(self) -> None:
        step = self._function("semantics", "step")
        if step is None:
            return
        regular = self.ev.state.Regular
        calls, secs = self.calls, self.secs
        tracer = self

        def traced_step(tenv, stack, override=None):
            st = stack[0].state
            if type(st) is regular:
                code, mu = st.iota.code, st.mu
                fam = FAMILY[code[mu.pc]] if mu.pc < len(code) else "halt"
                mem = 32 * mu.active_words
            else:
                fam, mem = "return", 0
            t0 = perf_counter()
            out = step(tenv, stack, override)
            dt = perf_counter() - t0
            secs["step"] += dt
            calls["step"] += 1
            secs[fam] += dt
            calls[fam] += 1
            if fam == "memory":
                band = "mem_le2k" if mem <= 2048 else "mem_gt16k" if mem > 16384 else None
                if band:
                    secs[band] += dt
                    calls[band] += 1
            depth = len(stack)
            band = "depth_lt16" if depth < 16 else "depth_ge256" if depth >= 256 else None
            if band:
                secs[band] += dt
                calls[band] += 1
            if tracer._prop is not None:
                calls["checker_steps"] += 1
            return out

        self._replace("semantics.step", step, traced_step)

    def _wrap_driver(self, name: str) -> None:
        """Run loops: their self time (excluding step) goes to "drive", and
        each outermost call made inside a checker counts as one fork."""
        fn = self._function("semantics", name)
        if fn is None:
            return
        secs, tracer = self.secs, self

        def enter(fork=True):
            if fork and tracer._depth == 0 and tracer._prop is not None:
                tracer.calls["forks"] += 1
            tracer._depth += 1
            return perf_counter(), secs["step"]

        def leave(t0, step0):
            tracer._depth -= 1
            if tracer._depth == 0:
                secs["drive"] += perf_counter() - t0 - (secs["step"] - step0)

        if name == "iterate_steps":
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                fork = True                    # only the first resume is a new fork
                while True:
                    t0, step0 = enter(fork)
                    fork = False
                    try:
                        item = next(it, _END)
                    finally:
                        leave(t0, step0)
                    if item is _END:
                        return
                    yield item
        else:
            def wrapper(*args, **kwargs):
                t0, step0 = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(t0, step0)

        self._replace(f"semantics.{name}", fn, wrapper)

    @contextmanager
    def checker(self, prop: str):
        """Attribute the work done inside to one verdict of `prop`."""
        self._prop = prop
        t0 = perf_counter()
        try:
            yield
        finally:
            self.secs["prop:" + prop] += perf_counter() - t0
            self.calls["verdicts"] += 1
            self._prop = None

    # -- report ----------------------------------------------------------------

    def metrics(self, incomplete: int, passes: int) -> dict:
        """Per-layer figures; counts, bytes and ms totals are per pass over
        the workload's ops, so they do not depend on how many passes ran."""
        c, s, b = self.calls, self.secs, self.size

        def us(key):
            return 1e6 * s[key] / c[key] if c[key] else 0.0

        def ms(key):
            return 1e3 * s[key]

        out = {
            "semantics.step.calls": (c["step"], "count"),
            "semantics.step.us": (us("step"), "us"),
        }
        for fam in FAMILIES:
            out[f"semantics.step.{fam}.calls"] = (c[fam], "count")
            out[f"semantics.step.{fam}.us"] = (us(fam), "us")
        out["semantics.step.memory.us.le2k"] = (us("mem_le2k"), "us")
        out["semantics.step.memory.us.gt16k"] = (us("mem_gt16k"), "us")
        out["semantics.step.us.depth_lt16"] = (us("depth_lt16"), "us")
        out["semantics.step.us.depth_ge256"] = (us("depth_ge256"), "us")
        out["semantics.drive.ms"] = (ms("drive"), "ms")
        for key in ("memory_write", "memory_read"):
            out[f"state.{key}.calls"] = (c[key], "count")
            out[f"state.{key}.bytes"] = (b[key], "bytes")
            out[f"state.{key}.us"] = (us(key), "us")
        for key in ("GlobalState.put", "Account.storage_set"):
            out[f"state.{key}.calls"] = (c[key], "count")
            out[f"state.{key}.us"] = (us(key), "us")
        out["words.binop.calls"] = (c["binop"], "count")
        out["words.binop.us"] = (us("binop"), "us")
        out["keccak.keccak256.calls"] = (c["keccak256"], "count")
        out["keccak.keccak256.bytes"] = (b["keccak256"], "bytes")
        out["keccak.keccak256.ms"] = (ms("keccak256"), "ms")
        out["rlp.fresh_address.calls"] = (c["fresh_address"], "count")
        out["rlp.fresh_address.ms"] = (ms("fresh_address"), "ms")
        out["gas.calls"] = (c["gas"], "count")
        out["gas.ms"] = (ms("gas"), "ms")
        hits, misses = c["jump_hits"], c["jump_misses"]
        out["bytecode.valid_jump_dests.hits"] = (hits, "count")
        out["bytecode.valid_jump_dests.misses"] = (misses, "count")
        out["bytecode.valid_jump_dests.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out["traces.project.calls"] = (c["project"], "count")
        out["traces.project.actions_in"] = (b["project"], "count")
        out["traces.project.actions_out"] = (b["project.out"], "count")
        out["traces.project.ms"] = (ms("project"), "ms")
        out["traces.first_divergence.calls"] = (c["first_divergence"], "count")
        out["traces.first_divergence.ms"] = (ms("first_divergence"), "ms")
        for key in ("t_init", "t_final"):
            out[f"transaction.{key}.calls"] = (c[key], "count")
            out[f"transaction.{key}.ms"] = (ms(key), "ms")
        verdicts, forks = c["verdicts"], c["forks"]
        out["checkers.verdicts"] = (verdicts, "count")
        out["checkers.forks"] = (forks, "count")
        out["checkers.steps"] = (c["checker_steps"], "count")
        out["checkers.steps_per_verdict"] = (
            c["checker_steps"] / verdicts if verdicts else 0.0, "steps/verdict")
        # useful outcomes per attempt: trace comparisons made per run-loop fork
        out["checkers.comparisons_per_fork"] = (
            c["first_divergence"] / forks if forks else 0.0, "ratio")
        out["checkers.incomplete"] = (incomplete, "count")
        for prop in PROPERTIES:
            out[f"checkers.{prop}.ms"] = (ms("prop:" + prop), "ms")
        out["fixtures.parse_fixture.calls"] = (c["parse_fixture"], "count")
        out["fixtures.parse_fixture.ms"] = (ms("parse_fixture"), "ms")
        return {name: (value / passes if unit in ("count", "bytes", "ms") else value, unit)
                for name, (value, unit) in out.items()}

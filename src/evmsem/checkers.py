"""Executable security analyses, all on one engine.

`_scan` is the only loop that drives the scenario, and each check drives
it at most once (call integrity's theorem1 mode, a conjunction of three
checks, drives it three times). `_monitor` watches that drive for a
violating step (single-entrancy, call restriction, fuelled calls,
stack-limit compliance); a monitor returns only its witness entries. The
hyperproperty checkers (atomicity, the independence family, call
integrity) are falsifiers: each only names its forks, from configurations
the drive reaches (entries into the analyzed contract, its calls into
untrusted code) or from the scenario's start, and each fork's variants, as
inputs. `_explore` is the only place that runs a variant, a callee outcome
realized by a code variant included, and only to compare it: each distinct
one runs once and is compared with the first completed run of its fork,
the first difference is a violation and stops further runs, and a fork
with fewer than two distinct variants runs nothing, as there is nothing to
compare.
`_compare_calls` is the one place that projects the analyzed contract's
calls and compares them; every falsifier but atomicity goes through it.
A "holds" verdict therefore always means "holds within the explored space";
`explored_complete` records whether any run ran out of step budget, and
the notes say when no fork had two variants, so nothing was compared.

Every "violated" verdict carries a witness with the concrete knobs (gas
values, component values, variant indices, sample ids) that reproduce it.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from typing import NamedTuple, Optional

from .semantics import (BudgetExhausted, iterate_steps, run_frame, run_to_depth,
                        run_with_local_updates)
from .state import (CALL_DEPTH_LIMIT, EXC, Account, BlockHeader, CallStack, Contract, Frame,
                    GlobalState, Halt, account, env_with_component, frames, with_top_state)
from .traces import action_to_json, calls_of, first_divergence, project
from .transaction import Transaction, t_init
from .words import address_to_hex


class Verdict(NamedTuple):
    property_name: str
    result: str                  # "holds" | "violated"
    witness: Optional[dict] = None
    explored_complete: bool = True
    notes: str = ""

    @property
    def violated(self) -> bool:
        return self.result == "violated"

    def to_json(self) -> dict:
        return {
            "property": self.property_name,
            "result": self.result,
            "explored_complete": self.explored_complete,
            "witness": self.witness,
            "notes": self.notes,
        }


class ScenarioSpace(NamedTuple):
    """A concrete initial fixture plus the finite generator sets the
    falsifiers draw their variants from; its {} defaults are shared, never
    written."""
    pre: GlobalState
    tx: Transaction
    header: BlockHeader
    ancestors: dict = {}
    max_steps: int = 200_000
    gas_values: tuple = ()
    component_values: dict = {}         # name -> [values]
    code_variants: dict = {}            # addr -> [codes]
    relaxed_gas: bool = False


def _initial_config(space: ScenarioSpace, pre: GlobalState):
    """The scenario's transaction started from pre (space.pre, or a variant of it)."""
    init = t_init(space.tx, space.header, pre, space.ancestors)
    if init is None:
        raise ValueError("scenario transaction is invalid under the given state")
    tenv, frame, _created = init
    return tenv, CallStack(frame, None, 1)


_INCOMPLETE = "step budget exhausted; explored space is incomplete"


def _holds(name: str, complete: bool, notes: str = "") -> Verdict:
    if not complete and not notes:
        notes = _INCOMPLETE
    return Verdict(name, "holds", None, complete, notes)


# ---------------------------------------------------------------------------
# the engine: one scan, one monitor, one comparison loop, one call comparison


def _scan(space: ScenarioSpace, pick, first: bool = False):
    """Drive the scenario once, a run of plain ops at a time, and collect
    pick(index, before, action, after) for every step it is shown where it
    is not None; with `first`, stop at the first. index counts every step
    from 1, plain ops included, but pick sees no plain-op step (action tag
    "op"). Returns (tenv, initial stack, picks, complete)."""
    tenv, stack = _initial_config(space, space.pre)
    picks = []
    complete = True
    try:
        for index, before, action, after in iterate_steps(tenv, stack, space.max_steps,
                                                          ops=False):
            found = pick(index, before, action, after)
            if found is not None:
                picks.append(found)
                if first:
                    break
    except BudgetExhausted:
        complete = False
    return tenv, stack, picks, complete


def _monitor(name: str, space: ScenarioSpace, watch) -> Verdict:
    """Violated at the first step where watch(before, action, after) returns
    witness entries, which follow that step's index and action."""

    def pick(index, before, action, after):
        entries = watch(before, action, after)
        return None if entries is None else {"step": index, "action": action_to_json(action),
                                             **entries}

    _tenv, _stack, found, complete = _scan(space, pick, first=True)
    return Verdict(name, "violated", found[0], True) if found else _holds(name, complete)


def _explore(name: str, observe, forks, differ, complete: bool) -> Verdict:
    """Run the variants of each fork and compare their observations.

    `forks` yields (witness, variants), `variants` being (label, input)
    pairs, of which each distinct label runs once; observe(input) runs one
    variant and returns what it shows, None if there is nothing to compare.
    differ(first, other) is None when two observations agree, else the
    witness entries of their difference, to which witness(first_label,
    label) adds the knobs that reproduce it. A "holds" says so in its notes
    when no fork had two distinct variants."""
    compared = False
    for witness, variants in forks:
        # a label names one input, so a repeated label would only repeat a run
        variants = dict(variants)
        if len(variants) < 2:
            continue
        compared = True
        first = None
        for label, variant in variants.items():
            try:
                seen = observe(variant)
            except BudgetExhausted:
                complete = False
                continue
            if seen is None:
                continue
            if first is None:
                first = label, seen
            elif (found := differ(first[1], seen)) is not None:
                return Verdict(name, "violated", {**witness(first[0], label), **found}, True)
    if compared:
        return _holds(name, complete)
    nothing = "nothing compared: fewer than two variants"
    return _holds(name, complete, nothing if complete else f"{_INCOMPLETE}; {nothing}")


def _compare_calls(name: str, space: ScenarioSpace, c: Contract, drive, forks,
                   complete: bool) -> Verdict:
    """_explore over c's projected calls, drive(input) returning one variant's
    trace: two variants differ at the first divergence of their projections
    (gas ignored under relaxed_gas), shown by three actions on each side."""
    pred = calls_of(c)

    def differ(left, right):
        div = first_divergence(left, right, space.relaxed_gas)
        return None if div is None else {
            "first_divergence": div,
            "trace_left": [action_to_json(a) for a in left[div:div + 3]],
            "trace_right": [action_to_json(a) for a in right[div:div + 3]]}

    return _explore(name, lambda variant: project(drive(variant), pred), forks, differ,
                    complete)


# ---------------------------------------------------------------------------
# monitors over one scenario run


def _on_stack(c: Contract, stack) -> bool:
    return any(f.contract == c for f in frames(stack))


def check_single_entrancy(space: ScenarioSpace, c: Contract) -> Verdict:
    """Violated iff a reentered frame of c makes the call stack grow again."""

    def watch(before, action, after):
        if (action.tag in ("enter", "fail") and before.top.contract == c
                and _on_stack(c, before.below)):
            return {"reentry_depth": before.depth, "contract": address_to_hex(c[0])}
        return None

    return _monitor("single-entrancy", space, watch)


def check_call_restriction(space: ScenarioSpace, c: Contract, allowed) -> Verdict:
    """Violated iff a frame outside `allowed` is entered while a frame of c
    is on the stack (directly or transitively below c)."""
    allowed = frozenset(allowed)

    def watch(before, action, after):
        ann = after.top.contract
        if (action.tag == "enter" and _on_stack(c, before)
                and (ann is None or ann[0] not in allowed)):
            return {"entered": address_to_hex(ann[0]) if ann else None,
                    "allowed": sorted(address_to_hex(a) for a in allowed)}
        return None

    return _monitor("call-restriction", space, watch)


def check_fuelled_calls(space: ScenarioSpace, c: Contract) -> Verdict:
    """Violated iff a callee below c starts with zero gas."""

    def watch(before, action, after):
        if action.tag == "enter" and _on_stack(c, before) and after.top.state.mu.gas == 0:
            ann = after.top.contract
            return {"callee": address_to_hex(ann[0]) if ann else None}
        return None

    return _monitor("fuelled-calls", space, watch)


def check_stack_limit_compliance(space: ScenarioSpace, c: Contract) -> Verdict:
    """Violated iff a call-time exception is pushed with the residual stack
    at the call-depth limit while c is on it."""

    def watch(before, action, after):
        if action.tag == "fail" and before.depth == CALL_DEPTH_LIMIT and _on_stack(c, before):
            return {"residual_depth": before.depth}
        return None

    return _monitor("stack-limit", space, watch)


# ---------------------------------------------------------------------------
# falsifiers over variant runs


def _entry_configs(space: ScenarioSpace, c: Contract):
    """Freshly entered frames of c, each detached at its depth from the
    frames below it, reached by driving the scenario once."""

    def entry(_index, _before, action, after):
        entered = action.tag == "enter" and after.top.contract == c
        return CallStack(after.top, None, after.depth) if entered else None

    tenv, stack, configs, complete = _scan(space, entry)
    if stack.top.contract == c:
        configs.insert(0, stack)
    return tenv, configs, complete


def check_atomicity(space: ScenarioSpace, c: Contract) -> Verdict:
    """Final global state must be gas-invariant, except that a run may be a
    complete no-op (full revert)."""
    if len(space.gas_values) < 2:
        raise ValueError("atomicity needs at least two gas values")
    tenv, configs, complete = _entry_configs(space, c)

    def final_sigma(forked):
        """The final global state, None for a full revert to the entry state,
        which agrees with every other outcome."""
        final, _trace = run_frame(tenv, forked, space.max_steps)
        st = final.top.state
        if isinstance(st, Halt) and st.sigma != forked.top.state.sigma:
            return st.sigma
        return None

    def forks():
        for idx, config in enumerate(configs):
            entry = config.top.state
            yield ((lambda g1, g2, idx=idx: {"entry_index": idx, "gas_pair": [g1, g2],
                                             "contract": address_to_hex(c[0])}),
                   [(g, with_top_state(config, entry._replace(mu=entry.mu._replace(gas=g))))
                    for g in space.gas_values])

    return _explore("atomicity", final_sigma, forks(),
                    lambda s1, s2: None if s1 == s2 else {}, complete)


def check_env_independence(space: ScenarioSpace, c: Contract) -> Verdict:
    """Projected call traces of c must agree across paired whole-scenario
    runs whose transaction environments differ in one component, for each
    component the space gives values."""
    tenv, stack = _initial_config(space, space.pre)
    forks = []    # built before any run, so that every component is checked first
    for comp, values in space.component_values.items():
        if not values:
            raise ValueError(f"no value set for component {comp!r}")
        forks.append(((lambda v1, v2, comp=comp: {"component": comp,
                                                   "values": [hex(v1), hex(v2)]}),
                      [(v, env_with_component(tenv, comp, v)) for v in values]))
    return _compare_calls("env-independence", space, c,
                          lambda env: run_frame(env, stack, space.max_steps)[1], forks, True)


def _account_variants(acct: Account):
    """Mutable-state variants of one account: its balance moved by +1, -1,
    -balance and +balance where that gives a new non-negative balance, its
    nonce bumped by one, each stored key cleared, and storage[0] set to 1
    unless it already is."""
    variants = [("balance%+d" % d, acct.with_balance(acct.balance + d))
                for d in (1, -1, -acct.balance, acct.balance)
                if d != 0 and acct.balance + d >= 0]
    variants.append(("nonce+1", acct.with_nonce(acct.nonce + 1)))
    for key in list(acct.storage):
        variants.append((f"storage[{key}]=0", acct.storage_set(key, 0)))
    if acct.storage_get(0) != 1:
        variants.append(("storage[0]=1", acct.storage_set(0, 1)))
    return variants


def check_account_state_independence(space: ScenarioSpace, c: Contract) -> Verdict:
    """Paired runs from entry states differing only in the nonce, balance or
    storage of c's account must produce the same projected call traces.
    Each perturbed run is compared with the unperturbed one; should that
    exhaust its budget, with the first perturbed run that completes, which
    the witness then names as its reference."""
    tenv, configs, complete = _entry_configs(space, c)

    def witness(idx, reference, label):
        knobs = {"entry_index": idx, "perturbation": label}
        if reference is not None:
            knobs["reference"] = reference
        return knobs

    def forks():
        for idx, config in enumerate(configs):
            entry = config.top.state
            acct = entry.sigma.get(c[0])
            if acct is None:
                continue
            yield partial(witness, idx), [(None, config)] + [
                (label, with_top_state(config,
                                       entry._replace(sigma=entry.sigma.put(c[0], variant))))
                for label, variant in _account_variants(acct)]

    return _compare_calls("account-state-independence", space, c,
                          lambda config: run_frame(tenv, config, space.max_steps)[1],
                          forks(), complete)


def _override_assignments(space: ScenarioSpace, untrusted):
    """Cartesian product of the code-variant lists over the untrusted set."""
    addrs = sorted(untrusted)
    pools = []
    for a in addrs:
        variants = space.code_variants.get(a)
        if not variants:
            raise ValueError(f"no code variants for untrusted address {hex(a)}")
        pools.append(variants)
    return [dict(zip(addrs, combo)) for combo in product(*pools)]


def check_code_independence(space: ScenarioSpace, c: Contract, untrusted) -> Verdict:
    """Runs under two local code updates with domain `untrusted` must produce
    the same projected call traces of c."""
    assignments = _override_assignments(space, untrusted)
    tenv, configs, complete = _entry_configs(space, c)

    def drive(variant):
        config, mapping = variant
        return run_with_local_updates(tenv, config, mapping, space.max_steps)[1]

    forks = (((lambda i1, i2, idx=idx: {"entry_index": idx, "assignments": [i1, i2]}),
              [(i, (config, mapping)) for i, mapping in enumerate(assignments)])
             for idx, config in enumerate(configs))
    return _compare_calls("code-independence", space, c, drive, forks, complete)


def _with_code(sigma: GlobalState, addr: int, code: bytes) -> GlobalState:
    return sigma.put(addr, account(sigma, addr).with_code(code))


def _finpot_samples(c: Contract, callee_frame: Frame):
    """Potential final states of an untrusted callee: exception, plus halting
    states with perturbed balances/nonces/storage of accounts other than c,
    arbitrary return data and gas within the callee budget, at most nine
    in all. c's own nonce, storage and code stay fixed; existing code is
    never changed."""
    st = callee_frame.state
    sigma, eta, budget = st.sigma, st.eta, st.mu.gas
    u_addr = callee_frame.contract[0] if callee_frame.contract else None
    c_addr = c[0]

    samples = [
        ("exc", EXC),
        ("halt_spent", Halt(sigma, 0, b"", eta)),
        ("halt_free", Halt(sigma, budget, b"", eta)),
        ("halt_data", Halt(sigma, budget, (1).to_bytes(32, "big"), eta)),
    ]
    if u_addr is not None and u_addr != c_addr:
        acct = sigma.get(u_addr)
        if acct is not None:
            for key in sorted(acct.storage)[:1]:
                samples.append((f"halt_flip[{key}]",
                                Halt(sigma.put(u_addr, acct.storage_set(key, 0)),
                                     budget, b"", eta)))
            flipped = acct.storage_set(0, acct.storage_get(0) ^ 1)
            samples.append(("halt_flip0", Halt(sigma.put(u_addr, flipped), budget, b"", eta)))
            samples.append(("halt_ubal",
                            Halt(sigma.put(u_addr, acct.with_balance(acct.balance + 1)),
                                 budget, b"", eta)))
    acct_c = sigma.get(c_addr)
    if acct_c is not None and acct_c.balance > 0:
        samples.append(("halt_cbal0",
                        Halt(sigma.put(c_addr, acct_c.with_balance(0)), budget, b"", eta)))
    probe = 0xF1A9  # weak update: an account that did not exist before
    if sigma.get(probe) is None:
        samples.append(("halt_new_acct",
                        Halt(sigma.put(probe, Account(0, 1, {}, b"")), budget, b"", eta)))
    return samples


def check_effect_independence(space: ScenarioSpace, c: Contract, untrusted) -> Verdict:
    """At every call of c into an untrusted address, replacing the callee's
    outcome with any potential final state must leave c's continuation calls
    unchanged. The samples are the generic outcomes of _finpot_samples, then
    each code variant of the callee, which realizes its outcome only when
    it is compared."""
    untrusted = frozenset(untrusted)

    def call_site(_index, before, action, after):
        ann = after.top.contract
        if action.tag == "enter" and before.top.contract == c and ann and ann[0] in untrusted:
            return after
        return None

    tenv, _stack, call_sites, complete = _scan(space, call_site)

    def continuation(sample):
        """The rest of c's frame once the callee it entered at `after` ends
        in `outcome`: the callee's return processed into c, then c run until
        it halts or throws. A code variant's outcome is its callee frame with
        that code, run detached at its depth with the code at its address in
        the global state too, and the real code put back in a halt's."""
        after, outcome = sample
        if isinstance(outcome, bytes):
            entry, (u_addr, real) = after.top
            callee = Frame(entry._replace(iota=entry.iota._replace(code=outcome),
                                          sigma=_with_code(entry.sigma, u_addr, outcome)),
                           (u_addr, outcome))
            final, _trace = run_frame(tenv, CallStack(callee, None, after.depth),
                                      space.max_steps)
            outcome = final.top.state
            if isinstance(outcome, Halt):
                outcome = outcome._replace(sigma=_with_code(outcome.sigma, u_addr, real))
        forked = with_top_state(after, outcome)
        return run_to_depth(tenv, forked, forked.depth - 1, space.max_steps)[1]

    def forks():
        for idx, after in enumerate(call_sites):
            variants = space.code_variants.get(after.top.contract[0], ())
            yield ((lambda l1, l2, idx=idx: {"call_site": idx, "samples": [l1, l2]}),
                   [(label, (after, st)) for label, st in _finpot_samples(c, after.top)]
                   + [(f"variant{i}", (after, code)) for i, code in enumerate(variants)])

    return _compare_calls("effect-independence", space, c, continuation, forks(), complete)


def check_call_integrity(space: ScenarioSpace, c: Contract, untrusted,
                         mode: str = "direct") -> Verdict:
    """Direct mode compares c's projected calls across paired runs whose
    initial states differ only in the code at untrusted addresses; theorem1
    mode is the sound conjunction of code independence, effect independence
    and single-entrancy."""
    if mode == "theorem1":
        parts = [
            check_code_independence(space, c, untrusted),
            check_effect_independence(space, c, untrusted),
            check_single_entrancy(space, c),
        ]
        complete = all(p.explored_complete for p in parts)
        failing = [p for p in parts if p.violated]
        if failing:
            return Verdict("call-integrity", "violated", {
                "mode": "theorem1",
                "failing_conjuncts": [p.property_name for p in failing],
                "conjunct_witnesses": {p.property_name: p.witness for p in failing},
            }, complete)
        return _holds("call-integrity", complete, "theorem1 mode: all conjuncts hold")
    if mode != "direct":
        raise ValueError(f"unknown call-integrity mode {mode!r}")

    def drive(mapping):
        sigma = space.pre
        for addr, code in mapping.items():
            sigma = _with_code(sigma, addr, code)
        tenv, stack = _initial_config(space, sigma)
        return run_frame(tenv, stack, space.max_steps)[1]

    forks = [(lambda i1, i2: {"mode": "direct", "assignments": [i1, i2]},
              list(enumerate(_override_assignments(space, untrusted))))]
    return _compare_calls("call-integrity", space, c, drive, forks, True)


CHECKERS = {
    "single-entrancy": lambda space, c, params: check_single_entrancy(space, c),
    "call-restriction": lambda space, c, params: check_call_restriction(
        space, c, params.get("allowed", ())),
    "fuelled-calls": lambda space, c, params: check_fuelled_calls(space, c),
    "stack-limit": lambda space, c, params: check_stack_limit_compliance(space, c),
    "atomicity": lambda space, c, params: check_atomicity(space, c),
    "env-independence": lambda space, c, params: check_env_independence(space, c),
    "account-state-independence": lambda space, c, params:
        check_account_state_independence(space, c),
    "code-independence": lambda space, c, params: check_code_independence(
        space, c, params.get("untrusted", ())),
    "effect-independence": lambda space, c, params: check_effect_independence(
        space, c, params.get("untrusted", ())),
    "call-integrity": lambda space, c, params: check_call_integrity(
        space, c, params.get("untrusted", ()), params.get("mode", "direct")),
}

"""Executable security analyses.

Monitors (single-entrancy, call restriction, fuelled calls, stack-limit
compliance) watch one scenario run. The hyperproperty checkers (atomicity,
the independence family, call integrity) are falsifiers: they fork execution
at entry configurations of the analyzed contract and compare projected call
traces across finitely many variant runs. A "holds" verdict therefore always
means "holds within the explored space"; `explored_complete` records whether
any branch ran out of step budget.

Every "violated" verdict carries a witness with the concrete knobs (gas
values, component values, variant indices, sample ids) that reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, product
from typing import Optional, Sequence

from .semantics import (BudgetExhausted, CodeOverride, StepBudget, iterate_steps,
                        run, run_frame, run_to_depth, run_with_local_updates)
from .state import (EXC, Account, BlockHeader, Contract, Frame, GlobalState, Halt,
                    Regular, env_with_component)
from .traces import action_to_json, calls_of, first_divergence, project
from .transaction import Transaction, t_init
from .words import address_to_hex


@dataclass(frozen=True)
class Verdict:
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


@dataclass(frozen=True)
class ScenarioSpace:
    """A concrete initial fixture plus the finite generator sets the
    falsifiers draw their variants from."""
    pre: GlobalState
    tx: Transaction
    header: BlockHeader
    ancestors: dict = field(default_factory=dict)
    max_steps: int = 200_000
    gas_values: tuple = ()
    component_values: dict = field(default_factory=dict)   # name -> [values]
    code_variants: dict = field(default_factory=dict)      # addr -> [codes]
    account_perturbations: dict = field(default_factory=dict)
    finpot_samples: int = 8
    relaxed_gas: bool = False


def _initial_config(space: ScenarioSpace, sigma: Optional[GlobalState] = None):
    init = t_init(space.tx, space.header, sigma if sigma is not None else space.pre,
                  space.ancestors)
    if init is None:
        raise ValueError("scenario transaction is invalid under the given state")
    tenv, frame, _created = init
    return tenv, (frame,)


def _holds(name: str, complete: bool, notes: str = "") -> Verdict:
    if not complete and not notes:
        notes = "step budget exhausted; explored space is incomplete"
    return Verdict(name, "holds", None, complete, notes)


def _divergence_verdict(name: str, left, right, relaxed: bool, knobs: dict) -> Optional[Verdict]:
    """A violated verdict if the projected traces left and right differ,
    else None; the witness is `knobs` plus the first divergence and the
    three actions from there on each side."""
    div = first_divergence(left, right, relaxed)
    if div is None:
        return None
    return Verdict(name, "violated", {
        **knobs,
        "first_divergence": div,
        "trace_left": [action_to_json(a) for a in left[div:div + 3]],
        "trace_right": [action_to_json(a) for a in right[div:div + 3]],
    }, True)


# ---------------------------------------------------------------------------
# monitors over one scenario run


def _monitor_run(space: ScenarioSpace, callback):
    """Drive the scenario, invoking callback(index, before, action, after)
    per step, index counting from 1; a callback may end the run by returning
    a witness dict."""
    tenv, stack = _initial_config(space)
    complete = True
    witness = None
    try:
        steps = iterate_steps(tenv, stack, space.max_steps)
        for index, (before, action, after) in enumerate(steps, start=1):
            witness = callback(index, before, action, after)
            if witness is not None:
                break
    except BudgetExhausted:
        complete = False
    return witness, complete


def check_single_entrancy(space: ScenarioSpace, c: Contract) -> Verdict:
    """Violated iff a reentered frame of c makes the call stack grow again."""

    def watch(step_index, before, action, after):
        if len(after) > len(before) and before[0].contract == c:
            if any(f.contract == c for f in before[1:]):
                return {
                    "step": step_index,
                    "action": action_to_json(action),
                    "reentry_depth": len(before),
                    "contract": address_to_hex(c[0]),
                }
        return None

    witness, complete = _monitor_run(space, watch)
    if witness is not None:
        return Verdict("single-entrancy", "violated", witness, True)
    return _holds("single-entrancy", complete)


def check_call_restriction(space: ScenarioSpace, c: Contract, allowed) -> Verdict:
    """Violated iff a frame outside `allowed` is entered while a frame of c
    is on the stack (directly or transitively below c)."""
    allowed = frozenset(allowed)

    def watch(step_index, before, action, after):
        if len(after) > len(before) and isinstance(after[0].state, Regular):
            if any(f.contract == c for f in before):
                ann = after[0].contract
                if ann is None or ann[0] not in allowed:
                    return {
                        "step": step_index,
                        "action": action_to_json(action),
                        "entered": address_to_hex(ann[0]) if ann else None,
                        "allowed": sorted(address_to_hex(a) for a in allowed),
                    }
        return None

    witness, complete = _monitor_run(space, watch)
    if witness is not None:
        return Verdict("call-restriction", "violated", witness, True)
    return _holds("call-restriction", complete)


def check_fuelled_calls(space: ScenarioSpace, c: Contract) -> Verdict:
    """Violated iff a callee below c starts with zero gas."""

    def watch(step_index, before, action, after):
        if len(after) > len(before) and isinstance(after[0].state, Regular):
            if any(f.contract == c for f in before):
                if after[0].state.mu.gas == 0:
                    return {
                        "step": step_index,
                        "action": action_to_json(action),
                        "callee": address_to_hex(after[0].contract[0])
                        if after[0].contract else None,
                    }
        return None

    witness, complete = _monitor_run(space, watch)
    if witness is not None:
        return Verdict("fuelled-calls", "violated", witness, True)
    return _holds("fuelled-calls", complete)


def check_stack_limit_compliance(space: ScenarioSpace, c: Contract) -> Verdict:
    """Violated iff a call-time exception is pushed with the residual stack
    at the 1024-frame limit while c is on it."""

    def watch(step_index, before, action, after):
        if (len(after) == len(before) + 1 and after[0].state is EXC
                and len(before) == 1024
                and any(f.contract == c for f in before)):
            return {"step": step_index, "action": action_to_json(action),
                    "residual_depth": len(before)}
        return None

    witness, complete = _monitor_run(space, watch)
    if witness is not None:
        return Verdict("stack-limit", "violated", witness, True)
    return _holds("stack-limit", complete)


# ---------------------------------------------------------------------------
# entry configurations


def _entry_configs(space: ScenarioSpace, c: Contract):
    """Configurations whose top frame is a freshly entered frame of c,
    reached by driving the scenario once."""
    tenv, stack = _initial_config(space)
    configs = []
    complete = True
    if stack[0].contract == c:
        configs.append(stack)
    try:
        for before, _action, after in iterate_steps(tenv, stack, space.max_steps):
            if (len(after) > len(before) and after[0].contract == c
                    and isinstance(after[0].state, Regular)):
                configs.append(after)
    except BudgetExhausted:
        complete = False
    return tenv, configs, complete


def _final_sigma(stack, entry_sigma):
    """Global state of a finalized frame; an exception reverts to entry."""
    st = stack[0].state
    if isinstance(st, Halt):
        return st.sigma
    return entry_sigma


# ---------------------------------------------------------------------------
# paired-execution falsifiers


def check_atomicity(space: ScenarioSpace, c: Contract) -> Verdict:
    """Final global state must be gas-invariant, except that a run may be a
    complete no-op (full revert)."""
    if len(space.gas_values) < 2:
        raise ValueError("atomicity needs at least two gas values")
    tenv, configs, complete = _entry_configs(space, c)
    for idx, config in enumerate(configs):
        entry = config[0].state
        entry_sigma = entry.sigma
        finals = {}
        for g in space.gas_values:
            mu = replace(entry.mu, gas=g)
            forked = (Frame(Regular(mu, entry.iota, entry.sigma, entry.eta),
                            config[0].contract),) + config[1:]
            try:
                final, _trace = run_frame(tenv, forked, space.max_steps)
            except BudgetExhausted:
                complete = False
                continue
            finals[g] = _final_sigma(final, entry_sigma)
        for g1, g2 in combinations(finals, 2):
            s1, s2 = finals[g1], finals[g2]
            if not (s1 == s2 or entry_sigma == s1 or entry_sigma == s2):
                return Verdict("atomicity", "violated", {
                    "entry_index": idx,
                    "gas_pair": [g1, g2],
                    "contract": address_to_hex(c[0]),
                }, True)
    return _holds("atomicity", complete)


def check_env_independence(space: ScenarioSpace, c: Contract,
                           components: Sequence[str]) -> Verdict:
    """Projected call traces of c must agree across paired whole-scenario
    runs whose transaction environments differ in one component."""
    pred = calls_of(c)
    complete = True
    for comp in components:
        values = space.component_values.get(comp, ())
        if not values:
            raise ValueError(f"no value set for component {comp!r}")
        runs = {}
        for v in values:
            tenv, stack = _initial_config(space)
            tenv_v = env_with_component(tenv, comp, v)
            try:
                _final, trace = run(tenv_v, stack, StepBudget(space.max_steps))
            except BudgetExhausted:
                complete = False
                continue
            runs[v] = project(trace, pred)
        for v1, v2 in combinations(runs, 2):
            if v1 == v2:
                continue
            verdict = _divergence_verdict("env-independence", runs[v1], runs[v2],
                                          space.relaxed_gas,
                                          {"component": comp, "values": [hex(v1), hex(v2)]})
            if verdict is not None:
                return verdict
    return _holds("env-independence", complete)


def _account_variants(acct: Account, perturbations: dict):
    """Mutable-state variants of one account (nonce, balance, storage only)."""
    deltas = perturbations.get("balance_deltas")
    if deltas is None:
        deltas = [1, -1, -acct.balance, acct.balance]
    nonce_bumps = perturbations.get("nonce_bumps", [1])
    storage_sets = dict(perturbations.get("storage_set", {0: 1}))

    variants = []
    for d in deltas:
        if acct.balance + d >= 0 and d != 0:
            variants.append(("balance%+d" % d, acct.with_balance(acct.balance + d)))
    for b in nonce_bumps:
        variants.append(("nonce%+d" % b, acct.with_nonce(acct.nonce + b)))
    for key in list(acct.storage):
        variants.append((f"storage[{key}]=0", acct.storage_set(key, 0)))
    for key, value in storage_sets.items():
        if acct.storage_get(key) != value:
            variants.append((f"storage[{key}]={value}", acct.storage_set(key, value)))
    return variants


def check_account_state_independence(space: ScenarioSpace, c: Contract) -> Verdict:
    """Paired runs from entry states differing only in the nonce, balance or
    storage of c's account must produce the same projected call traces."""
    pred = calls_of(c)
    tenv, configs, complete = _entry_configs(space, c)
    for idx, config in enumerate(configs):
        entry = config[0].state
        acct = entry.sigma.get(c[0])
        if acct is None:
            continue
        try:
            _f, base_trace = run_frame(tenv, config, space.max_steps)
        except BudgetExhausted:
            complete = False
            continue
        base_proj = project(base_trace, pred)
        for label, variant in _account_variants(acct, space.account_perturbations):
            sigma_v = entry.sigma.put(c[0], variant)
            forked = (Frame(Regular(entry.mu, entry.iota, sigma_v, entry.eta),
                            config[0].contract),) + config[1:]
            try:
                _f, trace_v = run_frame(tenv, forked, space.max_steps)
            except BudgetExhausted:
                complete = False
                continue
            verdict = _divergence_verdict("account-state-independence", base_proj,
                                          project(trace_v, pred), space.relaxed_gas,
                                          {"entry_index": idx, "perturbation": label})
            if verdict is not None:
                return verdict
    return _holds("account-state-independence", complete)


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
    pred = calls_of(c)
    assignments = _override_assignments(space, untrusted)
    tenv, configs, complete = _entry_configs(space, c)
    for idx, config in enumerate(configs):
        projections = []
        for a_idx, mapping in enumerate(assignments):
            try:
                _f, trace, _ext = run_with_local_updates(
                    tenv, config, CodeOverride(dict(mapping)), space.max_steps)
            except BudgetExhausted:
                complete = False
                continue
            projections.append((a_idx, project(trace, pred)))
        for (i1, p1), (i2, p2) in combinations(projections, 2):
            verdict = _divergence_verdict("code-independence", p1, p2, space.relaxed_gas,
                                          {"entry_index": idx, "assignments": [i1, i2]})
            if verdict is not None:
                return verdict
    return _holds("code-independence", complete)


def _finpot_samples(c: Contract, callee_frame: Frame, space: ScenarioSpace):
    """Potential final states of an untrusted callee: exception, plus halting
    states with perturbed balances/nonces/storage of accounts other than c,
    arbitrary return data and gas within the callee budget. c's own nonce,
    storage and code stay fixed; existing code is never changed."""
    st = callee_frame.state
    sigma, eta, budget = st.sigma, st.eta, st.mu.gas
    u_addr = callee_frame.contract[0] if callee_frame.contract else None
    c_addr = c[0]

    samples = [("exc", EXC)]
    halts = [
        ("halt_spent", Halt(sigma, 0, b"", eta)),
        ("halt_free", Halt(sigma, budget, b"", eta)),
        ("halt_data", Halt(sigma, budget, (1).to_bytes(32, "big"), eta)),
    ]
    if u_addr is not None and u_addr != c_addr:
        acct = sigma.get(u_addr)
        if acct is not None:
            for key in sorted(acct.storage)[:1]:
                halts.append((f"halt_flip[{key}]",
                              Halt(sigma.put(u_addr, acct.storage_set(key, 0)),
                                   budget, b"", eta)))
            flipped = acct.storage_set(0, acct.storage_get(0) ^ 1)
            halts.append(("halt_flip0", Halt(sigma.put(u_addr, flipped), budget, b"", eta)))
            halts.append(("halt_ubal",
                          Halt(sigma.put(u_addr, acct.with_balance(acct.balance + 1)),
                               budget, b"", eta)))
    acct_c = sigma.get(c_addr)
    if acct_c is not None and acct_c.balance > 0:
        halts.append(("halt_cbal0",
                      Halt(sigma.put(c_addr, acct_c.with_balance(0)), budget, b"", eta)))
    probe = 0xF1A9  # weak update: an account that did not exist before
    if sigma.get(probe) is None:
        halts.append(("halt_new_acct",
                      Halt(sigma.put(probe, Account(0, 1, {}, b"")), budget, b"", eta)))
    samples.extend(halts)
    return samples[:max(space.finpot_samples, 2)]


def check_effect_independence(space: ScenarioSpace, c: Contract, untrusted) -> Verdict:
    """At every call of c into an untrusted address, replacing the callee's
    outcome with any potential final state must leave c's continuation calls
    unchanged."""
    pred = calls_of(c)
    untrusted = frozenset(untrusted)
    tenv, stack = _initial_config(space)
    complete = True
    call_sites = []
    try:
        for before, action, after in iterate_steps(tenv, stack, space.max_steps):
            if (action.tag == "enter" and before[0].contract == c
                    and after[0].contract is not None
                    and after[0].contract[0] in untrusted):
                call_sites.append(after)
    except BudgetExhausted:
        complete = False

    for site_idx, after in enumerate(call_sites):
        callee = after[0]
        caller_len = len(after) - 1
        continuations = []
        for label, final_state in _finpot_samples(c, callee, space):
            forked = (Frame(final_state, callee.contract),) + after[1:]
            try:
                _f, trace = run_to_depth(tenv, forked, caller_len, space.max_steps)
            except BudgetExhausted:
                complete = False
                continue
            continuations.append((label, project(trace, pred)))
        for (l1, p1), (l2, p2) in combinations(continuations, 2):
            verdict = _divergence_verdict("effect-independence", p1, p2, space.relaxed_gas,
                                          {"call_site": site_idx, "samples": [l1, l2]})
            if verdict is not None:
                return verdict
    return _holds("effect-independence", complete)


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

    pred = calls_of(c)
    assignments = _override_assignments(space, untrusted)
    complete = True
    projections = []
    for a_idx, mapping in enumerate(assignments):
        sigma = space.pre
        for addr, code in mapping.items():
            acct = sigma.get(addr)
            if acct is None:
                acct = Account()
            sigma = sigma.put(addr, acct.with_code(code))
        tenv, stack = _initial_config(space, sigma)
        try:
            _final, trace = run(tenv, stack, StepBudget(space.max_steps))
        except BudgetExhausted:
            complete = False
            continue
        projections.append((a_idx, project(trace, pred)))
    for (i1, p1), (i2, p2) in combinations(projections, 2):
        verdict = _divergence_verdict("call-integrity", p1, p2, space.relaxed_gas,
                                      {"mode": "direct", "assignments": [i1, i2]})
        if verdict is not None:
            return verdict
    return _holds("call-integrity", complete)


CHECKERS = {
    "single-entrancy": lambda space, c, params: check_single_entrancy(space, c),
    "call-restriction": lambda space, c, params: check_call_restriction(
        space, c, params.get("allowed", ())),
    "fuelled-calls": lambda space, c, params: check_fuelled_calls(space, c),
    "stack-limit": lambda space, c, params: check_stack_limit_compliance(space, c),
    "atomicity": lambda space, c, params: check_atomicity(space, c),
    "env-independence": lambda space, c, params: check_env_independence(
        space, c, params.get("components") or sorted(space.component_values)),
    "account-state-independence": lambda space, c, params:
        check_account_state_independence(space, c),
    "code-independence": lambda space, c, params: check_code_independence(
        space, c, params.get("untrusted", ())),
    "effect-independence": lambda space, c, params: check_effect_independence(
        space, c, params.get("untrusted", ())),
    "call-integrity": lambda space, c, params: check_call_integrity(
        space, c, params.get("untrusted", ()), params.get("mode", "direct")),
}

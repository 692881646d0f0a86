"""The three workloads: the inputs each builds from a seed, and its ops.

An op is a callable returning (correct, steps, incomplete). `steps` is the
summed trace length where the workload can see it without tracing (the
transaction workload) and 0 elsewhere; `incomplete` marks a verdict whose
explored space ran out of step budget.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import synth

MODULES = ("words", "keccak", "rlp", "state", "bytecode", "gas", "semantics",
           "traces", "transaction", "checkers", "fixtures")
WORKLOADS = ("exec-synth", "check-corpus", "check-deep")

# check-deep: recursion depths, and the answer each property has by
# construction. The depths are fixed so that every seed does the same work:
# steps per verdict grow as depth squared, so a one-frame offset at depth 16
# would move a verdict's cost by 12%.
DEEP_DEPTHS = (8, 16, 24)
DEEP_EXPECT = {
    "account-state-independence": "holds",
    "atomicity": "holds",
    "code-independence": "holds",
    "single-entrancy": "violated",
}


@dataclass
class Op:
    label: str
    prop: Optional[str]          # checker property, None for a transaction
    run: Callable[[], tuple]


def import_evmsem(root: Path) -> SimpleNamespace:
    """Import evmsem from `root`/src afresh: modules already loaded are
    dropped first, so every call pays the import again."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "evmsem" or n.startswith("evmsem.")]:
        del sys.modules[name]
    pkg = importlib.import_module("evmsem")
    mods = {name: importlib.import_module(f"evmsem.{name}") for name in MODULES}
    return SimpleNamespace(root=root, modules=[pkg, *mods.values()], **mods)


def build_ops(workload: str, ev, seed: int, deck=synth.DECK,
              depths=DEEP_DEPTHS) -> list:
    if workload == "exec-synth":
        return [tx_op(ev, p) for p in synth.generate(seed, deck)]
    if workload == "check-corpus":
        return _corpus_ops(ev, seed)
    if workload == "check-deep":
        return _deep_ops(ev, seed, depths)
    raise ValueError(f"unknown workload {workload!r}")


def tx_op(ev, prog) -> Op:
    st = ev.state
    pre = st.GlobalState({addr: st.Account(n, b, dict(s), c)
                          for addr, (n, b, s, c) in prog.accounts.items()})
    tx = ev.transaction.Transaction(nonce=0, gas_price=1, gas_limit=prog.gas_limit,
                                    to=prog.contract, value=0, sender=prog.sender,
                                    input=prog.calldata)
    header = st.BlockHeader(**prog.header)

    def run():
        sigma, trace, receipt = ev.transaction.execute_transaction(tx, header, pre)
        acct = sigma.get(prog.contract)
        ok = (receipt.status == prog.expect_status and acct is not None
              and acct.storage == prog.expect_storage)
        return ok, len(trace), False

    return Op(f"{prog.kind}{list(prog.params)}", None, run)


def _check_op(ev, label, prop, space, contract, params, want) -> Op:
    def run():
        verdict = ev.checkers.CHECKERS[prop](space, contract, params)
        incomplete = not verdict.explored_complete
        return verdict.result == want and not incomplete, 0, incomplete

    return Op(f"{label}:{prop}", prop, run)


def corpus_paths(root: Path) -> list:
    return sorted((root / "src" / "evmsem" / "corpus").glob("*.json"))


def _corpus_ops(ev, seed: int) -> list:
    """Every declared verdict of the shipped fixtures, in a seeded order."""
    ops = []
    for path in corpus_paths(ev.root):
        fixture = ev.fixtures.parse_fixture(path)
        for prop, want in fixture.expect.get("verdicts", {}).items():
            ops.append(_check_op(ev, fixture.name, prop, fixture.space(),
                                 fixture.contract(), fixture.checker_params, want))
    if not ops:
        raise FileNotFoundError("no corpus fixture declares a verdict")
    random.Random(seed).shuffle(ops)
    return ops


def deep_code() -> bytes:
    """Self-forwarding recursion: a frame whose calldata is n > 0 calls
    itself with n - 1 and all its gas; no storage is read or written."""
    return synth.assemble([
        synth.push(0, 1), "CALLDATALOAD", "DUP1", "ISZERO", ("to", "end"), "JUMPI",
        synth.push(1, 1), "SWAP1", "SUB", synth.push(0, 1), "MSTORE",
        synth.push(0, 1), synth.push(0, 1), synth.push(32, 1), synth.push(0, 1),
        synth.push(0, 1), "ADDRESS", "GAS", "CALL", "POP", "STOP",
        ("label", "end"), "STOP",
    ])


def _deep_ops(ev, seed: int, depths) -> list:
    rng = random.Random(seed)
    st = ev.state
    code = deep_code()
    ops = []
    for depth in depths:
        contract, sender, untrusted = (rng.getrandbits(159) | 1 << 159 for _ in range(3))
        pre = st.GlobalState({
            contract: st.Account(rng.randrange(8), 0, {}, code),
            sender: st.Account(0, synth.SENDER_BALANCE, {}, b""),
            untrusted: st.Account(0, rng.randrange(10**6), {}, b"\x00"),
        })
        tx = ev.transaction.Transaction(nonce=0, gas_price=1, gas_limit=10_000_000,
                                        to=contract, value=0, sender=sender,
                                        input=depth.to_bytes(32, "big"))
        header = st.BlockHeader(beneficiary=rng.getrandbits(160), number=1,
                                gaslimit=10**8, timestamp=rng.randrange(10**9))
        space = ev.checkers.ScenarioSpace(
            pre, tx, header, max_steps=10_000_000,
            gas_values=tuple(rng.sample(range(2_000_000, 9_000_000), 2)),
            code_variants={untrusted: [b"\x00"]})
        params = {"untrusted": [untrusted]}
        for prop, want in DEEP_EXPECT.items():
            ops.append(_check_op(ev, f"depth{depth}@{contract:#x}", prop, space,
                                 (contract, code), params, want))
    rng.shuffle(ops)
    return ops

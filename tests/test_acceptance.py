"""Acceptance suite. Each criterion runs at its stated size and tolerance;
the terminal summary prints one line per criterion (see conftest.py)."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from corpus_build import BANK, DEPOSITOR, MALLORY
from evmsem.checkers import (check_atomicity, check_call_integrity,
                             check_env_independence, check_single_entrancy)
from evmsem.fixtures import check_expectations, ingest_official_tests, load_corpus
from evmsem.semantics import run_frame
from evmsem.state import Frame, Halt, Regular
from evmsem.transaction import execute_transaction, t_init
from helpers import stack_of
from proputil import check_program

_T0 = time.time()
TESTS_DIR = Path(__file__).parent


def corpus():
    return {f.name: f for f in load_corpus()}


# ---------------------------------------------------------------------------
# criterion 1: the table-driven fidelity suite is bit-exact and green


def test_criterion_1_opcode_gas_fidelity():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(TESTS_DIR / "test_semantics_table.py"),
         str(TESTS_DIR / "test_calls.py")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


# ---------------------------------------------------------------------------
# criterion 2: Bob/Mallory reproduction


def test_criterion_2_bob_mallory():
    f = corpus()["bob_mallory"]
    bob_pre = f.pre.get(0x1001)
    assert bob_pre.balance % 2 == 0
    funded_for = bob_pre.balance // 2           # Bob funded 2(k+1)

    sigma, trace, receipt = execute_transaction(f.tx, f.header, f.pre)
    assert receipt.status == "success"

    transfers = [a for a in trace
                 if a.tag == "enter" and a.op == "CALL" and a.args[2] == 2]
    attempts = len(transfers)
    assert attempts == funded_for                # k+1 attempts, k committed
    k = attempts - 1
    assert k >= 2

    gained = sigma.get(MALLORY).balance
    assert gained == 2 * k                       # exactly 2k wei drained
    assert sigma.get(0x1001).balance == bob_pre.balance - 2 * k

    # only the deepest transfer was reverted: exactly one Mallory frame died
    # on its gas floor, after receiving its transfer
    invalids = [a for a in trace if a.op == "INVALID"]
    assert len(invalids) == 1
    assert invalids[0].contract[0] == MALLORY

    v = check_single_entrancy(f.space(), f.contract())
    assert v.violated
    for mode in ("direct", "theorem1"):
        v = check_call_integrity(f.space(), f.contract(), [MALLORY], mode)
        assert v.violated, mode


# ---------------------------------------------------------------------------
# criterion 3: atomicity banking example


def test_criterion_3_bank_atomicity():
    f = corpus()["bank_atomicity"]
    contract = f.contract()
    v = check_atomicity(f.space(), contract)
    assert v.violated
    g_hi, g_lo = sorted(v.witness["gas_pair"], reverse=True)

    # replay the witness: the tight run leaves the inconsistent state
    # (record zeroed, funds retained) after the callee exception
    tenv, frame, _ = t_init(f.tx, f.header, f.pre, f.ancestors)
    record = f.pre.get(BANK).storage_get(0)
    assert record > 0

    def run_with_gas(g):
        st = frame.state
        forked = Frame(Regular(st.mu._replace(gas=g), st.iota, st.sigma, st.eta),
                       frame.contract)
        final, trace = run_frame(tenv, stack_of(forked), 200_000)
        return final[0].state, trace

    tight, tight_trace = run_with_gas(g_lo)
    assert isinstance(tight, Halt)
    assert any(a.tag == "exc_ret" for a in tight_trace)      # the callee failed
    assert tight.sigma.get(BANK).storage_get(0) == 0          # record updated
    assert tight.sigma.get(BANK).balance == f.pre.get(BANK).balance
    assert tight.sigma.get(DEPOSITOR).balance == 0            # funds retained

    ample, _ = run_with_gas(g_hi)
    assert isinstance(ample, Halt)
    assert ample.sigma.get(DEPOSITOR).balance == record       # money moved
    assert ample.sigma.get(BANK).storage_get(0) == 0

    fixed = corpus()["bank_atomicity_fixed"]
    assert check_atomicity(fixed.space(), fixed.contract()).result == "holds"


# ---------------------------------------------------------------------------
# criterion 4: discrimination corpus


CRITERION_4 = [
    ("time_fn", "env-independence", "violated"),
    ("time_fp", "env-independence", "holds"),
    ("reentrant_fn", "single-entrancy", "violated"),
    ("reentrant_fp", "single-entrancy", "holds"),
    ("exc_fn", "atomicity", "violated"),
    ("exc_fp", "atomicity", "holds"),
]


@pytest.mark.parametrize("name,prop,expected", CRITERION_4,
                         ids=[f"{c[0]}-{c[2]}" for c in CRITERION_4])
def test_criterion_4_discrimination(name, prop, expected):
    f = corpus()[name]
    contract = f.contract()
    if prop == "env-independence":
        v = check_env_independence(f.space(), contract)
    elif prop == "single-entrancy":
        v = check_single_entrancy(f.space(), contract)
    else:
        v = check_atomicity(f.space(), contract)
    assert v.result == expected, (name, v.witness)
    if expected == "holds":
        assert v.explored_complete


# ---------------------------------------------------------------------------
# criterion 5: property suites over 10,000 randomized programs


def test_criterion_5_randomized_properties():
    total_steps = 0
    exhausted = 0
    for seed in range(10_000):
        out = check_program(seed)   # raises PropertyViolation on any breach
        total_steps += out["steps"]
        exhausted += out["exhausted"]
    assert total_steps > 100_000          # the corpus genuinely runs
    assert exhausted < 100


# ---------------------------------------------------------------------------
# criterion 6: theorem-1 empirical consistency across the corpus


def test_criterion_6_theorem1_consistency():
    checked = 0
    for f in load_corpus():
        untrusted = f.checker_params.get("untrusted")
        if not untrusted or "code_variants" not in f.checker_params:
            continue
        direct = check_call_integrity(f.space(), f.contract(), untrusted, "direct")
        t1 = check_call_integrity(f.space(), f.contract(), untrusted, "theorem1")
        assert not (t1.result == "holds" and direct.result == "violated"), f.name
        checked += 1
    assert checked >= 3


# ---------------------------------------------------------------------------
# criterion 7: runtime budget; official-suite path exercised on the
# in-repo hand-written state test only


def test_criterion_7_runtime_and_ingest():
    fixtures, skipped = ingest_official_tests(
        Path(__file__).parents[1] / "src" / "evmsem" / "corpus" / "state_tests")
    assert len(fixtures) == 1 and not skipped
    sigma, _t, receipt = execute_transaction(fixtures[0].tx, fixtures[0].header,
                                             fixtures[0].pre)
    assert receipt.status == "success"

    # every corpus fixture's run expectations hold
    for f in load_corpus():
        if "status" in f.expect or "post" in f.expect:
            sigma, _t, receipt = execute_transaction(
                f.tx, f.header, f.pre, ancestors=f.ancestors)
            problems = check_expectations(f, sigma, receipt)
            assert not problems, (f.name, problems)

    elapsed = time.time() - _T0
    assert elapsed < 300, f"acceptance suite took {elapsed:.0f}s"

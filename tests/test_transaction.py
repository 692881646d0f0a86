import pytest

from evmsem import semantics
from evmsem.bytecode import assemble
from evmsem.checkers import ScenarioSpace, check_single_entrancy
from evmsem.fixtures import load_corpus
from evmsem.gas import SCHEDULE
from evmsem.rlp import fresh_address
from evmsem.semantics import BudgetExhausted
from evmsem.state import Account, BlockHeader, CallStack, GlobalState
from evmsem.transaction import Transaction, execute_transaction, t_init
from proputil import program_frame

SENDER = 0xAAAA
TARGET = 0x1010
MINER = 0x5001

HEADER = BlockHeader(parent=0, beneficiary=MINER, difficulty=1, number=1,
                     gaslimit=10**7, timestamp=1000)


def make_sigma(target_code=b"", target_balance=0, sender_balance=10**15,
               sender_nonce=0, extra=None):
    accounts = {
        SENDER: Account(sender_nonce, sender_balance, {}, b""),
        TARGET: Account(0, target_balance, {}, target_code),
    }
    accounts.update(extra or {})
    return GlobalState(accounts)


def call_tx(value=0, gas_limit=50_000, nonce=0, input_=b"", price=2):
    return Transaction(nonce=nonce, gas_price=price, gas_limit=gas_limit,
                       to=TARGET, value=value, sender=SENDER, input=input_)


def test_t_init_invalid_cases():
    sigma = make_sigma()
    assert t_init(call_tx(nonce=5), HEADER, sigma) is None            # nonce
    assert t_init(call_tx(gas_limit=20_999), HEADER, sigma) is None   # intrinsic
    poor = make_sigma(sender_balance=10_000)
    assert t_init(call_tx(), HEADER, poor) is None                    # upfront
    missing = GlobalState({TARGET: Account()})
    assert t_init(call_tx(), HEADER, missing) is None                 # no sender


def test_t_init_builds_initial_frame():
    code = assemble("STOP")
    sigma = make_sigma(target_code=code, target_balance=5)
    tenv, frame, created = t_init(call_tx(value=7, input_=b"\x01"), HEADER, sigma)
    assert created is None
    assert tenv.origin == SENDER and tenv.gas_price == 2
    st = frame.state
    assert frame.contract == (TARGET, code)
    assert st.mu.gas == 50_000 - SCHEDULE["tx_intrinsic_call"]
    assert st.iota.actor == TARGET and st.iota.sender == SENDER
    assert st.iota.input == b"\x01" and st.iota.code == code
    # upfront charge and value transfer already applied, nonce bumped
    assert st.sigma.get(SENDER).nonce == 1
    assert st.sigma.get(SENDER).balance == 10**15 - 2 * 50_000 - 7
    assert st.sigma.get(TARGET).balance == 12


def test_simple_value_transfer():
    sigma = make_sigma(target_balance=5)
    sigma2, trace, receipt = execute_transaction(call_tx(value=100), HEADER, sigma)
    assert receipt.status == "success"
    assert receipt.gas_used == 21_000
    assert sigma2.get(TARGET).balance == 105
    # sender pays intrinsic gas only, at the declared price
    assert sigma2.get(SENDER).balance == 10**15 - 100 - 2 * 21_000
    assert sigma2.get(MINER).balance == 2 * 21_000


def test_invalid_transaction_leaves_state():
    sigma = make_sigma()
    sigma2, trace, receipt = execute_transaction(call_tx(nonce=9), HEADER, sigma)
    assert receipt.status == "invalid"
    assert sigma2 == sigma and trace == ()


def test_exception_consumes_all_gas_and_reverts_value():
    sigma = make_sigma(target_code=assemble("INVALID"))
    sigma2, _trace, receipt = execute_transaction(call_tx(value=50), HEADER, sigma)
    assert receipt.status == "exception"
    assert receipt.gas_used == 50_000
    assert sigma2.get(TARGET).balance == 0          # transfer reverted
    assert sigma2.get(SENDER).nonce == 1            # nonce bump stands
    assert sigma2.get(SENDER).balance == 10**15 - 2 * 50_000
    assert sigma2.get(MINER).balance == 2 * 50_000


def test_storage_refund_capped():
    # program deletes a storage entry: 15000 refund, capped at gas_used/2
    code = assemble("PUSH1 0x00\nPUSH1 0x00\nSSTORE\nSTOP")
    sigma = make_sigma(target_code=code, extra={
        TARGET: Account(0, 0, {0: 7}, code)})
    sigma2, _t, receipt = execute_transaction(call_tx(gas_limit=40_000), HEADER, sigma)
    assert receipt.status == "success"
    execution = 3 + 3 + 5000
    used_before_refund = 21_000 + execution
    refund = min(15_000, used_before_refund // 2)
    assert receipt.gas_used == used_before_refund - refund
    assert sigma2.get(TARGET).storage == {}


def test_create_transaction_deploys_empty_code():
    init = assemble("PUSH1 0x00\nPUSH1 0x00\nRETURN")
    tx = Transaction(nonce=0, gas_price=1, gas_limit=100_000, to=None, value=4,
                     sender=SENDER, input=init)
    sigma = make_sigma()
    sigma2, _t, receipt = execute_transaction(tx, HEADER, sigma)
    assert receipt.status == "success"
    rho = fresh_address(SENDER, 0)
    assert receipt.created == rho
    acct = sigma2.get(rho)
    assert acct.code == b"" and acct.balance == 4


def test_create_transaction_deploys_real_code():
    # init writes the byte 0xfe and returns it as the contract body
    init = assemble("PUSH1 0xfe\nPUSH1 0x00\nMSTORE8\nPUSH1 0x01\nPUSH1 0x00\nRETURN")
    tx = Transaction(nonce=0, gas_price=1, gas_limit=100_000, to=None, value=0,
                     sender=SENDER, input=init)
    sigma2, _t, receipt = execute_transaction(tx, HEADER, make_sigma())
    rho = fresh_address(SENDER, 0)
    assert sigma2.get(rho).code == b"\xfe"
    # the 200-per-byte deployment fee is charged
    assert receipt.gas_used >= 53_000 + 200


def _create_tx(init, gas_limit, value=0):
    return Transaction(nonce=0, gas_price=1, gas_limit=gas_limit, to=None, value=value,
                       sender=SENDER, input=init)


def test_create_transaction_deposit_fee_paid_exactly_or_not_at_all():
    # init costs 18 gas and returns one byte, whose deposit costs 200
    init = assemble("PUSH1 0xfe\nPUSH1 0x00\nMSTORE8\nPUSH1 0x01\nPUSH1 0x00\nRETURN")
    exact = SCHEDULE["tx_intrinsic_create"] + 18 + SCHEDULE["create_per_code_byte"]
    rho = fresh_address(SENDER, 0)
    sigma = make_sigma()
    sigma2, _t, receipt = execute_transaction(_create_tx(init, exact, value=4), HEADER, sigma)
    assert receipt.status == "success" and receipt.gas_used == exact
    assert sigma2.get(rho).code == b"\xfe" and sigma2.get(rho).balance == 4
    sigma2, _t, receipt = execute_transaction(_create_tx(init, exact - 1, value=4), HEADER, sigma)
    assert receipt.status == "exception" and receipt.gas_used == exact - 1
    assert sigma2.get(rho) is None                                # value returned
    assert sigma2.get(SENDER) == Account(1, 10**15 - (exact - 1), {}, b"")
    assert sigma2.get(MINER).balance == exact - 1
    assert sigma2.total_balance() == sigma.total_balance()


def test_create_transaction_keeps_the_balance_its_fresh_address_held():
    rho = fresh_address(SENDER, 0)
    sigma = make_sigma(extra={rho: Account(0, 7, {}, b"")})
    init = assemble("PUSH1 0x00\nPUSH1 0x00\nRETURN")
    sigma2, _t, receipt = execute_transaction(_create_tx(init, 100_000, value=4), HEADER, sigma)
    assert receipt.status == "success" and receipt.created == rho
    assert sigma2.get(rho) == Account(0, 7 + 4, {}, b"")
    assert sigma2.total_balance() == sigma.total_balance()


def test_call_transaction_with_value_to_its_sender_conserves_wei():
    sigma = make_sigma()
    tx = Transaction(nonce=0, gas_price=2, gas_limit=50_000, to=SENDER, value=100,
                     sender=SENDER, input=b"")
    sigma2, _t, receipt = execute_transaction(tx, HEADER, sigma)
    assert receipt.status == "success" and receipt.gas_used == 21_000
    assert sigma2.get(SENDER) == Account(1, 10**15 - 2 * 21_000, {}, b"")
    assert sigma2.get(MINER).balance == 2 * 21_000
    assert sigma2.total_balance() == sigma.total_balance()


def test_selfdestruct_deletes_at_finalization():
    # the beneficiary account does not exist: 37000-gas branch
    code = assemble(f"PUSH2 {hex(MINER)}\nSELFDESTRUCT")
    sigma = make_sigma(target_code=code, target_balance=30)
    sigma2, _t, receipt = execute_transaction(call_tx(gas_limit=60_000), HEADER, sigma)
    assert receipt.status == "success"
    assert sigma2.get(TARGET) is None
    assert sigma2.get(MINER).balance >= 30


def test_call_to_missing_account_transfers():
    sigma = GlobalState({SENDER: Account(0, 10**15, {}, b"")})
    sigma2, _t, receipt = execute_transaction(call_tx(value=9), HEADER, sigma)
    assert receipt.status == "success"
    assert sigma2.get(TARGET).balance == 9


def test_wei_conservation():
    cases = [
        (make_sigma(target_balance=5), call_tx(value=100)),
        (make_sigma(target_code=assemble("INVALID")), call_tx(value=50)),
        (make_sigma(target_code=assemble("PUSH1 0x05\nPUSH1 0x00\nSSTORE\nSTOP")),
         call_tx(gas_limit=60_000)),
        (make_sigma(target_code=assemble(f"PUSH2 {hex(MINER)}\nSELFDESTRUCT"),
                    target_balance=30), call_tx()),
    ]
    for sigma, tx in cases:
        before = sigma.total_balance()
        sigma2, _t, receipt = execute_transaction(tx, HEADER, sigma)
        assert receipt.status != "invalid"
        assert sigma2.total_balance() == before


def test_replay_determinism():
    code = assemble("PUSH1 0x2a\nPUSH1 0x01\nSSTORE\nPUSH1 0x00\nPUSH1 0x00\nLOG0\nSTOP")
    sigma = make_sigma(target_code=code)
    r1 = execute_transaction(call_tx(gas_limit=90_000), HEADER, sigma)
    r2 = execute_transaction(call_tx(gas_limit=90_000), HEADER, sigma)
    assert r1[0] == r2[0]
    assert r1[1] == r2[1]
    assert r1[2] == r2[2]


def test_budget_exhausted_propagates():
    # infinite loop: JUMPDEST; PUSH1 0; JUMP
    code = assemble("JUMPDEST\nPUSH1 0x00\nJUMP")
    sigma = make_sigma(target_code=code)
    with pytest.raises(BudgetExhausted):
        execute_transaction(call_tx(gas_limit=10**6), HEADER, sigma, 50)


@pytest.mark.parametrize("max_steps", [0, -1])
def test_every_driver_rejects_a_budget_below_one_step(max_steps):
    # iterate_steps, the loop every driver reaches, rejects it before any step
    code = assemble("STOP")
    sigma = make_sigma(target_code=code)
    tenv, frame, _created = t_init(call_tx(), HEADER, sigma)
    stack = CallStack(frame, None, 1)
    space = ScenarioSpace(pre=sigma, tx=call_tx(), header=HEADER, max_steps=max_steps)
    drives = [lambda: semantics.run(tenv, stack, max_steps),
              lambda: semantics.run_frame(tenv, stack, max_steps),
              lambda: semantics.run_to_depth(tenv, stack, 1, max_steps),
              lambda: semantics.run_with_local_updates(tenv, stack, {}, max_steps),
              lambda: execute_transaction(call_tx(), HEADER, sigma, max_steps),
              lambda: check_single_entrancy(space, (TARGET, code))]
    for drive in drives:
        with pytest.raises(ValueError, match="max_steps must be positive"):
            drive()


def test_receipt_reports_logs():
    code = assemble("PUSH1 0x07\nPUSH1 0x00\nPUSH1 0x02\nLOG1\nSTOP")
    sigma = make_sigma(target_code=code)
    _s, _t, receipt = execute_transaction(call_tx(gas_limit=60_000), HEADER, sigma)
    assert len(receipt.logs) == 1
    assert receipt.logs[0].topics == (7,)
    assert receipt.logs[0].address == TARGET
    js = receipt.to_json()
    assert js["logs"][0]["topics"] == ["0x7"]


def _program_transaction(seed):
    """The criterion-5 program of one seed as a call transaction from ORIGIN
    to the program's account, with the program's gas left after t_init."""
    st = program_frame(seed).state
    pre = GlobalState({**dict(st.sigma.items()),
                       st.iota.sender: Account(0, 10**15, {}, b"")})
    tx = Transaction(nonce=0, gas_price=1,
                     gas_limit=SCHEDULE["tx_intrinsic_call"] + st.mu.gas,
                     to=st.iota.actor, value=st.iota.value, sender=st.iota.sender,
                     input=st.iota.input)
    return tx, pre


def test_execute_transaction_steps_once_per_trace_action(monkeypatch):
    # a tracer that counts calls to semantics.step sees every step this way
    calls = []
    inner = semantics.step

    def counting_step(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(semantics, "step", counting_step)
    f = next(f for f in load_corpus() if f.name == "bob_mallory")
    runs = [(f.tx, f.pre, f.header)]
    # seeds 0-11 give plain programs and call prefixes; 16 and 25 a CREATE pair
    runs += [(*_program_transaction(seed), HEADER) for seed in (*range(12), 16, 25)]
    tags = set()
    for tx, pre, header in runs:
        calls.clear()
        _sigma, trace, receipt = execute_transaction(tx, header, pre)
        assert receipt.status != "invalid"
        assert len(calls) == len(trace) > 0
        tags.update(a.tag for a in trace)
    assert {"op", "enter", "ret", "exc_ret", "halt", "exc"} <= tags

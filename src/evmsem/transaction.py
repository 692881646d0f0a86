"""External transaction lifecycle: initialization, execution, finalization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gas import SCHEDULE
from .rlp import fresh_address
from .semantics import run
from .state import (EMPTY_EFFECTS, Account, BlockHeader, CallStack, ExcState, Frame,
                    GlobalState, Halt, MachineState, Regular,
                    TransactionEnvironment, ExecutionEnvironment)

TYPE_CALL = "call"
TYPE_CREATE = "create"


@dataclass(frozen=True)
class Transaction:
    nonce: int
    gas_price: int
    gas_limit: int
    to: Optional[int]          # absent for create transactions
    value: int
    sender: int
    input: bytes
    type: str = TYPE_CALL

    def __post_init__(self):
        if self.type not in (TYPE_CALL, TYPE_CREATE):
            raise ValueError(f"unknown transaction type {self.type!r}")
        if self.type == TYPE_CREATE and self.to is not None:
            raise ValueError("create transaction must not name a recipient")
        if self.type == TYPE_CALL and self.to is None:
            raise ValueError("call transaction needs a recipient")


@dataclass(frozen=True)
class Receipt:
    status: str                # "success" | "exception" | "invalid"
    gas_used: int
    logs: tuple
    created: Optional[int] = None
    output: bytes = b""

    def to_json(self) -> dict:
        from .words import address_to_hex, bytes_to_hex
        return {
            "status": self.status,
            "gas_used": hex(self.gas_used),
            "logs": [
                {"address": address_to_hex(ev.address),
                 "topics": [hex(t) for t in ev.topics],
                 "data": bytes_to_hex(ev.data)}
                for ev in self.logs
            ],
            "created": address_to_hex(self.created) if self.created is not None else None,
            "output": bytes_to_hex(self.output),
        }


def intrinsic_gas(tx: Transaction) -> int:
    if tx.type == TYPE_CREATE:
        return SCHEDULE["tx_intrinsic_create"]
    return SCHEDULE["tx_intrinsic_call"]


def t_init(tx: Transaction, header: BlockHeader, sigma: GlobalState,
           ancestors: Optional[dict] = None):
    """Validity checks plus construction of the initial configuration.

    Returns (tenv, initial annotated frame, created address or None), or
    None when the transaction is invalid.
    """
    sender = sigma.get(tx.sender)
    if sender is None:
        return None
    if tx.nonce != sender.nonce:
        return None
    upfront = tx.gas_limit * tx.gas_price + tx.value
    if sender.balance < upfront:
        return None
    if tx.gas_limit < intrinsic_gas(tx):
        return None

    tenv = TransactionEnvironment(tx.sender, tx.gas_price, header, ancestors or {})
    gas = tx.gas_limit - intrinsic_gas(tx)
    sigma0 = sigma.put(tx.sender, Account(sender.nonce + 1, sender.balance - upfront,
                                          sender.storage, sender.code))

    if tx.type == TYPE_CALL:
        to = tx.to
        target = sigma0.get(to)
        if target is not None:
            code = target.code
            sigma0 = sigma0.put(to, target.with_balance(target.balance + tx.value))
        else:
            code = b""
            sigma0 = sigma0.put(to, Account(0, tx.value, {}, b""))
        iota = ExecutionEnvironment(actor=to, input=tx.input, sender=tx.sender,
                                    value=tx.value, code=code)
        annotation = (to, code)
        created = None
    else:
        rho = fresh_address(tx.sender, sender.nonce)
        existing = sigma0.get(rho)
        balance = tx.value if existing is None else existing.balance + tx.value
        sigma0 = sigma0.put(rho, Account(0, balance, {}, b""))
        iota = ExecutionEnvironment(actor=rho, input=b"", sender=tx.sender,
                                    value=tx.value, code=tx.input)
        annotation = None
        created = rho

    mu = MachineState(gas=gas, pc=0, memory=b"", active_words=0, stack=())
    frame = Frame(Regular(mu, iota, sigma0, EMPTY_EFFECTS), annotation)
    return tenv, frame, created


def t_final(final_state, tx: Transaction, sigma_pre: GlobalState,
            beneficiary: int, created: Optional[int] = None):
    """Finalization: code deployment for creates, gas refund, fee payout and
    suicide-set deletion. Returns (sigma', receipt)."""
    if isinstance(final_state, ExcState):
        return _finalize_exception(tx, sigma_pre, beneficiary)

    assert isinstance(final_state, Halt)
    sigma, gas_rem, data, eta = (final_state.sigma, final_state.gas,
                                 final_state.data, final_state.eta)

    deployed = None
    if tx.type == TYPE_CREATE:
        c_final = SCHEDULE["create_per_code_byte"] * len(data)
        if gas_rem < c_final:
            return _finalize_exception(tx, sigma_pre, beneficiary)
        gas_rem -= c_final
        acct = sigma.get(created)
        if acct is None:
            acct = Account()
        sigma = sigma.put(created, acct.with_code(bytes(data)))
        deployed = created

    gas_used = tx.gas_limit - gas_rem
    refund = min(eta.refund, gas_used // 2)
    gas_returned = gas_rem + refund
    fee = (tx.gas_limit - gas_returned) * tx.gas_price

    sender = sigma.get(tx.sender)
    if sender is None:
        sender = Account()
    sigma = sigma.put(tx.sender,
                      sender.with_balance(sender.balance + gas_returned * tx.gas_price))
    sigma = _pay(sigma, beneficiary, fee)
    for addr in eta.suicides:
        sigma = sigma.delete(addr)

    receipt = Receipt("success", tx.gas_limit - gas_returned, eta.logs,
                      deployed, bytes(data))
    return sigma, receipt


def _pay(sigma: GlobalState, addr: int, amount: int) -> GlobalState:
    acct = sigma.get(addr)
    if acct is None:
        return sigma.put(addr, Account(0, amount, {}, b""))
    return sigma.put(addr, acct.with_balance(acct.balance + amount))


def _finalize_exception(tx: Transaction, sigma_pre: GlobalState, beneficiary: int):
    """All gas consumed; nonce bump and gas payment stand, everything else
    (including the upfront value transfer) reverted."""
    sender = sigma_pre.get(tx.sender)
    fee = tx.gas_limit * tx.gas_price
    sigma = sigma_pre.put(tx.sender, Account(sender.nonce + 1, sender.balance - fee,
                                             sender.storage, sender.code))
    sigma = _pay(sigma, beneficiary, fee)
    return sigma, Receipt("exception", tx.gas_limit, ())


def execute_transaction(tx: Transaction, header: BlockHeader, sigma: GlobalState,
                        max_steps: int = 1_000_000,
                        ancestors: Optional[dict] = None):
    """Compose t_init, run and t_final; returns (sigma', trace, receipt)."""
    init = t_init(tx, header, sigma, ancestors)
    if init is None:
        return sigma, (), Receipt("invalid", 0, ())
    tenv, frame, created = init
    final_stack, trace = run(tenv, CallStack(frame, None, 1), max_steps)
    sigma2, receipt = t_final(final_stack.top.state, tx, sigma,
                              header.beneficiary, created)
    return sigma2, trace, receipt

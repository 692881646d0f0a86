"""External transaction lifecycle: initialization, execution, finalization."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .gas import SCHEDULE
from .rlp import fresh_address
from .semantics import callee_frame, deposit_code, open_account, run
from .state import (EMPTY_EFFECTS, EXC, BlockHeader, CallStack, GlobalState, Halt,
                    TransactionEnvironment, charge, credit)
from .words import address_to_hex, bytes_to_hex


class Transaction(NamedTuple):
    nonce: int
    gas_price: int
    gas_limit: int
    to: Optional[int]          # None exactly for a create transaction
    value: int
    sender: int
    input: bytes


class Receipt(NamedTuple):
    status: str                # "success" | "exception" | "invalid"
    gas_used: int
    logs: tuple
    created: Optional[int] = None
    output: bytes = b""

    def to_json(self) -> dict:
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
    if tx.to is None:
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
    sigma0 = charge(sigma, tx.sender, upfront)
    if tx.to is not None:
        sigma0 = credit(sigma0, tx.to, tx.value)
        code = sigma0.get(tx.to).code
        env, contract, created = (tx.to, tx.input, tx.sender, tx.value, code), (tx.to, code), None
    else:
        created = fresh_address(tx.sender, sender.nonce)
        sigma0 = open_account(sigma0, created, tx.value)
        env, contract = (created, b"", tx.sender, tx.value, tx.input), None
    frame = callee_frame(tx.gas_limit - intrinsic_gas(tx), env, sigma0, EMPTY_EFFECTS, contract)
    return tenv, frame, created


def t_final(final_state, tx: Transaction, sigma_pre: GlobalState,
            beneficiary: int, created: Optional[int] = None):
    """Finalization: code deployment for creates (at created, the address
    t_init returned), gas refund, fee payout and suicide-set deletion.
    Returns (sigma', receipt)."""
    if final_state is EXC:
        return _finalize_exception(tx, sigma_pre, beneficiary)

    assert isinstance(final_state, Halt)
    sigma, gas_rem, data, eta = final_state
    if tx.to is None:
        deposit = deposit_code(final_state, created)
        if deposit is None:
            return _finalize_exception(tx, sigma_pre, beneficiary)
        sigma, gas_rem = deposit

    gas_used = tx.gas_limit - gas_rem
    refund = min(eta.refund, gas_used // 2)
    gas_returned = gas_rem + refund
    fee = (tx.gas_limit - gas_returned) * tx.gas_price
    sigma = credit(credit(sigma, tx.sender, gas_returned * tx.gas_price), beneficiary, fee)
    for addr in eta.suicides:
        sigma = sigma.delete(addr)

    receipt = Receipt("success", tx.gas_limit - gas_returned, eta.logs, created, bytes(data))
    return sigma, receipt


def _finalize_exception(tx: Transaction, sigma_pre: GlobalState, beneficiary: int):
    """All gas consumed; nonce bump and gas payment stand, everything else
    (including the upfront value transfer) reverted."""
    fee = tx.gas_limit * tx.gas_price
    sigma = credit(charge(sigma_pre, tx.sender, fee), beneficiary, fee)
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

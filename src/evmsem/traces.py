"""Opcode-level trace actions, projection, and the per-contract call filter."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .state import Contract
from .words import address_to_hex, bytes_to_hex

# the ops whose enter action is a call or create; each one's args are its
# rule's n popped words
CALL_OPS = ("CALL", "CALLCODE", "DELEGATECALL", "CREATE")


class Action(NamedTuple):
    """A trace action, built on every step."""
    op: str
    contract: Optional[Contract]
    args: tuple = ()
    # "op" for plain steps, "enter" when a new frame was pushed,
    # "fail" for call-time failures, "exc"/"halt" for frame-ending steps,
    # "ret"/"exc_ret" for return processing
    tag: str = "op"


Trace = tuple
ActionPredicate = Callable[[Action], bool]


def project(trace, predicate: ActionPredicate) -> Trace:
    """Order-preserving filter of a trace."""
    return tuple(a for a in trace if predicate(a))


def calls_of(contract: Contract) -> ActionPredicate:
    """Predicate matching the call and create actions of one contract."""

    def pred(action: Action) -> bool:
        return (action.tag == "enter"
                and action.op in CALL_OPS
                and action.contract == contract)

    return pred


def actions_equal(a: Action, b: Action, ignore_gas: bool = False) -> bool:
    """Exact tuple equality; the relaxed mode masks the gas argument g of
    CALL/CALLCODE/DELEGATECALL (gas values are environment-sensitive)."""
    if not ignore_gas:
        return a == b
    if (a.op, a.contract, a.tag) != (b.op, b.contract, b.tag):
        return False
    aa, ba = a.args, b.args
    if a.op in ("CALL", "CALLCODE", "DELEGATECALL") and a.tag == "enter":
        aa, ba = aa[1:], ba[1:]
    return aa == ba


def first_divergence(a, b, ignore_gas: bool = False) -> Optional[int]:
    """Index of the first differing action, or None if the traces agree."""
    for i, (x, y) in enumerate(zip(a, b)):
        if not actions_equal(x, y, ignore_gas):
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def action_to_json(action: Action) -> dict:
    contract = None
    if action.contract is not None:
        contract = {"address": address_to_hex(action.contract[0]),
                    "code": bytes_to_hex(action.contract[1])}
    return {
        "op": action.op,
        "contract": contract,
        "args": [hex(x) for x in action.args],
        "tag": action.tag,
    }

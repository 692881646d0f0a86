"""Frozen copy of the gas formulas used by the oracle interpreter core.

Gas formulas and the frozen cost schedule.

All arithmetic runs in unbounded precision and is compared against the
available gas before any subtraction, so underflow wraparound cannot occur.

Known artifact kept as printed: the call base cost charges 6500 for a value
transfer while the gas-cap formula's internal c_ex uses 9000; the 200-gas
discrepancy (6500 + 2300 stipend = 8800 != 9000) is intentional fidelity to
the source semantics, not a bug.
"""

from __future__ import annotations

from types import MappingProxyType

# constant cost per opcode family; one canonical immutable instance
SCHEDULE = MappingProxyType({
    "binop_cheap": 3,        # ADD SUB LT GT SLT SGT EQ AND OR XOR BYTE
    "binop_expensive": 5,    # MUL DIV SDIV MOD SMOD SIGNEXTEND
    "unop": 3,               # ISZERO NOT
    "ternary": 8,            # ADDMOD MULMOD
    "exp_base": 10,
    "exp_per_byte": 10,
    "sha3_base": 30,
    "sha3_per_word": 6,
    "base_access": 2,        # env/tx-env/machine-state reads, POP
    "verylow": 3,            # PUSH DUP SWAP CALLDATALOAD MLOAD MSTORE(8)
    "copy_base": 3,
    "copy_per_word": 3,
    "balance": 400,
    "extcode": 700,          # EXTCODESIZE base, EXTCODECOPY base
    "blockhash": 20,
    "sload": 200,
    "sstore_set": 20000,
    "sstore_reset": 5000,
    "sstore_refund": 15000,
    "jump": 8,
    "jumpi": 10,
    "jumpdest": 1,
    "log_base": 375,
    "log_per_byte": 8,
    "log_per_topic": 375,
    "selfdestruct": 5000,
    "selfdestruct_new_account": 37000,
    "selfdestruct_refund": 24000,
    "call_base": 700,
    "call_value": 6500,
    "call_new_account": 25000,
    "call_stipend": 2300,
    "callcap_value": 9000,   # c_ex value term inside the gas-cap formula
    "create": 32000,
    "create_per_code_byte": 200,
    # transaction lifecycle (extension, see transaction module)
    "tx_intrinsic_call": 21000,
    "tx_intrinsic_create": 53000,
})


def mem_ext(i: int, offset: int, size: int) -> int:
    """Active words in memory after touching [offset, offset+size)."""
    if size == 0:
        return i
    return max(i, -(-(offset + size) // 32))


def c_mem(aw: int, aw_after: int) -> int:
    """Cost of growing active memory words from aw to aw_after."""
    return 3 * (aw_after - aw) + aw_after**2 // 512 - aw**2 // 512


def l_all_but_one_64th(g: int) -> int:
    return g - g // 64


def c_base(va: int, flag: int) -> int:
    """Base cost of a call; flag=0 means the callee account must be created."""
    return 700 + (0 if va == 0 else 6500) + (25000 if flag == 0 else 0)


def c_gascap(va: int, flag: int, g: int, gas: int) -> int:
    """Gas budget handed to a call, given the requested g and available gas."""
    c_ex = 700 + (0 if va == 0 else 9000) + (25000 if flag == 0 else 0)
    cap = g if c_ex > gas else min(g, l_all_but_one_64th(gas - c_ex))
    return cap + (0 if va == 0 else 2300)


def exp_cost(exponent: int) -> int:
    """10 for a zero exponent, else 10 + 10 * (1 + floor(log256 exponent))."""
    if exponent == 0:
        return 10
    return 10 + 10 * (1 + (exponent.bit_length() - 1) // 8)


def sha3_cost(size: int) -> int:
    return 30 + 6 * (-(-size // 32))


def copy_cost(base: int, size: int) -> int:
    return base + 3 * (-(-size // 32))


def log_cost(size: int, topics: int) -> int:
    return 375 + 8 * size + 375 * topics


def sstore_cost(current: int, new: int) -> int:
    return 20000 if (new != 0 and current == 0) else 5000


def sstore_refund(current: int, new: int) -> int:
    return 15000 if (new == 0 and current != 0) else 0

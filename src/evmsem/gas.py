"""Gas formulas and the frozen cost schedule.

SCHEDULE is the only place a constant cost is written: the formulas below
and the interpreter's rule table read it. All arithmetic runs in unbounded
precision and is compared against the available gas before any subtraction,
so underflow wraparound cannot occur.

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
    "memory_per_word": 3,
    "memory_quad_divisor": 512,
    "copy_base": 3,          # CALLDATACOPY CODECOPY
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
    "callcap_divisor": 64,   # a call or create keeps back 1/64 of the gas
    "create": 32000,
    "create_per_code_byte": 200,
    # transaction lifecycle (extension, see transaction module)
    "tx_intrinsic_call": 21000,
    "tx_intrinsic_create": 53000,
})


# what the formulas read, once, at import: several run on every call or memory access
(_MEMORY_PER_WORD, _MEMORY_QUAD_DIVISOR, _CALLCAP_DIVISOR, _EXP_BASE, _EXP_PER_BYTE, _SHA3_BASE,
 _SHA3_PER_WORD, _COPY_PER_WORD, _LOG_BASE, _LOG_PER_BYTE, _LOG_PER_TOPIC, _SSTORE_SET,
 _SSTORE_RESET, _SSTORE_REFUND, _CALL_BASE, _CALL_VALUE, _CALL_NEW_ACCOUNT, _CALL_STIPEND,
 _CALLCAP_VALUE) = (SCHEDULE[k] for k in (
    "memory_per_word", "memory_quad_divisor", "callcap_divisor", "exp_base", "exp_per_byte",
    "sha3_base", "sha3_per_word", "copy_per_word", "log_base", "log_per_byte", "log_per_topic",
    "sstore_set", "sstore_reset", "sstore_refund", "call_base", "call_value",
    "call_new_account", "call_stipend", "callcap_value"))


def mem_ext(i: int, offset: int, size: int) -> int:
    """Active words in memory after touching [offset, offset+size)."""
    if size == 0:
        return i
    return max(i, -(-(offset + size) // 32))


def c_mem(aw: int, aw_after: int) -> int:
    """Cost of growing active memory words from aw to aw_after."""
    q = _MEMORY_QUAD_DIVISOR
    return _MEMORY_PER_WORD * (aw_after - aw) + aw_after**2 // q - aw**2 // q


def l_all_but_one_64th(g: int) -> int:
    return g - g // _CALLCAP_DIVISOR


def c_base(va: int, flag: int) -> int:
    """Base cost of a call; flag=0 means the callee account must be created."""
    return (_CALL_BASE + (0 if va == 0 else _CALL_VALUE)
            + (_CALL_NEW_ACCOUNT if flag == 0 else 0))


def c_gascap(va: int, flag: int, g: int, gas: int) -> int:
    """Gas budget handed to a call, given the requested g and available gas."""
    c_ex = (_CALL_BASE + (0 if va == 0 else _CALLCAP_VALUE)
            + (_CALL_NEW_ACCOUNT if flag == 0 else 0))
    cap = g if c_ex > gas else min(g, l_all_but_one_64th(gas - c_ex))
    return cap + (0 if va == 0 else _CALL_STIPEND)


def exp_cost(exponent: int) -> int:
    """exp_base plus exp_per_byte for each byte of the exponent, none for 0."""
    return _EXP_BASE + _EXP_PER_BYTE * ((exponent.bit_length() + 7) // 8)


def sha3_cost(size: int) -> int:
    return _SHA3_BASE + _SHA3_PER_WORD * -(-size // 32)


def copy_cost(base: int, size: int) -> int:
    return base + _COPY_PER_WORD * -(-size // 32)


def log_cost(size: int, topics: int) -> int:
    return _LOG_BASE + _LOG_PER_BYTE * size + _LOG_PER_TOPIC * topics


def sstore_cost(current: int, new: int) -> int:
    return _SSTORE_SET if (new != 0 and current == 0) else _SSTORE_RESET


def sstore_refund(current: int, new: int) -> int:
    return _SSTORE_REFUND if (new == 0 and current != 0) else 0

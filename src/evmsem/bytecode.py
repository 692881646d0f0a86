"""Opcode table, decoding, textual assembly and jump-destination analysis.

Byte values follow the canonical EVM opcode chart; any byte outside the
table decodes to INVALID.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator

# mnemonic -> byte for the non-parameterised opcodes
_BASE_OPS = {
    "STOP": 0x00, "ADD": 0x01, "MUL": 0x02, "SUB": 0x03, "DIV": 0x04,
    "SDIV": 0x05, "MOD": 0x06, "SMOD": 0x07, "ADDMOD": 0x08, "MULMOD": 0x09,
    "EXP": 0x0A, "SIGNEXTEND": 0x0B,
    "LT": 0x10, "GT": 0x11, "SLT": 0x12, "SGT": 0x13, "EQ": 0x14,
    "ISZERO": 0x15, "AND": 0x16, "OR": 0x17, "XOR": 0x18, "NOT": 0x19,
    "BYTE": 0x1A,
    "SHA3": 0x20,
    "ADDRESS": 0x30, "BALANCE": 0x31, "ORIGIN": 0x32, "CALLER": 0x33,
    "CALLVALUE": 0x34, "CALLDATALOAD": 0x35, "CALLDATASIZE": 0x36,
    "CALLDATACOPY": 0x37, "CODESIZE": 0x38, "CODECOPY": 0x39,
    "GASPRICE": 0x3A, "EXTCODESIZE": 0x3B, "EXTCODECOPY": 0x3C,
    "BLOCKHASH": 0x40, "COINBASE": 0x41, "TIMESTAMP": 0x42, "NUMBER": 0x43,
    "DIFFICULTY": 0x44, "GASLIMIT": 0x45,
    "POP": 0x50, "MLOAD": 0x51, "MSTORE": 0x52, "MSTORE8": 0x53,
    "SLOAD": 0x54, "SSTORE": 0x55, "JUMP": 0x56, "JUMPI": 0x57,
    "PC": 0x58, "MSIZE": 0x59, "GAS": 0x5A, "JUMPDEST": 0x5B,
    "CREATE": 0xF0, "CALL": 0xF1, "CALLCODE": 0xF2, "RETURN": 0xF3,
    "DELEGATECALL": 0xF4, "INVALID": 0xFE, "SELFDESTRUCT": 0xFF,
}

MNEMONIC_TO_BYTE = dict(_BASE_OPS)
for _n in range(1, 33):
    MNEMONIC_TO_BYTE[f"PUSH{_n}"] = 0x60 + _n - 1
for _n in range(1, 17):
    MNEMONIC_TO_BYTE[f"DUP{_n}"] = 0x80 + _n - 1
    MNEMONIC_TO_BYTE[f"SWAP{_n}"] = 0x90 + _n - 1
for _n in range(0, 5):
    MNEMONIC_TO_BYTE[f"LOG{_n}"] = 0xA0 + _n

BYTE_TO_MNEMONIC = {b: m for m, b in MNEMONIC_TO_BYTE.items()}

STOP = 0x00
JUMPDEST = 0x5B
PUSH1 = 0x60
PUSH32 = 0x7F
INVALID = 0xFE


def mnemonic(byte: int) -> str:
    return BYTE_TO_MNEMONIC.get(byte, "INVALID")


def is_push(byte: int) -> bool:
    return PUSH1 <= byte <= PUSH32


def push_size(byte: int) -> int:
    return byte - PUSH1 + 1 if is_push(byte) else 0


def current_opcode(mu, iota) -> int:
    """Code byte at pc when pc < |code|, STOP otherwise."""
    pc = mu.pc
    code = iota.code
    return code[pc] if pc < len(code) else STOP


def instructions(code: bytes) -> Iterator[int]:
    """The position of each instruction in code, from 0, skipping PUSH immediates."""
    i = 0
    while i < len(code):
        yield i
        i += push_size(code[i]) + 1


@lru_cache(maxsize=1024)
def valid_jump_dests(code: bytes) -> frozenset:
    """Positions of the JUMPDEST instructions of code."""
    return frozenset(i for i in instructions(code) if code[i] == JUMPDEST)


# ---------------------------------------------------------------------------
# textual assembly: one instruction per line, `PUSH1 0x01` style, # comments


class AsmError(ValueError):
    pass


_LINE_RE = re.compile(r"^\s*([A-Z0-9]+)(?:\s+(\S+))?\s*$")


def assemble(program: str) -> bytes:
    """Assemble a text program."""
    out = bytearray()
    for lineno, raw in enumerate(program.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise AsmError(f"line {lineno}: cannot parse {raw!r}")
        op, arg = m.groups()
        byte = MNEMONIC_TO_BYTE.get(op)
        if byte is None:
            raise AsmError(f"line {lineno}: unknown mnemonic {op!r}")
        out.append(byte)
        n = push_size(byte)
        if n:
            if arg is None:
                raise AsmError(f"line {lineno}: {op} needs an immediate")
            value = int(arg, 16) if arg.startswith("0x") else int(arg)
            if value < 0 or value >= 1 << (8 * n):
                raise AsmError(f"line {lineno}: immediate {arg} does not fit {op}")
            out += value.to_bytes(n, "big")
        elif arg is not None:
            raise AsmError(f"line {lineno}: {op} takes no immediate")
    return bytes(out)


def disassemble(code: bytes) -> list:
    """Decode to a list of (mnemonic, arg-or-None); truncated PUSH payloads
    are zero-padded in the rendering and marked."""
    out = []
    for i in instructions(code):
        byte = code[i]
        name, imm = mnemonic(byte), push_size(byte)
        if imm:
            raw = code[i + 1:i + 1 + imm]
            arg = "0x" + raw.ljust(imm, b"\x00").hex() + (" # truncated" if len(raw) < imm else "")
        else:
            arg = f"# raw 0x{byte:02x}" if name == "INVALID" and byte != INVALID else None
        out.append((name, arg))
    return out


def disassemble_text(code: bytes) -> str:
    return "\n".join(f"{name} {arg}" if arg else name for name, arg in disassemble(code))

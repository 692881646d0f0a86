"""256-bit machine words, byte arrays and hex codecs.

Words are plain ints kept in [0, 2**256); every operation reduces mod 2**256.
Addresses are ints in [0, 2**160). The hex codecs reject a value outside
those ranges rather than reduce it.
"""

from __future__ import annotations

Word256 = int
Address = int

TWO_256 = 2**256
TWO_255 = 2**255
U256_MAX = TWO_256 - 1
ADDR_MASK = 2**160 - 1


def signed(x: Word256) -> int:
    """Two's-complement view of a word."""
    return x - TWO_256 if x >= TWO_255 else x


def unsigned(x: int) -> Word256:
    return x % TWO_256


def to_address(x: Word256) -> Address:
    return x & ADDR_MASK


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    if a == TWO_255 and signed(b) == -1:
        # printed special case: 2**256, reduced mod 2**256
        return 0
    sa, sb = signed(a), signed(b)
    q = abs(sa) // abs(sb)
    return unsigned(-q if (sa < 0) != (sb < 0) else q)


def _smod(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = signed(a), signed(b)
    r = abs(sa) % abs(sb)
    return unsigned(-r if sa < 0 else r)


def byte_op(o: int, b: int) -> int:
    """o-th byte of b counting from the most significant end; 0 for o >= 32."""
    if o >= 32:
        return 0
    return (b >> (8 * (31 - o))) & 0xFF


def signextend(a: int, b: int) -> int:
    """Sign-extend the low (a+1) bytes of b; identity for a >= 31."""
    if a >= 31:
        return b
    bit = 8 * a + 7
    if (b >> bit) & 1:
        return b | (U256_MAX ^ ((1 << (bit + 1)) - 1))
    return b & ((1 << (bit + 1)) - 1)


BIN_FUNS = {
    "ADD": lambda a, b: (a + b) % TWO_256,
    "SUB": lambda a, b: (a - b) % TWO_256,
    "MUL": lambda a, b: (a * b) % TWO_256,
    "DIV": lambda a, b: 0 if b == 0 else a // b,
    "SDIV": _sdiv,
    "MOD": lambda a, b: 0 if b == 0 else a % b,
    "SMOD": _smod,
    "LT": lambda a, b: 1 if a < b else 0,
    "GT": lambda a, b: 1 if a > b else 0,
    "SLT": lambda a, b: 1 if signed(a) < signed(b) else 0,
    "SGT": lambda a, b: 1 if signed(a) > signed(b) else 0,
    "EQ": lambda a, b: 1 if a == b else 0,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "BYTE": byte_op,
    "SIGNEXTEND": signextend,
}


def binop(kind: str, a: Word256, b: Word256) -> Word256:
    """Total binary stack operation; kind is the mnemonic."""
    return BIN_FUNS[kind](a, b)


# ---------------------------------------------------------------------------
# byte array helpers


def word_from_bytes(data: bytes) -> Word256:
    """Big-endian interpretation; data must be at most 32 bytes."""
    if len(data) > 32:
        raise ValueError("more than 32 bytes")
    return int.from_bytes(data, "big")


def address_to_bytes(a: Address) -> bytes:
    return a.to_bytes(20, "big")


# ---------------------------------------------------------------------------
# hex codecs (0x-prefixed, lowercase) used by the fixture format


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _hex_digits(s: str, what: str) -> str:
    """The digits of s, which must be 0x followed by hex digits only: int
    and bytes.fromhex would also take underscores and whitespace."""
    if not isinstance(s, str) or not s.startswith("0x"):
        raise ValueError(f"{what} must be a 0x-prefixed string: {s!r}")
    if not _HEX_DIGITS.issuperset(s[2:]):
        raise ValueError(f"{what} must be 0x followed by hex digits only: {s!r}")
    return s[2:]


def _hex_below(s: str, bits: int, what: str) -> int:
    """The int a 0x hex string names, which must fit in bits: a value that
    does not fit is an error, not reduced."""
    x = int(_hex_digits(s, "hex value"), 16)
    if x >> bits:
        raise ValueError(f"{what} must be below 2**{bits}: {s!r}")
    return x


def hex_to_word(s: str) -> Word256:
    return _hex_below(s, 256, "a word")


def bytes_to_hex(data: bytes) -> str:
    return "0x" + data.hex()


def hex_to_bytes(s: str) -> bytes:
    body = _hex_digits(s, "hex bytes")
    if len(body) % 2:
        raise ValueError(f"hex bytes must be of even length: {s!r}")
    return bytes.fromhex(body)


def address_to_hex(a: Address) -> str:
    return "0x" + a.to_bytes(20, "big").hex()


def hex_to_address(s: str) -> Address:
    return _hex_below(s, 160, "an address")

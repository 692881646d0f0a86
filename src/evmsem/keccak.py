"""Keccak-256 (original Keccak padding, not FIPS SHA-3)."""

from __future__ import annotations

from struct import pack, unpack_from

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_MASK64 = (1 << 64) - 1
_RATE_BYTES = 136  # 1088-bit rate for Keccak-256: 17 lanes


def _keccak_f(state: list[int]) -> list[int]:
    """Keccak-f[1600] on 25 lanes, lane (x, y) at index x + 5*y. The lanes stay in
    locals a<x><y> through all 24 rounds, with rho and pi written out as constants."""
    (a00, a10, a20, a30, a40, a01, a11, a21, a31, a41, a02, a12, a22, a32, a42,
     a03, a13, a23, a33, a43, a04, a14, a24, a34, a44) = state
    for rc in _ROUND_CONSTANTS:
        # theta: column parities C and the D each column is XORed with
        c0 = a00 ^ a01 ^ a02 ^ a03 ^ a04
        c1 = a10 ^ a11 ^ a12 ^ a13 ^ a14
        c2 = a20 ^ a21 ^ a22 ^ a23 ^ a24
        c3 = a30 ^ a31 ^ a32 ^ a33 ^ a34
        c4 = a40 ^ a41 ^ a42 ^ a43 ^ a44
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & _MASK64)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & _MASK64)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & _MASK64)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & _MASK64)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & _MASK64)
        # rho + pi: lane (x, y) ^ D[x], rotated, lands at (y, 2x + 3y mod 5)
        b00 = a00 ^ d0
        b10 = (((t := a11 ^ d1) << 44) | (t >> 20)) & _MASK64
        b20 = (((t := a22 ^ d2) << 43) | (t >> 21)) & _MASK64
        b30 = (((t := a33 ^ d3) << 21) | (t >> 43)) & _MASK64
        b40 = (((t := a44 ^ d4) << 14) | (t >> 50)) & _MASK64
        b01 = (((t := a30 ^ d3) << 28) | (t >> 36)) & _MASK64
        b11 = (((t := a41 ^ d4) << 20) | (t >> 44)) & _MASK64
        b21 = (((t := a02 ^ d0) << 3) | (t >> 61)) & _MASK64
        b31 = (((t := a13 ^ d1) << 45) | (t >> 19)) & _MASK64
        b41 = (((t := a24 ^ d2) << 61) | (t >> 3)) & _MASK64
        b02 = (((t := a10 ^ d1) << 1) | (t >> 63)) & _MASK64
        b12 = (((t := a21 ^ d2) << 6) | (t >> 58)) & _MASK64
        b22 = (((t := a32 ^ d3) << 25) | (t >> 39)) & _MASK64
        b32 = (((t := a43 ^ d4) << 8) | (t >> 56)) & _MASK64
        b42 = (((t := a04 ^ d0) << 18) | (t >> 46)) & _MASK64
        b03 = (((t := a40 ^ d4) << 27) | (t >> 37)) & _MASK64
        b13 = (((t := a01 ^ d0) << 36) | (t >> 28)) & _MASK64
        b23 = (((t := a12 ^ d1) << 10) | (t >> 54)) & _MASK64
        b33 = (((t := a23 ^ d2) << 15) | (t >> 49)) & _MASK64
        b43 = (((t := a34 ^ d3) << 56) | (t >> 8)) & _MASK64
        b04 = (((t := a20 ^ d2) << 62) | (t >> 2)) & _MASK64
        b14 = (((t := a31 ^ d3) << 55) | (t >> 9)) & _MASK64
        b24 = (((t := a42 ^ d4) << 39) | (t >> 25)) & _MASK64
        b34 = (((t := a03 ^ d0) << 41) | (t >> 23)) & _MASK64
        b44 = (((t := a14 ^ d1) << 2) | (t >> 62)) & _MASK64
        # chi, row by row
        a00 = b00 ^ (~b10 & b20)
        a10 = b10 ^ (~b20 & b30)
        a20 = b20 ^ (~b30 & b40)
        a30 = b30 ^ (~b40 & b00)
        a40 = b40 ^ (~b00 & b10)
        a01 = b01 ^ (~b11 & b21)
        a11 = b11 ^ (~b21 & b31)
        a21 = b21 ^ (~b31 & b41)
        a31 = b31 ^ (~b41 & b01)
        a41 = b41 ^ (~b01 & b11)
        a02 = b02 ^ (~b12 & b22)
        a12 = b12 ^ (~b22 & b32)
        a22 = b22 ^ (~b32 & b42)
        a32 = b32 ^ (~b42 & b02)
        a42 = b42 ^ (~b02 & b12)
        a03 = b03 ^ (~b13 & b23)
        a13 = b13 ^ (~b23 & b33)
        a23 = b23 ^ (~b33 & b43)
        a33 = b33 ^ (~b43 & b03)
        a43 = b43 ^ (~b03 & b13)
        a04 = b04 ^ (~b14 & b24)
        a14 = b14 ^ (~b24 & b34)
        a24 = b24 ^ (~b34 & b44)
        a34 = b34 ^ (~b44 & b04)
        a44 = b44 ^ (~b04 & b14)
        # iota
        a00 ^= rc
    return [a00, a10, a20, a30, a40, a01, a11, a21, a31, a41, a02, a12, a22, a32, a42,
            a03, a13, a23, a33, a43, a04, a14, a24, a34, a44]


def keccak256(data: bytes) -> int:
    """Keccak-256 digest of data as a big-endian 256-bit word."""
    return int.from_bytes(keccak256_bytes(data), "big")


def keccak256_bytes(data: bytes) -> bytes:
    padded = bytearray(data)
    n = len(padded)
    padded += bytes(_RATE_BYTES - n % _RATE_BYTES)
    padded[n] ^= 0x01
    padded[-1] ^= 0x80

    state = [0] * 25
    for start in range(0, len(padded), _RATE_BYTES):
        block = unpack_from("<17Q", padded, start)
        state = _keccak_f([s ^ m for s, m in zip(state, block)] + state[17:])
    return pack("<4Q", *state[:4])

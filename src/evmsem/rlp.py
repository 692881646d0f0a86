"""Minimal RLP encoding and contract-address derivation."""

from __future__ import annotations

from functools import lru_cache

from .keccak import keccak256
from .words import ADDR_MASK, Address, address_to_bytes


def encode_int(n: int) -> bytes:
    """Minimal big-endian byte representation (0 -> empty string)."""
    if n < 0:
        raise ValueError("RLP cannot encode negative integers")
    if n == 0:
        return b""
    return n.to_bytes((n.bit_length() + 7) // 8, "big")


def encode(item) -> bytes:
    """Encode bytes, ints, or (nested) lists of them."""
    if isinstance(item, int):
        item = encode_int(item)
    if isinstance(item, (bytes, bytearray)):
        item = bytes(item)
        if len(item) == 1 and item[0] < 0x80:
            return item
        return _length_prefix(len(item), 0x80) + item
    if isinstance(item, (list, tuple)):
        payload = b"".join(encode(x) for x in item)
        return _length_prefix(len(payload), 0xC0) + payload
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


def _length_prefix(length: int, offset: int) -> bytes:
    if length < 56:
        return bytes([offset + length])
    l_bytes = encode_int(length)
    return bytes([offset + 55 + len(l_bytes)]) + l_bytes


def rlp_encode_pair(address: Address, nonce: int) -> bytes:
    """Canonical RLP list of (20-byte address, minimal big-endian nonce)."""
    if nonce >= 2**256:
        raise ValueError("nonce out of range")
    return encode([address_to_bytes(address), nonce])


@lru_cache(maxsize=1024)    # a CREATE and its return hash once, at any call depth
def fresh_address(creator: Address, nonce: int) -> Address:
    """Address of the account `creator` creates at nonce `nonce`, its nonce
    before the increment: the low 160 bits of keccak256(rlp((creator, nonce))).
    """
    return keccak256(rlp_encode_pair(creator, nonce)) & ADDR_MASK

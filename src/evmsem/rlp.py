"""RLP of a (creator, nonce) pair and contract-address derivation."""

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


def rlp_encode_pair(address: Address, nonce: int) -> bytes:
    """Canonical RLP list of (20-byte address, minimal big-endian nonce). The
    payload is at most 21 + 33 = 54 bytes, so both lengths take the short form."""
    if nonce >= 2**256:
        raise ValueError("nonce out of range")
    n = encode_int(nonce)
    item = n if len(n) == 1 and n[0] < 0x80 else bytes([0x80 + len(n)]) + n
    return bytes([0xC0 + 21 + len(item), 0x80 + 20]) + address_to_bytes(address) + item


@lru_cache(maxsize=1024)    # a CREATE and its return hash once, at any call depth
def fresh_address(creator: Address, nonce: int) -> Address:
    """Address of the account `creator` creates at nonce `nonce`, its nonce
    before the increment: the low 160 bits of keccak256(rlp((creator, nonce))).
    """
    return keccak256(rlp_encode_pair(creator, nonce)) & ADDR_MASK

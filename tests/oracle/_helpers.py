"""Opcode-byte helpers that only the frozen core reads: the live semantics
decodes DUP, SWAP and LOG operands in its rule table."""


def dup_index(byte: int) -> int:
    return byte - 0x80 + 1


def swap_index(byte: int) -> int:
    return byte - 0x90 + 1


def log_topics(byte: int) -> int:
    return byte - 0xA0

"""Seeded single-transaction programs for the exec-synth workload, and the
plain-Python reference that says what each one must leave behind.

Nothing here imports evmsem: the programs are assembled by the small
assembler below and their expected outcome is computed by direct
simulation (including an independent Keccak-256), so a defect in evmsem
cannot hide in the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

M256 = 1 << 256
SENDER_BALANCE = 10**18
CHAIN_GAS = 10**14     # the 1/64 withhold and 20,000 per level compound over 1,023 levels
LOOP_GAS = 50_000_000

# the deck: each entry is one program; sizes get seeded jitter, so every seed
# covers the same ranges with the same total work
DECK = (
    [("compute", n, accts) for n, accts in ((48, 2), (192, 60), (768, 600))]
    + [("memory", kb, dens, accts) for kb, accts in ((1, 2), (4, 60), (16, 600), (32, 5000))
       for dens in (0.06, 1.0)]
    + [("storage", slots, accts) for slots, accts in ((16, 2), (64, 120), (128, 1200),
                                                     (256, 5000))]
    + [("sha3", size, n, accts) for size, n, accts in ((32, 16, 2), (256, 8, 300),
                                                       (1024, 4, 3000))]
    + [("chain", depth, accts) for depth, accts in ((1, 2), (16, 40), (128, 400),
                                                    (1023, 4000))]
)


# ---------------------------------------------------------------------------
# assembler


_OPS = {
    "STOP": 0x00, "ADD": 0x01, "MUL": 0x02, "SUB": 0x03, "LT": 0x10, "GT": 0x11,
    "ISZERO": 0x15, "AND": 0x16, "OR": 0x17, "XOR": 0x18, "SHA3": 0x20,
    "ADDRESS": 0x30, "CALLDATALOAD": 0x35, "CALLDATASIZE": 0x36,
    "CALLDATACOPY": 0x37, "POP": 0x50, "MLOAD": 0x51, "MSTORE": 0x52,
    "SLOAD": 0x54, "SSTORE": 0x55, "JUMPI": 0x57, "MSIZE": 0x59, "GAS": 0x5A,
    "JUMPDEST": 0x5B, "CALL": 0xF1,
    **{f"DUP{n}": 0x7F + n for n in range(1, 17)},
    **{f"SWAP{n}": 0x8F + n for n in range(1, 17)},
}


def assemble(items) -> bytes:
    """Items are mnemonics, ("push", value, width), ("label", name) or
    ("to", name); a label reference is a PUSH2 of the label's offset."""
    offsets, pos = {}, 0
    for it in items:
        if isinstance(it, str):
            pos += 1
        elif it[0] == "label":
            offsets[it[1]] = pos
            pos += 1                       # the JUMPDEST it stands for
        else:
            pos += 1 + (it[2] if it[0] == "push" else 2)
    out = bytearray()
    for it in items:
        if isinstance(it, str):
            out.append(_OPS[it])
        elif it[0] == "label":
            out.append(_OPS["JUMPDEST"])
        else:
            value, width = (it[1], it[2]) if it[0] == "push" else (offsets[it[1]], 2)
            out.append(0x5F + width)
            out += value.to_bytes(width, "big")
    return bytes(out)


def push(value: int, width: int = 32):
    return ("push", value, width)


# ---------------------------------------------------------------------------
# reference Keccak-256 (round constants and rotations derived from the
# specification's LFSR and (x, y) walk rather than tabulated)


def _rc_bit(t: int) -> int:
    r = 1
    for _ in range(t % 255):
        r <<= 1
        if r & 0x100:
            r ^= 0x171
    return r & 1


_RC = [sum(_rc_bit(j + 7 * i) << ((1 << j) - 1) for j in range(7)) for i in range(24)]
_ROT = [[0] * 5 for _ in range(5)]
_x, _y = 1, 0
for _t in range(24):
    _ROT[_x][_y] = ((_t + 1) * (_t + 2) // 2) % 64
    _x, _y = _y, (2 * _x + 3 * _y) % 5
_LANE = (1 << 64) - 1


def _rol(v: int, n: int) -> int:
    return ((v << n) | (v >> (64 - n))) & _LANE if n else v


def _permute(a):
    for rc in _RC:
        c = [a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rol(c[(x + 1) % 5], 1) for x in range(5)]
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rol(a[x][y] ^ d[x], _ROT[x][y])
        a = [[b[x][y] ^ (~b[(x + 1) % 5][y] & b[(x + 2) % 5][y]) for y in range(5)]
             for x in range(5)]
        a[0][0] ^= rc
    return a


def keccak256(data: bytes) -> bytes:
    rate = 136
    msg = bytearray(data) + b"\x01"
    msg += bytes(-len(msg) % rate)
    msg[-1] |= 0x80
    a = [[0] * 5 for _ in range(5)]
    for off in range(0, len(msg), rate):
        for i in range(rate // 8):
            a[i % 5][i // 5] ^= int.from_bytes(msg[off + 8 * i:off + 8 * i + 8], "little")
        a = _permute(a)
    return b"".join(a[i % 5][i // 5].to_bytes(8, "little") for i in range(4))


# ---------------------------------------------------------------------------
# programs with their expected outcome


@dataclass(frozen=True)
class Program:
    """One generated transaction and what it must produce."""
    kind: str
    params: tuple
    contract: int
    code: bytes
    calldata: bytes
    gas_limit: int
    accounts: dict          # address -> (nonce, balance, storage dict, code)
    sender: int
    header: dict
    expect_status: str
    expect_storage: dict    # the contract's storage after the transaction


def _word(rng, density: float) -> int:
    """A 256-bit word whose bytes are nonzero with the given probability."""
    return int.from_bytes(bytes(rng.randrange(1, 256) if rng.random() < density else 0
                                for _ in range(32)), "big")


def _jitter(rng, n: int) -> int:
    """n scaled by a seeded factor in [0.99, 1]. The memory loops and the
    chain cost about size squared, so a wider range would change the work
    from seed to seed: at [0.95, 1] by up to 10%."""
    return max(1, round(n * rng.uniform(0.99, 1.0)))


def _compute(rng, n):
    n = _jitter(rng, n)
    a, b, x0 = rng.getrandbits(256) | 1, rng.getrandbits(256), rng.getrandbits(256)
    code = assemble([
        push(n, 2), push(x0), push(0, 1),                       # [acc, x, cnt]
        ("label", "loop"),
        "SWAP1", push(a), "MUL", push(b), "ADD",                # x = x*a + b
        "DUP1", "SWAP2", "XOR",                                 # acc ^= x
        "DUP2", push(0xFF, 1), "AND", "ADD",                    # acc += x & 0xff
        "SWAP2", push(1, 1), "SWAP1", "SUB", "SWAP2",           # cnt -= 1
        "DUP3", ("to", "loop"), "JUMPI",
        push(0, 1), "SSTORE", push(1, 1), "SSTORE", "STOP",
    ])
    x, acc = x0, 0
    for _ in range(n):
        x = (x * a + b) % M256
        acc = ((acc ^ x) + (x & 0xFF)) % M256
    return code, b"", {0: acc, 1: x}, {}


def _memory(rng, kb, density):
    words = _jitter(rng, kb * 32)
    k = _word(rng, density)
    mid, last = (words // 2) * 32, (words - 1) * 32
    code = assemble([
        push(0, 2),                                             # [i]
        ("label", "loop"),
        "DUP1", push(k), "XOR",                                 # k ^ i
        "DUP2", push(32, 1), "MUL", "MSTORE",                   # mem[32 i] = k ^ i
        push(1, 1), "ADD",
        "DUP1", push(words, 2), "GT", ("to", "loop"), "JUMPI",
        push(mid, 2), "MLOAD", push(0, 1), "SSTORE",
        push(last, 2), "MLOAD", push(1, 1), "SSTORE",
        "MSIZE", push(2, 1), "SSTORE", "STOP",
    ])
    mem = bytearray(32 * words)
    for i in range(words):
        mem[32 * i:32 * i + 32] = (k ^ i).to_bytes(32, "big")
    expect = {0: int.from_bytes(mem[mid:mid + 32], "big"),
              1: int.from_bytes(mem[last:last + 32], "big"), 2: 32 * words}
    return code, b"", expect, {}


def _storage(rng, slots):
    n = _jitter(rng, slots)
    m, c = rng.getrandbits(256), rng.getrandbits(256)
    base, stride = rng.getrandbits(160), rng.randrange(1, 1 << 32)
    code = assemble([
        push(0, 2),                                             # [i]
        ("label", "loop"),
        "DUP1", push(m), "MUL", push(c), "ADD", push(1, 1), "OR",     # v = (i m + c) | 1
        "DUP2", push(stride), "MUL", push(base), "ADD",         # key = base + i stride
        "DUP1", "SLOAD", "DUP3", "ADD", "SWAP1", "SSTORE",      # s[key] += v
        "POP", push(1, 1), "ADD",
        "DUP1", push(n, 2), "GT", ("to", "loop"), "JUMPI", "STOP",
    ])
    keys = [(base + i * stride) % M256 for i in range(n)]
    pre = {key: rng.getrandbits(256) | 1 for key in rng.sample(keys, n // 4)}
    pre.update({rng.getrandbits(256): rng.getrandbits(64) | 1 for _ in range(4)})
    post = dict(pre)
    for i, key in enumerate(keys):
        post[key] = (post.get(key, 0) + (((i * m + c) % M256) | 1)) % M256
    return code, b"", post, pre


def _sha3(rng, size, n):
    n = _jitter(rng, n)
    data = rng.randbytes(max(32, _jitter(rng, size)))
    code = assemble([
        "CALLDATASIZE", push(0, 1), push(0, 1), "CALLDATACOPY",
        push(n, 2),                                             # [cnt]
        ("label", "loop"),
        "CALLDATASIZE", push(0, 1), "SHA3",                     # h = keccak(mem[:len])
        push(0, 1), "MSTORE",                                   # mem[0:32] = h
        push(1, 1), "SWAP1", "SUB", "DUP1", ("to", "loop"), "JUMPI",
        "POP", push(0, 1), "MLOAD", push(0, 1), "SSTORE", "STOP",
    ])
    mem = bytearray(data)
    for _ in range(n):
        mem[0:32] = keccak256(bytes(mem))
    return code, data, {0: int.from_bytes(mem[0:32], "big")}, {}


def _chain(rng, depth):
    depth = _jitter(rng, depth)
    code = assemble([
        push(0, 1), "CALLDATALOAD",                             # [n]
        "DUP1", push(1, 1), "ADD", "DUP2", "SSTORE",            # s[n] = n + 1
        "DUP1", "ISZERO", ("to", "end"), "JUMPI",
        push(1, 1), "SWAP1", "SUB", push(0, 1), "MSTORE",       # calldata n - 1
        push(0, 1), push(0, 1), push(32, 1), push(0, 1), push(0, 1),
        "ADDRESS", "GAS", "CALL", "POP", "STOP",
        ("label", "end"), "STOP",
    ])
    return code, depth.to_bytes(32, "big"), {k: k + 1 for k in range(depth + 1)}, {}


_BUILD = {"compute": _compute, "memory": _memory, "storage": _storage,
          "sha3": _sha3, "chain": _chain}


def _addresses(rng, count):
    out = set()
    while len(out) < count:
        out.add(rng.getrandbits(160) | (1 << 100))   # clear of the precompile range
    return sorted(out)


def generate(seed: int, deck=DECK) -> list:
    """The deck of programs for one seed, in a seeded order."""
    rng = random.Random(seed)
    programs = []
    for entry in deck:
        kind, params, accts = entry[0], entry[1:-1], entry[-1]
        code, calldata, expect, pre_storage = _BUILD[kind](rng, *params)
        addresses = _addresses(rng, max(2, _jitter(rng, accts)))
        rng.shuffle(addresses)
        contract, sender, *others = addresses
        accounts = {a: (rng.randrange(4), rng.randrange(1, 10**9), {}, b"") for a in others}
        accounts[sender] = (0, SENDER_BALANCE, {}, b"")
        accounts[contract] = (rng.randrange(4), rng.randrange(10**6), pre_storage, code)
        header = {"beneficiary": rng.getrandbits(160), "number": rng.randrange(1, 10**7),
                  "timestamp": rng.randrange(10**9, 2 * 10**9), "gaslimit": 10**13}
        programs.append(Program(
            kind, params, contract, code, calldata,
            CHAIN_GAS if kind == "chain" else LOOP_GAS, accounts, sender, header,
            "success", {k: v for k, v in expect.items() if v}))
    rng.shuffle(programs)
    return programs

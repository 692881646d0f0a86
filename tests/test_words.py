import random

import pytest
from hypothesis import given, strategies as st

from evmsem.words import (ADDR_MASK, TWO_255, TWO_256, U256_MAX, binop, byte_op,
                          hex_to_address, hex_to_bytes, hex_to_word, bytes_to_hex, signed,
                          signextend, to_address, unsigned, word_from_bytes)

words = st.integers(min_value=0, max_value=U256_MAX)


def test_add_wraparound():
    assert binop("ADD", TWO_256 - 1, 1) == 0


def test_div_by_zero():
    assert binop("DIV", 7, 0) == 0
    assert binop("MOD", 7, 0) == 0
    assert binop("SDIV", 7, 0) == 0
    assert binop("SMOD", 7, 0) == 0


def test_slt_signed_view():
    assert binop("SLT", TWO_256 - 1, 0) == 1  # -1 < 0
    assert binop("SGT", TWO_256 - 1, 0) == 0


def _two_complement(x):
    # the signed value of a 256-bit word, from its top bit
    return x - (1 << 256) if x >> 255 else x


COMPARISONS = {  # mnemonic -> reference on Python ints
    "LT": lambda a, b: a < b,
    "GT": lambda a, b: a > b,
    "SLT": lambda a, b: _two_complement(a) < _two_complement(b),
    "SGT": lambda a, b: _two_complement(a) > _two_complement(b),
    "EQ": lambda a, b: a == b,
}
# equal operands, then pairs on either side of the sign boundary, both ways round
COMPARISON_ROWS = ([(x, x) for x in (0, 1, 2**255, 2**256 - 1)]
                   + [(2**255 - 1, 2**255), (2**255, 2**255 - 1),
                      (0, 2**256 - 1), (2**256 - 1, 0)])


@pytest.mark.parametrize("op", list(COMPARISONS))
def test_comparisons_at_equal_operands_and_the_sign_boundary(op):
    for a, b in COMPARISON_ROWS:
        assert binop(op, a, b) == int(COMPARISONS[op](a, b)), (op, a, b)


def test_byte_out_of_range():
    for x in (0, 1, U256_MAX, 12345):
        assert binop("BYTE", 32, x) == 0
        assert binop("BYTE", 1000, x) == 0


def test_byte_indexing_big_endian():
    x = int.from_bytes(bytes(range(32)), "big")
    for o in range(32):
        assert byte_op(o, x) == o


def _signextend_oracle(a, b):
    # independent bit-level expansion of the extension rule: replicate the
    # sign bit of the (a+1)-byte value over the high bits
    if a >= 31:
        return b
    bits = format(b, "0256b")
    x = 256 - 8 * (a + 1)
    sign = bits[x]
    return int(sign * x + bits[x:], 2)


def test_signextend_examples():
    # frozen from the bit-expansion oracle
    assert _signextend_oracle(0, 0xFF) == TWO_256 - 1
    assert signextend(0, 0xFF) == TWO_256 - 1
    assert signextend(0, 0x7F) == 0x7F
    assert signextend(1, 0x8000) == U256_MAX - 0x7FFF
    assert signextend(31, 5) == 5
    assert signextend(100, 5) == 5


@given(st.integers(min_value=0, max_value=40), words)
def test_signextend_matches_oracle(a, b):
    assert signextend(a, b) == _signextend_oracle(a, b)


def _sdiv_oracle(a, b):
    # arbitrary-precision signed division truncating toward zero, with the
    # printed overflow special case reduced mod 2**256
    if b == 0:
        return 0
    if a == TWO_255 and signed(b) == -1:
        return TWO_256 % TWO_256
    sa, sb = signed(a), signed(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q % TWO_256


def _smod_oracle(a, b):
    if b == 0:
        return 0
    sa, sb = signed(a), signed(b)
    r = abs(sa) % abs(sb)
    return (-r if sa < 0 else r) % TWO_256


BOUNDARIES = [0, 1, TWO_255 - 1, TWO_255, TWO_256 - 1]


def test_sdiv_smod_against_oracle():
    rng = random.Random(1234)
    pairs = [(rng.randrange(TWO_256), rng.randrange(TWO_256)) for _ in range(10_000)]
    pairs += [(a, b) for a in BOUNDARIES for b in BOUNDARIES]
    for a, b in pairs:
        assert binop("SDIV", a, b) == _sdiv_oracle(a, b), (a, b)
        assert binop("SMOD", a, b) == _smod_oracle(a, b), (a, b)


def test_sdiv_overflow_special_case():
    # (a = 2**255 and b = -1) gives 2**256, reduced mod 2**256
    assert binop("SDIV", TWO_255, TWO_256 - 1) == 0


@given(words, words)
def test_add_commutes(a, b):
    assert binop("ADD", a, b) == binop("ADD", b, a)


@given(words, words)
def test_sub_add_roundtrip(a, b):
    assert binop("ADD", binop("SUB", a, b), b) == a


@given(words)
def test_signed_unsigned_roundtrip(a):
    assert unsigned(signed(a)) == a
    assert signed(unsigned(signed(a))) == signed(a)


@given(words)
def test_to_address_masks(a):
    assert to_address(a) == a % 2**160


def test_hex_codecs():
    assert hex_to_word("0xff") == 255
    assert bytes_to_hex(b"\x01\x02") == "0x0102"
    assert hex_to_bytes("0x0102") == b"\x01\x02"
    with pytest.raises(ValueError):
        hex_to_bytes("0102")
    with pytest.raises(ValueError):
        hex_to_bytes("0x123")


@pytest.mark.parametrize("s", ["0x1_0", "0x5 ", "0x_5", " 0x5", "0x0a  0b", "0x\u0665"])
def test_hex_is_0x_then_hex_digits_only(s):
    # int(s, 16) would read "0x1_0" as 16, and bytes.fromhex skips spaces
    with pytest.raises(ValueError, match="hex value must"):
        hex_to_word(s)
    with pytest.raises(ValueError, match="hex value must"):
        hex_to_address(s)
    with pytest.raises(ValueError, match="hex bytes must"):
        hex_to_bytes(s)
    assert hex_to_bytes("0x0A0b") == b"\x0a\x0b" and hex_to_word("0xfF") == 255


def test_hex_values_must_fit():
    # the largest word and address decode; one more is an error, not reduced
    assert hex_to_word(hex(U256_MAX)) == U256_MAX
    assert hex_to_address(hex(ADDR_MASK)) == ADDR_MASK
    with pytest.raises(ValueError, match="a word must be below 2"):
        hex_to_word(hex(TWO_256))
    with pytest.raises(ValueError, match="an address must be below 2"):
        hex_to_address(hex(ADDR_MASK + 1))


@given(words)
def test_word_bytes_roundtrip(a):
    assert word_from_bytes(a.to_bytes(32, "big")) == a


def test_word_from_bytes_rejects_oversize():
    with pytest.raises(ValueError):
        word_from_bytes(b"\x00" * 33)

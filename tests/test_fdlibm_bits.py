"""Tests for the IEEE-754 word-access helpers used by the Fdlibm port."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.fdlibm import bits

any_double = st.floats(allow_nan=False, width=64)
any_bits = st.integers(min_value=0, max_value=2**64 - 1)


class TestWordAccess:
    def test_known_patterns(self):
        assert bits.high_word(1.0) == 0x3FF00000
        assert bits.low_word(1.0) == 0
        assert bits.high_word(float("inf")) == 0x7FF00000
        assert bits.high_word(2.0**-27) == 0x3E400000
        assert bits.high_word(-1.0) == 0xBFF00000 - 0x100000000

    def test_high_word_is_signed(self):
        assert bits.high_word(-1.0) < 0
        assert bits.high_word(1.0) > 0

    def test_paper_fig1_bit_twiddling(self):
        """The tanh example: jx = high word, ix = jx & 0x7fffffff."""
        x = -3.5
        jx = bits.high_word(x)
        ix = jx & 0x7FFFFFFF
        assert jx < 0
        assert ix == bits.high_word(3.5)

    def test_abs_high_word(self):
        assert bits.abs_high_word(-2.0) == bits.high_word(2.0)

    def test_set_high_low_word(self):
        x = 1.0
        y = bits.set_high_word(x, 0x40000000)
        assert y == 2.0
        z = bits.set_low_word(2.0, 1)
        assert z != 2.0
        assert bits.low_word(z) == 1

    def test_fabs_and_copysign(self):
        assert bits.fabs(-3.25) == 3.25
        assert bits.fabs(3.25) == 3.25
        assert bits.copysign_bit(3.0, -1.0) == -3.0
        assert bits.copysign_bit(-3.0, 1.0) == 3.0

    def test_zero_signs(self):
        assert bits.high_word(0.0) == 0
        assert bits.high_word(-0.0) == -(2**31)


class TestRoundTrips:
    @given(x=any_double)
    def test_words_round_trip(self, x):
        hi, lo = bits.words(x)
        assert bits.from_words(hi, lo) == x or (math.isnan(x) and math.isnan(bits.from_words(hi, lo)))

    @given(x=any_double)
    def test_bits_round_trip(self, x):
        assert bits.bits_to_double(bits.double_to_bits(x)) == x

    @given(raw=any_bits)
    def test_reverse_round_trip(self, raw):
        value = bits.bits_to_double(raw)
        if math.isnan(value):
            # NaN payloads are preserved by struct round-tripping.
            assert math.isnan(bits.bits_to_double(bits.double_to_bits(value)))
        else:
            assert bits.double_to_bits(value) == raw

    @given(x=any_double)
    def test_matches_struct_layout(self, x):
        packed = struct.pack(">d", x)
        hi_ref = int.from_bytes(packed[:4], "big")
        lo_ref = int.from_bytes(packed[4:], "big")
        hi, lo = bits.words(x)
        assert lo == lo_ref
        assert hi & 0xFFFFFFFF == hi_ref

    @given(x=any_double)
    def test_fabs_clears_sign(self, x):
        assert bits.high_word(bits.fabs(x)) >= 0


# -- the helpers against the big-endian 64-bit formulation ---------------------

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF


def ref_double_to_bits(x) -> int:
    return struct.unpack(">Q", struct.pack(">d", float(x)))[0]


def ref_bits_to_double(raw: int) -> float:
    return struct.unpack(">d", struct.pack(">Q", raw & M64))[0]


def ref_high_word(x) -> int:
    word = ref_double_to_bits(x) >> 32
    return word - 0x100000000 if word >= 0x80000000 else word


def ref_low_word(x) -> int:
    return ref_double_to_bits(x) & M32


def ref_from_words(hi: int, lo: int) -> float:
    return ref_bits_to_double(((hi & M32) << 32) | (lo & M32))


def ref_set_high_word(x, hi: int) -> float:
    return ref_bits_to_double(((hi & M32) << 32) | (ref_double_to_bits(x) & M32))


def ref_set_low_word(x, lo: int) -> float:
    return ref_bits_to_double((ref_double_to_bits(x) & (M64 ^ M32)) | (lo & M32))


#: Patterns a uniform draw almost never hits: zeros, infinities, NaNs of
#: both signs with quiet and signalling payloads, subnormals, normal edges.
SPECIAL_PATTERNS = (
    0x0000000000000000, 0x8000000000000000,  # +0, -0
    0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
    0x7FF8000000000000, 0xFFF8000000000000,  # quiet NaNs
    0x7FF8DEADBEEF0001, 0xFFFFFFFFFFFFFFFF,  # quiet NaNs with payloads
    0x7FF0000000000001, 0xFFF0000000000001,  # signalling NaNs
    0x7FF4000000000000, 0xFFF7FFFFFFFFFFFF,  # signalling NaNs with payloads
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
    0x000FFFFFFFFFFFFF, 0x8000000000000001,
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,  # smallest normal, largest finite
    0x3FF0000000000000, 0xBFF0000000000001,  # around +-1
)

patterns = st.one_of(st.sampled_from(SPECIAL_PATTERNS), any_bits)
#: Words in and far outside [0, 2**32), negative ones included.
any_word = st.one_of(
    st.integers(min_value=0, max_value=M32),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.sampled_from((-1, -(2**31), 2**31, 2**32, 2**32 + 5, -(2**32) - 1)),
)
#: Non-float arguments the helpers coerce with ``float()``.
int_args = st.one_of(st.booleans(), st.integers(min_value=-(2**1023), max_value=2**1023))


def same_bits(a: float, b: float) -> bool:
    """Equal as bit patterns: NaN payloads and zero signs included."""
    return struct.pack(">d", a) == struct.pack(">d", b)


class TestAgainstBigEndianFormulation:
    @given(raw=patterns)
    def test_readers(self, raw):
        x = ref_bits_to_double(raw)
        assert bits.double_to_bits(x) == ref_double_to_bits(x) == raw
        assert bits.high_word(x) == ref_high_word(x)
        assert bits.low_word(x) == ref_low_word(x)
        assert bits.words(x) == (ref_high_word(x), ref_low_word(x))
        assert bits.abs_high_word(x) == ref_high_word(x) & 0x7FFFFFFF

    @given(raw=st.one_of(patterns, st.integers(min_value=-(2**70), max_value=2**70)))
    def test_bits_to_double(self, raw):
        assert same_bits(bits.bits_to_double(raw), ref_bits_to_double(raw))

    @given(raw=patterns, word=any_word)
    def test_writers(self, raw, word):
        x = ref_bits_to_double(raw)
        assert same_bits(bits.set_high_word(x, word), ref_set_high_word(x, word))
        assert same_bits(bits.set_low_word(x, word), ref_set_low_word(x, word))

    @given(hi=any_word, lo=any_word)
    def test_from_words(self, hi, lo):
        assert same_bits(bits.from_words(hi, lo), ref_from_words(hi, lo))

    @given(raw=patterns, other=patterns)
    def test_sign_helpers(self, raw, other):
        x, y = ref_bits_to_double(raw), ref_bits_to_double(other)
        fabs = ref_set_high_word(x, ref_high_word(x) & 0x7FFFFFFF)
        copysign = ref_set_high_word(
            x, (ref_high_word(x) & 0x7FFFFFFF) | (ref_high_word(y) & 0x80000000)
        )
        assert same_bits(bits.fabs(x), fabs)
        assert same_bits(bits.copysign_bit(x, y), copysign)

    @given(x=int_args, word=any_word)
    def test_int_and_bool_arguments(self, x, word):
        assert bits.double_to_bits(x) == ref_double_to_bits(x)
        assert bits.high_word(x) == ref_high_word(x)
        assert bits.low_word(x) == ref_low_word(x)
        assert bits.words(x) == (ref_high_word(x), ref_low_word(x))
        assert same_bits(bits.set_high_word(x, word), ref_set_high_word(x, word))
        assert same_bits(bits.set_low_word(x, word), ref_set_low_word(x, word))
        assert same_bits(bits.from_words(word, x), ref_from_words(word, x))
        assert same_bits(bits.from_words(x, word), ref_from_words(x, word))

    @pytest.mark.parametrize(
        "helper", [bits.high_word, bits.low_word, bits.words, bits.double_to_bits,
                   bits.abs_high_word, bits.fabs],
    )
    def test_int_too_large_for_a_double_raises_overflow_error(self, helper):
        # The programs swallow ArithmeticError (OverflowError included),
        # never struct.error.
        with pytest.raises(OverflowError):
            helper(10**400)
        with pytest.raises(OverflowError):
            bits.set_high_word(10**400, 0)

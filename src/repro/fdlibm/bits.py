"""IEEE-754 double bit manipulation used throughout the Fdlibm port.

Fdlibm accesses doubles through their high and low 32-bit words
(``__HI(x)`` / ``__LO(x)`` macros, or ``*(1+(int*)&x)`` as in the paper's
``s_tanh.c`` listing).  These helpers provide the same view of a Python
float.  The high word carries the sign bit, the 11 exponent bits and the top
20 mantissa bits, and is interpreted as a *signed* 32-bit integer, exactly as
in the C code.
"""

from __future__ import annotations

import struct

#: High word of +infinity: sign 0, exponent all ones, mantissa zero.
HI_INF = 0x7FF00000
#: Mask clearing the sign bit of a high word.
HI_ABS_MASK = 0x7FFFFFFF
#: Sign bit of a high word.
HI_SIGN_BIT = 0x80000000

#: Largest finite double and smallest positive normal double.
DBL_MAX = 1.7976931348623157e308
DBL_MIN_NORMAL = 2.2250738585072014e-308

TWO54 = 1.80143985094819840000e16  # 2**54
TWO_M54 = 5.55111512312578270212e-17  # 2**-54
HUGE = 1.0e300
TINY = 1.0e-300


# Precompiled little-endian views of one double: its 64-bit pattern, and
# its two words in memory order (low word first, high word signed).  Every
# helper is one pack and one unpack; ``float(x)`` keeps an int too large
# for a double raising ``OverflowError`` rather than ``struct.error``.
_pack_double = struct.Struct("<d").pack
_unpack_double = struct.Struct("<d").unpack
_pack_bits = struct.Struct("<Q").pack
_unpack_bits = struct.Struct("<Q").unpack
_unpack_words = struct.Struct("<Ii").unpack
_pack_words = struct.Struct("<II").pack


def double_to_bits(x: float) -> int:
    """Raw 64-bit pattern of ``x`` as an unsigned integer."""
    return _unpack_bits(_pack_double(float(x)))[0]


def bits_to_double(bits: int) -> float:
    """Double whose raw 64-bit pattern is ``bits``."""
    return _unpack_double(_pack_bits(bits & 0xFFFFFFFFFFFFFFFF))[0]


def high_word(x: float) -> int:
    """``__HI(x)``: the high 32-bit word of ``x`` as a signed integer."""
    return _unpack_words(_pack_double(float(x)))[1]


def low_word(x: float) -> int:
    """``__LO(x)``: the low 32-bit word of ``x`` as an unsigned integer."""
    return _unpack_words(_pack_double(float(x)))[0]


def words(x: float) -> tuple[int, int]:
    """``(__HI(x), __LO(x))`` in one call."""
    lo, hi = _unpack_words(_pack_double(float(x)))
    return hi, lo


def from_words(hi: int, lo: int) -> float:
    """Build a double from its high and low words (signed or unsigned)."""
    return _unpack_double(_pack_words(lo & 0xFFFFFFFF, hi & 0xFFFFFFFF))[0]


def set_high_word(x: float, hi: int) -> float:
    """Return ``x`` with its high word replaced (``__HI(x) = hi`` in C)."""
    lo = _unpack_words(_pack_double(float(x)))[0]
    return _unpack_double(_pack_words(lo, hi & 0xFFFFFFFF))[0]


def set_low_word(x: float, lo: int) -> float:
    """Return ``x`` with its low word replaced (``__LO(x) = lo`` in C)."""
    hi = _unpack_words(_pack_double(float(x)))[1]
    return _unpack_double(_pack_words(lo & 0xFFFFFFFF, hi & 0xFFFFFFFF))[0]


def abs_high_word(x: float) -> int:
    """``__HI(x) & 0x7fffffff``: high word with the sign bit cleared."""
    return high_word(x) & HI_ABS_MASK


def copysign_bit(x: float, y: float) -> float:
    """``copysign`` implemented through the sign bit, as Fdlibm does."""
    hx = high_word(x) & HI_ABS_MASK
    hy = high_word(y) & HI_SIGN_BIT
    return set_high_word(x, hx | hy)


def fabs(x: float) -> float:
    """``fabs`` via the sign bit (branch-free, like Fdlibm's ``s_fabs.c``)."""
    return set_high_word(x, high_word(x) & HI_ABS_MASK)

"""Shortest round-trip text of float64 values, computed on whole arrays.

:func:`rows_text` returns, for a C-ordered float64 block of shape
``(rows, cols)``, exactly the bytes of
``"".join(",".join(map(repr, row)) + "\\n" for row in block.tolist())``.
``repr`` prints the fewest significant digits that read back as the value
and, of those, the string nearest to it (Steele & White 1990; Gay's
``dtoa``; Adams, "Ryu", PLDI 2018).  Here that rule is done in exact
integer arithmetic on uint64 arrays:

* ``|x| = m 2^q`` with a 53-bit ``m``; ``s`` is the decimal shift that puts
  ``V = |x| 10^s`` in ``[10^16, 10^17)``.
* ``2V = m C / 2^sh`` with ``C = 2^k 5^s``, and the ends of the rounding
  interval of ``x`` are ``2V -+ (C/2) / 2^sh``.  The 128-bit products are
  formed from 32-bit halves and shifted down once each, which gives their
  floors, and, for ``2V``, whether the shift is exact.
* ``repr`` counts an end of the interval in when ``m`` is even.  Here that
  never matters: for ``s`` in ``[1, 27]`` an end is an integer only where
  ``|x| >= 2^52``, and there it is ``5 mod 10`` or an odd multiple of 10
  beside ``V``, a multiple of 20, so it is never the shortest candidate.
* ``J`` is the largest power of ten of which a multiple lies in the
  interval, and the digits are the multiple of ``10^J`` nearest to ``V``.

``repr`` is called only where this rule does not decide: an exact tie
between two nearest multiples, a power of two (its interval is not
symmetric), zeros and subnormals, ``s`` outside ``[1, 27]`` (``|x|`` outside
about ``[1e-11, 1e16)``) and inf and nan.

Each value's text fills a 24-byte slot: the separator before it, its sign,
its digits with the point, and its exponent, padded with NUL bytes.  One
pass that drops the NUL bytes joins the slots.  Only ``np.uint64`` scalars
meet the uint64 arrays, so the arithmetic promotes alike under numpy 1.x
and NEP 50.
"""

from __future__ import annotations

import math

import numpy as np

_U = np.uint64
_U1, _U10, _U32, _U63 = _U(1), _U(10), _U(32), _U(63)
_LOW32 = _U(0xFFFFFFFF)
_MANT_MASK = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_E_MASK = _U(0x7FF)
_MINUS = _U(ord("-") << 8)
_S_SPAN = 28          # format tables are indexed by J * _S_SPAN + s

# "0000" .. "9999" as the ASCII bytes of the low half of a little-endian word
_DIGITS_LO = sum((np.arange(10**4, dtype=np.uint64) // _U(10**(3 - k)) % _U10
                  + _U(ord("0"))) << _U(8 * k) for k in range(4))
_DIGITS_HI = _DIGITS_LO << _U32
_ZEROS_THEN = _DIGITS_HI[:100] | _U(0x30303030)   # "000000dd"
# byte 0 of a slot: the separator before its value, ',' within a row and
# '\n' before the first value of the next; byte 1: 1 marks a value for repr
_COMMA, _NEWLINE, _MARK = _U(ord(",")), _U(ord("\n")), _U(1 << 8)
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
_TWO_POW10 = _POW10 * _U(2)


def _ceil_pow10(k: int) -> float:
    """The smallest double >= 10^k."""
    d = float(f"1e{k}")
    num, den = d.as_integer_ratio()
    if (num * 10**-k < den) if k < 0 else (num < 10**k * den):
        d = math.nextafter(d, math.inf)
    return d


def _exponent_tables():
    """Tables indexed by ``2 e + step`` (``e`` the biased binary exponent,
    ``step`` whether ``|x|`` reaches the next power of ten in its binade),
    and the threshold of that step indexed by ``e``."""
    low = {k: _ceil_pow10(k) for k in range(-13, 18)}
    thresh = np.full(2048, np.inf)
    valid = np.zeros(4096, dtype=bool)
    s_of = np.ones(4096, dtype=np.intp)
    mult = np.zeros(4096, dtype=np.uint64)
    shift = np.zeros(4096, dtype=np.uint64)
    for e in range(1023 - 40, 1023 + 57):
        x0 = math.ldexp(1.0, e - 1023)
        k_lo = max(k for k, v in low.items() if v <= x0)
        thresh[e] = low[k_lo + 1]
        for step in (0, 1):
            s = 16 - k_lo - step
            # k keeps sh in [0, 63] and the halves of C below 2^32
            k = 3 if s <= 13 else 1
            sh = k - 1 - (e - 1075) - s
            if 1 <= s <= 27 and 0 <= sh <= 63:
                i = 2 * e + step
                valid[i], s_of[i], mult[i], shift[i] = True, s, 5**s << k, sh
    return thresh, valid, s_of, mult & _LOW32, mult >> _U32, mult >> _U1, shift


(_THRESH, _VALID, _S_OF, _C_LO, _C_HI, _HALF, _SHIFT) = _exponent_tables()


def _format_tables():
    """Per ``(J, s)``: the multiplier that appends the zeros of an integer's
    ``.0``; ``10^f`` for ``f`` digits after the point (``10^18``, above every
    digit string, for none); the XOR words of the 24-byte digit span, which clear
    its padding zeros and make its 0 at the point a '.'; and the exponent
    word, 0 where ``repr`` writes no exponent."""
    J = np.arange(18)[:, None]
    s = np.arange(_S_SPAN)[None, :]
    top = J == 17                      # the digits are 1 at 10^17
    nd = 17 - J + top                  # significant digits
    E = 16 - s + top                   # decimal exponent of the first one
    expo = (E < -4) | (E > 15)         # where repr switches to 'e' notation
    p = nd - 1 - np.where(expo, 0, E)  # digits after the point, if >= 0
    f = np.where(expo, nd - 1, np.maximum(p, 1))
    width = np.where(expo, 1, np.maximum(E + 1, 1)) + f + (f > 0)
    mul = (10 ** (f - p)).astype(np.uint64)
    point = np.where(f > 0, 10 ** np.minimum(f, 18), 10**18).astype(np.uint64)
    clear = np.where(np.arange(24) < 24 - width[..., None], 0x30, 0)
    jj, ss = np.nonzero(f > 0)
    clear[jj, ss, 23 - f[jj, ss]] = ord("0") ^ ord(".")
    text = [f"e{e:+03d}".encode() if x else b"\0" * 4
            for e, x in zip(E.ravel(), expo.ravel())]
    return (mul.reshape(-1), point.reshape(-1),
            np.ascontiguousarray(clear.astype(np.uint8).view("<u8")
                                 .reshape(-1, 3).T),
            np.frombuffer(b"".join(text), dtype="<u4").astype(np.uint32))


_MUL, _POINT, _CLEAR, _EXPONENT = _format_tables()


def _floor_shift(lo, hi, sh, t):
    """``floor((hi 2^64 + lo) / 2^sh)`` for results below 2^64; ``t`` is
    ``63 - sh``, so no shift reaches 64."""
    return (lo >> sh) | ((hi << t) << _U1)


def rows_text(block: np.ndarray) -> bytes:
    """The CSV rows of ``block``, byte for byte as ``repr`` writes them."""
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    if not x.size:
        return b"\n" * rows
    bits = x.view(np.uint64)
    e = ((bits >> _U(52)) & _E_MASK).astype(np.intp)
    frac = bits & _MANT_MASK
    m = frac | _HIDDEN
    ie = 2 * e + (np.abs(x) >= _THRESH[e])
    sh = _SHIFT[ie]
    t = _U63 - sh

    # P = m C as 128 bits from 32-bit halves; the ends are P -+ C/2
    a0, a1 = m & _LOW32, m >> _U32
    b0, b1 = _C_LO[ie], _C_HI[ie]
    low = a0 * b0
    mid = a0 * b1 + a1 * b0
    lo = low + (mid << _U32)
    hi = a1 * b1 + (mid >> _U32) + (lo < low)
    half = _HALF[ie]
    lo_up = lo + half
    hi_up = hi + (lo_up < lo)
    lo_dn = lo - half
    hi_dn = hi - (lo < half)
    centre = _floor_shift(lo, hi, sh, t)                       # floor(2V)
    centre_exact = ((lo << t) << _U1) == 0
    # a and b are the floors of the ends of the interval of V, whose
    # integers are then those in (a, b]
    a = _floor_shift(lo_dn, hi_dn, sh, t) >> _U1
    b = _floor_shift(lo_up, hi_up, sh, t) >> _U1
    # the largest J with b mod 10^J < b - a.  The interval is at most 23
    # wide, so above J = 3 each step needs one more zero digit of b: the few
    # values at J = 3 count the trailing zeros of b // 1000
    width = b - a
    J = np.zeros(x.size, dtype=np.intp)
    tail = b
    for k in (1, 2, 3):
        tail = tail // _U10
        J += (b - tail * _POW10[k]) < width
    deep = np.flatnonzero(J == 3)
    J[deep] += (tail[deep, None] % _POW10[1:15] == 0).sum(axis=1)

    # the multiple of 10^J nearest to V: c 10^J
    pw, two_pw = _POW10[J], _TWO_POW10[J]
    k0 = centre // two_pw
    rem = centre - k0 * two_pw
    c = k0 + (rem >= pw)            # V at the half is a tie, left to repr
    fallback = ~_VALID[ie] | (frac == 0) | ((rem == pw) & centre_exact)

    # num: the digits of c, with the zeros of an integer's '.0' appended and
    # a 0 let in at the point, then zero-padded to 24 and read as three
    # little-endian words; one XOR per word clears the padding and turns
    # that 0 into the point
    fi = J * _S_SPAN + _S_OF[ie]
    num = c * _MUL[fi]
    point = _POINT[fi]
    num = (num + (num // point) * point * _U(9)).view(np.int64)
    g0 = num // 10**16
    rest = num - g0 * 10**16
    r_hi = rest // 10**8
    r_lo = rest - r_hi * 10**8
    q_hi, q_lo = r_hi // 10**4, r_lo // 10**4
    slot = np.empty((x.size, 3), dtype="<u8")
    slot[:, 0] = _ZEROS_THEN[g0] ^ _CLEAR[0][fi]
    slot[:, 1] = (_DIGITS_LO[q_hi] | _DIGITS_HI[r_hi - q_hi * 10**4]) ^ _CLEAR[1][fi]
    slot[:, 2] = (_DIGITS_LO[q_lo] | _DIGITS_HI[r_lo - q_lo * 10**4]) ^ _CLEAR[2][fi]
    # an exponent takes the last four bytes: its digits move up four bytes
    # into padding
    expo = np.flatnonzero(_EXPONENT[fi])
    if expo.size:
        words = slot.view("<u4")
        words[expo, :5] = words[expo, 1:]
        words[expo, 5] = _EXPONENT[fi[expo]]
    # byte 0: the separator before the value; byte 1: the sign
    slot[:, 0] |= (bits >> _U63) * _MINUS | _COMMA
    slot[::cols, 0] ^= _COMMA ^ _NEWLINE
    slot[0, 0] ^= _NEWLINE

    fallback = np.flatnonzero(fallback)
    slot[fallback, 0] = (slot[fallback, 0] & _U(0xFF)) | _MARK
    slot[fallback, 1:] = 0
    text = slot.tobytes().translate(None, b"\0")
    if fallback.size:
        parts = text.split(b"\1")
        texts = [repr(v).encode() for v in x[fallback].tolist()]
        text = b"".join(w for pair in zip(parts, texts) for w in pair) + parts[-1]
    return text + b"\n"

"""Exact ``'%.17g' % x`` for float64 arrays, vectorized: the CSV writers'
number formatter.

A finite x with 1e-280 <= |x| <= 1e280 is scaled to y = |x| 10^(16 - E),
with E = floor(log10|x|), as a double-double: Dekker's exact product
(Numer. Math. 18, 1971) of |x| with the high part of a correctly rounded
double-double power of ten, plus |x| times its low part.  The error of y is
below 1e-14: y 2^-106 (1.3e-15) from the power's rounding, as much from
rounding |x| times its low part, and 2^-49 (1.8e-15) from adding that in.
So D = round(y) is exactly the 17-digit significand unless the fraction of
y is within 1e-9 of one half, where the rounding direction (ties to even) is
left to Python.  E is corrected by one where y falls outside [1e16, 1e17),
and a carry of D to 10^17 moves it up by one.

Each number takes a 48-byte row: a sign, a "0.000" prefix, the 17 digits
with a '.' slot after each (looked up four digits at a time), an exponent
"e+XXX" and the separator.  ANDing the row with the mask of its layout
(fixed or scientific, the position of the point, the number of digits left
after trailing zeros are stripped) zeroes the bytes ``%g`` leaves out, and
deleting the zero bytes joins the rows.  Zeros and negative zeros take the
fast path.  NaN, inf, |x| outside the range above and near-ties go through
Python's ``'%.17g'`` one value at a time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

_RANGE = (1e-280, 1e280)   # |x| formatted by the fast path
_TIE = 1e-9                # fractions of y this close to 1/2 fall back to Python
_WIDTH = 48                # bytes per number: sign, 0.000, 17 digits and 17 slots, e+XXX, sep
_U8 = np.dtype("<u8")
_BLOCK = 2048              # numbers formatted at once: the temporaries stay in cache


def _pow10(n_lo: int, n_hi: int) -> tuple[np.ndarray, ...]:
    """10^n for n_lo <= n <= n_hi as correctly rounded double-doubles: the
    high part, its Dekker split and the low part."""
    high, low = [], []
    for n in range(n_lo, n_hi + 1):
        num, den = (10**n, 1) if n >= 0 else (1, 10**-n)
        h = num / den   # int / int true division rounds correctly
        a, b = h.as_integer_ratio()
        high.append(h)
        low.append((num * b - a * den) / (den * b))
    high = np.array(high)
    return (high, *_split(high), np.array(low))


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into two halves of at most 26 significant bits."""
    c = 134217729.0 * a   # 2^27 + 1
    h = c - (c - a)
    return h, a - h


_P0 = 16 - 282   # the table holds 10^(16 - E) for |E| <= 282: the range, and one step past it
_P_HI, _P_HH, _P_HL, _P_LO = _pow10(_P0, 16 + 282)


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ax 10^(16 - e) as a double-double (hi, lo), |lo| <= ulp(hi) / 2."""
    i = 16 - e - _P0
    p_hi = _P_HI[i]
    p = ax * p_hi
    ah, al = _split(ax)
    bh, bl = _P_HH[i], _P_HL[i]
    err = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + ax * _P_LO[i]
    hi = p + err
    return hi, err - (hi - p)


def _digit_tables():
    """Byte words, little-endian: the prefix word '-0.000', d0, '.' for each
    first digit; 'a.b.c.d.' for each 4-digit chunk; 'e', sign and three
    exponent digits for each exponent from -300 to 300; and for each chunk,
    its number of digits once trailing zeros are stripped (-99 for 0000)."""
    chunks = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
    words = np.full((10000, 8), ord("."), dtype=np.uint8)
    words[:, ::2] = chunks + ord("0")
    prefix = np.full((10, 8), ord("."), dtype=np.uint8)
    prefix[:, :6] = list(b"-0.000")
    prefix[:, 6] = np.arange(10) + ord("0")
    e = np.arange(-300, 301)
    exps = np.zeros((len(e), 8), dtype=np.uint8)
    exps[:, :2] = [ord("e"), ord("+")]
    exps[e < 0, 1] = ord("-")
    exps[:, 2:5] = np.abs(e)[:, None] // [100, 10, 1] % 10 + ord("0")
    sig = chunks != 0
    length = np.where(sig.any(axis=1), 4 - np.argmax(sig[:, ::-1], axis=1), -99)
    return prefix.view(_U8)[:, 0], words.view(_U8)[:, 0], exps.view(_U8)[:, 0], length


_PREFIX, _CHUNK, _EXP, _CHUNK_DIGITS = _digit_tables()
_DIGIT_AT = np.array([6] + [8 + 2 * i for i in range(16)])   # byte of digit i
_SCI = 21         # layouts 0-20: fixed notation for E = -4 .. 16; then scientific,
_LAYOUTS = 23     # with 2 exponent digits, then with 3
_SEP = 45         # byte of the separator
_BLANK = 2 * _LAYOUTS * 17   # class of a blank field: the separator alone


def _masks() -> np.ndarray:
    """Row masks by class, (sign, layout, digits kept), then the blank field.
    Every mask keeps the separator."""
    neg = np.arange(2)[:, None, None, None]
    layout = np.arange(_LAYOUTS)[None, :, None, None]
    nd = np.arange(1, 18)[None, None, :, None]
    col = np.arange(_WIDTH)[None, None, None, :]
    e = layout - 4
    fixed = layout < _SCI
    digit = np.full(_WIDTH, -1)
    digit[_DIGIT_AT] = np.arange(17)
    slot = np.full(_WIDTH, -1)
    slot[_DIGIT_AT + 1] = np.arange(17)   # a '.' after digit slot
    digit, slot = digit[None, None, None, :], slot[None, None, None, :]
    shown = np.where(fixed & (e >= 0), np.maximum(nd, e + 1), nd)   # digits written
    point_after = np.where(fixed, e, 0)
    m = ((col == _SEP)
         | ((col == 0) & (neg == 1))
         | (fixed & (e < 0) & ((col == 1) | (col == 2) | ((col >= 3) & (col < 2 - e))))
         | ((digit >= 0) & (digit < shown))
         | ((slot >= 0) & (slot == point_after) & (nd > point_after + 1))
         | (~fixed & (col >= 40) & (col <= 44) & ((col != 42) | (layout == _SCI + 1))))
    m = m.reshape(-1, _WIDTH)
    blank = np.arange(_WIDTH)[None, :] == _SEP
    rows = np.concatenate([m, blank]).astype(np.uint8) * 0xFF
    return rows.view(_U8)


_MASK = _masks()


def _fallback(values: np.ndarray) -> list[str]:
    """Python's formatting, for the values the fast path leaves."""
    return ["%.17g" % v for v in values.tolist()]


def format_rows(values: np.ndarray, seps: str, blank: np.ndarray | None = None) -> str:
    """The rows of a 2-d float array as text: each number as ``'%.17g' % x``
    followed by the separator of its column, ``seps[j]``; a number where
    ``blank`` is set is left out, and only its separator is written."""
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    if len(seps) != cols:
        raise ValueError("need one separator per column")
    skip = np.zeros(values.shape, dtype=bool) if blank is None else np.asarray(blank, dtype=bool)
    seps = np.array([ord(c) << 40 for c in seps], dtype=_U8)   # in the separator's byte
    step = max(1, _BLOCK // cols)
    return "".join(_format_block(values[i:i + step], seps, skip[i:i + step])
                   for i in range(0, rows, step))


def _format_block(values: np.ndarray, seps: np.ndarray, skip: np.ndarray) -> str:
    """``format_rows`` on whole rows, at most ``_BLOCK`` numbers."""
    x = values.ravel()
    skip = skip.ravel()
    n = len(x)
    ax = np.abs(x)
    fast = (ax >= _RANGE[0]) & (ax <= _RANGE[1]) & ~skip
    zero = (ax == 0) | skip   # a blank takes a zero's digits, then the blank's mask
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _scaled(ax, e)
    off = np.flatnonzero((hi < 1e16) | ((hi == 1e16) & (lo < 0))
                         | (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    if len(off):   # log10 put E one off: rescale
        e[off] += np.where(hi[off] > 3e16, 1, -1)
        hi[off], lo[off] = _scaled(ax[off], e[off])
    whole = np.floor(lo)
    frac = lo - whole
    d = hi.astype(np.int64) + (whole + (frac > 0.5)).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    d[zero] = 0
    e[zero] = 0
    halves = np.empty((n, 2), dtype=np.int64)   # digits 1-8 and 9-16
    high = d // 10**8
    halves[:, 1] = d - high * 10**8
    d0 = high // 10**8
    halves[:, 0] = high - d0 * 10**8
    chunks = np.empty((n, 4), dtype=np.int64)
    chunks[:, ::2] = halves // 10**4
    chunks[:, 1::2] = halves - chunks[:, ::2] * 10**4
    length = np.take(_CHUNK_DIGITS, chunks)
    nd = np.maximum(np.maximum(length[:, 0] + 1, length[:, 1] + 5),
                    np.maximum(length[:, 2] + 9, length[:, 3] + 13))
    np.maximum(nd, 1, out=nd)
    layout = np.where((e >= -4) & (e < 17), e + 4, _SCI + (np.abs(e) >= 100))
    cls = (np.signbit(x) * _LAYOUTS + layout) * 17 + nd - 1
    cls[skip] = _BLANK
    buf = np.empty((n, _WIDTH // 8), dtype=_U8)
    np.take(_PREFIX, d0, out=buf[:, 0])
    np.take(_CHUNK, chunks, out=buf[:, 1:5])
    np.take(_EXP, e + 300, out=buf[:, 5])
    buf.reshape(values.shape + (_WIDTH // 8,))[:, :, 5] |= seps
    buf &= np.take(_MASK, cls, axis=0)
    slow = np.flatnonzero(~(fast | zero) | (np.abs(frac - 0.5) < _TIE))
    if len(slow):
        text = buf.view(np.uint8).reshape(n, _WIDTH)
        for i, s in zip(slow.tolist(), _fallback(x[slow])):
            text[i, :_SEP] = np.frombuffer(s.encode().ljust(_SEP, b"\0"), dtype=np.uint8)
    return buf.tobytes().translate(None, b"\0").decode("ascii")

"""CSV bytes of numeric column blocks, every float exactly as `%.{digits}g`.

A block is a list of equally long columns: a float array, whose cells are
formatted `%.{digits}g`; text (a list of str or an array of ASCII bytes),
written as it is; or one str, the same text in every row. `block_bytes`
returns the block's CSV rows as bytes.

At `EXACT_DIGITS` (6) digits a block is formatted into one uint8 buffer, a
row per CSV row, with one slot of whole 8-byte words per column: a float
slot is 16 bytes (a `%.6g` cell is at most 13), a text slot its width plus
one, rounded up to 8. The cell's text starts the slot, its last byte holds
the comma or the newline and every byte between is 0, so dropping the 0
bytes (one `bytes.translate`) leaves the CSV. Float cells are stored into
their slots as two little-endian words by `_put_floats`, which proves the
rounding of each cell from one float product and leaves only the cells it
cannot prove (0, nan, inf, subnormals, magnitudes outside about
1e-17..1e28, near-ties) to Python's `%`. Blocks of any other width
(`--digits 17`) go through one `%` template per row, which is faster there.
Both give the same bytes.

The command line imports this module on its first CSV, so commands
that write none do not load it.
"""

from __future__ import annotations

import functools
from itertools import repeat

import numpy as np

# Cells of this many significant digits are built by `_put_floats`' vectorised
# path: the rounding of |a| * 10**k (|k| <= 22) to such an integer can be
# proven from the float product, and the digits fill the 6-byte table lookup.
# Cells of any other width are Python's own `%`.
EXACT_DIGITS = 6
_POWERS = np.array([float(10**k) if k >= 0 else 1.0 for k in range(-22, 23)])  # 10**k at k + 22 for k >= 0
_FINITE = np.finfo(float)


@functools.cache
def _cell_tables(digits: int):
    """Lookup tables of `_put_floats` for `digits` (6), built on first use.

    A cell is the 6 ASCII digits `dig` of its rounded significand, laid out
    in two little-endian 64-bit words as

        word0 = ((dig & low) << sl) | c0 | (tail << sh),  tail = dig & high
        word1 = (tail >> (64 - sh)) | c1

    `low` takes the digits before the point, shifted past the sign; `high`
    the digits after it, shifted past the point; c0 and c1 hold the sign,
    the point (or the `0.000` prefix) and the exponent suffix. The layout
    depends only on the cell's key = ((x - x0) * 2 + negative) * 16 + zl * 4
    + zh: its exponent x (x0 <= x < x0 + 46, the exponents the vectorised
    path meets), its sign and the trailing zeros zl of the low and zh of the
    high three digits, which give the number s of significant digits left
    once trailing zeros are stripped. `low` and `high` drop the stripped
    digits, so every byte past the cell's text is 0.

    `digits3` holds the 3 ASCII digits of each g < 1000 in its low bytes and
    the count of g's trailing zeros in its top byte, so one lookup per half
    of the significand gives both.
    """
    g = np.arange(1000, dtype=np.uint64)
    zeros = (g % 10 == 0).astype(np.uint64) + (g % 100 == 0) + (g == 0)
    digits3 = (g // 100 + 48) | (g // 10 % 10 + 48) << 8 | (g % 10 + 48) << 16 | zeros << 56
    x0 = digits - 23
    layouts = []  # (low, sl, high, sh, c0, c1) of each (x, negative, s); s = 0 never occurs
    for x in range(x0, x0 + 46):
        fixed = -4 <= x < digits
        for neg in (0, 1):
            for s in range(digits + 1):
                low = sl = high = 0
                sh = 8  # no tail: any shift in [8, 56] will do
                if fixed and x < 0:  # -0.000ddd: a constant prefix, then the digits
                    const = int.from_bytes(b"-" * neg + b"0." + b"0" * (-x - 1), "little")
                    n = neg + 1 - x  # bytes of the prefix
                    high, sh = (1 << 8 * s) - 1, 8 * n
                    n += s
                else:
                    pos = x + 1 if fixed else 1  # digits before the point
                    low, sl = (1 << 8 * pos) - 1, 8 * neg
                    const, n = ord("-") * neg, neg + pos
                    if s > pos:
                        const |= ord(".") << 8 * n
                        high, sh = (1 << 8 * s) - (1 << 8 * pos), 8 * (1 + neg)
                        n += 1 + s - pos
                if not fixed:
                    const |= int.from_bytes(b"e%+03d" % x, "little") << 8 * n
                layouts.append((low, sl, high, sh, const & (2**64 - 1), const >> 64))
    zl, zh = np.arange(4)[:, None], np.arange(4)
    s = np.clip(np.where(zl == 3, 3 - zh, 6 - zl), 1, digits)  # zh = 3 and s > digits never occur
    keyed = np.array(layouts, dtype=np.uint64).reshape(46, 2, digits + 1, 6)[:, :, s].reshape(-1, 6)
    return digits3, x0, *(np.ascontiguousarray(t) for t in keyed.T)


def _put_floats(words, a, digits: int, sep: int = 0):
    """Stores `'%.{digits}g' % a[i]`, padded with 0 bytes, into the two
    little-endian words of row i of `words`, and the byte `sep` into the last
    byte of the row; `digits` is `EXACT_DIGITS`.

    Byte-identical to Python's `%` by construction: a cell goes through the
    vectorised path only when `_rounded` proves its significand, and every
    other cell is formatted by Python's `%`: 0, -0, nan, +-inf, subnormals,
    magnitudes outside about 1e-17..1e28 and near-ties.
    """
    a = np.ascontiguousarray(a, dtype=float).ravel()
    mag = np.abs(a)
    ok = (mag >= _FINITE.tiny) & (mag <= _FINITE.max)
    rest = np.flatnonzero(~ok)
    if rest.size < a.size:
        if rest.size:
            mag[rest] = 1.0
        d, x, unproven = _rounded(mag, digits)
        digits3, x0, low, sl, high, sh, c0, c1 = _cell_tables(digits)
        # d < 10**6 is an exact integer, so d * 0.001 (just above d / 1000) never rounds across an integer
        hi = np.floor(d * 0.001)
        g_hi = digits3[hi.astype(np.intp)]
        g_lo = digits3[(d - 1000.0 * hi).astype(np.intp)]
        key = (x * 32.0 - 32 * x0).astype(np.int64)
        key |= (a.view(np.int64) >> 63) & 16
        key |= ((g_lo >> 54) | (g_hi >> 56)).view(np.int64)
        dig = g_hi | (g_lo << 24)
        tail = dig & high[key]
        dig &= low[key]
        dig <<= sl[key]
        dig |= c0[key]
        shift = sh[key]
        np.bitwise_or(dig, tail << shift, out=words[:, 0])
        tail >>= 64 - shift
        np.bitwise_or(tail, (c1 | np.uint64(sep << 56))[key], out=words[:, 1])
        rest = np.union1d(rest, unproven) if unproven.size else rest
    if rest.size:
        cell = f"%.{digits}g"
        text = np.array([cell % v for v in a[rest].tolist()], dtype=f"S{8 * words.shape[1]}")
        text = text.view("<u8").reshape(rest.size, -1)
        text[:, -1] |= np.uint64(sep << 56)
        words[rest] = text


def _rounded(mag, digits: int):
    """(d, x, unproven): mag rounded to d * 10**(x - digits + 1), d in
    [10**(digits-1), 10**digits), except at the indices `unproven`. d and x
    are floats; x is within 23 of `digits`.

    With e = floor(log10 mag), corrected once from the scaled value, m = mag *
    10**k or mag / 10**-k (k = digits - 1 - e) lies in [10**(digits-1),
    10**digits). For |k| <= 22 the power of ten is an exact double, so m is
    one correctly rounded operation, |m - m_true| < 10**digits * 2**-53, and
    rint(m) is the correctly rounded significand unless m lies within
    10**digits * 2**-52 of a half-integer. Only the right power of ten puts m
    in range, so out-of-range and near-tie cells are not proven. A carry to
    10**digits raises the exponent.
    """
    top = 10.0**digits
    e = np.floor(np.log10(mag))
    m = _scaled(mag, e, digits)
    off = np.flatnonzero((m >= top) | (m < top / 10))
    out = off[:0]
    if off.size:
        e_off = e[off] + np.where(m[off] >= top, 1.0, -1.0)
        m_off = _scaled(mag[off], e_off, digits)
        e[off] = e_off
        bad = (m_off >= top) | (m_off < top / 10)
        m[off] = np.where(bad, top / 10, m_off)  # out of range: any significand will do
        out = off[bad]
    d = np.rint(m)
    ties = np.flatnonzero(np.abs(m - d) >= 0.5 - top * 2.0**-52)  # within top * 2**-52 of a half-integer
    carry = np.flatnonzero(d == top)
    if carry.size:
        d[carry] = top / 10
        e[carry] += 1.0
    return d, e, np.union1d(out, ties) if ties.size else out


def _scaled(mag, e, digits: int):
    """mag * 10**k (k = digits - 1 - e) by one exact power of ten; e is clipped
    in place to digits - 23 <= e <= digits + 21, so that |k| <= 22."""
    np.clip(e, digits - 23, digits + 21, out=e)
    i = (digits + 21 - e).astype(np.intp)  # k + 22
    m = mag * _POWERS[i]  # exact doubles; mag * 1 where k < 0
    big = np.flatnonzero(i < 22)  # k < 0: divide by 10**-k
    if big.size:
        m[big] /= _POWERS[44 - i[big]]
    return m


def text_cells(column) -> np.ndarray:
    """ASCII text (a str, a list of str or a bytes array) as a uint8 matrix, padded with 0 bytes."""
    text = np.ascontiguousarray(column, dtype="S").reshape(-1)
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def _is_float(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def block_bytes(columns, digits: int) -> bytes | bytearray:
    """The block's CSV rows: one buffer of slots at `EXACT_DIGITS` digits,
    else one `%` template per row."""
    if digits != EXACT_DIGITS:
        return _row_text(columns, digits).encode()
    n = next(len(c) for c in columns if not isinstance(c, str))
    cells = [c if _is_float(c) else text_cells(c) for c in columns]
    ends = np.cumsum([16 if _is_float(c) else (c.shape[1] + 8) // 8 * 8 for c in cells])
    out = bytearray(n * int(ends[-1]))  # zeros
    buf = np.frombuffer(out, dtype=np.uint8).reshape(n, int(ends[-1]))
    words = buf.view("<u8")
    seps = b"," * (len(cells) - 1) + b"\n"
    for c, start, end, sep in zip(cells, [0, *ends[:-1].tolist()], ends.tolist(), seps):
        if _is_float(c):
            _put_floats(words[:, start // 8:end // 8], c, digits, sep)
        else:
            buf[:, start:start + c.shape[1]] = c
            buf[:, end - 1] = sep
    return out.translate(None, b"\0")


def _row_text(columns, digits: int) -> str:
    """A block's rows through one `%` template per row."""
    cell = f"%.{digits}g"
    line = ",".join(cell if _is_float(c) else "%s" for c in columns) + "\n"
    cells = [c.tolist() if _is_float(c) else repeat(c) if isinstance(c, str)
             else c.astype(str).tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return "".join(map(line.__mod__, zip(*cells)))

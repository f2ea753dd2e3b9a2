"""CSV bytes of numeric column blocks, every float exactly as `%.{digits}g`.

A block is a list of equally long columns: a float array, whose cells are
formatted `%.{digits}g` (6 or 17 digits); a signed integer array, written as
`str` writes it; text (a list of str, an array of ASCII bytes or a uint8
matrix of them, such as `float_cells` returns), written as it is; or one
str, the same text in every row. `block_bytes` returns the block's CSV rows
as bytes.

A block is formatted into one uint8 buffer, a row per CSV row, with one slot
of whole 8-byte words per column: a float slot is 16 bytes at 6 digits and
24 at 17 (32 for a column with a 24-byte cell), an integer slot 24 bytes, a
text slot its width plus one, rounded up to 8. The cell's text starts the
slot, its last byte holds the separator (a comma, a newline, or 0 for none)
and every byte between is 0, so dropping the 0 bytes (one `bytes.translate`)
leaves the CSV. Float cells are stored into their slots as little-endian
words. At 6 digits `_put_six` proves the rounding of each cell from one
float product; at 17 digits `_put_seventeen` rounds exactly, from Dekker's
error-free product. Only the cells they cannot store go through Python's
`%`: 0, nan, inf, subnormals, magnitudes outside about 1e-17..1e28 (6
digits) or [1e-6, 1e17) (17 digits) and, at 6 digits, near-ties. Every cell
is the bytes of Python's `%`.

The command line and the spectrum cache import this module on their first
CSV or cache, so commands that write neither do not load it.
"""

from __future__ import annotations

import functools

import numpy as np

_P10 = 10.0 ** np.arange(23)  # 10**k for k <= 22: exact doubles
_POWERS = np.concatenate([np.ones(22), _P10])  # 10**k at k + 22 for k >= 0
_INT_P10 = 10 ** np.arange(17, dtype=np.int64)
_ZEROS_13, _ZEROS_24 = np.array([[[47], [53]], [[50], [56]]], dtype=np.uint64)  # group i's count: bit 56 -> 12 - 3i
_FINITE = np.finfo(float)


@functools.cache
def _cell_tables(digits: int):
    """Lookup tables of `_put_six` for `digits` (6), built on first use.

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


@functools.cache
def _seventeen_tables():
    """Lookup tables of `_put_seventeen`, built on first use.

    `digits4` holds the 4 ASCII digits of each g < 10**4 in its low bytes and
    the count of g's trailing zeros (4 for g = 0) in its top byte. The four
    counts of a significand's groups, 3 bits each, index `stripped`: the
    number s of its significant digits once trailing zeros are stripped,
    less one.

    A cell's layout depends on its key = (x + 6) * 17 + s - 1, x its
    exponent (-6 <= x <= 16). Its column of `layout` holds the masks `low`
    and `high` of the digit string and `const` (the point, the `0.000`
    prefix of -4 <= x < 0 or the exponent suffix of x < -4, in its place),
    three words each, then the bit shift of the high digits. The stripped
    digits are in neither mask, so every byte past the cell's text is 0.
    """
    g = np.arange(10**4, dtype=np.uint64)
    zeros = (g % 10 == 0).astype(np.uint64) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    digits4 = (g // 1000 + 48) | (g // 100 % 10 + 48) << 8 | (g // 10 % 10 + 48) << 16 | (g % 10 + 48) << 24
    digits4 |= zeros << 56
    z1, z2, z3, z4 = (np.arange(4096) >> 3 * i & 7 for i in (3, 2, 1, 0))  # counts 0..4 of g1..g4
    stripped = (16 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))).clip(0).astype(np.intp)
    layouts = []  # of each (x, s)
    for x in range(-6, 17):
        for s in range(1, 18):
            if x < -4:  # d.ddde-05
                low, high, shift = 0xFF, (1 << 8 * s) - (1 << 8), 1
                const = ord(".") << 8 if s > 1 else 0
                const |= int.from_bytes(b"e%+03d" % x, "little") << 8 * (s + 1 if s > 1 else 1)
            elif x < 0:  # 0.00ddd
                prefix = b"0." + b"0" * (-x - 1)
                low, high, shift, const = 0, (1 << 8 * s) - 1, len(prefix), int.from_bytes(prefix, "little")
            else:  # ddd.ddd
                pos = x + 1  # digits before the point
                low, high, shift = (1 << 8 * pos) - 1, (1 << 8 * max(s, pos)) - (1 << 8 * pos), 1
                const = ord(".") << 8 * pos if s > pos else 0
            layouts.append([v >> 64 * i & (2**64 - 1) for v in (low, high, const) for i in range(3)] + [8 * shift])
    return digits4, stripped, np.ascontiguousarray(np.array(layouts, dtype=np.uint64).T)


def _put_floats(words, a, digits: int, sep: int = 0):
    """Stores `'%.{digits}g' % a[i]` (6 or 17 digits), padded with 0 bytes,
    into the little-endian words of row i of `words`, and the byte `sep` into
    the last byte of the row.

    Byte-identical to Python's `%` by construction: the width's vectorised
    writer stores the cells whose text it can prove and returns the others,
    which Python's `%` formats.
    """
    a = np.ascontiguousarray(a, dtype=float).ravel()
    rest = {6: _put_six, 17: _put_seventeen}[digits](words, a, sep)
    if rest.size:
        _put_text(words, [f"%.{digits}g" % v for v in a[rest].tolist()], rest, sep)


def _put_ints(words, a, sep: int = 0):
    """Stores `str(a[i])` of an integer array into the three words of row i,
    as `_put_floats` does: where 0 < |a[i]| < 10**17, a[i] * 10**(16 - x)
    at a[i]'s decimal exponent x is a significand whose `%.17g` text is the
    integer's; every other value goes through `str`."""
    a = np.ascontiguousarray(a, dtype=np.int64).ravel()
    mag = np.abs(a)  # -2**63 stays negative
    rest = np.flatnonzero(~((mag > 0) & (mag < 10**17)))
    if rest.size < a.size:
        mag[rest] = 1
        x = np.searchsorted(_INT_P10, mag, side="right") - 1
        _store_seventeen(words, mag * _INT_P10[16 - x], x, a < 0, sep)
    if rest.size:
        _put_text(words, list(map(str, a[rest].tolist())), rest, sep)


def _put_text(words, texts, rows, sep: int):
    """Stores each ASCII text, padded with 0 bytes, and `sep` into its row of `words`."""
    text = np.array(texts, dtype=f"S{8 * words.shape[1]}").view("<u8").reshape(rows.size, -1)
    text[:, -1] |= np.uint64(sep << 56)
    words[rows] = text


def _put_six(words, a, sep: int):
    """The 6-digit cells of `_put_floats` in two words a row, but for the
    indices it returns: 0, -0, nan, +-inf, subnormals, magnitudes outside
    about 1e-17..1e28 and the near-ties that `_rounded` cannot prove."""
    digits = 6
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
    return rest


def _put_seventeen(words, a, sep: int):
    """The 17-digit cells of `_put_floats` in three words a row (a fourth
    holds the separator of a 32-byte slot), but for the indices it returns:
    0, -0, nan, +-inf, subnormals and magnitudes outside [1e-6, 1e17).
    Exact, ties included: `_significand` gives each cell's significand and
    exponent, and `_store_seventeen` its text.
    """
    mag = np.abs(a)
    rest = np.flatnonzero(~((mag >= 1e-6) & (mag < 1e17)))
    if rest.size == a.size:
        return rest
    if rest.size:
        mag[rest] = 1.0
    x = np.floor(np.log10(mag))
    d, off = _significand(mag, x)
    off = np.flatnonzero(off)
    if off.size:  # log10 put the exponent one off: correct it once
        x_off = x[off] + np.where(d[off] >= 10**17, 1.0, -1.0)
        d[off], still = _significand(mag[off], x_off)
        x[off] = x_off
        if still.any():  # 1e-6 itself is just below 10**-6
            d[off[still]] = 10**16
            rest = np.union1d(rest, off[still])
    _store_seventeen(words, d, x, a < 0, sep)
    return rest


def _store_seventeen(words, d, x, negative, sep: int):
    """Stores the `%.17g` text of the significands d (int64, 10**16 <= d <
    10**17) at exponents x (-6 <= x <= 16), negative where `negative`, into
    the words of `words`' rows, and `sep` into the last byte of each row.

    d's ASCII digits (`digits4`, four at a time) are one 17-byte string in
    three words. The layout of `_seventeen_tables` of (x, s) keeps the bytes
    `low` in place, moves the bytes `high` up past the point or the `0.000`
    prefix and ORs in the point, the prefix or the exponent suffix. A
    negative cell is then shifted one byte up behind its `-`.
    """
    digits4, stripped, layout = _seventeen_tables()
    d0, d = np.divmod(d, 10**16)  # d = d0 g1 g2 g3 g4: one digit, then four groups of four
    g13, g24 = np.divmod(np.divmod(d, 10**8), 10**4)
    t13, t24 = digits4[g13], digits4[g24]
    w = np.zeros((words.shape[1], d.size), dtype=np.uint64)  # word-major
    zeros = (t13 >> _ZEROS_13) | (t24 >> _ZEROS_24)  # the groups' trailing zeros, 3 bits each
    key = (x * 17 + 102).astype(np.intp)
    key += stripped[zeros[0] | zeros[1]]
    np.bitwise_or(t13 << 8, t24 << 40, out=w[:2])
    d0 += 48
    w[0] |= d0.view(np.uint64)
    t24 >>= 24
    w[1] |= t24[0] & 0xFF
    w[2] = t24[1]  # digit 17; the bytes above it are masked off below
    lay = np.take(layout, key, axis=1)  # low, high and const, three words each, then the shift
    cell = w[:3]
    moved = cell & lay[3:6]
    cell &= lay[:3]
    cell |= lay[6:9]
    by = lay[9]
    cell |= moved << by
    cell[1:] |= moved[:2] >> (64 - by)
    neg = np.flatnonzero(negative)
    if neg.size:
        moved = cell[:, neg]
        cell[:, neg] = moved << 8
        cell[1:, neg] |= moved[:2] >> 56
        cell[0, neg] |= ord("-")
    w[-1] |= np.uint64(sep << 56)
    words[:] = w.T


_SPLITTER = 134217729.0  # 2**27 + 1


def _split(v):
    """Veltkamp's split v = hi + lo, each half of at most 26 significant bits."""
    c = v * _SPLITTER
    hi = c - (c - v)
    return hi, v - hi


_P10_HI, _P10_LO = _split(_P10)


def _significand(mag, e):
    """(d, off): the integer d nearest mag * 10**k (k = 16 - e), ties to
    even, and where d is no 17-digit significand: where mag * 10**k lies
    outside [10**16, 10**17), so that e is not mag's decimal exponent. e is
    clipped in place to -6 <= e <= 16, so that 10**k is an exact double.

    Dekker's TwoProduct (Numer. Math. 18, 1971) gives mag * 10**k = p + err
    exactly, p the rounded product and err a double. In range, p >= 2**53
    is an even integer, so d = p + rint(err) is the nearest integer. The
    product p = 10**16 with err < 0 lies below 10**16, though d rounds to it.
    """
    np.clip(e, -6, 16, out=e)
    k = (16 - e).astype(np.intp)
    p = mag * _P10[k]
    ah, al = _split(mag)
    bh, bl = _P10_HI[k], _P10_LO[k]
    err = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    return d, (d < 10**16) | (d >= 10**17) | ((p == 1e16) & (err < 0))


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
    """ASCII text (a str, a list of str, a bytes array or a uint8 matrix of
    them) as a uint8 matrix, padded with 0 bytes."""
    if isinstance(column, np.ndarray) and column.ndim == 2:
        return column
    text = np.ascontiguousarray(column, dtype="S").reshape(-1)
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def float_cells(a, digits: int) -> np.ndarray:
    """The `%.{digits}g` cells of a float array as a text column: a uint8
    matrix, a row of ASCII bytes padded with 0 bytes per cell, whose slot in
    a block is the float column's own."""
    a = np.ascontiguousarray(a, dtype=float).ravel()
    width = _float_slot(a, digits)
    words = np.zeros((a.size, width // 8), dtype="<u8")
    _put_floats(words, a, digits)
    return words.view(np.uint8)[:, :width - 1]


def _kind(column) -> str:
    """'f' for a float array, 'i' for a signed integer array, else '' (text)."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else ""
    return kind if kind in ("f", "i") else ""


def _float_slot(a, digits: int) -> int:
    """Bytes of a float column's slot: 16 at 6 digits (a cell is at most 13
    bytes), 24 at 17 (at most 23), or 32 where a negative number with a
    three-digit exponent makes a 24-byte cell."""
    if digits == 6:
        return 16
    return 32 if np.any((a <= -1e100) | ((a < 0) & (a > -1e-99))) else 24


def block_bytes(columns, digits: int, seps: bytes | None = None) -> bytes | bytearray:
    """The block's rows: its cells in the slots of one buffer, the 0 bytes
    dropped. `seps` holds each column's separator byte, by default a comma
    after each column but the last and a newline after it; a 0 byte is none.
    An integer column's slot is 24 bytes (`str` of an int64 is at most 20).
    """
    n = next(len(c) for c in columns if not isinstance(c, str))
    kinds = [_kind(c) for c in columns]
    cells = [c if kind else text_cells(c) for c, kind in zip(columns, kinds)]
    ends = np.cumsum([_float_slot(c, digits) if kind == "f" else 24 if kind else (c.shape[1] + 8) // 8 * 8
                      for c, kind in zip(cells, kinds)])
    out = bytearray(n * int(ends[-1]))  # zeros
    buf = np.frombuffer(out, dtype=np.uint8).reshape(n, int(ends[-1]))
    words = buf.view("<u8")
    for c, kind, start, end, sep in zip(cells, kinds, [0, *ends[:-1].tolist()], ends.tolist(),
                                        seps or b"," * (len(cells) - 1) + b"\n"):
        if kind == "f":
            _put_floats(words[:, start // 8:end // 8], c, digits, sep)
        elif kind:
            _put_ints(words[:, start // 8:end // 8], c, sep)
        else:
            buf[:, start:start + c.shape[1]] = c
            buf[:, end - 1] = sep
    return out.translate(None, b"\0")

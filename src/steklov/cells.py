"""CSV text of numeric column blocks, every float exactly as `%.{digits}g`.

A block is a list of equally long columns: a float array, whose cells are
formatted `%.{digits}g`; text (a list of str or an array of ASCII bytes),
written as it is; or one str, the same text in every row. `block_text`
returns the block's CSV rows.

At up to `EXACT_DIGITS` digits a block is built as byte matrices: float
cells come from `float_cells`, which proves the rounding of each cell from
one float product and leaves only the cells it cannot prove (0, nan, inf,
subnormals, magnitudes outside about 1e-17..1e28, near-ties) to Python's
`%`, and one mask over the 0-padded matrix compacts the rows. Wider blocks
(`--digits 17`) go through one `%` template per row, which is faster there.
Both give the same bytes.

The command line imports this module on its first CSV, so commands
that write none do not load it.
"""

from __future__ import annotations

import functools
from itertools import repeat

import numpy as np

# Cells of at most this many significant digits are built by `float_cells`'
# vectorised path: the rounding of |a| * 10**k (|k| <= 22) to such an integer
# can be proven from the float product, and the digits fit the 6-byte table
# lookup. Wider cells are Python's own `%`.
EXACT_DIGITS = 6
_COMMA, _NEWLINE = np.frombuffer(b",\n", dtype=np.uint8).reshape(2, 1, 1)
_POWERS = np.array([float(10**k) for k in range(23)])  # exact doubles


@functools.cache
def _cell_tables(digits: int):
    """Lookup tables of `float_cells` for `digits` <= 6, built on first use.

    A cell is the 6 ASCII digits of its rounded significand (padded with
    zeros below `digits`), laid out in two little-endian 64-bit words as

        word0 = ((dig & low) << sl) | c0 | (tail << sb),  tail = dig >> sa
        word1 = tail >> (64 - sb)

    then an exponent suffix at bit `at`. The layout of a cell depends only on
    its key = (case * 2 + negative) * (digits + 1) + s, where case c <
    digits + 4 is fixed notation with exponent c - 4, c = digits + 4 is the
    d.ddd mantissa of exponent notation, and s is the number of significant
    digits left after trailing zeros are stripped. `keep` clears the stripped
    digits, so every byte past the cell's text is 0.
    """
    u64 = np.uint64
    ascii3 = np.array([int.from_bytes(b"%03d" % g, "little") for g in range(1000)], dtype=u64)
    zeros3 = np.array([3 - len((b"%03d" % g).rstrip(b"0")) for g in range(1000)], dtype=np.intp)
    nkey = (digits + 5) * 2 * (digits + 1)
    keep, low, sl, c0, sa, sb = (np.zeros(nkey, dtype=u64) for _ in range(6))
    at = np.full(nkey, 8, dtype=u64)  # fixed notation has no suffix; any shift in [8, 64] will do
    for c in range(digits + 5):
        x = c - 4
        for neg in (0, 1):
            for s in range(1, digits + 1):
                k = (c * 2 + neg) * (digits + 1) + s
                if x < 0 and c < digits + 4:  # -0.000ddd: a constant prefix, then the digits
                    prefix = b"-" * neg + b"0." + b"0" * (-x - 1)
                    keep[k] = (1 << (8 * s)) - 1
                    c0[k] = int.from_bytes(prefix, "little")
                    sb[k] = 8 * len(prefix)
                    continue
                pos = 1 if c == digits + 4 else x + 1  # digits before the point
                keep[k] = (1 << (8 * max(s, pos))) - 1
                low[k] = (1 << (8 * pos)) - 1
                sl[k] = 8 * neg
                c0[k] = ord("-") * neg
                if s > pos:
                    c0[k] |= ord(".") << (8 * (pos + neg))
                    sa[k], sb[k] = 8 * pos, 8 * (pos + 1 + neg)
                else:  # no point: the shifted tail is 0
                    sa[k], sb[k] = 56, 8
                if c == digits + 4:
                    at[k] = 8 * (neg + pos + (1 + s - pos if s > pos else 0))
    # exponents the vectorised path can meet (|k| <= 22), then 0 for fixed notation
    x0 = digits - 23
    suffix = np.array([int.from_bytes(b"e%+03d" % x, "little") for x in range(x0, digits + 23)] + [0], dtype=u64)
    return ascii3, zeros3, keep, low, sl, c0, sa, sb, at, x0, suffix


def float_cells(a, digits: int) -> np.ndarray:
    """`'%.{digits}g' % a[i]` as row i of a uint8 matrix, padded with 0 bytes.

    Byte-identical to Python's `%` by construction: a cell goes through the
    vectorised path only when `_rounded` proves its significand, and every
    other cell is formatted by Python's `%`: 0, -0, nan, +-inf, subnormals,
    magnitudes outside about 1e-17..1e28, near-ties, and every cell of more
    than `EXACT_DIGITS` digits.
    """
    a = np.asarray(a, dtype=float).ravel()
    if digits <= EXACT_DIGITS:
        ok = np.isfinite(a) & (np.abs(a) >= np.finfo(float).tiny)
    else:
        ok = np.zeros(a.size, dtype=bool)
    if ok.any():
        d, x, proven = _rounded(np.where(ok, np.abs(a), 1.0), digits)
        ok &= proven
        cells = _cell_bytes(d, x, a < 0, digits)
    else:
        cells = np.zeros((a.size, 16 if digits <= EXACT_DIGITS else digits + 7), dtype=np.uint8)
    rest = np.flatnonzero(~ok)
    if rest.size:
        cell = f"%.{digits}g"
        text = np.array([cell % v for v in a[rest].tolist()], dtype=f"S{cells.shape[1]}")
        cells[rest] = text.view(np.uint8).reshape(rest.size, -1)
    return cells


def _rounded(mag, digits: int):
    """(d, x, proven): mag rounded to d * 10**(x - digits + 1), d in
    [10**(digits-1), 10**digits), wherever `proven`.

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
    e = np.floor(np.log10(mag)).astype(np.intp)
    m = _scaled(mag, e, digits)
    off = np.flatnonzero((m >= top) | (m < top / 10))
    if off.size:
        e[off] += np.where(m[off] >= top, 1, -1)
        m[off] = _scaled(mag[off], e[off], digits)
    proven = (m >= top / 10) & (m < top) & (np.abs(m - np.floor(m) - 0.5) > top * 2.0**-52)
    d = np.rint(np.where(proven, m, top / 10)).astype(np.intp)
    carry = d == top
    return np.where(carry, d // 10, d), e + carry, proven


def _scaled(mag, e, digits: int):
    """mag * 10**k (k = digits - 1 - e) by one exact power of ten, |k| clipped to 22."""
    k = digits - 1 - e
    p = _POWERS[np.minimum(np.abs(k), 22)]
    m = mag / p
    return np.multiply(mag, p, out=m, where=k >= 0)


def _cell_bytes(d, x, negative, digits: int) -> np.ndarray:
    """The %g text of sign, significand d and exponent x, laid out by `_cell_tables`."""
    ascii3, zeros3, keep, low, sl, c0, sa, sb, at, x0, suffix = _cell_tables(digits)
    hi, lo = np.divmod(d * 10 ** (6 - digits), 1000)
    dig = ascii3[hi] | (ascii3[lo] << np.uint64(24))
    fixed = (x >= -4) & (x < digits)
    s = 6 - zeros3[lo] - np.where(lo == 0, zeros3[hi], 0)
    key = (np.where(fixed, x + 4, digits + 4) * 2 + negative) * (digits + 1) + s
    dig &= keep[key]
    tail = dig >> sa[key]
    shift = sb[key]
    sfx = suffix[np.where(fixed, -1, np.clip(x - x0, 0, suffix.size - 2))]
    bit = at[key]
    words = np.empty((2, d.size), dtype="<u8")
    np.bitwise_or((dig & low[key]) << sl[key], c0[key], out=words[0])
    words[0] |= tail << shift
    words[0] |= (sfx << (bit - np.uint64(8))) << np.uint64(8)
    np.right_shift(tail, np.uint64(64) - shift, out=words[1])
    words[1] |= sfx >> (np.uint64(64) - bit)
    return words.T.copy().view(np.uint8)


def text_cells(column) -> np.ndarray:
    """ASCII text (a str, a list of str or a bytes array) as a uint8 matrix, padded with 0 bytes."""
    text = np.ascontiguousarray(column, dtype="S").reshape(-1)
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def _is_float(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def block_text(columns, digits: int) -> str:
    """The block's CSV rows: byte matrices up to `EXACT_DIGITS` digits, else
    one `%` template per row."""
    return _cell_text(columns, digits) if digits <= EXACT_DIGITS else _row_text(columns, digits)


def _cell_text(columns, digits: int) -> str:
    """A block's rows: its `_cell_matrix` compacted by one mask over the 0 bytes.
    The column matrices are freed before the mask is made."""
    buf = _cell_matrix(columns, digits)
    return str(buf[buf != 0], "ascii")


def _cell_matrix(columns, digits: int) -> np.ndarray:
    """A block as one uint8 matrix, a row per CSV row: each column's cells
    (`float_cells` or `text_cells`), then a comma or the newline."""
    n = next(len(c) for c in columns if not isinstance(c, str))
    parts = []
    for c in columns:
        parts += [float_cells(c, digits) if _is_float(c) else text_cells(c), _COMMA]
    parts[-1] = _NEWLINE
    return np.concatenate([np.broadcast_to(p, (n, p.shape[1])) for p in parts], axis=1)


def _row_text(columns, digits: int) -> str:
    """A block's rows through one `%` template per row."""
    cell = f"%.{digits}g"
    line = ",".join(cell if _is_float(c) else "%s" for c in columns) + "\n"
    cells = [c.tolist() if _is_float(c) else repeat(c) if isinstance(c, str)
             else c.astype(str).tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return "".join(map(line.__mod__, zip(*cells)))

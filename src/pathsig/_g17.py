"""Exact `%.17g` text of a block of floats, in numpy.

block_text(block) writes what `"%.17g" % x` writes for every cell of a 2-D
float64 block, cells joined by "," and each row ending in "\n". A cell
that prints in fixed notation, 0 or 1e-4 <= |x| < 1e17, is printed here
with no per-cell Python:

- Its decimal exponent k is exact: 5 less than the count of _BOUNDS at or
  below |x|. Dekker's error-free product (Dekker 1971) splits
  |x| * 10**(16 - k), whose power of ten is an exact double, into p + e
  exactly, with 1e16 <= p + e < 1e17.
- The 17 digits are D = p + rint(e). p >= 2**53 is an even integer, so
  rint's ties-to-even rounds as dtoa does. D never rounds up to 10**17:
  the largest double below each 10**(k + 1), k in [-4, 16], lies 8 units
  of D or more below it.
- A cell is 22 little-endian uint16 slots, each a pair (the sign, the
  separator or a point; then a character), the 21 characters being `0000`
  and the 17 digits. Which characters print and where the point goes
  depend only on k and the last nonzero digit: one row of _LAYOUT, which
  the digits are ORed into. An unprinted character has its top bit set,
  and one bytes.translate per block deletes it and the 0 bytes.

Any other cell (inf, nan, a subnormal, or scientific notation) is written
by `"%.17g" % x` over its first 42 bytes.
"""

from __future__ import annotations

import numpy as np

_U2 = np.dtype("<u2")
_SPLIT = np.float64(2 ** 27 + 1)
_E4, _E8 = np.int64(10 ** 4), np.int64(10 ** 8)
#: 10**q as exact doubles, q = 0..21
_POW10 = np.array([float(10 ** q) for q in range(22)])
#: the smallest double at or above 10**k, k = -4..17: 1e-4 .. 1e-1 are
#: above their powers, the rest equal to them
_BOUNDS = np.array([float(f"1e{k}") for k in range(-4, 18)])
#: per 4-digit group g: its four ASCII digits, each in a pair's high byte,
#: as one uint64
_DIGITS = np.empty((10,) * 4 + (4,), _U2)
_d = np.arange(48, 58, dtype=_U2) << np.uint16(8)
for _i in range(4):
    _DIGITS[..., _i] = _d.reshape((10,) + (1,) * (3 - _i))
_DIGITS = _DIGITS.view(np.uint64).ravel()
#: per 10,000 * i + g, for the i-th group of four after the leading digit:
#: the position among the 17 digits of g's last nonzero one, or 0 if g is 0
_d = np.zeros((10,) * 4, np.uint8)
for _i in range(4):
    _d[(slice(None),) * _i + (slice(1, None),)] = _i + 1
_i = np.arange(0, 16, 4, dtype=np.uint8).reshape(4, 1, 1, 1, 1)
_LAST = np.where(_d == 0, np.uint8(0), _d + _i).ravel()
#: per (k + 4) * 17 + the position of the last nonzero digit: a cell's 22
#: pairs with its sign and digits left 0. Character j (-4..-1 the leading
#: zeros, 0..16 the digits) has 0x80 where it does not print, the point
#: goes before character k + 1, and the separator is ","
_k = np.arange(-4, 17)[:, None, None]
_last = np.arange(17)[None, :, None]
_j = np.arange(-4, 17)
_pairs = np.where((_j >= np.minimum(_k, 0)) & (_j <= np.maximum(_last, _k)),
                  0, 0x80) + np.where(_j < 0, 48, 0) << 8
_pairs[..., 1:] |= np.where((_j[1:] == _k + 1) & (_last > _k), ord("."), 0)
_LAYOUT = np.concatenate([_pairs, np.full((21, 17, 1), ord(","))], axis=2
                         ).astype(_U2).reshape(-1, 22)
_DELETE = b"\0" + bytes(range(0xB0, 0xBA))
del _d, _i, _k, _last, _j, _pairs


def _two_product(a, b):
    """p, e with p = fl(a * b) and p + e = a * b exactly (Dekker)."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def block_text(block: np.ndarray) -> str:
    """The CSV text of a 2-D block: `"%.17g" % x` for every cell."""
    x = np.asarray(block, dtype=np.float64)
    n_rows, n_cols = x.shape
    x = x.ravel()
    a = np.abs(x)
    i = np.searchsorted(_BOUNDS, a, side="right")  # k + 5, nan last
    zero = a == 0
    fixed = (i > 0) & (i < len(_BOUNDS))
    i = np.where(fixed, i, 5)
    p, e = _two_product(np.where(fixed, a, np.float64(1)),
                        np.take(_POW10, 21 - i))
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    digits[zero] = 0
    fixed |= zero

    # the leading digit, then four groups of four
    hi = digits // _E8
    lo = digits - hi * _E8
    mid = hi // _E4
    lead = mid // _E4
    groups = np.stack([mid - lead * _E4, hi - mid * _E4, lo // _E4,
                       lo % _E4], axis=1)
    last = np.take(_LAST, groups + np.arange(0, 40_000, 10_000))
    last = np.maximum(np.maximum(last[:, 0], last[:, 1]),
                      np.maximum(last[:, 2], last[:, 3]))

    cells = np.take(_LAYOUT, (i - 1) * 17 + last, axis=0)
    cells[:, 0] |= np.signbit(x).astype(_U2) * np.uint16(ord("-"))
    cells[:, 4] |= ((lead + np.int64(48)) << np.int64(8)).astype(_U2)
    cells[:, 5:21] |= np.take(_DIGITS, groups).view(_U2)
    cells.reshape(n_rows, n_cols, 22)[:, -1, 21] = ord("\n")
    other = np.flatnonzero(~fixed)
    if len(other):
        text = b"".join(("%.17g" % v).encode().ljust(42, b"\0")
                        for v in x[other].tolist())
        cells.view(np.uint8)[other, :42] = np.frombuffer(
            text, np.uint8).reshape(-1, 42)
    return cells.tobytes().translate(None, _DELETE).decode("ascii")

"""The row kernel of the database text: spin columns to ``_DB_ROW`` text, byte for byte.

Only ``gen-db`` writes a database, so ``experiment.write_database`` imports
this module on its first call and no other command compiles it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_DB_ROW = "%d %.17g %.17g %.17g\n"  # per value, the same text as experiment.format_g17

# The row kernel lays each row out as uint32 words from tables, NUL in every byte
# ``_DB_ROW`` would not write, then drops the NULs: the index in 4-digit words, then
# per component two words of prefix (" ", a "-" if negative, "0." and the zeros after
# the point) and leading digit and four of the other 16 digits, then a "\n" word.
_WORD = 10_000  # the values of one 4-digit word


class _KernelTables(NamedTuple):
    lead: np.ndarray  # two words (8 bytes) at 10 * (5 * negative - X) + leading digit
    index: np.ndarray  # the word of w in 0 .. 9999 at w, leading zeros as NUL; at 10^4 + w, whole
    trail: np.ndarray  # the word of w at w, trailing zeros as NUL; at 10^4 + w, whole
    pow5: np.ndarray  # 5^(16 - X) for X = 0, -1, ..., -4
    pow10: np.ndarray  # 10^(16 - X) as floats, each exact


@functools.cache
def _kernel_tables() -> _KernelTables:
    """The row kernel's tables, built on its first call (only ``gen-db`` needs
    them), and read-only, since every caller shares them."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()  # row w: w's digits
    text = digits + np.uint8(ord("0"))

    def words(keep):
        return np.concatenate([np.where(keep, text, 0), text]).view(np.uint32).ravel()

    prefixes = [" ", " 0.", " 0.0", " 0.00", " 0.000", " -", " -0.", " -0.0", " -0.00", " -0.000"]
    lead = np.empty((10, 10, 8), dtype=np.uint8)  # each prefix, right-aligned, and each digit
    lead[..., :7] = np.array([list(p.rjust(7, "\0").encode()) for p in prefixes])[:, None]
    lead[..., 7] = text[:10, 3]
    tables = _KernelTables(
        lead=lead.view(np.uint64).ravel(),
        index=words(np.logical_or.accumulate(digits != 0, axis=1)),
        trail=words(np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]),
        pow5=5 ** np.arange(16, 21, dtype=np.uint64),
        pow10=np.array([float(10**k) for k in range(16, 21)]),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


_TEN8, _TEN16, _TEN17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)
_U1, _U52, _MANT, _T0 = np.uint64(1), np.uint64(52), np.uint64((1 << 52) - 1), np.uint64(1059)
_UTEN8, _UWORD = np.uint32(10**8), np.uint32(_WORD)


def _scaled(mag: np.ndarray, xi: np.ndarray, limbs=None) -> tuple[np.ndarray, np.ndarray]:
    """floor and round-half-even of y = mag * 10^k, k = 16 + xi, for 1e-4 <= mag <= 1 and
    0 <= xi <= 4, exactly; in the uint64 ``limbs`` (5, mag.size) if given.

    y = mant * 5^k / 2^t, with t = 53 - e - k in [35, 47] for mag = mant * 2^(e - 53).
    The float product q = uint64(mag * 10^k) (10^k is exact) lies within y * 2^-53 + 1
    of y, so F0 = q - (q >> 52) - 1 is at most the floor and within 2^9 of it. The
    remainder r = mant * 5^k - F0 * 2^t is then below 2^56, exact in wrapping uint64,
    and the floor is F0 + (r >> t).
    """
    tables = _kernel_tables()
    f0, rem, t, floor, tmp = np.empty((5, mag.size), np.uint64) if limbs is None else limbs
    bits = mag.view(np.uint64)
    np.subtract(_T0, np.right_shift(bits, _U52, out=t), out=t)
    t -= xi.view(np.uint64)
    est = np.take(tables.pow10, xi, out=tmp.view(np.float64), mode="clip")
    np.copyto(f0, np.multiply(est, mag, out=est), casting="unsafe")
    f0 -= np.add(np.right_shift(f0, _U52, out=rem), _U1, out=rem)
    np.take(tables.pow5, xi, out=rem, mode="clip")
    rem *= np.bitwise_or(np.bitwise_and(bits, _MANT, out=floor), _U1 << _U52, out=floor)
    rem -= np.left_shift(f0, t, out=floor)
    np.add(np.right_shift(rem, t, out=floor), f0, out=floor)
    # rounded up where r's low t bits, plus 1 if the floor is odd, exceed 2^(t - 1)
    np.left_shift(_U1, np.subtract(t, _U1, out=tmp), out=tmp)
    tmp += rem
    tmp += np.bitwise_and(floor, _U1, out=rem)
    tmp -= _U1
    f0 += np.right_shift(tmp, t, out=tmp)
    return floor, f0


class _FormatScratch(NamedTuple):
    """The row kernel's buffers for (3, m) slices whose indices take at most w words: made
    once per ``write_database`` call, so every slice writes into the memory of the last."""

    floats: np.ndarray  # (2, 3m): |v|, then log10 |v|
    limbs: np.ndarray  # (5, 3m) uint64: ``_scaled``'s, then the lead and digit word pairs
    exponents: np.ndarray  # (2, 3m) intp: -X, then the lead table's index
    digits: np.ndarray  # (6, 3m) uint32: the leading digit and the digit words
    flags: np.ndarray  # (3m,) bool
    text: bytearray  # the rows' (m, w + 19) uint32 words, NULs and all, read in place

    @classmethod
    def of(cls, m: int, w: int) -> "_FormatScratch":
        k = 3 * m
        return cls(
            np.empty((2, k)), np.empty((5, k), np.uint64), np.empty((2, k), np.intp),
            np.empty((6, k), np.uint32), np.empty(k, bool), bytearray(4 * m * (w + 19)),
        )


def _format_columns(cols: np.ndarray, lo: int, scratch: _FormatScratch | None = None):
    """``_DB_ROW`` of trials lo, lo + 1, ... with spin columns ``cols`` (3, m), equal to it
    bit for bit, and how many of its rows went through ``_DB_ROW`` itself; in the buffers
    of ``scratch`` if given.

    A component v with 1e-4 <= |v| <= 1, whose ``%.17g`` text is in fixed
    notation "0.<zeros><17 digits>" with trailing zeros cut (or "1"), is
    formatted here, as is a signed zero; its decimal exponent X is
    floor(log10 |v|), corrected where the floor of v * 10^(16 - X) leaves
    [10^16, 10^17). Rounding never carries into an 18th digit: that needs
    v within 5e-18 (relative) below a power of ten, and the nearest double
    below 1, 0.1, 0.01 or 0.001 is at least 8e-17 away. A row with any other
    component (0 < |v| < 1e-4, |v| > 1, a subnormal, or non-finite) goes
    through ``_DB_ROW`` itself, its text laid into the row's words.
    """
    tables, m = _kernel_tables(), cols.shape[1]
    width, k = -(-len(str(lo + m - 1)) // 4), 3 * m  # the index words of the last index
    floats, limbs, exponents, digits, flags, text = scratch or _FormatScratch.of(m, width)
    (mag, est), (xi, index), flags = floats[:, :k], exponents[:, :k], flags[:k]
    np.abs(cols, out=mag.reshape(3, m))
    # the few values outside 1e-4 <= |v| <= 1, NaN too: the zeros, and the rows of the rest
    odd = np.flatnonzero(~np.logical_and(mag >= 1e-4, mag <= 1.0, out=flags))
    zero = odd[mag[odd] == 0.0]
    fallback = np.flatnonzero(np.bincount(odd[mag[odd] != 0.0] % m, minlength=m))
    mag[odd] = 0.5  # so the integer path stays in range
    np.floor(np.log10(mag, out=est), out=est)
    np.negative(np.maximum(est, -4.0, out=est), out=xi, casting="unsafe")
    floor, sig = _scaled(mag, xi, limbs[:, :k])
    redo = np.flatnonzero((floor < _TEN16) | (floor >= _TEN17))
    if redo.size:
        xi[redo] += np.where(floor[redo] < _TEN16, 1, -1)
        sig[redo] = _scaled(mag[redo], xi[redo])[1]
    sig[zero] = 0
    xi[zero] = 0

    # the leading digit, then the other 16 in words w0 .. w3, each from the table's
    # whole words where a later word is nonzero, else with its trailing zeros as NUL
    lead, w0, w1, w2, w3, spare = digits[:, :k]
    np.copyto(w1, np.floor_divide(sig, _TEN8, out=floor), casting="unsafe")  # 9 digits
    sig -= np.multiply(floor, _TEN8, out=floor)
    np.copyto(w3, sig, casting="unsafe")  # the last 8
    for top, unit, bottom in ((w1, _UTEN8, lead), (w1, _UWORD, w0), (w3, _UWORD, w2)):
        top -= np.multiply(np.floor_divide(top, unit, out=bottom), unit, out=spare)
    words = (w0, w1, w2, w3)
    for j in (2, 1, 0):
        np.not_equal(words[j + 1], 0, out=flags)
        np.add(words[j], np.multiply(flags, _UWORD, out=spare), out=words[j])
    np.add(np.multiply(xi, 10, out=index), lead, out=index)
    index += np.multiply(np.signbit(cols, out=flags.reshape(3, m)).ravel(), 50, out=xi)
    pairs = limbs[1:4, :k]  # per value its prefix and leading digit, then two word pairs
    np.take(tables.lead, index, out=pairs[0], mode="clip")
    for j, word in enumerate(words):
        np.take(tables.trail, word, out=pairs[1 + j // 2].view(np.uint32)[j % 2 :: 2], mode="clip")

    row_bytes = 4 * (width + 19)
    slot = np.frombuffer(text, np.uint32, m * (width + 19)).reshape(m, width + 19)
    fields = slot[:, width:-1].reshape(m, 3, 3, 2).view(np.uint64)[..., 0]
    np.copyto(fields, pairs.reshape(3, 3, m).transpose(2, 1, 0))  # the one transpose
    # the index words: the indices run on by one, so each word but the last is constant
    # up to the next multiple of 10^4, and the last is a stretch of the table
    split = min(m, _WORD - lo % _WORD)
    for a, b in ((0, split), (split, m)):
        for j in range(width):
            head = (lo + a) // _WORD ** (width - 1 - j)  # the index without its later words
            at = head if head < _WORD else head % _WORD + _WORD
            slot[a:b, j] = tables.index[at : at + b - a] if j == width - 1 else tables.index[at]
    if lo == 0:
        slot[0, width - 1] = ord("0")  # index 0 keeps its one digit
    slot[:, -1] = ord("\n")
    # a row outside the domain holds its ``_DB_ROW`` text, NUL-padded: at most 4 * width
    # index digits and 3 * 25 component bytes (" -d.<16 digits>e-308") and a "\n", it fits
    for r in fallback.tolist():
        line = (_DB_ROW % (lo + r, *cols[:, r].tolist())).encode()
        text[r * row_bytes : (r + 1) * row_bytes] = line.ljust(row_bytes, b"\0")
    laid = text if m * row_bytes == len(text) else text[: m * row_bytes]
    return laid.translate(None, b"\0").decode("ascii"), fallback.size

"""Exact ``'%.17g' % v`` and ``'%.2f' % v`` text of float64 arrays, in numpy.

CPython formats a float with exact decimal arithmetic on its binary
value, one call per value.  Here the decimal digits of a whole array
come from float and integer array arithmetic instead:

* ``%.17g``: estimate the decimal exponent ``E`` from ``log10``, form
  ``|v| * 10**(16 - E)`` as a double-double (Dekker's exact product with
  a ``(hi, lo)`` power of ten) and round it to the 17-digit integer
  ``N``; a value of ``N`` outside ``[10**16, 10**17]`` shows that the
  estimate of ``E`` was wrong.
* ``%.2f``: form ``|v| * 100`` exactly the same way and round it.

The double-double is within about 1e-14 of the exact product, so the
rounding is decided whenever its fraction is more than 1e-9 from one
half.  Python's ``%`` formats every value not decided this way, one by
one: a near tie, a wrong exponent estimate, an infinity, a subnormal or
a magnitude outside 1e-280..1e280 (``%.17g``) or from 1e15 up
(``%.2f``).  ``nan`` and ``±0`` have fixed texts.  So every byte is the
one ``%`` writes.

Each value becomes one NUL-padded, fixed-width field of ASCII bytes
whose last byte is its separator, and ``bytes.translate`` deletes the
NULs of a whole table at once (``join_fields``).  ``g17_fields`` and
``int_fields`` give the 32-byte fields themselves, so that a table of
floats and integers is joined in one pass.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

__all__ = ["format_g17", "format_f2", "g17_fields", "int_fields", "join_fields"]

_ZERO, _POINT, _MINUS = ord("0"), ord("."), ord("-")
_TIE_MARGIN = 1e-9
_G17_MIN, _G17_MAX = 1e-280, 1e280
_E_MIN, _E_MAX = -281, 281  # every exponent estimate or carry in that range
# layouts after those of the exponents: the fixed texts of zero and nan
_K_ZERO, _K_NAN = _E_MAX - _E_MIN + 1, _E_MAX - _E_MIN + 2
_F2_MAX = 1e15
# entries formatted at once: the temporaries of a larger block are fresh
# pages on every call, which cost more than the arithmetic
_F2_BLOCK = 8192
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
# A %.17g row is four little-endian words, 32 bytes: the sign and up to
# 5 bytes before the digits ("0.000"), then the 17 digits from byte 8
# with room to move the ones after the point a byte up, up to 5 bytes of
# exponent ("e-123"), NULs, and the separator in byte 31.
_REGION = 18  # bytes of digits and point


def _split(a):
    """Dekker's split of ``a`` into two halves of 26 bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _bytes_mask(start: int, stop: int) -> np.ndarray:
    """Words 1 to 3 of a row with bytes ``8 + start .. 8 + stop`` all ones."""
    row = np.zeros(24, np.uint8)
    row[max(start, 0) : max(stop, 0)] = 0xFF
    return row.view("<u8")


@functools.cache
def _g17_tables() -> SimpleNamespace:
    """The constants of ``format_g17``, built on first use.

    Per decimal exponent ``E`` in ``[_E_MIN, _E_MAX]``, at ``k = E - _E_MIN``:
    ``10**(16 - E)`` as ``hi + lo``, with ``hi`` split for Dekker's product
    (``power``).  Per layout ``k``, those of the exponents, zero and nan:
    where the point goes among the 17 digits (``pos``: after ``pos``
    digits; ``_REGION`` when ``"0."`` comes before them; 0 for no digits)
    and the bytes before and after them (``ends``: words 0 and 3).  Per
    ``pos * 17 + nd - 1``, where ``nd`` counts the digits down to the last
    nonzero one: words 1 to 3 where the digits stay, where they move a
    byte up to make room for the point, and the point (``region``).  Per
    ``q`` in 0..9999: its four digits as ASCII (``quads``) and, for each
    of the four groups of ``N // 10``, the count of its digits down to the
    last nonzero one of ``q`` (``sig``; negative for 0)."""
    exps = range(_E_MIN, _E_MAX + 1)
    power = np.zeros((4, len(exps)))
    ends = np.zeros((2, len(exps) + 2, 8), np.uint8)
    pos = np.zeros(len(exps) + 2, np.int64)
    for k, e in enumerate(exps):
        q = 16 - e
        if q >= 0:
            h = float(10**q)  # int to float rounds correctly
            lo = float(10**q - int(h))
        else:
            h = 1 / 10**-q  # so does int / int
            m, d = h.as_integer_ratio()
            lo = (d - m * 10**-q) / (d * 10**-q)
        power[:, k] = (h, *_split(h), lo)
        if -4 <= e < 0:
            ends[0, k, 1 : 2 - e] = np.frombuffer(b"0." + b"0" * (-1 - e), np.uint8)
            pos[k] = _REGION
        elif 0 <= e < 17:
            pos[k] = e + 1
        else:
            tail = b"e%+03d" % e
            ends[1, k, 2 : 2 + len(tail)] = np.frombuffer(tail, np.uint8)
            pos[k] = 1
    ends[0, _K_ZERO, 1] = _ZERO
    ends[0, _K_NAN, :3] = np.frombuffer(b"nan", np.uint8)
    region = np.zeros((3, 3, _REGION + 1, 17), np.uint64)
    for p in range(1, _REGION + 1):
        for nd in range(1, 18):
            keep = max(nd, p if p < _REGION else 0)
            length = keep + (keep > p)
            region[0, :, p, nd - 1] = _bytes_mask(0, min(p, length))
            region[1, :, p, nd - 1] = _bytes_mask(p + 1, length)
            if p < length:
                region[2, :, p, nd - 1] = _bytes_mask(p, p + 1) & np.uint64(0x2E2E2E2E2E2E2E2E)
    digits = np.arange(10000) // 10 ** np.arange(4)[:, None] % 10
    shifts = np.arange(24, -1, -8, dtype=np.uint64)[:, None]
    quads = ((digits + _ZERO).astype(np.uint64) << shifts).sum(axis=0)
    nonzero = digits > 0  # units first
    sig = np.where(nonzero.any(axis=0), 4 - np.argmax(nonzero, axis=0), -17)
    return SimpleNamespace(
        power=power, pos=pos, ends=ends.view("<u8")[:, :, 0],
        region=region.reshape(3, 3, -1), quads=quads,
        sig=(sig + np.arange(0, 16, 4)[:, None]).astype(np.int16),
        last_sig=np.array([0] + [17] * 9, np.int16),
    )


def _g17_decimal(a: np.ndarray):
    """``(N, k, decided)`` for magnitudes ``a``: ``|v|`` rounds to ``N * 10**(E - 16)``
    at 17 digits, with ``10**16 <= N < 10**17`` and ``k = E - _E_MIN``, where
    ``decided``; elsewhere ``N`` is ``10**16`` and ``k`` is an index of the tables."""
    decided = (a >= _G17_MIN) & (a <= _G17_MAX)  # False for nan, inf, 0 and subnormals
    a = np.where(decided, a, 1.0)
    # log10(a) - _E_MIN is positive, so truncation floors it; an estimate
    # that is one off leaves N out of range below
    k = (np.log10(a) - _E_MIN).astype(np.intp)
    hi, hh, hl, lo = _g17_tables().power
    hh, hl = hh[k], hl[k]
    p = a * hi[k]
    ah, al = _split(a)
    # ((((ah hh - p) + ah hl) + al hh) + al hl) + a lo
    low = ah * hh
    low -= p
    low += ah * hl
    low += al * hh
    low += al * hl
    low += a * lo[k]
    del ah, al, hh, hl
    whole = np.rint(low)
    decided &= np.abs(low - whole) < 0.5 - _TIE_MARGIN
    N = p.astype(np.int64)
    N += whole.astype(np.int64)
    # a product below 10**16 has E one too high, and may need digits that
    # N lacks; N == 10**17 is 10**16 at E + 1, whether E was one too low or
    # the product rounds up
    decided &= ((p - 1e16) + low >= 0) & (N <= 10**17)
    carry = N == 10**17
    N[~decided | carry] = 10**16
    k += carry
    return N, k, decided


def _table(values, seps: bytes) -> np.ndarray:
    """``values`` as a 2-D float64 array with one separator byte per column."""
    table = np.asarray(values, dtype=np.float64)
    if table.ndim != 2 or len(seps) != table.shape[1]:
        raise ValueError(
            f"need a 2-D array and one separator per column, got shape "
            f"{table.shape} and {len(seps)} separators"
        )
    return table


def _patch(rows: np.ndarray, flat: np.ndarray, slow: np.ndarray, fmt: str) -> np.ndarray:
    """Write ``fmt % v`` over the bytes of each row where ``slow``, but for
    the last byte of the row, widening every row if a text needs it."""
    idx = np.flatnonzero(slow)
    texts = [(fmt % v).encode("ascii") for v in flat[idx].tolist()]
    width = rows.shape[1] - 1
    need = max(map(len, texts), default=0)
    if need > width:  # only %.2f of a huge value is this long
        old = rows
        rows = np.zeros((len(old), need + 1), np.uint8)
        rows[:, :width] = old[:, :width]
        width = need
    for i, text in zip(idx.tolist(), texts):
        rows[i, :width] = 0
        rows[i, : len(text)] = np.frombuffer(text, np.uint8)
    return rows


def join_fields(fields: np.ndarray, seps: bytes) -> bytes:
    """The NUL-padded ASCII fields of a ``(rows, cols, width)`` byte array
    joined row by row without their NULs, the last byte of each field in
    column ``j`` overwritten by the separator ``seps[j]``."""
    fields[..., -1] = np.frombuffer(seps, np.uint8)
    return fields.tobytes().translate(None, b"\0")


def int_fields(values) -> np.ndarray:
    """``'%d' % v`` of each non-negative integer of the 1-D ``values`` as
    the ``(n, 32)`` NUL-padded fields ``g17_fields`` writes."""
    rest = np.array(values, dtype=np.int64)
    width = len(str(rest.max(initial=0)))
    fields = np.zeros((len(rest), 32), np.uint8)
    for c in range(width - 1, -1, -1):  # units first; no leading zeros
        q = rest // 10
        digit = rest - 10 * q + _ZERO
        fields[:, c] = digit if c == width - 1 else digit * (rest > 0)
        rest = q
    return fields


def g17_fields(values) -> np.ndarray:
    """``'%.17g' % v`` of each entry of the 2-D ``values`` as a ``(rows,
    cols, 32)`` array of NUL-padded ASCII fields whose last byte is NUL."""
    table = np.asarray(values, dtype=np.float64)
    flat = table.ravel()
    t = _g17_tables()
    N, k, decided = _g17_decimal(np.abs(flat))
    nan, zero = np.isnan(flat), flat == 0
    k[zero] = _K_ZERO
    k[nan] = _K_NAN
    neg = np.signbit(flat)
    neg[nan] = False
    rows = np.empty((len(flat), 4), "<u8")
    rows[:, 0] = t.ends[0][k] + neg * np.uint64(_MINUS)
    # N = 10 X + last; X's 16 digits are two halves of two groups of four,
    # which give words 1 and 2, and the count of digits down to the last
    # nonzero one (nd)
    X = N // 10
    last = N - 10 * X
    del N
    high = X // 10**8
    X -= high * 10**8
    nd = t.last_sig[last]
    words = []
    for half, sig in zip((high, X), (t.sig[:2], t.sig[2:])):
        q = half // 10**4
        half -= q * 10**4
        np.maximum(nd, sig[0][q], out=nd)
        np.maximum(nd, sig[1][half], out=nd)
        words.append(t.quads[q] | t.quads[half] << 32)
    del high, X, q
    words.append((last + _ZERO).astype(np.uint64))
    layout = t.pos[k] * 17 + nd - 1
    del last, nd
    # words 1 to 3: the digits that stay, the ones moved a byte up, the point
    carry = None
    for j, w in enumerate(words, 1):
        moved = w << 8
        if carry is not None:
            moved |= carry
        carry = w >> 56
        stay, move, point = t.region[:, j - 1]
        w &= stay[layout]
        moved &= move[layout]
        w |= moved
        w |= point[layout]
        rows[:, j] = w
    del words, w, moved, carry, layout
    rows[:, 3] |= t.ends[1][k]
    slow = ~(decided | nan | zero)
    rows = _patch(rows.view(np.uint8), flat, slow, "%.17g")
    return rows.reshape(*table.shape, 32)


def format_g17(values, seps: bytes) -> bytes:
    """``'%.17g' % v`` of each entry of the 2-D ``values``, row by row, each
    entry of column ``j`` followed by the byte ``seps[j]``."""
    return join_fields(g17_fields(_table(values, seps)), seps)


def _f2_hundredths(a: np.ndarray):
    """``(M, decided)`` for magnitudes ``a``: ``|v|`` rounds to ``M / 100`` where
    ``decided``; elsewhere ``M`` is 0."""
    decided = a < _F2_MAX  # False for nan and inf
    a = np.where(decided, a, 0.0)
    p = a * 100.0
    ah, al = _split(a)
    whole = np.floor(p)
    low = (p - whole) + ((ah * 100.0 - p) + al * 100.0)
    nearest = np.rint(low)
    decided &= np.abs(low - nearest) < 0.5 - _TIE_MARGIN
    M = whole.astype(np.int64)
    M += nearest.astype(np.int64)
    M[~decided] = 0
    return M, decided


def format_f2(values, seps: bytes) -> bytes:
    """``'%.2f' % v`` of each entry of the 2-D ``values``, row by row, each
    entry of column ``j`` followed by the byte ``seps[j]``."""
    table = _table(values, seps)
    flat = table.ravel()
    blocks = [slice(s, s + _F2_BLOCK) for s in range(0, len(flat), _F2_BLOCK)]
    hundredths, decided = np.empty(len(flat), np.int64), np.empty(len(flat), bool)
    for block in blocks:
        hundredths[block], decided[block] = _f2_hundredths(np.abs(flat[block]))
    width = len(str(hundredths.max(initial=100)))  # digits of the widest value
    # bytes: sign, digits with the point before the last two, separator
    rows = np.zeros((len(flat), width + 3), np.uint8)
    for block in blocks:
        cols, rest = rows[block].T, hundredths[block]
        cols[0] = np.signbit(flat[block]) * _MINUS
        cols[width - 1] = _POINT
        for c in (*range(width + 1, width - 1, -1), *range(width - 2, 0, -1)):
            q = rest // 10
            digit = rest - 10 * q + _ZERO
            cols[c] = digit if c >= width - 2 else digit * (rest > 0)  # no leading zeros
            rest = q
    rows = _patch(rows, flat, ~decided, "%.2f")
    return join_fields(rows.reshape(*table.shape, -1), seps)

"""CSV text of a table, made a block of rows at a time with numpy.

:func:`csv_text` writes every CSV table of :mod:`qwalk.cli`: a float
prints exactly as ``'%.17g' % v`` (C's ``%.17g``: 17 significant digits,
correctly rounded) and an integer as ``str(i)``.  :func:`qwalk.cli.emit`
imports this module on the first CSV table it writes.  Where no bytecode
cache is written, Python compiles each module from source when it is
imported: kept apart, this module costs nothing to commands that write no
CSV, and the two modules compile with a lower memory peak than one module
holding both (about 0.5 MB less).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = ["csv_text"]

# CSV text is built in "slots": fixed-width rows of ASCII bytes, one per
# cell, in which NUL marks an unused position, so a block of rows is made
# with array operations and one bytes.translate that deletes the NULs.  The
# slots are computed as little-endian 32- and 64-bit words, which fixes the
# byte each part of a word lands on whatever the machine's byte order.
_U4 = np.dtype("<u4")
_U8 = np.dtype("<u8")

#: Bytes of the largest temporaries of a float column in one block, at 32
#: bytes a row.  Staying under glibc's 128 KiB mmap threshold does not
#: keep them in memory between blocks: glibc also hands a free heap top of
#: more than 128 KiB back to the system, and the next block faults it in
#: again.  ``float_slots`` on 3072 values in a loop takes about 140 minor
#: page faults a call, against none on 2048 values; blocks of 10 000 rows
#: faulted about 500 times a column.
_BLOCK_BYTES = 96 * 1024
BLOCK_ROWS = _BLOCK_BYTES // 32
#: Most bytes of a block that :func:`csv_text` copies out and strips of
#: NULs at once.  Both copies of a slice come from the heap's free space;
#: the copies of a whole ``simulate`` block (about 500 KB) were mapped and
#: faulted in afresh on every block.
_SLICE_BYTES = 64 * 1024
#: Decimal exponents ``k`` of the ``10**k`` table of :func:`_float_tables`.
#: A float is formatted by the table when ``1e-290 < |v| < 1e290``, which
#: needs ``k = 16 - e`` for exponents ``e`` from -291 to 290.
_K_MIN, _K_MAX = -276, 308
#: Exponents ``X`` of the prefix and suffix tables: -300..300.
_X_MAX = 300
#: Clears the low 27 bits of a float64: the high part of an exact split.
_SPLIT = np.uint64(0xFFFFFFFFF8000000)


@functools.cache
def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """Digit text of ``c = 0..9999`` ("0042" as one word) and, per place
    of a 4-digit chunk in a 17-digit significand, how many significant
    digits reach through that chunk once trailing zeros are dropped."""
    c = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        digits[:, j] = c // place % 10 + ord("0")
    need = np.select([c % 10 != 0, c % 100 != 0, c % 1000 != 0, c != 0],
                     [np.uint8(d) for d in (4, 3, 2, 1)], np.uint8(0))
    # chunk j holds significand digits 4j - 3 .. 4j (digit 0 stands alone)
    reach = np.stack([np.where(c != 0, 4 * j - 3 + need, 0) for j in range(1, 5)])
    return digits.view(_U4).ravel(), reach


def _padded(texts: list[bytes], width: int) -> np.ndarray:
    """Byte strings as rows of ``width`` bytes, NUL-padded."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


@functools.cache
def _float_tables():
    """Tables of the float slot (see :func:`float_slots`), built on first use.

    ``10**k`` for ``k`` in ``_K_MIN.._K_MAX`` as a double-double ``hi +
    lo`` (``hi`` correctly rounded, ``lo`` the rounded remainder), with
    ``hi`` split into 26 + 27 bits for an exact product; per exponent
    ``X``: the word of sign, "0." and leading zeros, the word holding the
    ``e+XX`` suffix, where the point goes and the fewest digits printed;
    per ``(point, kept digits)``: the masks that place the digits.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den  # int / int is correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    hi_hi = (hi.view(np.uint64) & _SPLIT).view(np.float64)
    pow10 = (hi, hi_hi, hi - hi_hi, np.array(lo))

    prefix, suffix, point, least = [], [], [], []
    for x in range(-_X_MAX, _X_MAX + 1):
        if not -4 <= x < 17:  # C's %g rule for precision 17: d.ddde+XX
            prefix.append(b"")
            suffix.append(b"\0e%+03d" % x)
            point.append(1)
            least.append(1)
        elif x < 0:  # 0.000ddd
            prefix.append(b"\0" + b"0." + b"0" * (-x - 1))
            suffix.append(b"")
            point.append(18)
            least.append(1)
        else:  # ddd.ddd
            prefix.append(b"")
            suffix.append(b"")
            point.append(x + 1)
            least.append(x + 1)
    prefix = _padded(prefix, 8).view(_U8).ravel()
    suffix = _padded(suffix, 8).view(_U8).ravel()

    # Digit j sits at slot byte 7 + j; with a point after digit p - 1 the
    # digits from p on move up one byte.  ``keep`` digits are printed.
    p, keep, byte = np.ogrid[:19, :18, :32]
    dotted = keep > p
    masks = np.stack([(byte >= 7) & (byte < 7 + np.minimum(p, keep)),
                      dotted & (byte >= 8 + p) & (byte < 8 + keep),
                      dotted & (byte == 7 + p)]).astype(np.uint8)
    masks[:2] *= 0xFF
    masks[2] *= ord(".")
    masks = masks.reshape(3, 19 * 18, 32).view(_U8)
    return pow10, prefix, suffix, np.array(point), np.array(least), masks


def _scaled(m: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m * 10**k`` as ``p + r``: ``p`` the rounded product, ``r`` the rest.

    ``r`` is ``m * lo`` plus the exact error of ``m * hi``, found by
    splitting both factors at 27 low bits (a mask, where Veltkamp's
    ``x * (2**27 + 1)`` would overflow near 1e308).  Its error is below
    1e-14 for ``p`` in ``[1e16, 1e17]``.
    """
    (hi, hi_hi, hi_lo, lo) = _float_tables()[0]
    j = k - _K_MIN
    b_hi, b_lo = hi_hi[j], hi_lo[j]
    m_hi = (m.view(np.uint64) & _SPLIT).view(np.float64)
    m_lo = m - m_hi
    p = m * hi[j]
    err = ((m_hi * b_hi - p) + m_hi * b_lo + m_lo * b_hi) + m_lo * b_lo
    return p, err + m * lo[j]


def _significands(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit significands ``N`` and exponents ``e`` of ``1e-290 < m < 1e290``.

    ``N`` is ``m * 10**(16 - e)`` rounded to an integer in ``[1e16, 1e17)``,
    from :func:`_scaled` with ``e`` from ``log10`` and fixed up by a
    decade where that product falls outside the range; a product that
    rounds up to ``1e17`` takes the next decade.  The third array marks
    what this does not decide: a product within 1e-6 of a rounding tie,
    where ``r``'s error (below 1e-14) could flip the rounding, and one
    still outside the range after the fix-up.
    """
    e = np.floor(np.log10(m)).astype(np.int64)
    p, r = _scaled(m, 16 - e)
    decade = ((p - 1e17) + r >= 0).view(np.int8) - ((p - 1e16) + r < 0).view(np.int8)
    moved = np.flatnonzero(decade)
    if len(moved):
        e[moved] += decade[moved]
        p[moved], r[moved] = _scaled(m[moved], 16 - e[moved])
    undecided = (((p - 1e17) + r >= 0) | ((p - 1e16) + r < 0)
                 | (np.abs(r - np.floor(r) - 0.5) < 1e-6))
    sig = p.astype(np.int64) + np.rint(r).astype(np.int64)
    carry = sig == 10 ** 17
    sig[carry] = 10 ** 16
    e += carry
    return sig, e, undecided


def float_slots(a: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each float as a 30-byte slot.

    Finite ``v`` with ``1e-290 < |v| < 1e290`` print from
    :func:`_significands`, and zeros as ``0``/``-0`` from ``N = 0``.
    Python formats the rest: non-finite values, ``|v|`` outside that
    range and what :func:`_significands` leaves undecided.

    Slot bytes: 0 sign, 1-5 "0." and leading zeros, 7-24 the digits and
    point, 25-29 the exponent.  They are made as four 64-bit words.
    """
    _, prefix, suffix, point, least, masks = _float_tables()
    a = a.astype(np.float64, copy=False)
    mag = np.abs(a)
    table = (mag > 1e-290) & (mag < 1e290)
    idx = np.flatnonzero(table)
    sig, e, undecided = _significands(mag[idx])
    n = len(a)
    big, x = np.zeros(n, np.uint64), np.zeros(n, np.int64)
    big[idx], x[idx] = sig, e

    text, reach = _chunk_tables()
    d0 = big // 10 ** 16
    upper = (big - d0 * 10 ** 16) // 10 ** 8
    lower = big - d0 * 10 ** 16 - upper * 10 ** 8
    c1, c3 = upper // 10 ** 4, lower // 10 ** 4
    # below 2**63, so viewed as the index type at no cost
    chunks = [c.view(np.int64) for c in (c1, upper - c1 * 10 ** 4, c3, lower - c3 * 10 ** 4)]
    digits = np.zeros((n, 8), _U4)  # d0 at byte 7, the chunks at 8-23
    digits[:, 1] = text[d0.view(np.int64)]
    for j, c in enumerate(chunks):
        digits[:, j + 2] = text[c]
    keep = np.maximum(np.maximum(reach[0][chunks[0]], reach[1][chunks[1]]),
                      np.maximum(reach[2][chunks[2]], reach[3][chunks[3]]))
    xi = x + _X_MAX
    case = point[xi] * 18 + np.maximum(keep, least[xi])
    g = digits.view(_U8).ravel()
    moved_up = g << 8
    moved_up[1:] |= g[:-1] >> 56  # word 3 of a slot is 0: nothing crosses slots
    g &= np.take(masks[0], case, axis=0).ravel()
    g |= moved_up & np.take(masks[1], case, axis=0).ravel()
    g |= np.take(masks[2], case, axis=0).ravel()
    out = g.reshape(n, 4)
    out[:, 0] |= prefix[xi] | np.signbit(a).view(np.uint8) * np.uint64(ord("-"))
    out[:, 3] |= suffix[xi]

    rest = np.concatenate([np.flatnonzero(~table & (mag != 0)), idx[undecided]])
    if len(rest):
        out[rest] = _padded([b"%.17g" % v for v in a[rest].tolist()], 32).view(_U8)
    return out.view(np.uint8)[:, :30]


#: ``10**0 .. 10**19``: an integer's digit count is the number of these,
#: after the first, that it reaches, plus one.
_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)
#: Masks keeping the last ``d`` bytes of a 4-byte chunk, at ``d + 16``
#: for ``d = -16..20`` (none below 0, all four from 4 on).
_LAST_BYTES = np.array([0] * 17 + [0xFF << 24, 0xFFFF << 16, 0xFFFFFF << 8]
                       + [0xFFFFFFFF] * 17, _U4)


def int_slots(v: np.ndarray) -> np.ndarray:
    """``str(i)`` of each integer as a slot: a sign word, then 4-digit chunks."""
    text, _ = _chunk_tables()
    neg = v < 0
    u = v.astype(np.uint64)
    if neg.any():
        u = np.where(neg, ~u + 1, u)  # |v| in two's complement, int64 min included
    ndigits = np.searchsorted(_POW10_U64[1:], u, side="right") + 1
    # initial: a block with no occupied row hands over an empty column
    q = (int(ndigits.max(initial=1)) + 3) // 4
    below = 4 * np.arange(q - 1, -1, -1)  # digits below each chunk, most significant first
    chunks = u[:, None] // _POW10_U64[below] % 10 ** 4
    out = np.empty((len(v), q + 1), _U4)
    out[:, 0] = neg * ord("-")
    out[:, 1:] = text[chunks.view(np.int64)] & _LAST_BYTES[ndigits[:, None] - below + 16]
    return out.view(np.uint8)


def csv_text(table, meta: dict | None):
    """The CSV text of a :class:`qwalk.cli.Table`, in parts of UTF-8 bytes.

    The first part is a ``# key = value`` line per ``meta`` entry and the
    header; the rows follow a block of :data:`BLOCK_ROWS` at a time
    (``table.blocks``), with LF newlines, each column formatted by
    :func:`float_slots` or :func:`int_slots` by its dtype and the cells
    joined into rows as slots.  A column of occupied rows only starts as a
    ``0`` slot on every row of the block, and its cells overwrite it.

    Memory: the slots of a block are joined in one buffer, reused by later
    blocks (a block of wider rows takes a larger one); each slice of at
    most :data:`_SLICE_BYTES` of it is copied out, stripped of NULs and
    yielded, so no temporary is the size of a block.
    """
    lines = [f"# {k} = {v:.17g}" if isinstance(v, float) else f"# {k} = {v}"
             for k, v in meta.items()] if meta else []
    yield ("\n".join([*lines, ",".join(table.keys)]) + "\n").encode()
    buffer = np.empty(0, np.uint8)
    for n, on, columns in table.blocks(BLOCK_ROWS):
        parts = [float_slots(col) if col.dtype.kind == "f" else int_slots(col)
                 for col in columns]
        seps = [ord(",")] * (len(parts) - 1) + [ord("\n")]
        starts = list(itertools.accumulate([part.shape[1] + 1 for part in parts], initial=0))
        width = starts[-1]
        if len(buffer) < n * width:
            buffer = np.empty(n * width, np.uint8)
        # reused as it is: every byte of the block is written below
        block = buffer[:n * width].reshape(n, width)
        zeros = [at for at, part in zip(starts, parts) if len(part) < n]
        if zeros:  # a 0 slot on every row of each column of occupied rows
            unoccupied = np.zeros(width, np.uint8)
            unoccupied[zeros] = ord("0")
            block[:, zeros[0]:] = unoccupied[zeros[0]:]
        for part, at, sep in zip(parts, starts, seps):
            block[on if len(part) < n else slice(None), at:at + part.shape[1]] = part
            block[:, at + part.shape[1]] = sep
        step = max(1, _SLICE_BYTES // width)
        for r in range(0, n, step):
            yield block[r:r + step].tobytes().translate(None, b"\0")

"""The numpy layout of ``template % row`` for a chunk of float rows: the fast path of :func:`bivquant.cli._rows`.

:func:`chunk_text` prints exactly what ``template % tuple(row)`` prints for
each row, where ``template`` holds ``"%.9g"`` numbers between literal text.
:func:`_kernel` finds each value's nine digits and decimal exponent in
float64 and lays its text out in two uint64 words; the values whose
rounding float64 cannot prove, and the specials, take ``"%.9g" % v`` in
their words, and their row takes ``%`` only where that text fills all 16
bytes.  The CLI imports this module only for a table of 16,384 values or
more, so a command that writes only small tables does not compile it.
"""

from __future__ import annotations

import functools

import numpy as np

#: The one number format the layout prints, ``cli._NUMBER``; this module does not import the CLI, which runs as
#: ``__main__`` and would be compiled and run a second time as ``bivquant.cli``.
_NUMBER = "%.9g"
_NUMBER_BYTES = _NUMBER.encode()

#: Values per kernel call: its temporaries stay below those of the per-row ``%`` on the same rows.
_KERNEL_VALUES = 2048

#: Bound on |s - t| for the scaled value s in float64, below 1e9 where its rounding is decided, and the
#: exact t: s carries at most three roundings of relative size 2**-53 (the power of ten, the product, a
#: division by 10), 3.34e-7 in all.  The kernel decides a rounding only where s is farther than this
#: from a half-integer.
_MARGIN = 3.4e-7


@functools.cache
def _tables():
    """The kernel's lookup tables, built on its first call.

    By the top 12 bits of a double (sign, biased exponent e): ``scale``, the
    correctly rounded 10**(8 - e0) for e0 = floor(e * log10(2)), negated
    with the sign, and ``xi``, the row of X = e0 and the sign in the tables
    by decimal exponent.  No scale (NaN) goes to zero, which the kernel lays
    out itself, and to the values it leaves to :func:`_put`: subnormals,
    inf, NaN and |v| outside about 1e-99 .. 1e99.

    By ``xi = X + 99 + 199 * sign``: 10 * the layout class (0..3 for
    -4 <= X < 0, 4..12 for 0 <= X < 9, 13 for the exponent form); how far the
    two words move up to make room for the sign and the "0.000" prefix; that
    prefix; and "e+dd" in bytes 11-14.  By ``sh = 10 * class + nd``, nd the
    digits left once trailing zeros go: the bytes that move up one to make
    room for the point, the bytes kept, and the point (with the ASCII bits of
    the ninth digit where it is kept).  By a 4-digit group: its ASCII digits,
    and its digits up to its last nonzero one, as digits 1-4 (``ndh``, 1 for
    0000) and as digits 5-8 (``ndl``, 0 for 0000); by digit 9, 9 unless 0.
    """
    # e0 = floor(e * log10(2)) = (e * 78913) >> 18, exact while |e| < 1650; it takes each integer in turn
    exponents = [((biased - 1023) * 78913) >> 18 for biased in range(2048)]
    first, last = exponents.index(-99), exponents.index(99)
    e0 = np.array(exponents[first:last])
    powers = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-90, 108)])  # correctly rounded
    scale, xi = np.full(4096, np.nan), np.full(4096, 99)
    scale[first:last], xi[first:last] = powers.take(98 - e0), e0 + 99
    scale[2048:], xi[2048:] = -scale[:2048], xi[:2048] + 199  # the sign bit: v * scale is |v| * 10**(8 - e0)

    shb, shift, affix = [], [], []
    for x in range(-99, 100):
        fixed = -4 <= x < 9
        prefix = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        shb.append(10 * (x + 4 if fixed else 13))
        # byte 8, the point's or a hole, and byte 9, the ninth digit, move up; for X < 0 one byte less
        shift.append((8 * len(prefix), 8 * len(prefix) - 8 * (fixed and x < 0)))
        affix.append((int.from_bytes(prefix, "little"), 0 if fixed else int.from_bytes(b"e%+03d" % x, "little") << 24))
    shift, affix = np.array(shift, np.uint64), np.array(affix, np.uint64)
    minus = affix.copy()
    minus[:, 0] <<= np.uint64(8)
    minus[:, 0] |= np.uint64(ord("-"))
    shift = np.concatenate([shift, shift + np.uint64(8)])  # the rows with a sign
    affix, carry = np.concatenate([affix, minus]), np.uint64(64) - shift[:, 0]

    move, keep, point = [0] * 140, [(0, 0)] * 140, [(0, 0)] * 140
    for cls in range(14):
        x = cls - 4
        at = 1 if cls == 13 else min(x + 1, 8) if x >= 0 else 8  # the byte of the point, or of a hole
        for nd in range(1, 10):
            kept = max(nd, 1 if cls == 13 else max(x + 1, 0))  # the integer digits stay
            length = kept + (kept > at)
            dot = 0x2E << 8 * at if kept > at and (cls == 13 or 0 <= x < 8) else 0
            bits, mask = dot | (0x30 << 72 if length == 10 else 0), (1 << 8 * length) - 1
            move[10 * cls + nd] = 2**64 - (1 << 8 * at)
            keep[10 * cls + nd] = mask % 2**64, mask >> 64
            point[10 * cls + nd] = bits % 2**64, bits >> 64

    pairs = [b"%02d" % i for i in range(100)]  # a group is 100 * a + b for two such pairs a, b
    ascii2 = np.array([int.from_bytes(p, "little") for p in pairs], np.uint64)
    ascii4 = (ascii2[:, None] | ascii2 << np.uint64(16)).ravel()
    nd2 = np.array([len(p.rstrip(b"0")) for p in pairs], np.uint8)  # 0 for 00
    ndh = np.maximum(np.maximum(nd2, 1)[:, None], np.array([0, 3, 4], np.uint8).take(nd2)).ravel()  # b's 2 + nd2
    ndl = np.array([0, 5, 6, 7, 8], np.uint8).take(ndh)
    ndl[0] = 0
    nines = np.array([0] + [9] * 9, np.uint8)  # by the ninth digit
    keep, point = (np.ascontiguousarray(np.array(table, np.uint64).T) for table in (keep, point))  # by word
    shift, affix = np.ascontiguousarray(shift.T), np.ascontiguousarray(affix.T)
    tables = (scale, xi, np.array(shb * 2, np.intp), carry, *shift, *affix, np.array(move, np.uint64), *keep, *point,
              ascii4, ndh, ndl, nines)
    for table in tables:  # shared by every call
        table.setflags(write=False)
    return tables


def _kernel(values, lit, out):
    """Lay out ``"%.9g" % v`` of each float64 of ``values`` in two uint64 words of ``out`` and OR ``lit`` into
    the second.

    ``out`` has the shape of ``values`` and a last axis of 2, and ``lit``
    the shape of ``values``.  A value's 16 bytes hold its text from byte 0,
    then NUL and ``lit``'s bits in the bytes the text leaves free.  The
    value is n * 10**(X - 8) for nine digits n: s = |v| * 10**(8 - e0),
    scaled once more by 1/10 where it rounds to ten digits, rounds to n.
    The text is built in two contiguous words w0, w1, written to ``out``
    by their last OR.  Returns the flat indices of the values left to
    :func:`_put`: near-ties, where that rounding needs more than float64
    gives, and the values with no scale but 0, which is laid out here.
    """
    (scale, xi_table, shb, carry, shift0, shift1, affix0, affix1, move, keep0, keep1, point0, point1, ascii4, ndh,
     ndl, nines) = _tables()
    top = (values.view(np.uint64) >> 52).view(np.intp)
    with np.errstate(invalid="ignore"):  # a signalling NaN
        s = values * scale.take(top)
    xi = xi_table.take(top)
    del top
    up = s >= 999999999.5 + _MARGIN  # rounds to ten digits; a near-tie below is caught next
    s /= np.where(up, 10.0, 1.0)
    xi += up.view(np.uint8)  # the uint8 cast of sh += nd below, not a bool one
    r = np.rint(s)
    s -= r
    np.abs(s, out=s)
    left = ()
    if not s.max() < 0.5 - _MARGIN:  # a near-tie, or a value with no scale
        zero = values == 0
        r[zero] = 0.0
        left = np.flatnonzero(~((s < 0.5 - _MARGIN) | zero))
        r.flat[left] = 1e8
    del s, up
    n = r.astype(np.intp)
    del r
    # n // d as (n * M) >> k, M = ceil(2**k / d): exact for n < N where (M * d - 2**k) * N < 2**k, so for n < 2**30
    # (d = 100000, k = 47) and n < 2**17 (d = 10, k = 35); no integer division loop to page in
    hi = n * 1407374884  # digits 1-4
    hi >>= 47
    n -= hi * 100000
    lo = n * 3435973837  # digits 5-8
    lo >>= 35
    n -= lo * 10  # digit 9
    nd = np.maximum(ndh.take(hi), ndl.take(lo))
    np.maximum(nd, nines.take(n), out=nd)
    sh = shb.take(xi)
    sh += nd
    del nd
    text = ascii4.take(lo)
    del lo
    text <<= 32
    text |= ascii4.take(hi)
    del hi
    moved = text & move.take(sh)
    w0 = moved * np.uint64(255)  # text with the moved bytes one byte up
    w0 += text
    del text
    w1 = moved >> np.uint64(56)
    del moved
    n <<= 8
    w1 |= n.view(np.uint64)
    del n
    w0 &= keep0.take(sh)
    w1 &= keep1.take(sh)
    w0 |= point0.take(sh)
    w1 |= point1.take(sh)
    del sh
    carried = w0 >> carry.take(xi)
    w0 <<= shift0.take(xi)
    w1 <<= shift1.take(xi)
    w1 |= carried
    del carried
    np.bitwise_or(w0, affix0.take(xi), out=out[..., 0])
    w1 |= lit
    np.bitwise_or(w1, affix1.take(xi), out=out[..., 1])
    return left


@functools.cache
def _template_words(template: str):
    """``template`` as one row of uint64 words: its literal text NUL-padded, and two words for each number.

    Returns the row, the word index of the first number, the words from one
    number to the next and the literal bits of each number's second word,
    repeated for a kernel call's rows.  A one-byte literal after a number
    rides in the last byte of its words;
    a longer one takes words of its own, and each number's words are followed
    by as many as the longest literal between two numbers takes, so that the
    numbers stand evenly spaced.
    """
    pieces = [(piece % ()).encode() for piece in template.split(_NUMBER)]
    lit = np.array([ord(p) << 56 if len(p) == 1 else 0 for p in pieces[1:]], np.uint64)
    lit = np.tile(lit, (max(1, _KERNEL_VALUES // len(lit)), 1))
    row = [pieces[0]]
    for after in pieces[1:]:
        row += [bytes(16), after if len(after) > 1 else b""]
    width = max(map(len, row[2:-1:2]), default=0)  # the longest literal between two numbers
    row[2::2] = [after.ljust(width, b"\0") for after in row[2::2]]
    words = [np.frombuffer(text.ljust(-(-len(text) // 8) * 8, b"\0"), np.uint64) for text in row]
    row = np.concatenate(words)
    for table in row, lit:  # shared by every call
        table.setflags(write=False)
    return row, len(words[0]), 2 + -(-width // 8), lit


def _text(words) -> str:
    """The UTF-8 text of ``words`` without its NUL padding (no multibyte character holds a NUL byte)."""
    return words.tobytes().translate(None, b"\0").decode()


def _put(values, left, lit, out):
    """Write ``"%.9g" % v`` of the values of ``values`` at the flat indices ``left`` into their words of ``out``.

    ``values``, ``lit`` and ``out`` are as for :func:`_kernel`.  Returns the
    rows of the values whose text takes all 16 bytes, a negative double with
    nine digits and a three-digit exponent: there is no byte left for a NUL
    or for ``lit``, so their rows take ``%``.
    """
    rows, columns = np.divmod(left, values.shape[1])
    text = np.array([_NUMBER_BYTES % v for v in values.take(left).tolist()], "S16").view(np.uint64).reshape(-1, 2)
    out[rows, columns] = text
    out[rows, columns, 1] |= lit[rows, columns]
    return list(dict.fromkeys(rows[text[:, 1] >> np.uint64(56) != 0].tolist()))


def chunk_text(chunk, template: str) -> str:
    """``template % tuple(row)`` for each row of the 2-d float ``chunk``, joined.

    :func:`_kernel` lays out ``_KERNEL_VALUES`` values per call into one
    buffer of words with the template's literal text in place, and
    :func:`_put` the values it leaves; the buffer then loses its NUL padding
    in one ``bytes.translate``, and the rare row whose text fills a number's
    words is filled by ``%``.
    """
    row, first, step, lit = _template_words(template)
    rows, columns = chunk.shape
    per = min(rows, max(1, _KERNEL_VALUES // columns))
    words = np.empty((per, len(row)), np.uint64)
    if len(row) > 2 * columns:  # literal words, which no kernel call writes
        words[:] = row
    slots = words[:, first : first + step * columns].reshape(per, columns, step)[..., :2]
    text = []
    for begin in range(0, rows, per):
        part = np.ascontiguousarray(chunk[begin : begin + per], dtype=np.float64)
        n = len(part)
        left = _kernel(part, lit[:n], slots[:n])
        spliced = _put(part, left, lit[:n], slots[:n]) if len(left) else []
        done = 0
        for r, row_text in zip(spliced, [template % tuple(values) for values in part[spliced].tolist()]):
            if r > done:
                text.append(_text(words[done:r]))
            text.append(row_text)
            done = r + 1
        if n > done:
            text.append(_text(words[done:n]))
    return "".join(text)

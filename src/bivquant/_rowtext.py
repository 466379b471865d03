"""The numpy layout of ``template % row`` for a chunk of float rows: the fast path of :func:`bivquant.cli._rows`.

:func:`chunk_text` prints exactly what ``template % tuple(row)`` prints for
each row, where ``template`` holds ``"%.9g"`` numbers between literal text.
:func:`_kernel` finds each value's nine digits and decimal exponent in
float64 and lays its text out in two uint64 words; the values whose
rounding float64 cannot prove, and the specials, take ``"%.9g" % v`` in
their words, and their row takes ``%`` only where that text fills all 16
bytes.  The CLI imports this module only for a table of 16,384 values or
more, so a command that writes only small tables does not compile it.

Lean by design, since the layout runs in the CLI's largest process, the
``sample`` child: the tables take 149 KB, built from Python lists of at most
398 items and whole-array integer passes, and the kernel and the tables keep
to integer arithmetic and shifts, one dtype per operation, with no bitwise
and/or and no uint8 operand.  numpy pages in 64 KB of its code for each
family of loops a process first runs (integer arithmetic, bitwise
operations, a uint8-to-intp cast, ...), and the draws before ``sample``'s
write run none of these.
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


def _point_byte(cls: int) -> int:
    """The byte of the point of layout class ``cls``, or of the hole the NUL strip removes where it has none."""
    return 1 if cls == 13 else 8 if cls < 4 else min(cls - 3, 8)


def _prefix(cls: int) -> bytes:
    """The "0.000" before the digits of layout class ``cls``."""
    return b"0." + b"0" * (3 - cls) if cls < 4 else b""


@functools.cache
def _tables():
    """The kernel's lookup tables, built on its first call.

    The first item is ``slot0``.  By slot, the top 12 bits (sign, biased
    exponent e) of a double less ``slot0``, clipped to the table:
    ``scale``, the correctly rounded 10**(8 - e0) for e0 = floor(e *
    log10(2)), negated with the sign, and ``xi``, the row of X = e0 and the
    sign in the tables by decimal exponent.  The slots of |v| in about
    1e-99 .. 1e99 are the rows after the first of each sign; every other
    double reads a row with no scale (NaN), and with the sign of a negative
    one: zero, which the kernel lays out itself, and the values it leaves
    to :func:`_put`, subnormals, inf, NaN and the rest.

    By ``xi = X + 99 + 199 * sign``: ``140 * sign + 10 *`` the layout class
    (0..3 for -4 <= X < 0, 4..12 for 0 <= X < 9, 13 for the exponent form);
    the bits below the point's byte; how far the two words move up to make
    room for the sign and the "0.000" prefix; and "e+dd" in bytes 11-14.
    By ``sh = 140 * sign + 10 * class + nd``, nd the digits left once
    trailing zeros go: the bits of the first 8 digits kept, and the
    prefix, sign and point (with the ASCII bits of the ninth digit where it
    is kept) in their final bytes.  By a 4-digit group: its ASCII digits in
    bytes 0-3, and its digits up to its last nonzero one in byte 4, as
    digits 1-4 (1 for 0000), and in byte 7, as digits 5-8 (0 for 0000); by
    digit 9, 9 unless 0.
    """
    # e0 = floor(e * log10(2)) = (e * 78913) >> 18, exact while |e| < 1650; first and last, the biased exponents
    # e of e0 = -99 and 99, bound those with a scale
    first, last = (next(b for b in range(2048) if (b - 1023) * 78913 >> 18 == x) for x in (-99, 99))
    e0 = (np.arange(first, last) - 1023) * 78913 >> 18
    powers = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-90, 108)])  # correctly rounded
    slot0 = first - 1  # an index below the table wraps to a negative one, which the clip reads as 0
    scale, xi = np.full(2048 + last - slot0 + 1, np.nan), np.full(2048 + last - slot0 + 1, 99)
    xi[2048 - slot0 :] += 199  # the sign bit, -0 with it
    scale[1 : last - slot0] = powers.take(98 - e0)
    xi[1 : last - slot0] += e0
    scale[2049 : 2048 + last - slot0] = -scale[1 : last - slot0]  # the sign bit: v * scale is |v| * 10**(8 - e0)
    xi[2049 : 2048 + last - slot0] += e0

    shb, below, shift0, shift1, exponent = [], [], [], [], []
    for x in range(-99, 100):
        fixed = -4 <= x < 9
        cls = x + 4 if fixed else 13
        shb.append(10 * cls)
        below.append(8 * _point_byte(cls))
        # byte 8, the point's or a hole, and byte 9, the ninth digit, move up; for X < 0 one byte less
        shift0.append(8 * len(_prefix(cls)))
        shift1.append(8 * len(_prefix(cls)) - 8 * (cls < 4))
        exponent.append(0 if fixed else int.from_bytes(b"e%+03d" % x, "little") << 24)
    shb = np.array(shb + [cls + 140 for cls in shb])  # the rows with a sign
    shift0, shift1 = (np.array(shift + [bits + 8 for bits in shift], np.uint64) for shift in (shift0, shift1))
    below, exponent = np.array(below * 2, np.uint64), np.array(exponent * 2, np.uint64)
    carry = np.uint64(64) - shift0

    keep, put0, put1 = [], [], []
    for sign in (0, 1):
        for cls in range(14):
            x, at = cls - 4, _point_byte(cls)
            prefix = b"-" * sign + _prefix(cls)
            for nd in range(10):  # nd = 0 takes a row no value reads
                kept = max(nd, 1 if cls == 13 else max(x + 1, 0))  # the integer digits stay
                dot = 0x2E << 8 * at if kept > at and (cls == 13 or 0 <= x < 8) else 0
                bits = (dot | (0x30 << 72 if kept == 9 else 0)) << 8 * len(prefix) | int.from_bytes(prefix, "little")
                if cls < 4:  # byte 8 is a hole, which the second word's smaller move drops
                    bits = bits % 2**64 | bits >> 72 << 64
                keep.append(64 - 8 * min(kept, 8))
                put0.append(bits % 2**64)
                put1.append(bits >> 64)
    keep, put0, put1 = (np.array(table, np.uint64) for table in (keep, put0, put1))

    # a group is 100 * a + b for two digit pairs a, b; a pair's digits up to its last nonzero one: 0 for 00
    pair = np.arange(100)
    tens = pair * 205 >> 11  # pair // 10
    ones = pair - 10 * tens
    nd2 = np.minimum(pair, 1) + np.minimum(ones, 1)
    digits = np.maximum(np.maximum(nd2, 1)[:, None], nd2 + 2 * np.minimum(nd2, 1))  # digits 1-4
    digits *= 2**24 + 1
    digits += 4 << 24  # and digits 5-8
    digits <<= 32
    digits.flat[0] = 1 << 32  # 0000: 1 and 0
    ascii2 = tens + (ones << 8) + 0x3030
    digits += ascii2[:, None]
    digits += ascii2 << 16
    digits = digits.ravel().view(np.uint64)
    nines = np.minimum(np.arange(10, dtype=np.uint64), 1) * np.uint64(9)
    tables = (scale, xi, shb, below, carry, shift0, shift1, exponent, keep, put0, put1, digits, nines)
    for table in tables:  # shared by every call
        table.setflags(write=False)
    return (np.uint64(slot0), *tables)


def _kernel(values, lit, out):
    """Lay out ``"%.9g" % v`` of each float64 of ``values`` in two uint64 words of ``out`` and add ``lit`` into
    the second.

    ``out`` has the shape of ``values`` and a last axis of 2, and ``lit``
    the shape of ``values``.  A value's 16 bytes hold its text from byte 0,
    then NUL and ``lit``'s bits in the bytes the text leaves free.  The
    value is n * 10**(X - 8) for nine digits n: s = |v| * 10**(8 - e0),
    scaled once more by 1/10 where it rounds to ten digits, rounds to n.
    The text is built in two contiguous words w0, w1, then copied to
    ``out``; every sum adds bits into NUL bytes, so it is the OR.
    Returns the flat indices of the values left to :func:`_put`: near-ties,
    where that rounding needs more than float64 gives, and the values with
    no scale but 0, which is laid out here.
    """
    slot0, scale, xi_table, shb, below, carry, shift0, shift1, exponent, keep, put0, put1, digits, nines = _tables()
    top = values.view(np.uint64) >> np.uint64(52)
    top -= slot0  # below the table it wraps to a negative index, which the clip reads as row 0
    top = top.view(np.intp)
    with np.errstate(invalid="ignore"):  # a signalling NaN
        s = values * scale.take(top, mode="clip")
    xi = xi_table.take(top, mode="clip")
    del top
    up = s >= 999999999.5 + _MARGIN  # rounds to ten digits; a near-tie below is caught next
    s /= np.where(up, 10.0, 1.0)
    xi += np.where(up, 1, 0)  # an intp operand: a bool one runs numpy's cast loops
    del up
    r = np.rint(s)
    s -= r
    np.abs(s, out=s)
    left = ()
    if not s.max() < 0.5 - _MARGIN:  # a near-tie, or a value with no scale
        zero = values == 0
        r[zero] = 0.0
        left = np.flatnonzero(~((s < 0.5 - _MARGIN) | zero))
        r.flat[left] = 1e8
    del s
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
    text = digits.take(lo)
    del lo
    group = digits.take(hi)
    del hi
    nd = np.maximum(text, group << np.uint64(24))  # the top bytes decide: lo's digits 5-8 or hi's digits 1-4
    nd >>= np.uint64(56)
    np.maximum(nd, nines.take(n), out=nd)
    text <<= np.uint64(32)
    group <<= np.uint64(32)
    group >>= np.uint64(32)
    text += group  # the ASCII of digits 1-8
    del group
    sh = shb.take(xi)
    sh += nd.view(np.intp)
    del nd
    kept = keep.take(sh)  # the trailing zeros of digits 1-8 go
    text <<= kept
    text >>= kept
    del kept
    at = below.take(xi)
    moved = text >> at  # the bytes from the point's up
    moved <<= at
    del at
    w0 = moved * np.uint64(255)  # text with the moved bytes one byte up
    w0 += text
    del text
    w1 = moved >> np.uint64(56)
    del moved
    n <<= 8
    w1 += n.view(np.uint64)
    del n
    carried = w0 >> carry.take(xi)
    w0 <<= shift0.take(xi)
    w1 <<= shift1.take(xi)
    w1 += carried
    del carried
    w0 += put0.take(sh)
    out[..., 0] = w0
    w1 += put1.take(sh)
    w1 += lit
    w1 += exponent.take(xi)
    out[..., 1] = w1
    return left


@functools.cache
def _template_words(template: str):
    """The buffer of one kernel call's rows of ``template``: its literal text NUL-padded, and two words a number.

    Returns the buffer, the view of each number's two words in it, and the
    literal bits of each number's second word.  A one-byte literal after a
    number rides in the last byte of its words; a longer one takes words of
    its own, and each number's words are followed by as many as the longest
    literal between two numbers takes, so that the numbers stand evenly
    spaced.  Every call reuses the buffer, whose literal words no call
    writes.
    """
    pieces = [(piece % ()).encode() for piece in template.split(_NUMBER)]
    columns = len(pieces) - 1
    per = max(1, _KERNEL_VALUES // columns)
    lit = np.array([ord(p) << 56 if len(p) == 1 else 0 for p in pieces[1:]], np.uint64)
    lit = np.tile(lit, (per, 1))
    lit.setflags(write=False)
    row = [pieces[0]]
    for after in pieces[1:]:
        row += [bytes(16), after if len(after) > 1 else b""]
    width = max(map(len, row[2:-1:2]), default=0)  # the longest literal between two numbers
    row[2::2] = [after.ljust(width, b"\0") for after in row[2::2]]
    words = [np.frombuffer(text.ljust(-(-len(text) // 8) * 8, b"\0"), np.uint64) for text in row]
    first, step = len(words[0]), 2 + -(-width // 8)
    buffer = np.empty((per, sum(map(len, words))), np.uint64)
    buffer[:] = np.concatenate(words)
    return buffer, buffer[:, first : first + step * columns].reshape(per, columns, step)[..., :2], lit


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

    :func:`_kernel` lays out ``_KERNEL_VALUES`` values per call into the
    template's buffer of words, with its literal text in place, and
    :func:`_put` the values it leaves; the buffer then loses its NUL padding
    in one ``bytes.translate``, and the rare row whose text fills a number's
    words is filled by ``%``.
    """
    words, slots, lit = _template_words(template)
    per = len(words)
    text = []
    for begin in range(0, len(chunk), per):
        part = np.ascontiguousarray(chunk[begin : begin + per], dtype=np.float64)
        n = len(part)
        left = _kernel(part, lit[:n], slots[:n])
        spliced = _put(part, left, lit[:n], slots[:n]) if len(left) else []
        done = 0
        for r in spliced:
            if r > done:
                text.append(_text(words[done:r]))
            text.append(template % tuple(part[r].tolist()))
            done = r + 1
        if n > done:
            text.append(_text(words[done:n]))
    return "".join(text)

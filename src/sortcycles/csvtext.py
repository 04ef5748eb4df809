"""CSV text: a file's bytes, each cell as ``"%.17g" % x`` gives it.

Cells are formatted in numpy, a block of rows at a time.  A double x that
``%.17g`` prints in fixed notation has E = floor(log10|x|) in [-4, 16], so
10^(16-E) is an exact double, and Dekker's (1971) two-product splits
P = |x| 10^(16-E) exactly into p + e.  The 17 correctly rounded digits that
Python's ``%.17g`` (Gay's dtoa) prints are then D = p + floor(e), plus 1
where frac(e) > 0.5.  Each cell fills a 40-byte field of a uint8 matrix:
its separator, sign, ``0.``-``0.000`` prefix and first digit, then the other
16 digits, each after a slot that holds the point or NUL.  Digits after the
last nonzero one that are not in the integer part are NUL too, and the NULs
are dropped from the matrix's bytes at the end.  E is first guessed by
log10; floor(P) must then lie in [10^16, 10^17), which holds only for the
true E.  ±0 is formatted here as well.  Every other cell is formatted by
``"%.17g"`` itself: exponent notation, inf, nan, an exact tie
(frac(e) = 0.5), a misjudged E, and digits that round up to 10^17, into
the next decade.  So the bytes are those of ``%.17g``.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import TextIO

import numpy as np

#: rows formatted per write of a CSV file
BLOCK_ROWS = 512

_E_MIN, _E_MAX = -4, 16
#: 10^k, k = 0..20, and Veltkamp's split of each into high and low halves
_POW10 = np.array([float(10 ** k) for k in range(_E_MAX - _E_MIN + 1)])
_SPLITTER = 134217729.0  # 2^27 + 1
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# Each table below is built as rows of 8 bytes and read as one uint64 per row.
_d4 = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # the digits of 0..9999
#: 0..9999 as 4 digits, each after a point
_PAIRS = np.full((10_000, 8), ord("."), dtype=np.uint8)
_PAIRS[:, 1::2] = _d4 + ord("0")
_PAIRS = _PAIRS.view(np.uint64)[:, 0]
#: index of the last nonzero digit of the 16 when group g holds v (at 10^4 g + v), else 0
_last = ((_d4 != 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
_LAST = np.where(_last > 0, np.arange(0, 16, 4, dtype=np.uint8)[:, None] + _last, 0).ravel()
_LAST_ROW = np.arange(0, 40_000, 10_000)
#: the bytes of the four groups that stay, at 17 (E - E_MIN) + the index of the
#: last digit kept: the digits up to it, and the point before digit E + 1 if a
#: digit follows it
_j, _kept = np.arange(1, 17), np.arange(17)[:, None]
_E = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
_MASK = np.zeros((_E_MAX - _E_MIN + 1, 17, 16, 2), dtype=np.uint8)
_MASK[..., 0] = np.where((_j == _E + 1) & (_kept > _E), 0xFF, 0)
_MASK[..., 1] = np.where(_j <= _kept, 0xFF, 0)
_MASK = _MASK.reshape(-1, 32).view(np.uint64)
#: the field's first 8 bytes at 10 (21 sign + E - E_MIN) + first digit: the
#: separator's slot, the sign, the prefix of E < 0 ("0." to "0.000"), the digit
_HEAD = np.zeros((2, _E_MAX - _E_MIN + 1, 10, 8), dtype=np.uint8)
_HEAD[1, ..., 1] = ord("-")
for _e in range(_E_MIN, 0):
    _HEAD[:, _e - _E_MIN, :, 2:3 - _e] = np.frombuffer(b"0.000"[:1 - _e], np.uint8)
_HEAD[..., 7] = ord("0") + np.arange(10)
_HEAD = _HEAD.view(np.uint64).ravel()
del _d4, _last, _j, _kept, _E, _e


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, D, exact) of the float64 values ``x``.  Where ``exact`` holds, D
    is the 17 digits of |x| at exponent E, or 0 for +-0; elsewhere D is 0 and
    the cell is left to ``%.17g``."""
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        E = np.floor(np.log10(ax))  # a guess, checked below
    fixed = (E >= _E_MIN) & (E <= _E_MAX)  # false for 0, inf and nan
    ax[~fixed] = 0.0
    E = np.where(fixed, E, 0.0).astype(np.intp)
    k = _E_MAX - E
    big, small = _POW10_HI[k], _POW10_LO[k]
    p = ax * _POW10[k]
    t = ax * _SPLITTER
    hi = t - (t - ax)
    lo = ax - hi
    e = ((hi * big - p) + hi * small + lo * big) + lo * small  # P - p, exactly
    floor_e = np.floor(e)
    e -= floor_e  # frac(P)
    floor_p = p.astype(np.int64) + floor_e.astype(np.int64)
    D = floor_p + (e > 0.5)
    exact = fixed & (e != 0.5) & (floor_p >= 10 ** 16) & (D < 10 ** 17)
    D *= exact
    return E, D, exact | (x == 0.0)


def _cells(x: np.ndarray) -> np.ndarray:
    """The fields of the float64 values ``x``, as (len(x), 5) uint64; each
    field's first byte, its separator, is NUL."""
    E, D, exact = _digits(x)
    # D's first digit, then four groups of 4
    first = D // 10 ** 16
    D -= first * 10 ** 16
    top = D // 10 ** 8
    D -= top * 10 ** 8
    groups = np.empty((x.shape[0], 4), dtype=np.intp)
    groups[:, 0] = top // 10 ** 4
    groups[:, 1] = top - groups[:, 0] * 10 ** 4
    groups[:, 2] = D // 10 ** 4
    groups[:, 3] = D - groups[:, 2] * 10 ** 4
    last = _LAST.take(groups + _LAST_ROW)
    kept = np.maximum(np.maximum(last[:, 0], last[:, 1]), np.maximum(last[:, 2], last[:, 3]))
    kept = np.maximum(kept, E)  # the integer part stays
    E -= _E_MIN
    fields = np.empty((x.shape[0], 5), dtype=np.uint64)
    fields[:, 0] = _HEAD.take((21 * np.signbit(x) + E) * 10 + first)
    np.bitwise_and(_PAIRS.take(groups), _MASK.take(E * 17 + kept, axis=0), out=fields[:, 1:])
    other = np.flatnonzero(~exact)
    if other.size:
        text = np.zeros((other.size, 40), dtype=np.uint8)
        text[:, 1:25] = np.array(["%.17g" % v for v in x[other].tolist()],
                                 dtype="S24").view(np.uint8).reshape(-1, 24)
        fields[other] = text.view(np.uint64)
    return fields


def _text(fields: np.ndarray) -> str:
    """The CSV lines of a (rows, columns, 5) block of fields."""
    # a field starts with its separator, so a row's first field ends the row
    # before it: the block's first byte is dropped and a last line end added
    text = fields.view(np.uint8).reshape(*fields.shape[:2], 40)
    text[:, 0, 0] = ord("\n")
    text[:, 1:, 0] = ord(",")
    return text.tobytes().translate(None, b"\0")[1:].decode("ascii") + "\n"


def write_rows(fh: TextIO, cols: Sequence[np.ndarray], keys: np.ndarray | None = None) -> None:
    """Append the rows of equal-length columns to ``fh``, BLOCK_ROWS at a time,
    so the text held at once is bounded.

    Rows with equal ``keys`` form a class.  A column that is bitwise constant
    over a class's rows (bitwise, since 0.0 and -0.0 print apart) is
    formatted once for the class, and its bytes are copied to the class's
    rows; the other cells are formatted block by block.  Without ``keys``
    every cell is formatted."""
    cols = [np.asarray(col, dtype=np.float64) for col in cols]
    if keys is not None:
        table = np.stack(cols, axis=1)
        bits = table.view(np.uint64)
        _, first, classes = np.unique(keys, return_index=True, return_inverse=True)
        variable = np.array([(bits[classes == k] != bits[i]).any(axis=0)
                             for k, i in enumerate(first.tolist())])
        constants = _cells(table[first].ravel()).reshape(first.shape[0], len(cols), 5)
        del table, bits  # the whole file's copy, before the blocks are formatted
    for start in range(0, cols[0].shape[0], BLOCK_ROWS):
        block = np.stack([col[start:start + BLOCK_ROWS] for col in cols], axis=1)
        if keys is None:
            fields = _cells(block.ravel()).reshape(*block.shape, 5)
        else:
            fields = constants[classes[start:start + BLOCK_ROWS]]
            cells = variable[classes[start:start + BLOCK_ROWS]]
            fields[cells] = _cells(block[cells])
        fh.write(_text(fields))


@contextlib.contextmanager
def csv_file(path: Path, names: Sequence[str]) -> Iterator[TextIO]:
    """The CSV file ``path``, open for writing after its header; it is removed
    if the block fails, whatever the exception."""
    try:
        with path.open("w") as fh:
            fh.write(",".join(names) + "\n")
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def write_csv(path: Path, columns: dict[str, np.ndarray],
              keys: np.ndarray | None = None) -> None:
    """Write ``columns``, name -> values, to the CSV file ``path`` (see
    ``write_rows`` for ``keys``)."""
    with csv_file(path, list(columns)) as fh:
        write_rows(fh, list(columns.values()), keys)

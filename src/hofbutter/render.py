"""Raster rendering of butterfly diagrams to PPM (P6) images.

Each flux occupies a thin horizontal band at height proportional to
p/q; every open gap paints its energy interval in the color of its
Chern number.  Bands of the spectrum stay canvas-black, unresolved
gaps get a sentinel gray, and the semi-infinite gaps fill the outer
background in the neutral sigma = 0 tone.  Row bounds are computed in
exact rational arithmetic so the inversion symmetry of the physics is
pixel-exact in the image.
"""

from __future__ import annotations

import colorsys
import itertools
import math
import operator
from array import array
from fractions import Fraction

import numpy as np

from .butterfly import ButterflyConfig, decode_blocks

NEUTRAL = (245, 245, 245)   # sigma = 0
SENTINEL = (128, 128, 128)  # unresolved
SATURATION = 0.88
VALUE = 0.95
PAINT_BLOCK = 1024  # records per column block of render and per .tolist() gather

# the painted columns (q, p, lo, hi, closed, chern) of a GapRecord and of a decoded line
_PAINTED = operator.itemgetter(1, 0, 4, 5, 7, 8)
_PAINTED_KEYS = operator.itemgetter("q", "p", "lo", "hi", "closed", "chern")


def chern_color(sigma, period: int) -> tuple:
    """Signed cyclic palette: sigma and -sigma get mirror hues.

    None maps to the sentinel gray and 0 to the neutral tone; otherwise
    the hue walks the color wheel with the given period, so hue(sigma)
    + hue(-sigma) = 360 degrees.
    """
    if sigma is None:
        return SENTINEL
    if sigma == 0:
        return NEUTRAL
    hue = (0.5 + sigma / period) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, SATURATION, VALUE)
    return (round(255 * r), round(255 * g), round(255 * b))


def _row_bounds(p: int, q: int, height: int, a: int, b: int):
    """Pixel row ranges of flux p/q, exact so p/q and (q-p)/q mirror.

    A row is centered at (q-p)/q (height-1) (the image origin is top)
    and is max(a/(b q), 1) pixels thick, for the row scale a/b (b > 0).
    Over the common denominator d = 2 b q the center is c/d and half the
    thickness h/d, so its first and last pixel rows are the integer
    quotients ceil((c - h)/d) and floor((c + h)/d).  The full-flux row
    1/1 doubles as flux 0 by periodicity, keeping the rendered diagram
    exactly inversion symmetric."""
    d = 2 * b * q
    h = max(a, b * q)
    centers = [2 * b * (q - p) * (height - 1)]
    if p == q:
        centers.append(d * (height - 1))
    spans = []
    for c in centers:
        lo = -((h - c) // d)
        hi = (c + h) // d
        if hi >= 0 and lo <= height - 1:
            spans.append((max(lo, 0), min(hi, height - 1)))
    return spans


def _lows(column) -> np.ndarray:
    """A column of lower gap ends as float64, -inf where it holds None (a
    JSON null); a NaN end stays NaN."""
    lows = np.array(column, dtype=float)  # None reads as NaN
    null = map(operator.is_, column, itertools.repeat(None))
    lows[np.fromiter(null, bool, len(column))] = -math.inf
    return lows


def _columns(blocks, config: ButterflyConfig):
    """Packed paint columns of blocks of records, the code of each Chern
    value and the largest |sigma|.

    ``blocks`` yields the (q, p, lo, hi, closed, chern) columns of one
    block of records each, as sequences of the values a record holds or
    its JSON line decodes to (a null lo or hi reads as -inf or inf).
    The packed columns are (q, p, first pixel column, end pixel column,
    palette code) of every open gap that paints a pixel column, as int32
    and uint16 arrays.  Each block takes its column slices from one
    ``searchsorted`` per end and hands the open gaps whose slice is not
    empty to the packed columns, with the int32 slice ends in place of
    lo and hi.  Codes count from 0 in order of first appearance, and
    max|sigma| runs over every record, closed ones included.
    """
    columns = (array("i"), array("i"), array("i"), array("i"), array("H"))
    codes, biggest = {}, 1  # chern -> palette code
    width, emax = config.mu_bins, config.energy_clamp
    # strictly increasing and inside (-emax, emax), so the columns inside
    # [lo, hi] are one searchsorted slice, also for ends past the clamp
    centers = -emax + (np.arange(width) + 0.5) * (2.0 * emax / width)
    for q, p, lo, hi, closed, chern in blocks:
        for sigma in dict.fromkeys(chern):
            if sigma not in codes:
                codes[sigma] = len(codes)
                if sigma:
                    biggest = max(biggest, abs(sigma))
        n = len(q)
        # a null hi reads as NaN, which searchsorted places past every
        # center, as it does inf
        c0 = centers.searchsorted(_lows(lo), "left")
        c1 = centers.searchsorted(np.array(hi, dtype=float), "right")
        keep = (c0 < c1) & ~np.fromiter(closed, bool, n)  # closed gaps stay black
        code = np.fromiter(map(codes.__getitem__, chern), np.uint16, n)
        q, p = np.fromiter(q, np.int64, n), np.fromiter(p, np.int64, n)
        for col, values in zip(columns, (q, p, c0, c1, code)):
            col.frombytes(values[keep].astype(col.typecode).tobytes())
    return tuple(np.frombuffer(col, dtype=col.typecode) for col in columns), codes, biggest


def _image(blocks, config: ButterflyConfig) -> bytearray:
    """PPM (P6) bytes of blocks of record columns (see ``_columns``),
    painted after the last block, when the palette is fixed.

    Each palette code has one RGB byte row, its color tiled across the
    canvas, and a gap's pixel columns [a, b) are the bytes [3a, 3b) of
    a row of the (height, 3 width) byte view of the PPM buffer.  So
    each pixel row of a gap is one contiguous copy from its code's
    row, where a 3-byte RGB value broadcast over a (rows, cols, 3)
    block runs as an inner loop three bytes long."""
    columns, codes, biggest = _columns(blocks, config)
    period = config.colormap_period or 2 * biggest + 1
    width, height = config.mu_bins, config.height
    rows = [np.tile(np.array(chern_color(sigma, period), dtype=np.uint8), width)
            for sigma in codes]
    data, flat = _ppm_buffer(height, width)
    q, p, a, b, code = columns
    order = np.argsort(-q, kind="stable")
    columns = q, p, 3 * a, 3 * b, code  # pixel columns [a, b) as bytes [3a, 3b)
    scale = Fraction(config.row_scale * height).limit_denominator(10**6) / config.q_max
    num, den = scale.numerator, scale.denominator
    spans = {}  # (p, q) -> row slices
    for start in range(0, len(order), PAINT_BLOCK):
        block = order[start:start + PAINT_BLOCK]
        for q, p, a, b, code in zip(*(col[block].tolist() for col in columns)):
            ys = spans.get((p, q))
            if ys is None:
                ys = spans[p, q] = [slice(y0, y1 + 1)
                                    for y0, y1 in _row_bounds(p, q, height, num, den)]
            for y in ys:
                flat[y, a:b] = rows[code][a:b]
    return data


def render(records, config: ButterflyConfig) -> bytearray:
    """Rasterize gap records into PPM (P6) bytes in one pass.

    Low-q rows win contested pixels, so the wide low-denominator wings
    dominate visually; equal q overwrites (rows of equal q never
    overlap in a sweep).  The result depends on the records and the
    config, not on the record order.  The palette period depends on the
    largest |sigma| of all records, painted or not, so the records are
    streamed PAINT_BLOCK at a time into packed columns first
    (``_columns``, each block's columns by ``zip``) and painted after
    the last one, when the palette is fixed: in stable descending-q
    order, each pixel row of a record one contiguous copy from its
    color's RGB byte row into the PPM buffer.  The last write to a
    pixel comes from the lowest q and, among equal q, from the later
    record, whatever the record order.
    """
    records = iter(records)
    blocks = iter(lambda: list(itertools.islice(records, PAINT_BLOCK)), [])
    return _image((zip(*map(_PAINTED, block)) for block in blocks), config)


def render_jsonl(path: str, config: ButterflyConfig) -> bytearray:
    """Stream a JSON-lines record file into an image without building
    its records: each block of lines that ``decode_blocks`` decodes
    gives its six painted columns straight from the decoded values, and
    the columns go to the painter of ``render``.  Each line is decoded
    once."""
    with open(path) as fh:
        return _image((zip(*map(_PAINTED_KEYS, dicts)) for dicts in decode_blocks(fh)),
                      config)


def _ppm_buffer(height: int, width: int):
    """A zeroed binary PPM (P6), header then pixels, and a writable
    (H, 3 W) uint8 view of its pixels, one row of RGB bytes a pixel row."""
    header = b"P6\n%d %d\n255\n" % (width, height)
    data = bytearray(len(header) + height * width * 3)
    data[:len(header)] = header
    pixels = np.frombuffer(data, dtype=np.uint8, offset=len(header))
    return data, pixels.reshape(height, 3 * width)


def read_ppm(data: bytes) -> np.ndarray:
    """Decode binary PPM (P6) as produced by render."""
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    parts = data.split(b"\n", 3)
    w, h = map(int, parts[1].split())
    raw = np.frombuffer(parts[3], dtype=np.uint8, count=h * w * 3)
    return raw.reshape(h, w, 3)

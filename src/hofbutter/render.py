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
from array import array
from fractions import Fraction

import numpy as np

from .butterfly import ButterflyConfig, decode_records

NEUTRAL = (245, 245, 245)   # sigma = 0
SENTINEL = (128, 128, 128)  # unresolved
SATURATION = 0.88
VALUE = 0.95
PAINT_BLOCK = 1024  # records per slice-end block and per .tolist() gather


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


def _columns(records, config: ButterflyConfig):
    """Packed paint columns of the records, the code of each Chern value
    and the largest |sigma|.

    The columns are (q, p, first pixel column, end pixel column, palette
    code) of every open gap that paints a pixel column, as int32 and
    uint16 arrays.  The records are streamed once into a block of
    PAINT_BLOCK open gaps (q, p, lo, hi, code); each full block takes
    its column slices from one ``searchsorted`` per end and hands the
    gaps whose slice is not empty to the columns, with the int32 slice
    ends in place of lo and hi.  Codes count from 0 in order of first
    use.
    """
    columns = (array("i"), array("i"), array("i"), array("i"), array("H"))
    block = (array("i"), array("i"), array("d"), array("d"), array("H"))
    qs, ps, los, his, marks = block
    codes, biggest = {}, 1  # chern -> palette code
    width, emax = config.mu_bins, config.energy_clamp
    # strictly increasing and inside (-emax, emax), so the columns inside
    # [lo, hi] are one searchsorted slice, also for ends past the clamp
    centers = -emax + (np.arange(width) + 0.5) * (2.0 * emax / width)

    def flush():
        q, p, lo, hi, code = map(np.array, block)
        c0, c1 = centers.searchsorted(lo, "left"), centers.searchsorted(hi, "right")
        keep = c0 < c1
        for col, values in zip(columns, (q, p, c0, c1, code)):
            col.frombytes(values[keep].astype(col.typecode).tobytes())
        for buffer in block:
            del buffer[:]

    for rec in records:
        if rec.chern:
            biggest = max(biggest, abs(rec.chern))
        if rec.closed:
            continue  # closed gaps stay canvas-black like the bands
        qs.append(rec.q)
        ps.append(rec.p)
        los.append(rec.lo)
        his.append(rec.hi)
        marks.append(codes.setdefault(rec.chern, len(codes)))
        if len(qs) == PAINT_BLOCK:
            flush()
    flush()
    return tuple(np.frombuffer(col, dtype=col.typecode) for col in columns), codes, biggest


def render(records, config: ButterflyConfig) -> bytearray:
    """Rasterize gap records into PPM (P6) bytes in one pass.

    Low-q rows win contested pixels, so the wide low-denominator wings
    dominate visually; equal q overwrites (rows of equal q never
    overlap in a sweep).  The result depends on the records and the
    config, not on the record order.  The palette period depends on the
    largest |sigma| of all records, painted or not, so the records are
    streamed into packed columns first (``_columns``) and painted after
    the last one, when the palette is fixed: in stable descending-q
    order, each record's RGB straight into the pixels of the PPM
    buffer.  The last write to a pixel comes from the lowest q and,
    among equal q, from the later record, whatever the record order.
    """
    columns, codes, biggest = _columns(records, config)
    period = config.colormap_period or 2 * biggest + 1
    rgb = [np.array(chern_color(sigma, period), dtype=np.uint8) for sigma in codes]
    height = config.height
    data, pixels = _ppm_buffer(height, config.mu_bins)
    order = np.argsort(-columns[0], kind="stable")
    scale = Fraction(config.row_scale * height).limit_denominator(10**6) / config.q_max
    num, den = scale.numerator, scale.denominator
    spans = {}  # (p, q) -> row spans
    for start in range(0, len(order), PAINT_BLOCK):
        block = order[start:start + PAINT_BLOCK]
        for q, p, a, b, code in zip(*(col[block].tolist() for col in columns)):
            if (p, q) not in spans:
                spans[p, q] = _row_bounds(p, q, height, num, den)
            for y0, y1 in spans[p, q]:
                pixels[y0:y1 + 1, a:b] = rgb[code]
    return data


def render_jsonl(path: str, config: ButterflyConfig) -> bytearray:
    """Stream a JSON-lines record file into an image without
    materializing the records; each line is decoded once."""
    with open(path) as fh:
        return render(decode_records(fh), config)


def _ppm_buffer(height: int, width: int):
    """A zeroed binary PPM (P6), header then pixels, and a writable
    (H, W, 3) uint8 view of its pixels."""
    header = b"P6\n%d %d\n255\n" % (width, height)
    data = bytearray(len(header) + height * width * 3)
    data[:len(header)] = header
    pixels = np.frombuffer(data, dtype=np.uint8, offset=len(header))
    return data, pixels.reshape(height, width, 3)


def read_ppm(data: bytes) -> np.ndarray:
    """Decode binary PPM (P6) as produced by render."""
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    parts = data.split(b"\n", 3)
    w, h = map(int, parts[1].split())
    raw = np.frombuffer(parts[3], dtype=np.uint8, count=h * w * 3)
    return raw.reshape(h, w, 3)

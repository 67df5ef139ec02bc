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
import math
from fractions import Fraction

import numpy as np

from .butterfly import ButterflyConfig, decode_records

NEUTRAL = (245, 245, 245)   # sigma = 0
SENTINEL = (128, 128, 128)  # unresolved
SATURATION = 0.88
VALUE = 0.95
LUT_ROWS = 64  # rows per palette lookup; bounds its intp index temporary


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


def _row_bounds(p: int, q: int, height: int, thickness: Fraction):
    """Pixel row ranges of flux p/q, exact so p/q and (q-p)/q mirror.

    The full-flux row 1/1 doubles as flux 0 by periodicity, keeping the
    rendered diagram exactly inversion symmetric."""
    centers = [Fraction(q - p, q) * (height - 1)]  # image origin is top
    if p == q:
        centers.append(Fraction(height - 1))
    spans = []
    for center in centers:
        lo = math.ceil(center - thickness / 2)
        hi = math.floor(center + thickness / 2)
        if hi >= 0 and lo <= height - 1:
            spans.append((max(lo, 0), min(hi, height - 1)))
    return spans


def render(records, config: ButterflyConfig) -> bytes:
    """Rasterize gap records into PPM (P6) bytes in one pass.

    Low-q rows win contested pixels, so the wide low-denominator wings
    dominate visually; deterministic for fixed records and config.  A
    per-pixel owner-q buffer enforces this independent of record order;
    equal q overwrites (rows of equal q never overlap).  Each pixel
    holds a palette code: 0 while unpainted, then one code per distinct
    Chern value in order of first use (None included).  The palette
    period depends on the largest |sigma| of all records, painted or
    not, so colors are assigned only after the last record.
    """
    height, width, emax = config.height, config.mu_bins, config.energy_clamp
    owner = np.full((height, width), np.iinfo(np.int32).max, dtype=np.int32)
    labels = np.zeros((height, width), dtype=np.uint16)
    # sorted, so the columns inside [lo, hi] are one searchsorted slice
    centers = -emax + (np.arange(width) + 0.5) * (2.0 * emax / width)
    scale = Fraction(config.row_scale * height).limit_denominator(10**6) / config.q_max
    codes, spans, biggest = {}, {}, 1  # chern -> code, (p, q) -> row spans
    for rec in records:
        if rec.chern:
            biggest = max(biggest, abs(rec.chern))
        if rec.closed:
            continue  # closed gaps stay canvas-black like the bands
        c0 = int(centers.searchsorted(max(rec.lo, -emax), "left"))
        c1 = int(centers.searchsorted(min(rec.hi, emax), "right"))
        if c0 >= c1:
            continue
        code = codes.setdefault(rec.chern, len(codes) + 1)
        key = (rec.p, rec.q)
        if key not in spans:
            spans[key] = _row_bounds(rec.p, rec.q, height, max(scale / rec.q, Fraction(1)))
        for y0, y1 in spans[key]:  # a named view of owner would outlive del owner
            claim = owner[y0:y1 + 1, c0:c1] >= rec.q
            owner[y0:y1 + 1, c0:c1][claim] = rec.q
            labels[y0:y1 + 1, c0:c1][claim] = code
    del owner  # each big buffer goes before the next is made: peak owner + labels
    period = config.colormap_period or 2 * biggest + 1
    lut = np.zeros((len(codes) + 1, 3), dtype=np.uint8)
    for sigma, code in codes.items():
        lut[code] = chern_color(sigma, period)
    pixels = np.empty((height, width, 3), dtype=np.uint8)
    for y in range(0, height, LUT_ROWS):
        pixels[y:y + LUT_ROWS] = lut[labels[y:y + LUT_ROWS]]
    del labels
    return write_ppm(pixels)


def render_jsonl(path: str, config: ButterflyConfig) -> bytes:
    """Stream a JSON-lines record file into an image without
    materializing the records; each line is decoded once."""
    with open(path) as fh:
        return render(decode_records(fh), config)


def write_ppm(pixels: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as binary PPM (P6)."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError("expected an (H, W, 3) uint8 array")
    h, w = pixels.shape[:2]
    # a memoryview avoids the extra image-sized copy tobytes() would make
    return b"P6\n%d %d\n255\n" % (w, h) + memoryview(np.ascontiguousarray(pixels))


def read_ppm(data: bytes) -> np.ndarray:
    """Decode binary PPM (P6) produced by write_ppm."""
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    parts = data.split(b"\n", 3)
    w, h = map(int, parts[1].split())
    raw = np.frombuffer(parts[3], dtype=np.uint8, count=h * w * 3)
    return raw.reshape(h, w, 3)

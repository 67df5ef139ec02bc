import colorsys
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hofbutter import (
    ButterflyConfig,
    GapRecord,
    PHI_D_SYMMETRIC,
    build_diagram,
    chern_color,
    sweep_to_jsonl,
    write_records_jsonl,
)
from hofbutter.render import NEUTRAL, SENTINEL, _row_bounds, read_ppm, render, render_jsonl


class TestColormap:
    def test_zero_is_neutral(self):
        assert chern_color(0, 11) == NEUTRAL

    def test_unresolved_is_sentinel(self):
        assert chern_color(None, 11) == SENTINEL

    def test_opposite_sigma_mirror_hues(self):
        for sigma in (1, 2, 3, 5):
            r1, g1, b1 = chern_color(sigma, 13)
            r2, g2, b2 = chern_color(-sigma, 13)
            h1 = colorsys.rgb_to_hsv(r1 / 255, g1 / 255, b1 / 255)[0]
            h2 = colorsys.rgb_to_hsv(r2 / 255, g2 / 255, b2 / 255)[0]
            assert abs((h1 + h2) % 1.0) < 0.02 or abs((h1 + h2) % 1.0 - 1.0) < 0.02

    def test_distinct_within_period(self):
        period = 11
        colors = {chern_color(s, period) for s in range(-5, 6)}
        assert len(colors) == 11


class TestPPM:
    def test_header_and_roundtrip(self):
        cfg = ButterflyConfig(q_max=1, mu_bins=3, height=2)
        data = render(build_diagram(cfg).records, cfg)
        header = b"P6\n3 2\n255\n"
        assert data.startswith(header)
        pixels = read_ppm(data)
        assert pixels.shape == (2, 3, 3)
        assert pixels.tobytes() == bytes(data[len(header):])


class TestRender:
    def test_single_flux_two_neutral_bands(self):
        cfg = ButterflyConfig(q_max=1, mu_bins=64, height=16)
        diagram = build_diagram(cfg)
        img = read_ppm(render(diagram.records, cfg))
        # q=1 spectrum is [-4, 4] inside the clamp [-6, 6]; the two
        # semi-infinite gaps paint neutral margins, the band stays black
        row = img[8]
        assert tuple(row[0]) == NEUTRAL
        assert tuple(row[-1]) == NEUTRAL
        assert tuple(row[32]) == (0, 0, 0)
        palette = {tuple(c) for c in row}
        assert palette == {NEUTRAL, (0, 0, 0)}

    def test_deterministic_bytes(self):
        cfg = ButterflyConfig(q_max=4, resolver="computed", computed_q_max=4,
                              mu_bins=128, height=64)
        diagram = build_diagram(cfg)
        assert render(diagram.records, cfg) == render(diagram.records, cfg)

    def test_inversion_symmetric_image(self):
        cfg = ButterflyConfig(q_max=5, resolver="computed", computed_q_max=5,
                              mu_bins=256, height=128)
        diagram = build_diagram(cfg)
        img = read_ppm(render(diagram.records, cfg))
        assert np.array_equal(img, img[::-1, ::-1])

    def test_unresolved_sentinel_painted(self):
        cfg = ButterflyConfig(q_max=5, resolver="triangular", computed_q_max=2,
                              mu_bins=128, height=64)
        diagram = build_diagram(cfg)
        img = read_ppm(render(diagram.records, cfg))
        assert (img == np.array(SENTINEL, dtype=np.uint8)).all(axis=2).any()


def fraction_row_bounds(p, q, height, thickness):
    """Reference row spans of flux p/q in Fraction arithmetic: a row of
    the given thickness centered at (q-p)/q (height-1), and for p = q a
    second one at height-1, each clipped to the canvas."""
    centers = [Fraction(q - p, q) * (height - 1)]
    if p == q:
        centers.append(Fraction(height - 1))
    spans = []
    for center in centers:
        lo = math.ceil(center - thickness / 2)
        hi = math.floor(center + thickness / 2)
        if hi >= 0 and lo <= height - 1:
            spans.append((max(lo, 0), min(hi, height - 1)))
    return spans


def test_row_bounds_match_fractions():
    # every p/q <= 64, p = q included at every q, at several heights and
    # row scales: integer quotients over one common denominator equal
    # the Fraction ceil and floor, for rows thinner than a pixel (drawn
    # one pixel thick) and for thicker ones
    q_max = 64
    thin = thick = 0
    for height, row_scale in itertools.product([1, 2, 7, 256, 1024],
                                               [2.0, 0.1, 1 / 3, 0.0, -1.5, 37.25]):
        scale = Fraction(row_scale * height).limit_denominator(10**6) / q_max
        for q in range(1, q_max + 1):
            thickness = scale / q
            thin += thickness < 1
            thick += thickness > 1
            for p in range(1, q + 1):
                assert _row_bounds(p, q, height, scale.numerator, scale.denominator) == \
                    fraction_row_bounds(p, q, height, max(thickness, Fraction(1))), \
                    (p, q, height, row_scale)
    assert thin and thick


def mask_render(records, cfg):
    """Reference rasterizer: one boolean column mask per record, colors
    painted directly, the palette period from a pass over all records."""
    records = list(records)
    period = cfg.colormap_period or \
        2 * max((abs(r.chern) for r in records if r.chern), default=1) + 1
    emax = cfg.energy_clamp
    canvas = np.zeros((cfg.height, cfg.mu_bins, 3), dtype=np.uint8)
    owner = np.full((cfg.height, cfg.mu_bins), np.iinfo(np.int32).max, dtype=np.int32)
    centers = -emax + (np.arange(cfg.mu_bins) + 0.5) * (2.0 * emax / cfg.mu_bins)
    for rec in records:
        cols = (centers >= max(rec.lo, -emax)) & (centers <= min(rec.hi, emax))
        if rec.closed or not cols.any():
            continue
        thickness = Fraction(cfg.row_scale * cfg.height).limit_denominator(10**6) \
            / (rec.q * cfg.q_max)
        for y0, y1 in fraction_row_bounds(rec.p, rec.q, cfg.height,
                                          max(thickness, Fraction(1))):
            claim = owner[y0:y1 + 1, cols] >= rec.q
            block = canvas[y0:y1 + 1, cols]
            block[claim] = chern_color(rec.chern, period)
            canvas[y0:y1 + 1, cols] = block
            strip = owner[y0:y1 + 1, cols]
            strip[claim] = rec.q
            owner[y0:y1 + 1, cols] = strip
    return b"P6\n%d %d\n255\n" % (cfg.mu_bins, cfg.height) + canvas.tobytes()


def _gap(p, q, j, lo, hi, chern, closed=False):
    return GapRecord(p, q, PHI_D_SYMMETRIC, j, lo, hi, hi - lo, closed, chern,
                     "unresolved" if chern is None else "chain")


# mu_bins 16 at the default clamp 6: pixel centers -5.625, -4.875, ..., 5.625
HAND_RECORDS = [
    _gap(1, 1, 0, -math.inf, -4.875, 0),         # semi-infinite, hi on a center
    _gap(1, 1, 1, 4.875, math.inf, 0),           # semi-infinite past the clamp
    _gap(1, 2, 1, -0.375, 0.375, 1),             # both ends on centers
    _gap(1, 3, 1, -2.625, 1.875, None),          # unresolved
    _gap(1, 3, 2, 0.0, 3.0, 1),                  # equal q: overwrites the gray
    _gap(2, 3, 1, -1.0, 2.0, -2, closed=True),   # closed: stays black
    _gap(2, 3, 2, -3.1, -3.0, 9),                # no center inside; sets period 19
]


def _stacked_records():
    """Forty-one q = 3 gaps over the same pixels in seeded order, and a
    q = 5 gap whose rows meet those of q = 3 and of q = 2: only a stable
    descending-q order paints what the owner rule paints."""
    rng = np.random.default_rng(7)
    recs = [_gap(1, 3, j, -1.5 + 0.01 * j, 1.5 - 0.01 * j, int(rng.integers(-4, 5)))
            for j in range(40)]
    recs += [_gap(1, 2, 1, -0.5, 0.5, None), _gap(2, 5, 1, -3.0, 3.0, 2),
             _gap(1, 3, 40, -0.2, 0.2, -1)]
    return [recs[i] for i in rng.permutation(len(recs))]


STACKED_RECORDS = _stacked_records()


class TestMatchesMaskRasterizer:
    @pytest.mark.parametrize("records, cfg", [
        pytest.param(None, ButterflyConfig(q_max=12, computed_q_max=0,
                                           mu_bins=512, height=256), id="triangular_q12"),
        pytest.param(None, ButterflyConfig(q_max=12, computed_q_max=0, colormap_period=7,
                                           mu_bins=512, height=256), id="period_override"),
        pytest.param(None, ButterflyConfig(q_max=5, resolver="computed", computed_q_max=5,
                                           mu_bins=256, height=128), id="computed_q5"),
        pytest.param(None, ButterflyConfig(q_max=10, phi_d=0.3, t1=1.0, t2=0.8, t3=0.6,
                                           computed_q_max=0, mu_bins=512, height=256),
                     id="anisotropic_clamp"),
        pytest.param(HAND_RECORDS, ButterflyConfig(q_max=3, mu_bins=16, height=12),
                     id="hand_made"),
        pytest.param(HAND_RECORDS[::-1], ButterflyConfig(q_max=3, mu_bins=16, height=12),
                     id="hand_made_reversed"),
        pytest.param(STACKED_RECORDS, ButterflyConfig(q_max=5, mu_bins=32, height=40),
                     id="equal_q_stack"),
        pytest.param(STACKED_RECORDS[::-1], ButterflyConfig(q_max=5, mu_bins=32, height=40),
                     id="equal_q_stack_reversed"),
    ])
    def test_render_and_render_jsonl_bytes(self, records, cfg, tmp_path):
        if records is None:
            records = build_diagram(cfg).records
        expected = mask_render(records, cfg)
        assert render(records, cfg) == expected
        path = str(tmp_path / "records.jsonl")
        write_records_jsonl(records, path)
        assert render_jsonl(path, cfg) == expected

    def test_blank_lines_skipped(self, tmp_path):
        # read_records_jsonl skips blank lines; render_jsonl decodes the same way
        cfg = ButterflyConfig(q_max=3, mu_bins=16, height=12)
        path = tmp_path / "records.jsonl"
        write_records_jsonl(HAND_RECORDS, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + ["\n"] + lines[3:] + ["\n"]))
        assert render_jsonl(str(path), cfg) == render(HAND_RECORDS, cfg)

    @pytest.mark.parametrize("reorder", ["shuffled", "reversed"])
    def test_record_order_does_not_matter(self, reorder):
        # a sweep's equal-q rows never overlap, so the owner rule alone
        # (low q wins) fixes every pixel whatever the record order
        cfg = ButterflyConfig(q_max=12, computed_q_max=0, mu_bins=512, height=256)
        records = build_diagram(cfg).records
        expected = mask_render(records, cfg)
        if reorder == "shuffled":
            records = [records[i] for i in np.random.default_rng(11).permutation(len(records))]
        else:
            records = records[::-1]
        assert render(records, cfg) == expected


def test_render_jsonl_memory_peak(tmp_path):
    """The Python-level peak of render_jsonl on the q_max 40 sweep at
    phi_d = -pi/2, 3.46 MB: the 3 MB PPM buffer, the packed columns and
    the per-block temporaries.  A uint16 code canvas (2 MB), an
    owner-sized buffer (4 MB) or a second copy of the image (3 MB)
    would not fit under the bound, the peak plus 10 %."""
    cfg = ButterflyConfig(q_max=40, phi_d=PHI_D_SYMMETRIC, computed_q_max=0)
    path = str(tmp_path / "records.jsonl")
    sweep_to_jsonl(cfg, path)
    tracemalloc.start()
    try:
        data = render_jsonl(path, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == len(b"P6\n1024 1024\n255\n") + 1024 * 1024 * 3
    assert peak <= 3.8 * 2**20

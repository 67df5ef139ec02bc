import colorsys
import math
from fractions import Fraction

import numpy as np
import pytest

from hofbutter import (
    ButterflyConfig,
    GapRecord,
    PHI_D_SYMMETRIC,
    build_diagram,
    chern_color,
    write_ppm,
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
        pixels = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        data = write_ppm(pixels)
        assert data.startswith(b"P6\n3 2\n255\n")
        assert np.array_equal(read_ppm(data), pixels)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            write_ppm(np.zeros((4, 4), dtype=np.uint8))


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
        for y0, y1 in _row_bounds(rec.p, rec.q, cfg.height, max(thickness, Fraction(1))):
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


class TestMatchesMaskRasterizer:
    @pytest.mark.parametrize("records, cfg", [
        pytest.param(None, ButterflyConfig(q_max=12, computed_q_max=0,
                                           mu_bins=512, height=256), id="triangular_q12"),
        pytest.param(None, ButterflyConfig(q_max=12, computed_q_max=0, colormap_period=7,
                                           mu_bins=512, height=256), id="period_override"),
        pytest.param(None, ButterflyConfig(q_max=5, resolver="computed", computed_q_max=5,
                                           mu_bins=256, height=128), id="computed_q5"),
        pytest.param(HAND_RECORDS, ButterflyConfig(q_max=3, mu_bins=16, height=12),
                     id="hand_made"),
    ])
    def test_render_and_render_jsonl_bytes(self, records, cfg, tmp_path):
        if records is None:
            records = build_diagram(cfg).records
        expected = mask_render(records, cfg)
        assert render(records, cfg) == expected
        path = str(tmp_path / "records.jsonl")
        write_records_jsonl(records, path)
        assert render_jsonl(path, cfg) == expected

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofbutter import (
    BlochMomentum,
    ButterflyConfig,
    Flux,
    HofstadterModel,
    PHI_D_SYMMETRIC,
    band_edge_kpoints,
    build_hamiltonian,
    chambers_polynomial,
    compute_bands,
    compute_bands_dense,
    compute_gaps,
    det_closed_form,
    gap_chern,
    gaps_to_csv,
    spectrum_to_json,
)
from hofbutter import butterfly, spectrum
from hofbutter.magnetic_algebra import hamiltonian_batch
from hofbutter.spectrum import (
    BandContainmentError,
    _oscillatory,
    det_offset,
    gap_from_dict,
    gap_to_dict,
)

PI = math.pi


def direct_det(model, k):
    return float(np.real(np.linalg.det(build_hamiltonian(model, k))))


def containment_excess(model, n=16, seed=0):
    """Largest relative distance of an eigenvalue at n seeded random
    momenta outside its band; <= 0 when every one lies inside."""
    bands = np.array(compute_bands(model).bands)
    k = np.random.default_rng(seed).uniform(-PI, PI, (2, n))
    evs = np.linalg.eigvalsh(hamiltonian_batch(model, k[0], k[1]))
    outside = np.maximum(bands[:, 0] - evs, evs - bands[:, 1])
    return float((outside / np.maximum(1.0, np.abs(evs))).max())


class TestClosedFormDeterminant:
    def test_q1_trivial(self):
        model = HofstadterModel(Flux(1, 1), 0.4)
        k = (0.7, -0.2)
        assert abs(det_closed_form(model, k) - direct_det(model, k)) < 1e-12

    def test_13_matches_direct(self):
        rng = np.random.default_rng(3)
        model = HofstadterModel(Flux(1, 3), PHI_D_SYMMETRIC)
        for _ in range(10):
            k = tuple(rng.uniform(-PI, PI, 2))
            d = direct_det(model, k)
            assert abs(det_closed_form(model, k) - d) <= 1e-9 * max(1.0, abs(d))

    def test_rejects_anisotropic(self):
        with pytest.raises(ValueError):
            det_closed_form(HofstadterModel(Flux(1, 3), t3=0.0), (0.0, 0.0))

    def test_anisotropic_chambers_form_matches_direct(self):
        # only differences are compared: the constant part is not closed-form
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(30):
            q = int(rng.integers(1, 12))
            p = int(rng.choice([x for x in range(1, q + 1) if math.gcd(x, q) == 1]))
            model = HofstadterModel(Flux(p, q), float(rng.uniform(-PI, PI)),
                                    *rng.uniform(0.2, 1.8, 3))
            k0, k = rng.uniform(-PI, PI, (2, 2))
            d0, d = direct_det(model, k0), direct_det(model, k)
            form = _oscillatory(model, *k) - _oscillatory(model, *k0)
            worst = max(worst, abs(form - (d - d0)) / max(1.0, abs(d), abs(d0)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("q", [2, 4])
    def test_even_q_oscillatory_structure(self, q):
        # at qk = 0 the oscillatory part is 2*(1 + 1 +/- 1) shaped
        model = HofstadterModel(Flux(1, q), PI / 2)
        h = det_offset(model)
        omega_uq = model.omega_u ** q
        expected = 2.0 * abs(2.0 + ((-1.0) ** (q - 1)) * omega_uq.real)
        assert abs(abs(direct_det(model, (0.0, 0.0)) - h) - expected) < 1e-9


class TestChambersPolynomial:
    def test_q1(self):
        data = chambers_polynomial(HofstadterModel(Flux(1, 1), 0.8))
        assert np.allclose(data.poly_coeffs, [-1.0, 0.0], atol=1e-12)

    def test_square_q2_by_hand(self):
        # 2x2 determinant expands to P(x) = x^2 exactly
        data = chambers_polynomial(HofstadterModel(Flux(1, 2), t3=0.0))
        assert np.allclose(data.poly_coeffs, [1.0, 0.0, 0.0], atol=1e-9)

    def test_37_k_independence(self):
        data = chambers_polynomial(HofstadterModel(Flux(3, 7), PI / 2),
                                   check_points=5)
        assert data.max_rel_dev <= 1e-9

    def test_h_offset_matches_closed_form(self):
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        assert abs(chambers_polynomial(model).h_offset -
                   direct_det(model, (0.0, 0.0))) < 1e-9


class TestBandEdgeKpoints:
    def test_q2(self):
        pts = {(round(k.k1, 9), round(k.k2, 9))
               for k in band_edge_kpoints(HofstadterModel(Flux(1, 2), PI / 2))}
        x = round(PI / 3, 9)
        assert pts == {(0.0, 0.0), (x, x), (-x, -x)}

    def test_q3(self):
        pts = {(round(k.k1, 9), round(k.k2, 9))
               for k in band_edge_kpoints(HofstadterModel(Flux(1, 3), PI / 2))}
        a, b = round(PI / 18, 9), round(5 * PI / 18, 9)
        assert pts == {(a, a), (-a, -a), (b, b), (-b, -b)}

    def test_generic_phi_matches_grid_scan(self):
        # dense-grid oracle: the fallback extremizers must beat a 101x101 scan
        model = HofstadterModel(Flux(1, 5), 0.3)
        pts = band_edge_kpoints(model)
        dets = [det_closed_form(model, k) for k in pts]
        axis = np.linspace(-PI / 5, PI / 5, 101)
        grid = [det_closed_form(model, (a, b)) for a in axis for b in axis]
        assert min(dets) <= min(grid) + 1e-6
        assert max(dets) >= max(grid) - 1e-6

    @pytest.mark.parametrize("p,q", [(9, 89), (11, 127), (17, 35)])
    def test_generic_phi_large_q_contains_spectrum(self, p, q):
        # a search over det H with its ~2^q constant kept lost the
        # k-dependence in float64 and returned wrong edges for these fluxes
        assert containment_excess(HofstadterModel(Flux(p, q), 0.3)) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 256), st.integers(0, 10**6), st.floats(-PI, PI),
           st.floats(0.2, 1.8), st.floats(0.2, 1.8), st.floats(0.2, 1.8))
    def test_searched_edges_contain_spectrum(self, q, i, phi_d, t1, t2, t3):
        ps = [x for x in range(1, q + 1) if math.gcd(x, q) == 1]
        model = HofstadterModel(Flux(ps[i % len(ps)], q), phi_d, t1, t2, t3)
        assert containment_excess(model, n=8, seed=i) <= 1e-9

    def test_bad_edge_momenta_raise_and_fall_back(self, monkeypatch):
        model = HofstadterModel(Flux(2, 7), 0.3)
        monkeypatch.setattr(spectrum, "_extremize_det",
                            lambda m: [BlochMomentum(0.0, 0.0)] * 2)
        with pytest.raises(BandContainmentError):
            compute_bands(model)
        # compute_bands_or_dense retries with the dense scan
        cfg = ButterflyConfig(phi_d=0.3, computed_q_max=0)
        dicts, failure = butterfly._compute_flux((2, 7, cfg))
        assert failure is None and len(dicts) == 8

    def test_bad_edge_momenta_fall_back_on_fhs_path(self, monkeypatch):
        cfg = ButterflyConfig(phi_d=0.3)  # odd q <= computed_q_max: FHS colors
        good, _ = butterfly._compute_flux((2, 7, cfg))
        monkeypatch.setattr(spectrum, "_extremize_det",
                            lambda m: [BlochMomentum(0.0, 0.0)] * 2)
        dicts, failure = butterfly._compute_flux((2, 7, cfg))
        assert failure is None
        interior = [d for d in dicts if 0 < d["j"] < 7 and not d["closed"]]
        assert interior and all(d["source"] == "computed_fhs" for d in interior)
        assert [d["chern"] for d in dicts] == [d["chern"] for d in good]
        assert gap_chern(HofstadterModel(Flux(2, 7), 0.3), 1) == dicts[1]["chern"]

    def test_square_limit_points(self):
        model = HofstadterModel(Flux(1, 4), 0.9, t3=0.0)
        fast = np.array(compute_bands(model).bands)
        dense = np.array(compute_bands_dense(model, grid=48).bands)
        assert np.abs(fast - dense).max() <= 1e-6


class TestComputeBands:
    def test_q1_single_band(self):
        spec = compute_bands(HofstadterModel(Flux(1, 1), t3=0.0))
        assert len(spec.bands) == 1
        lo, hi = spec.bands[0]
        assert lo == -4.0 and hi == 4.0

    def test_square_q2_middle_gap_closed(self):
        spec = compute_bands(HofstadterModel(Flux(1, 2), t3=0.0))
        gaps = compute_gaps(spec)
        assert gaps[1].closed
        assert abs(spec.bands[0][0] + spec.bands[1][1]) < 1e-12  # symmetric

    def test_13_matches_dense(self):
        model = HofstadterModel(Flux(1, 3), PHI_D_SYMMETRIC)
        fast = np.array(compute_bands(model).bands)
        dense = np.array(compute_bands_dense(model, grid=64).bands)
        assert np.abs(fast - dense).max() <= 1e-6

    @pytest.mark.parametrize("p,q,t", [(1, 5, (1.0, 1.0, 1.0)),
                                       (2, 7, (1.0, 0.8, 0.6)),
                                       (3, 8, (0.5, 1.6, 1.1))])
    def test_searched_edges_match_dense(self, p, q, t):
        model = HofstadterModel(Flux(p, q), 0.3, *t)
        fast = np.array(compute_bands(model).bands)
        dense = np.array(compute_bands_dense(model, grid=64).bands)
        assert np.abs(fast - dense).max() <= 1e-6

    def test_bands_ordered(self):
        for p, q in [(2, 5), (3, 7), (4, 9), (5, 13)]:
            bands = compute_bands(HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)).bands
            flat = [x for b in bands for x in b]
            assert all(flat[i] <= flat[i + 1] + 1e-10 for i in range(len(flat) - 1))


class TestComputeGaps:
    def test_q1_two_trivial_gaps(self):
        gaps = compute_gaps(compute_bands(HofstadterModel(Flux(1, 1))))
        assert [g.j for g in gaps] == [0, 1]
        assert all(g.chern == 0 for g in gaps)
        assert all(not g.closed for g in gaps)

    def test_q3_one_interior_gap_closes(self):
        gaps = compute_gaps(compute_bands(
            HofstadterModel(Flux(1, 3), PHI_D_SYMMETRIC)))
        closed = [g.j for g in gaps if g.closed]
        assert closed == [2]
        gaps = compute_gaps(compute_bands(
            HofstadterModel(Flux(2, 3), PHI_D_SYMMETRIC)))
        assert [g.j for g in gaps if g.closed] == [1]

    def test_record_count_and_widths(self):
        for p, q in [(1, 2), (2, 5), (5, 13)]:
            gaps = compute_gaps(compute_bands(HofstadterModel(Flux(p, q), PI / 2)))
            assert len(gaps) == q + 1
            assert all(g.width >= 0 for g in gaps)
            assert math.isinf(gaps[0].width) and math.isinf(gaps[-1].width)


class TestSerialization:
    def test_gap_dict_roundtrip(self):
        gaps = compute_gaps(compute_bands(
            HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)))
        for g in gaps:
            assert gap_from_dict(gap_to_dict(g)) == g

    def test_spectrum_json_schema(self):
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        spec = compute_bands(model)
        payload = json.loads(spectrum_to_json(spec, compute_gaps(spec)))
        assert payload["p"] == 2 and payload["q"] == 5
        assert payload["t"] == [1.0, 1.0, 1.0]
        assert len(payload["bands"]) == 5
        assert len(payload["gaps"]) == 6
        assert set(payload["gaps"][1]) == {"j", "lo", "hi", "width",
                                           "closed", "chern", "source"}
        assert payload["gaps"][0]["lo"] is None  # semi-infinite

    def test_csv_columns(self):
        gaps = compute_gaps(compute_bands(HofstadterModel(Flux(1, 2))))
        lines = gaps_to_csv(gaps).strip().split("\n")
        assert lines[0] == "p,q,j,lo,hi,width,closed,chern,source"
        assert len(lines) == 4

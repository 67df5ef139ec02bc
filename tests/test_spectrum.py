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
    GapRecord,
    HofstadterModel,
    PHI_D_SYMMETRIC,
    band_edge_kpoints,
    build_diagram,
    build_hamiltonian,
    certify_gap,
    chambers_polynomial,
    compute_bands,
    compute_bands_dense,
    compute_gaps,
    det_closed_form,
    enumerate_fluxes,
    gaps_to_csv,
    spectrum_to_json,
)
from hofbutter import butterfly, spectrum
from hofbutter.magnetic_algebra import hamiltonian_batch, jacobi_batch
from hofbutter.spectrum import (
    BandContainmentError,
    _edge_candidates,
    _oscillatory,
    denominator_bands,
    det_offset,
    gap_from_dict,
    gap_table,
    gap_to_dict,
)

PI = math.pi


def direct_det(model, k):
    return float(np.real(np.linalg.det(build_hamiltonian(model, k))))


def containment_excess(model, n=16, seed=0, bands=None):
    """Largest relative distance of an eigenvalue at n seeded random
    momenta outside its band (compute_bands unless ``bands`` is given);
    <= 0 when every one lies inside."""
    bands = np.array(compute_bands(model).bands if bands is None else bands)
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


def coprime_models(q, phi_d, t):
    """The models of every flux p/q of one denominator, in p order."""
    return [HofstadterModel(Flux(p, q), phi_d, *t)
            for p in range(1, q + 1) if math.gcd(p, q) == 1]


def chambers_terms_per_p(model):
    """spectrum._chambers_terms with the phase of c from the flux's own
    w_u^q, as each flux searched its band-edge momenta before they were
    shared per denominator."""
    q = model.q
    t_max = max(model.t1, model.t2, model.t3) or 1.0
    a = (model.t2 / t_max) ** q
    b = (model.t1 / t_max) ** q
    c = complex((-1.0) ** (q - 1) * (model.t3 / t_max) ** q * model.omega_u ** q)
    return a, b, c, t_max ** q


class TestBandEdgeKpoints:
    def test_q2(self):
        pts = {(round(k1, 9), round(k2, 9))
               for k1, k2 in _edge_candidates(HofstadterModel(Flux(1, 2), PI / 2))}
        x = round(PI / 3, 9)
        assert pts == {(0.0, 0.0), (x, x), (-x, -x)}

    def test_q3(self):
        pts = {(round(k1, 9), round(k2, 9))
               for k1, k2 in _edge_candidates(HofstadterModel(Flux(1, 3), PI / 2))}
        a, b = round(PI / 18, 9), round(5 * PI / 18, 9)
        assert pts == {(a, a), (-a, -a), (b, b), (-b, -b)}

    @pytest.mark.parametrize("p,q,phi_d,t3", [(1, 2, PI / 2, 1.0), (1, 3, PI / 2, 1.0),
                                              (3, 8, -PI / 2, 1.0), (5, 12, PI / 2, 1.0),
                                              (2, 7, 0.3, 0.0), (1, 1, 0.0, 0.0)])
    def test_closed_form_returns_det_extrema(self, p, q, phi_d, t3):
        # the argmin and argmax of the k-dependent part of det H, in that
        # order, among the family's candidates
        model = HofstadterModel(Flux(p, q), phi_d, t3=t3)
        cands = _edge_candidates(model)
        det = _oscillatory(model, *zip(*cands))
        assert band_edge_kpoints(model) == [
            BlochMomentum(*cands[int(np.argmin(det))]),
            BlochMomentum(*cands[int(np.argmax(det))])]

    @pytest.mark.parametrize("phi_d,t3", [(PI / 2, 1.0), (-PI / 2, 1.0), (0.0, 0.0)])
    def test_dropped_candidates_add_no_edge(self, phi_d, t3):
        # Chambers: the spectrum at k depends on det H(k) alone, so the
        # candidates that band_edge_kpoints drops have their eigenvalues
        # inside the bands of the two it keeps, and those bands are the
        # min/max over every candidate
        for q in range(1, 49):
            for p in (x for x in range(1, q + 1) if math.gcd(x, q) == 1):
                model = HofstadterModel(Flux(p, q), phi_d, t3=t3)
                cands = _edge_candidates(model)
                evs = np.linalg.eigvalsh(hamiltonian_batch(model, *zip(*cands)))
                bands = np.array(compute_bands(model).bands)
                assert (evs >= bands[:, 0] - 1e-12).all(), (p, q)
                assert (evs <= bands[:, 1] + 1e-12).all(), (p, q)
                assert np.abs(bands[:, 0] - evs.min(axis=0)).max() <= 1e-12, (p, q)
                assert np.abs(bands[:, 1] - evs.max(axis=0)).max() <= 1e-12, (p, q)

    def test_generic_phi_matches_grid_scan(self):
        # dense-grid oracle: the fallback extremizers must beat a 101x101 scan
        model = HofstadterModel(Flux(1, 5), 0.3)
        pts = band_edge_kpoints(model)
        dets = [det_closed_form(model, k) for k in pts]
        axis = np.linspace(-PI / 5, PI / 5, 101)
        grid = det_offset(model) + _oscillatory(model, *np.meshgrid(axis, axis))
        assert min(dets) <= grid.min() + 1e-6
        assert max(dets) >= grid.max() - 1e-6

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

    @pytest.mark.parametrize("phi_d,t", [(0.3, (1.0, 1.0, 1.0)), (0.3, (1.0, 0.8, 0.6)),
                                         (-PI / 2, (1.0, 1.0, 1.0)), (0.3, (1.0, 1.0, 0.0))])
    def test_edge_momenta_depend_only_on_q(self, monkeypatch, phi_d, t):
        # the k-dependent part of det H has the phase w_u^q = e^{-i q phi_d}
        # for every p, so the edges from the momenta shared by a
        # denominator are those from momenta each flux searches with its
        # own w_u^q, and they contain the spectrum
        for q in range(1, 37):
            models = coprime_models(q, phi_d, t)
            los, his, _ = denominator_bands(models)
            shared = np.stack([los, his], axis=-1)
            with monkeypatch.context() as m:
                m.setattr(spectrum, "_chambers_terms", chambers_terms_per_p)
                own = [band_edge_kpoints(model) for model in models]
            for model, bands, pts in zip(models, shared, own):
                evs = np.linalg.eigvalsh(hamiltonian_batch(model, *zip(*pts)))
                assert np.abs(bands[:, 0] - evs.min(axis=0)).max() <= 1e-12, model.flux
                assert np.abs(bands[:, 1] - evs.max(axis=0)).max() <= 1e-12, model.flux
                assert containment_excess(model, n=8, seed=q, bands=bands) <= 1e-9
                if q <= 8:  # the dense scan takes seconds a flux at q = 36
                    dense = np.array(compute_bands_dense(model, grid=32).bands)
                    assert (dense[:, 0] >= bands[:, 0] - 1e-9).all(), model.flux
                    assert (dense[:, 1] <= bands[:, 1] + 1e-9).all(), model.flux
                    assert np.abs(dense - bands).max() <= 1e-6, model.flux

    def test_bad_edge_momenta_raise_and_fall_back(self, monkeypatch):
        model = HofstadterModel(Flux(2, 7), 0.3)
        monkeypatch.setattr(spectrum, "_extremize_det",
                            lambda m: [BlochMomentum(0.0, 0.0)] * 2)
        with pytest.raises(BandContainmentError):
            compute_bands(model)
        # the sweep's denominator retries with the dense scan
        records = butterfly.flux_records(2, 7, ButterflyConfig(phi_d=0.3, computed_q_max=0))
        assert len(records) == 8

    def test_bad_edge_momenta_fall_back_on_edge_path(self, monkeypatch):
        cfg = ButterflyConfig(phi_d=0.3)  # odd q <= computed_q_max: edge winding colors
        good = butterfly.flux_records(2, 7, cfg)
        monkeypatch.setattr(spectrum, "_extremize_det",
                            lambda m: [BlochMomentum(0.0, 0.0)] * 2)
        records = butterfly.flux_records(2, 7, cfg)
        interior = [r for r in records if 0 < r.j < 7 and not r.closed]
        assert interior and all(r.chern_source == "edge_winding" for r in interior)
        assert [r.chern for r in records] == [r.chern for r in good]
        assert certify_gap(HofstadterModel(Flux(2, 7), 0.3), 1).value == records[1].chern

    @pytest.mark.parametrize("phi_d,row", [(0.3, slice(None)), (PHI_D_SYMMETRIC, 1)])
    def test_one_failed_row_falls_back_alone(self, monkeypatch, phi_d, row):
        # stretching the matrices of flux 2/7 in its denominator's batch, H
        # at the probe momenta (phi_d = 0.3) or J at one edge momentum
        # (-pi/2), fails its own containment or overlap check: only that
        # flux takes the dense scan, its siblings keep their batched edges,
        # and the sweep colors it as before
        cfg = ButterflyConfig(q_max=7, phi_d=phi_d)
        good = build_diagram(cfg)
        builder = "jacobi_batch" if phi_d == PHI_D_SYMMETRIC else "hamiltonian_batch"
        batch = getattr(spectrum, builder)
        dense = []

        def stretched(models, k1, k2):
            H = batch(models, k1, k2)
            if isinstance(models, list) and len(models) > 1 and models[0].q == 7:
                H[1, row] *= 3.0  # models[1] is 2/7
            return H

        def spy(model):
            dense.append((model.flux.p, model.q))
            return compute_bands_dense(model)

        monkeypatch.setattr(spectrum, builder, stretched)
        monkeypatch.setattr(butterfly, "compute_bands_dense", spy)
        diagram = build_diagram(cfg)
        assert dense == [(2, 7)] and not diagram.failures
        assert [r for r in diagram.records if (r.p, r.q) != (2, 7)] == \
            [r for r in good.records if (r.p, r.q) != (2, 7)]
        fell_back, batched = diagram.records_for(2, 7), good.records_for(2, 7)
        assert [(r.closed, r.chern, r.chern_source) for r in fell_back] == \
            [(r.closed, r.chern, r.chern_source) for r in batched]
        assert max(abs(a.hi - b.hi) for a, b in zip(fell_back[:-1], batched)) <= 1e-6

    def test_failed_batch_retries_each_flux(self, monkeypatch):
        # a LinAlgError from the batched eigensolve of a denominator sends
        # its fluxes to compute_bands one by one: no flux fails, and one
        # that fails alone fails alone
        cfg = ButterflyConfig(q_max=7, phi_d=0.3)
        good = build_diagram(cfg)
        eigvalsh, compute_one = np.linalg.eigvalsh, butterfly.compute_bands
        retried = []

        def fails_on_batches(a):
            if np.ndim(a) == 4 and len(a) > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a)

        def alone(model):
            retried.append((model.flux.p, model.q))
            return compute_one(model)

        monkeypatch.setattr(np.linalg, "eigvalsh", fails_on_batches)
        monkeypatch.setattr(butterfly, "compute_bands", alone)
        diagram = build_diagram(cfg)
        assert not diagram.failures
        assert sorted(retried) == sorted((f.p, f.q) for f in enumerate_fluxes(7) if f.q > 2)
        assert [r[:4] + r[7:] for r in diagram.records] == [r[:4] + r[7:] for r in good.records]
        assert max(abs(a.hi - b.hi) for a, b in zip(diagram.records, good.records)
                   if b.j < b.q) <= 1e-12

        def fails_for_2_7(model):
            if (model.flux.p, model.q) == (2, 7):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return compute_one(model)

        monkeypatch.setattr(butterfly, "compute_bands", fails_for_2_7)
        diagram = build_diagram(cfg)
        assert diagram.failures == ((2, 7, "LinAlgError: Eigenvalues did not converge"),)
        assert [r for r in diagram.records if r.q == 7] == \
            [r for r in good.records if r.q == 7 and r.p != 2]
        # the one-flux case, its batch of one failing too, raises the
        # reason the sweep records
        def batch_of_one_fails(models):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(butterfly, "denominator_bands", batch_of_one_fails)
        with pytest.raises(RuntimeError, match="^flux 2/7 failed: LinAlgError: Eigenvalues"):
            butterfly.flux_records(2, 7, cfg)

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
                                       (3, 8, (0.5, 1.6, 1.1))] +
                             [(1, q, (1.0, 1.0, 1.0)) for q in (3, 4, 7, 8)] +
                             [(1, q, (1.0, 0.8, 0.6)) for q in (3, 4, 5, 7, 8)])
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


    @pytest.mark.parametrize("phi_d,t", [(PHI_D_SYMMETRIC, (1, 1, 1)), (0.0, (1, 1, 0)),
                                         (0.3, (1, 1, 1)), (0.3, (1, 0.8, 0.6))])
    def test_one_batched_eigensolve(self, monkeypatch, phi_d, t):
        # both edge momenta in one jacobi_batch and one eigvalsh (the probes
        # of searched edges in one hamiltonian_batch), with the bands of one
        # eigensolve of J per edge momentum
        for p, q in [(1, 3), (2, 5), (3, 8), (5, 12)]:
            model = HofstadterModel(Flux(p, q), phi_d, *t)
            expected = [np.linalg.eigvalsh(jacobi_batch(model, *k))
                        for k in band_edge_kpoints(model)]
            calls = []
            for name, builder in (("jacobi_batch", jacobi_batch),
                                  ("hamiltonian_batch", hamiltonian_batch)):
                monkeypatch.setattr(spectrum, name, lambda *a, name=name, builder=builder:
                                    calls.append(name) or builder(*a))
            monkeypatch.setattr(spectrum, "build_hamiltonian", None)
            bands = compute_bands(model).bands
            monkeypatch.undo()
            probed = phi_d == 0.3
            assert calls == ["jacobi_batch"] + ["hamiltonian_batch"] * probed
            assert bands == tuple(zip(np.min(expected, axis=0).tolist(),
                                      np.max(expected, axis=0).tolist()))

    @pytest.mark.parametrize("phi_d,t", [(PHI_D_SYMMETRIC, (1, 1, 1)), (0.3, (1, 0.8, 0.6))])
    def test_one_batched_eigensolve_per_denominator(self, monkeypatch, phi_d, t):
        # every flux p/q of one q at the shared edge momenta: one float64 J
        # stack of shape (phi(q), 2, q, q), plus one complex H stack of the
        # same shape at the probes of searched edges, one eigvalsh each,
        # and each flux's bands exactly those it has alone
        def spy(builder):
            def built(*a):
                out = builder(*a)
                stacks.append((builder.__name__, out.dtype, out.shape))
                return out
            return built

        for q in (5, 8, 12):
            models = coprime_models(q, phi_d, t)
            stacks = []
            monkeypatch.setattr(spectrum, "jacobi_batch", spy(jacobi_batch))
            monkeypatch.setattr(spectrum, "hamiltonian_batch", spy(hamiltonian_batch))
            los, his, errors = denominator_bands(models)
            spectra = [tuple(zip(lo, hi)) for lo, hi in zip(los.tolist(), his.tolist())]
            shape = (len(models), 2, q, q)
            assert stacks == [("jacobi_batch", np.float64, shape)] + \
                [("hamiltonian_batch", np.complex128, shape)] * (phi_d != PHI_D_SYMMETRIC)
            assert errors == [None] * len(models)
            for model, bands in zip(models, spectra):
                assert bands == compute_bands(model).bands
            # stacks over EDGE_STACK_BYTES go in slices that fit, here one
            # flux each, with the same bands
            stacks = []
            monkeypatch.setattr(spectrum, "EDGE_STACK_BYTES", 1)
            sliced = denominator_bands(models)
            monkeypatch.undo()
            assert [s[2][0] for s in stacks] == [1] * len(stacks)
            assert len(stacks) == len(models) * (1 + (phi_d != PHI_D_SYMMETRIC))
            assert np.array_equal(sliced[0], los) and np.array_equal(sliced[1], his)


def within_rounding(a, b):
    return bool((np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))).all())


class TestRealEdges:
    """jacobi_batch: H in the gauge that makes it a real symmetric periodic
    Jacobi matrix, exact where the loop phase of the hops is real."""

    MODELS = [(PHI_D_SYMMETRIC, (1.0, 1.0, 1.0)), (PI / 2, (1.0, 0.8, 0.6)),
              (0.3, (1.0, 1.0, 1.0)), (0.3, (1.0, 0.8, 0.6)), (0.3, (1.0, 1.0, 0.0))]

    @pytest.mark.parametrize("phi_d,t", MODELS)
    def test_complex_eigensolve_at_edge_momenta(self, phi_d, t):
        for q in range(1, 41):
            models = coprime_models(q, phi_d, t)
            k = tuple(zip(*band_edge_kpoints(models[0])))
            assert within_rounding(np.linalg.eigvalsh(jacobi_batch(models, *k)),
                                   np.linalg.eigvalsh(hamiltonian_batch(models, *k))), q

    @pytest.mark.parametrize("q", [1, 2])
    def test_small_q_at_every_momentum(self, q):
        # no loop is left at q <= 2: J is H in a gauge at any momentum
        rng = np.random.default_rng(q)
        for phi_d, t in self.MODELS:
            models = coprime_models(q, phi_d, t)
            k = rng.uniform(-PI, PI, (2, 16))
            assert within_rounding(np.linalg.eigvalsh(jacobi_batch(models, *k)),
                                   np.linalg.eigvalsh(hamiltonian_batch(models, *k)))

    def test_gauge_identity_off_the_real_axis(self):
        # at generic momenta the loop phase L of the hops sits at an angle
        # theta off the real axis, and J is H(k1, k2 - theta/q) in the gauge
        rng = np.random.default_rng(5)
        for phi_d, t in self.MODELS:
            for q in range(3, 25):
                for model in coprime_models(q, phi_d, t)[:3]:
                    k1, k2 = rng.uniform(-PI, PI, (2, 8))
                    hops = hamiltonian_batch(model, k1, k2)[:, np.arange(q), np.arange(q) - 1]
                    loop = np.prod(hops / np.abs(hops), axis=-1)
                    theta = np.angle(loop * np.sign(loop.real))
                    assert np.abs(theta).max() > 0.1, (model, theta)
                    shifted = hamiltonian_batch(model, k1, k2 - theta / q)
                    assert within_rounding(np.linalg.eigvalsh(jacobi_batch(model, k1, k2)),
                                           np.linalg.eigvalsh(shifted)), model

    def test_zero_hoppings_give_no_signed_zeros(self):
        for q in range(1, 8):
            los, his, _ = denominator_bands(coprime_models(q, 0.3, (0.0, 0.0, 0.0)))
            for lo, hi in zip(los.tolist(), his.tolist()):
                assert [math.copysign(1.0, x) for x in lo + hi] == [1.0] * 2 * q


def loop_gaps(bands, eps_gap):
    """Reference (lo, hi, width, closed) of gaps j = 0..q, one at a time
    in Python floats, as compute_gaps made them before gap_table."""
    gaps = [(-math.inf, bands[0][0], math.inf, False)]
    for j in range(1, len(bands)):
        lo, hi = bands[j - 1][1], bands[j][0]
        width = max(hi - lo, 0.0)
        gaps.append((lo, hi, width, width < eps_gap))
    return gaps + [(bands[-1][1], math.inf, math.inf, False)]


class TestComputeGaps:
    @pytest.mark.parametrize("eps_gap", [0.0, 1e-8, 0.3])
    def test_gap_table_matches_loop(self, eps_gap):
        # random rows of edges with touching, overlapping and zero bands
        rng = np.random.default_rng(5)
        for q in (1, 2, 3, 8):
            edges = np.sort(rng.choice([-1.0, 0.0, 0.25, 1.0, 2.0], size=(6, 2 * q)), axis=1)
            los, his = edges[:, 0::2], edges[:, 1::2]
            his[1] = los[1]                                # bands of zero width
            los[2, 1:] = his[2, :-1] - 0.125               # overlapping bands
            los[3, 0], his[3, -1] = -math.inf, math.inf    # infinite outer edges
            table = [x.tolist() for x in gap_table(los, his, eps_gap)]
            for f in range(len(los)):
                bands = list(zip(los[f].tolist(), his[f].tolist()))
                assert list(zip(*(column[f] for column in table))) == \
                    loop_gaps(bands, eps_gap)

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

    @pytest.mark.parametrize("eps_gap", [math.nan, -1e-9, math.inf])
    def test_unusable_eps_gap(self, eps_gap):
        # NaN or a negative eps_gap flagged the closed gap 2 of 1/3 open
        spec = compute_bands(HofstadterModel(Flux(1, 3), PHI_D_SYMMETRIC))
        with pytest.raises(ValueError, match="eps_gap must be finite and >= 0"):
            compute_gaps(spec, eps_gap)
        with pytest.raises(ValueError, match="eps_gap must be finite and >= 0"):
            certify_gap(spec.model, 2, eps_gap=eps_gap)

    def test_record_count_and_widths(self):
        rng = np.random.default_rng(23)
        models = [HofstadterModel(Flux(p, q), PI / 2) for p, q in [(1, 2), (2, 5), (5, 13)]]
        models += [HofstadterModel(Flux(p, q), float(rng.uniform(-PI, PI)))
                   for q in range(2, 14) for p in range(1, q) if math.gcd(p, q) == 1]
        for model in models:
            gaps = compute_gaps(compute_bands(model))
            assert len(gaps) == model.q + 1
            assert all(g.width >= 0 for g in gaps)
            assert math.isinf(gaps[0].width) and math.isinf(gaps[-1].width)


class TestGapRecord:
    def test_fields_and_defaults(self):
        rec = GapRecord(2, 5, PHI_D_SYMMETRIC, 1, -2.0, -1.5, 0.5, False)
        assert GapRecord._fields == ("p", "q", "phi_d", "j", "lo", "hi", "width",
                                     "closed", "chern", "chern_source")
        assert (rec.chern, rec.chern_source) == (None, "unresolved")

    def test_equality_and_hashing(self):
        a = GapRecord(2, 5, PHI_D_SYMMETRIC, 1, -2.0, -1.5, 0.5, False, -2, "edge_winding")
        b = GapRecord(2, 5, PHI_D_SYMMETRIC, 1, -2.0, -1.5, 0.5, False, -2, "edge_winding")
        c = GapRecord(2, 5, PHI_D_SYMMETRIC, 1, -2.0, -1.5, 0.5, False, 3, "edge_winding")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2
        with pytest.raises(AttributeError):
            a.chern = 3

    def test_replace(self):
        rec = GapRecord(2, 5, PHI_D_SYMMETRIC, 1, -2.0, -1.5, 0.5, False)
        colored = rec._replace(chern=-2, chern_source="window_triangular")
        assert type(colored) is GapRecord
        assert colored[:8] == rec[:8]
        assert (colored.chern, colored.chern_source) == (-2, "window_triangular")
        assert (rec.chern, rec.chern_source) == (None, "unresolved")


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

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from hofbutter import chern, spectrum
from hofbutter import (
    Flux,
    GapClosed,
    HofstadterModel,
    PHI_D_SYMMETRIC,
    band_chern_fhs,
    band_chern_transport,
    certify_gap,
    chern_bound,
    compute_bands,
    compute_gaps,
    gap_chern_table,
    gap_residue_transport,
)
from hofbutter.spectrum import compute_bands_or_dense

PI = math.pi

SQUARE_13 = HofstadterModel(Flux(1, 3), t3=0.0)

# frozen ground truth at phi_d = -pi/2, cross-checked by three independent
# routes: FHS plaquette sums, edge-state winding and Streda wing continuity
TRIANGULAR_TABLES = {
    (2, 5): {1: -2, 2: 1, 3: -1, 4: 2},
    (3, 7): {1: -2, 2: -4, 3: 1, 4: -1, 5: 4, 6: 2},
    (4, 9): {1: -2, 2: -4, 3: 3, 4: 1, 5: -1, 6: 6, 7: 4, 8: 2},
    (1, 5): {1: 1, 2: 2, 3: 3, 4: -1},
    (5, 13): {1: -5, 2: 3, 3: -2, 4: -7, 5: 1, 6: 9,
              7: 4, 8: -1, 9: 7, 10: 2, 11: -3, 12: 5},
    (6, 13): {1: -2, 2: -4, 3: -6, 4: -8, 5: 3, 6: 1,
              7: -1, 8: -3, 9: 8, 10: 6, 11: 4, 12: 2},
}


class TestBandChernFHS:
    def test_q1_zero(self):
        res = band_chern_fhs(HofstadterModel(Flux(1, 1), 0.5), 1)
        assert res.value == 0

    def test_square_13_bands(self):
        values = [band_chern_fhs(SQUARE_13, n).value for n in (1, 2, 3)]
        assert values == [1, -2, 1]

    def test_residual_and_grid_reported(self):
        res = band_chern_fhs(SQUARE_13, 1, grid=16)
        assert res.grid >= 16
        assert res.residual <= 0.05
        res = band_chern_fhs(HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC), 1, grid=32)
        assert res.grid >= 32
        assert res.residual <= 1e-6

    @pytest.mark.parametrize("model, n", [
        (HofstadterModel(Flux(1, 12), t3=0.0), 6),
        (HofstadterModel(Flux(1, 12), t3=0.0), 7),
        (HofstadterModel(Flux(1, 3), PHI_D_SYMMETRIC), 2),
    ], ids=["square-1-12-band6", "square-1-12-band7", "1-3-band2"])
    def test_touching_band_refused(self, model, n):
        # square 1/12 bands 6 and 7 touch at E = 0 between the grid points,
        # where each band's own field strength sums to -11 at grid 64
        with pytest.raises(GapClosed):
            band_chern_fhs(model, n)

    @pytest.mark.parametrize("model, sigma", [(SQUARE_13, {1: 1, 2: -1})] + [
        (HofstadterModel(Flux(*pq), PHI_D_SYMMETRIC), table)
        for pq, table in sorted(TRIANGULAR_TABLES.items())],
        ids=["square-1-3"] + [f"{p}-{q}" for p, q in sorted(TRIANGULAR_TABLES)])
    def test_band_is_difference_of_gaps(self, model, sigma):
        sigma = {0: 0, **sigma, model.q: 0}
        for n in range(1, model.q + 1):
            assert band_chern_fhs(model, n).value == sigma[n] - sigma[n - 1]


def _random_unitaries(rng, n, q):
    z = rng.normal(size=(n, q, q)) + 1j * rng.normal(size=(n, q, q))
    return np.linalg.qr(z)[0]


def _det_minors(u, m):
    return np.stack([np.linalg.det(u[..., :j, :j]) for j in range(1, m + 1)])


class TestLeadingMinors:
    @pytest.mark.parametrize("q", [1, 2, 5, 9, 14])
    def test_equal_det(self, q):
        # 1,500 grid points: more than one elimination pass
        u = _random_unitaries(np.random.default_rng(100 + q), 1500, q).reshape(50, 30, q, q)
        for m in {1, q - 1, q} - {0}:
            minors = chern._leading_minors(u, m)
            assert minors.shape == (m, 50, 30)
            assert np.abs(minors - _det_minors(u, m)).max() <= 1e-13

    def test_tiny_pivot_falls_back_to_det(self, monkeypatch):
        u = _random_unitaries(np.random.default_rng(7), 1200, 6)
        u[3, 0, 0] = 0.0
        u[1100, 0, 0] = 1e-13
        handed = []
        det = np.linalg.det

        def spy(a):
            handed.append(a.shape)
            return det(a)

        monkeypatch.setattr(chern.np.linalg, "det", spy)
        with np.errstate(all="raise"):  # 1 stands in for the tiny pivots
            minors = chern._leading_minors(u, 6)
        # only the two guarded points reach det, once per minor size
        assert handed == [(2, j, j) for j in range(1, 7)]
        monkeypatch.undo()
        assert np.isfinite(minors).all()
        assert np.abs(minors - _det_minors(u, 6)).max() <= 1e-13

    def test_last_pivot_needs_no_guard(self, monkeypatch):
        u = _random_unitaries(np.random.default_rng(8), 20, 4)
        u[5, 2, :3] = u[5, 0, :3] + u[5, 1, :3]  # minor 3 vanishes; its pivot is never divided by
        monkeypatch.setattr(chern.np.linalg, "det", None)
        minors = chern._leading_minors(u, 3)
        monkeypatch.undo()
        assert np.abs(minors - _det_minors(u, 3)).max() <= 1e-13

    def test_non_leading_block(self):
        u = _random_unitaries(np.random.default_rng(9), 50, 8)
        a, b = 3, 7
        minors = chern._leading_minors(u[..., a:, a:], b - a)
        assert np.abs(minors[-1] - np.linalg.det(u[..., a:b, a:b])).max() <= 1e-13


class TestGapChern:
    def test_trivial_gaps(self):
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        assert certify_gap(model, 0).value == 0
        assert certify_gap(model, 5).value == 0

    def test_square_13_gaps(self):
        assert certify_gap(SQUARE_13, 1).value == 1
        assert certify_gap(SQUARE_13, 2).value == -1

    @pytest.mark.parametrize("pq", sorted(TRIANGULAR_TABLES))
    def test_frozen_tables(self, pq):
        model = HofstadterModel(Flux(*pq), PHI_D_SYMMETRIC)
        gaps = compute_gaps(compute_bands(model))
        table = {j: r.value for j, r in gap_chern_table(model, gaps).items()}
        assert table == TRIANGULAR_TABLES[pq]

    def test_closed_gap_below_open_ones(self):
        # square 1/4: bands 2 and 3 touch at E = 0, so gap 2 is closed and
        # gap 3's block holds a touching; the values and grids are those
        # that np.linalg.det of each block gives
        model = HofstadterModel(Flux(1, 4), t3=0.0)
        gaps = compute_gaps(compute_bands(model))
        assert [r.j for r in gaps if r.closed] == [2]
        table = gap_chern_table(model, gaps)
        assert {j: (r.value, r.grid) for j, r in table.items()} == {1: (1, 64), 3: (-1, 64)}
        assert all(r.residual <= 1e-14 for r in table.values())

    def test_only_gap_j_certified(self, monkeypatch):
        handed = []
        certify = chern._certify

        def spy(model, blocks, grid):
            handed.append(blocks)
            return certify(model, blocks, grid)

        monkeypatch.setattr(chern, "_certify", spy)
        res = certify_gap(HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC), 1)
        assert handed == [{1: (0, 1)}]
        assert (res.value, res.grid) == (-2, 64)

    def test_closed_gap_refused(self):
        model = HofstadterModel(Flux(1, 3), PHI_D_SYMMETRIC)
        with pytest.raises(GapClosed):
            certify_gap(model, 2)

    @pytest.mark.parametrize("grid", [0, -8])
    def test_unusable_grid_refused(self, grid):
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        gaps = compute_gaps(compute_bands(model))
        for certify in (lambda: certify_gap(model, 1, grid),
                        lambda: band_chern_fhs(model, 1, grid),
                        lambda: gap_chern_table(model, gaps, grid)):
            with pytest.raises(ValueError, match="grid must be >= 1"):
                certify()

    def test_transport_method_refused(self):
        # transport pins only the residue mod q; the integer is FHS's
        assert gap_residue_transport(SQUARE_13, 1) == certify_gap(SQUARE_13, 1).value % 3


class TestTransport:
    def test_q1_trivial(self):
        res = band_chern_transport(HofstadterModel(Flux(1, 1), 1.0), 1)
        assert res.holonomy_phase == 0.0
        assert res.chern_mod_q == 0

    def test_25_holonomy(self):
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        for band in range(1, 6):
            res = band_chern_transport(model, band)
            assert res.chern_mod_q == 3  # s = 3 for p = 2 mod 5
            assert res.phase_residual <= 1e-6

    def test_square_13_band1_matches_fhs(self):
        res = band_chern_transport(SQUARE_13, 1)
        assert res.chern_mod_q == 1
        assert res.chern_mod_q == band_chern_fhs(SQUARE_13, 1).value % 3

    @pytest.mark.parametrize("steps", [0, -4])
    def test_unusable_steps_refused(self, steps):
        # steps 0 once returned residue 0 for square 1/3 band 1, whose residue is 1
        for model in (SQUARE_13, HofstadterModel(Flux(1, 1))):
            with pytest.raises(ValueError, match="steps must be >= 1"):
                band_chern_transport(model, 1, steps)

    def test_gap_residue(self):
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        assert gap_residue_transport(model, 2) == (3 * 2) % 5
        assert gap_residue_transport(model, 0) == 0

    @pytest.mark.parametrize("target", [
        lambda m: band_chern_transport(m, 2),
        lambda m: band_chern_transport(m, 3),
        lambda m: gap_residue_transport(m, 2),
    ])
    def test_closed_bounding_gap_refused(self, target):
        # gap 2 of 1/3 has width 1.8e-15, as FHS refuses it
        with pytest.raises(GapClosed, match="^gap 2 of 1/3 has width "):
            target(HofstadterModel(Flux(1, 3), PHI_D_SYMMETRIC))

    def test_gap_residue_needs_every_gap_below_open(self):
        # square 1/12: gap 7 is open, but bands 6 and 7 touch at gap 6
        model = HofstadterModel(Flux(1, 12), t3=0.0)
        assert not compute_gaps(compute_bands(model))[7].closed
        with pytest.raises(GapClosed, match="^gap 6 of 1/12 has width "):
            gap_residue_transport(model, 7)
        with pytest.raises(GapClosed, match="^gap 6 of 1/12 has width "):
            band_chern_transport(model, 6)

    @pytest.mark.parametrize("j", [-1, 6, 7])
    def test_gap_residue_index_out_of_range(self, j):
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        with pytest.raises(ValueError, match=f"^gap index {j} outside 0..5$"):
            gap_residue_transport(model, j)


class TestChernBound:
    def test_trivial_gap(self):
        assert chern_bound(0, 5, math.inf) == 0.0
        assert chern_bound(5, 5, 2.0) == 0.0

    def test_reference_value(self):
        # 4*pi*36*j*(q-j)/(q*g^2) at (q=5, j=2, g=2): 43.2*pi
        assert abs(chern_bound(2, 5, 2.0) - 43.2 * PI) < 1e-12

    def test_rejects_closed_gap(self):
        with pytest.raises(ValueError):
            chern_bound(2, 5, 0.0)

    def test_bound_holds_on_frozen_tables(self):
        for (p, q), table in TRIANGULAR_TABLES.items():
            gaps = compute_gaps(compute_bands(
                HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)))
            for j, sigma in table.items():
                assert abs(sigma) <= chern_bound(j, q, gaps[j].width)


class TestCrossChecks:
    def test_method_agreement(self):
        models = [SQUARE_13] + [HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)
                                for p, q in [(1, 4), (2, 5), (3, 7)]]
        for model in models:
            for n in range(1, model.q + 1):
                fhs = band_chern_fhs(model, n).value
                assert band_chern_transport(model, n).chern_mod_q == fhs % model.q

    def test_band_cherns_sum_to_zero(self):
        for p, q in [(1, 4), (2, 5), (3, 7)]:
            model = HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)
            assert sum(band_chern_fhs(model, n).value for n in range(1, q + 1)) == 0

    def test_diophantine_identity(self):
        for (p, q), table in TRIANGULAR_TABLES.items():
            s = Flux(p, q).s
            for j, sigma in table.items():
                assert (sigma - s * j) % q == 0

    def test_inversion_pairing_equal_values(self):
        # gap j at flux p/q matches gap q-j at flux (q-p)/q with the SAME sigma
        for (p, q) in [(2, 5), (4, 9)]:
            a = TRIANGULAR_TABLES.get((p, q))
            model_b = HofstadterModel(Flux(q - p, q), PHI_D_SYMMETRIC)
            gaps_b = compute_gaps(compute_bands(model_b))
            b = {j: r.value for j, r in gap_chern_table(model_b, gaps_b).items()}
            for j, sigma in a.items():
                assert b[q - j] == sigma


REFERENCE_CHERN = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                               "perfbench", "reference_chern.json")


def _edge_table(model):
    return chern.edge_chern_table(model, compute_gaps(compute_bands_or_dense(model)))


class TestEdgeWinding:
    """Edge-state winding against FHS tables computed without the program,
    against FHS itself, and against the exact inversion symmetry."""

    def test_reference_table(self, monkeypatch):
        # every gap of the three benchmark models, 1,607 in all, among them
        # 7/15 j = 5 (sigma = -10) and the anisotropic 3/8 j = 4, which no
        # FHS grid up to 256 of the program certifies; the roots come
        # without eigenvectors, and no step divides by zero, overflows or
        # underflows
        def no_eigenvectors(*args):
            raise AssertionError("np.linalg.eig called")

        monkeypatch.setattr(np.linalg, "eig", no_eigenvectors)
        with open(REFERENCE_CHERN) as fh:
            models = json.load(fh)["models"]
        checked = 0
        for spec in models.values():
            for key, entry in spec["fluxes"].items():
                p, q = map(int, key.split("/"))
                with np.errstate(all="raise"):
                    table = _edge_table(HofstadterModel(Flux(p, q), spec["phi_d"], *spec["t"]))
                assert {str(j): r.value for j, r in table.items()} == entry["sigma"], key
                checked += len(entry["sigma"])
        assert checked == 1607

    @pytest.mark.parametrize("phi_d,t,value", [(PHI_D_SYMMETRIC, (1.0, 1.0, 1.0), 1),
                                               (PI / 2, (1.0, 0.8, 0.6), -1)])
    def test_one_row_chain(self, phi_d, t, value):
        # 1/2 cuts to a 1 x 1 chain, whose roots eigvals may give exactly
        res = chern.edge_chern(HofstadterModel(Flux(1, 2), phi_d, *t), (1,))[1]
        assert res.value == value and res.crossings == (1, 1, 1)

    @pytest.mark.parametrize("hopping", ["t2", "t3"])
    def test_equals_fhs_without_a_hopping(self, hopping):
        # t2 = 0 makes A singular: the disk automorphism keeps the pencil's
        # leading coefficient invertible; t3 = 0 is the square model
        for q in range(2, 10):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                model = HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC, **{hopping: 0.0})
                gaps = compute_gaps(compute_bands_or_dense(model))
                fhs = {j: r.value for j, r in gap_chern_table(model, gaps).items()}
                edge = {j: r.value for j, r in chern.edge_chern_table(model, gaps).items()}
                assert edge == fhs, f"{p}/{q}"

    def test_pencil_is_the_dirichlet_cut(self):
        rng = np.random.default_rng(7)
        for (p, q), phi_d, t in [((2, 5), PHI_D_SYMMETRIC, (1.0, 1.0, 1.0)),
                                 ((3, 8), 0.3, (1.0, 0.8, 0.6)),
                                 ((4, 11), 1.1, (0.7, 0.0, 1.3))]:
            model = HofstadterModel(Flux(p, q), phi_d, *t)
            A, B = chern.edge_pencil(model)
            for k1, k2 in rng.uniform(-PI, PI, (5, 2)):
                z = np.exp(1j * k1)
                D = z * A + B + A.conj().T / z
                H = chern.build_hamiltonian(model, (k1, k2))
                assert np.abs(D - D.conj().T).max() <= 1e-14
                assert np.allclose(np.linalg.eigvalsh(D), np.linalg.eigvalsh(H[1:, 1:]),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("phi_d,t", [(PHI_D_SYMMETRIC, (1.0, 1.0, 1.0)),
                                         (PI / 2, (1.0, 0.8, 0.6))])
    def test_inversion_partners_computed_apart(self, phi_d, t):
        # sigma_j((q-p)/q) = sigma_(q-j)(p/q), each flux from its own pencil
        for q in range(2, 22):
            for p in range(1, (q + 1) // 2):
                if math.gcd(p, q) != 1:
                    continue
                a = _edge_table(HofstadterModel(Flux(p, q), phi_d, *t))
                b = _edge_table(HofstadterModel(Flux(q - p, q), phi_d, *t))
                assert sorted(q - j for j in b) == sorted(a), f"{p}/{q}"
                for j, res in a.items():
                    assert res.value is not None and res.value == b[q - j].value, \
                        f"{p}/{q} gap {j}"

    def test_singular_pencil_is_gray(self, monkeypatch):
        # without the disk automorphism (a = 0) the leading coefficient is
        # A, which is singular at t2 = 0
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC, t2=0.0)
        assert all(r.value is not None for r in _edge_table(model).values())
        monkeypatch.setattr(chern, "EDGE_SHIFT", 0j)
        table = _edge_table(model)
        assert table and all(r.value is None and r.reason == "singular pencil"
                             for r in table.values())

    def test_singular_pencil_stays_with_its_flux(self, monkeypatch):
        # without the disk automorphism the leading coefficient is A; 3/7
        # with no t2 term has a singular one, which fails the batched solve
        # of every slice it is in: only 3/7 is gray, and its neighbours get
        # their own tables, at one slice per denominator and at one row each
        monkeypatch.setattr(chern, "EDGE_SHIFT", 0j)
        models = [HofstadterModel(Flux(p, 7), PHI_D_SYMMETRIC) for p in range(1, 7)]
        gaps = [compute_gaps(compute_bands_or_dense(m)) for m in models]
        alone = [chern.edge_chern_table(m, g) for m, g in zip(models, gaps)]
        hopping_terms = chern._hopping_terms

        def no_t2(model):
            M1, M2, M3 = hopping_terms(model)
            return (M1, M2, 0 * M3) if model.flux.p == 3 else (M1, M2, M3)

        monkeypatch.setattr(chern, "_hopping_terms", no_t2)
        for budget in (spectrum.EDGE_STACK_BYTES, 1):
            monkeypatch.setattr(spectrum, "EDGE_STACK_BYTES", budget)
            tables = chern.denominator_edge_chern(models, gaps)
            assert sorted(tables[2]) == sorted(alone[2]) and all(
                r == chern.EdgeResult(j, None, (), (), 0.0, "singular pencil")
                for j, r in tables[2].items())
            assert tables[:2] + tables[3:] == alone[:2] + alone[3:]
            assert all(r.value is not None for t in alone for r in t.values())

    @pytest.mark.parametrize("phi_d,t", [(PHI_D_SYMMETRIC, (1.0, 1.0, 1.0)),
                                         (0.3, (1.0, 0.8, 0.6))])
    def test_one_matrix_per_slice(self, monkeypatch, phi_d, t):
        # a budget of one byte leaves one companion per slice and one root
        # per polish pass; every result is the same, field by field, as is
        # each flux's table alone
        for q in (5, 9, 12):
            models = [HofstadterModel(Flux(p, q), phi_d, *t)
                      for p in range(1, q) if math.gcd(p, q) == 1]
            gaps = [compute_gaps(compute_bands_or_dense(m)) for m in models]
            tables = chern.denominator_edge_chern(models, gaps)
            assert tables == [chern.edge_chern_table(m, g) for m, g in zip(models, gaps)]
            with monkeypatch.context() as m:
                m.setattr(spectrum, "EDGE_STACK_BYTES", 1)
                assert chern.denominator_edge_chern(models, gaps) == tables

    def test_large_table_stays_within_the_budget(self):
        # the 2/31 table holds 84 companions of 60 x 60 and 1,853 near roots;
        # solved in slices, its peak stays within twice the byte budget (it
        # was 18.9 MB as one stack)
        model = HofstadterModel(Flux(2, 31), PHI_D_SYMMETRIC)
        gaps = compute_gaps(compute_bands_or_dense(model))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = chern.edge_chern_table(model, gaps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # gap 3, 2.5e-8 wide, is one of the narrow gaps that stay gray
        assert len(table) == 28 and [j for j, r in table.items() if r.value is None] == [3]
        assert peak <= 2 * spectrum.EDGE_STACK_BYTES

    def test_exact_roots_keep_their_place(self, monkeypatch):
        # roots polished once are exact to the last bit, so P(z) is singular;
        # the pivot floor factors it and a second polish keeps every value
        polish = chern._polish_roots

        def twice(A, B, E, z):
            return polish(A, B, E, polish(A, B, E, z)[0])

        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        monkeypatch.setattr(chern, "_polish_roots", twice)
        with np.errstate(all="raise"):
            table = _edge_table(model)
        assert {j: r.value for j, r in table.items()} == TRIANGULAR_TABLES[(2, 5)]

    @pytest.mark.parametrize("p,q,j,phi_d,sigma", [(2, 23, 1, PHI_D_SYMMETRIC, -11),
                                                   (21, 23, 22, PHI_D_SYMMETRIC, -11),
                                                   (19, 21, 20, 0.3, -10),
                                                   (2, 21, 1, PI - 0.3, -10)])
    def test_narrow_gap_takes_a_second_step(self, p, q, j, phi_d, sigma):
        # gaps 2e-7 and 7.8e-7 wide whose slow crossings one Newton step
        # leaves between ON_CIRCLE_TOL and OFF_CIRCLE_TOL; in pairs of
        # inversion partners, the partner of p/q at phi_d being (q-p)/q at
        # pi - phi_d
        model = HofstadterModel(Flux(p, q), phi_d)
        gap = compute_gaps(compute_bands_or_dense(model))[j]
        assert chern.edge_chern_table(model, [gap])[j].value == sigma

    @pytest.mark.parametrize("b,root", [(-2.5, 2.0), (-2.0, 1.0)])
    def test_exact_root_of_a_one_row_pencil(self, b, root):
        # P(z) = z^2 + b z + 1 is exactly 0 at the root; at the double root
        # z = 1 also P'(z) = 0, and the 0/0 correction is skipped
        none = np.zeros((0, 1), complex)
        A, B = (none, np.ones((1, 1), complex), none), (none, np.full((1, 1), b + 0j), none)
        with np.errstate(all="raise"):
            z, x = chern._polish_roots(A, B, np.zeros(1), np.array([root + 0j]))
        assert abs(z[0] - root) <= 1e-14 and np.allclose(np.abs(x), 1.0)

    @pytest.mark.parametrize("name,value", [("ON_CIRCLE_TOL", 0.0),
                                            ("OFF_CIRCLE_TOL", 10.0),
                                            ("EDGE_SIDE_TOL", 10.0)])
    def test_forced_bad_margin_is_gray(self, monkeypatch, name, value):
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        monkeypatch.setattr(chern, name, value)
        table = _edge_table(model)
        assert sorted(table) == [1, 2, 3, 4]
        assert all(r.value is None and r.reason for r in table.values())

    def test_disagreeing_energies_are_gray(self):
        # a made-up gap whose energies at 1/4 and 3/4 lie in gaps 1 and 2 of
        # 2/5 (sigma -2 and 1); its middle energy lies in band 2
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        gaps = compute_gaps(compute_bands_or_dense(model))
        e1, e3 = [(gaps[j].lo + gaps[j].hi) / 2 for j in (1, 2)]
        width = 2 * (e3 - e1)
        fake = gaps[1]._replace(lo=e1 - width / 4, hi=e1 + 3 * width / 4, width=width)
        res = chern.edge_chern_table(model, [fake])[1]
        assert res.value is None and res.reason

    def test_wrong_residue_is_gray(self):
        # gap 1's crossings handed in as gap 2: sigma_1 = -2 fails s*2 mod 5
        model = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
        gaps = compute_gaps(compute_bands_or_dense(model))
        res = chern.edge_chern_table(model, [gaps[1]._replace(j=2)])[2]
        assert res.value is None and "residue" in res.reason

    def test_closed_and_outer_gaps(self):
        model = HofstadterModel(Flux(1, 3), PHI_D_SYMMETRIC)
        gaps = compute_gaps(compute_bands_or_dense(model))
        assert gaps[2].closed and sorted(chern.edge_chern_table(model, gaps)) == [1]
        assert chern.edge_chern(model, (0, 3)) == {
            j: chern.EdgeResult(j, 0, (), (), math.inf) for j in (0, 3)}
        with pytest.raises(GapClosed):
            chern.edge_chern(model, (2,))


def _dense(dl, d, du):
    """The stacked dense matrices, (matrix, row, column), of row-first
    tridiagonals."""
    return np.stack([np.diag(d[:, r]) + np.diag(dl[:, r], -1) + np.diag(du[:, r], 1)
                     for r in range(d.shape[1])])


class TestTridiagonalSolve:
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_equals_dense_solve(self, n):
        # row-first stacks of m = 5 matrices; in two of them, for n > 1, the
        # leading pivot is zero, so the first step must swap rows
        rng = np.random.default_rng(n)
        dl, d, du, b = (rng.normal(size=(k, 5)) + 1j * rng.normal(size=(k, 5))
                        for k in (n - 1, n, n - 1, n))
        if n > 1:
            d[0, :2] = 0
        lu = chern._tridiagonal_lu(dl, d, du, np.zeros(5))
        x = chern._tridiagonal_solve(lu, b)
        expected = np.linalg.solve(_dense(dl, d, du), b.T[..., None])[..., 0].T
        assert np.allclose(x, expected, rtol=0, atol=1e-12)
        assert np.allclose(chern._tridiagonal_matvec(dl, d, du, x), b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_singular_matrix_gives_a_null_vector(self, n):
        # n = 1: P = 0; n = 2: [[1, 1], [1, 1]]; n = 8: column 3 is zero
        dl, d, du = np.ones(n - 1, complex), np.ones(n, complex), np.ones(n - 1, complex)
        if n == 1:
            d[0] = 0
        if n == 8:
            d = np.arange(1, 9) + 1j
            du[2] = d[3] = dl[3] = 0
        dl, d, du = dl[:, None], d[:, None], du[:, None]
        with np.errstate(all="raise"):
            lu = chern._tridiagonal_lu(dl, d, du, np.full(1, 1e-16))
            x = chern._unit(chern._back_substitute(lu, np.ones((n, 1), complex)))
        assert np.isfinite(x).all() and np.isclose(np.linalg.norm(x), 1.0)
        assert np.abs(chern._tridiagonal_matvec(dl, d, du, x)).max() <= 1e-12

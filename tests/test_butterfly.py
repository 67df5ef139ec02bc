import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hofbutter import (
    ButterflyConfig,
    Flux,
    HofstadterModel,
    PHI_D_SYMMETRIC,
    build_diagram,
    detect_coloring_errors,
    enumerate_fluxes,
    read_records_jsonl,
    write_records_jsonl,
)
from hofbutter import butterfly, chern
from hofbutter.render import read_ppm, render


class TestEnumerateFluxes:
    def test_qmax_1(self):
        assert enumerate_fluxes(1) == [Flux(1, 1)]

    def test_qmax_3(self):
        assert enumerate_fluxes(3) == [Flux(1, 3), Flux(1, 2), Flux(2, 3), Flux(1, 1)]

    def test_qmax_5_count_matches_gcd_scan(self):
        brute = {Fraction(p, q) for q in range(1, 6) for p in range(1, q + 1)
                 if math.gcd(p, q) == 1}
        fluxes = enumerate_fluxes(5)
        assert len(fluxes) == len(brute) == 10

    def test_sorted_and_distinct(self):
        values = [Fraction(f.p, f.q) for f in enumerate_fluxes(12)]
        assert values == sorted(values)
        assert len(values) == len(set(values))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ButterflyConfig(q_max=0)
        with pytest.raises(ValueError):
            ButterflyConfig(mu_bins=1)
        with pytest.raises(ValueError):
            ButterflyConfig(resolver="magic")

    def test_energy_clamp_default(self):
        assert ButterflyConfig().energy_clamp == 6.0
        assert ButterflyConfig(t3=0.0).energy_clamp == 4.0


class TestBuildDiagram:
    def test_single_flux(self):
        diagram = build_diagram(ButterflyConfig(q_max=1))
        assert len(diagram.records) == 2
        assert all(r.chern == 0 for r in diagram.records)
        assert not diagram.failures

    def test_computed_q5_matches_reference_sets(self, triangular_tables):
        diagram = build_diagram(ButterflyConfig(
            q_max=5, resolver="computed", computed_q_max=5))
        for (p, q) in [(1, 3), (2, 3), (2, 5), (3, 5)]:
            recs = diagram.records_for(p, q)
            got = {r.j: r.chern for r in recs
                   if 0 < r.j < q and not r.closed}
            assert got == triangular_tables[(p, q)].cherns

    def test_every_open_gap_resolved_or_marked(self):
        diagram = build_diagram(ButterflyConfig(q_max=7, resolver="triangular",
                                                computed_q_max=7))
        for rec in diagram.records:
            if rec.closed:
                continue
            assert (rec.chern is not None) != (rec.chern_source == "unresolved")

    def test_window_fallback_above_threshold(self):
        # odd q above the computed threshold stays unresolved under triangular
        diagram = build_diagram(ButterflyConfig(q_max=5, resolver="triangular",
                                                computed_q_max=2))
        recs = diagram.records_for(2, 5)
        interior = [r for r in recs if 0 < r.j < 5]
        assert all(r.chern is None and r.chern_source == "unresolved"
                   for r in interior)

    def test_determinism_across_jobs(self, tmp_path):
        # in the +pi/2 anisotropic sweep each flux above 1/2 waits in the
        # pool for its inversion partner's mirrored values
        for model in [{}, {"phi_d": math.pi / 2, "t2": 0.8, "t3": 0.6}]:
            cfg1 = ButterflyConfig(q_max=6, resolver="computed", computed_q_max=6,
                                   jobs=1, **model)
            cfg2 = replace(cfg1, jobs=2)
            d1, d2 = build_diagram(cfg1), build_diagram(cfg2)
            p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            write_records_jsonl(d1.records, p1)
            write_records_jsonl(d2.records, p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert render(d1.records, cfg1) == render(d2.records, cfg2)

    @pytest.mark.parametrize("resolver", ["computed", "triangular"])
    def test_one_fhs_call_and_one_spectrum_per_flux(self, monkeypatch, resolver):
        calls = {"table": 0, "spectrum": 0}
        compute_bands = butterfly.compute_bands

        def certifies_nothing(model, gaps, grid):
            calls["table"] += 1
            return {}

        def counted(model):
            calls["spectrum"] += 1
            return compute_bands(model)

        monkeypatch.setattr(chern, "gap_chern_table", certifies_nothing)
        for module in (butterfly, chern):
            monkeypatch.setattr(module, "compute_bands", counted)
        cfg = ButterflyConfig(resolver=resolver, computed_q_max=7)
        dicts, failure = butterfly._compute_flux((3, 7, cfg))
        assert failure is None
        assert calls == {"table": 1, "spectrum": 1}
        assert all(d["chern"] is None for d in dicts if 0 < d["j"] < 7)

    def test_resolver_tags(self):
        diagram = build_diagram(ButterflyConfig(q_max=4, resolver="triangular",
                                                computed_q_max=4))
        sources = {r.chern_source for r in diagram.records}
        assert "window_triangular" in sources  # even q colored by the window
        assert "computed_fhs" in sources       # odd q > 1 defers to computed


class TestDiagramSymmetry:
    def test_inversion_maps_records(self):
        # (E, sigma, j) -> (-E, sigma, q - j) between fluxes p/q and (q-p)/q.
        # The sweep mirrors the sigmas of p/q < 1/2 onto (q-p)/q, so those of
        # (q-p)/q are checked against FHS run on (q-p)/q itself.
        for phi_d, t in [(PHI_D_SYMMETRIC, (1.0, 1.0, 1.0)),
                         (math.pi / 2, (1.0, 0.8, 0.6))]:
            diagram = build_diagram(ButterflyConfig(
                q_max=7, phi_d=phi_d, t1=t[0], t2=t[1], t3=t[2],
                resolver="computed", computed_q_max=7))
            for f in enumerate_fluxes(7):
                p, q = f.p, f.q
                if 2 * p >= q:
                    continue
                recs = {r.j: r for r in diagram.records_for(p, q)}
                partner = {r.j: r for r in diagram.records_for(q - p, q)}
                for j, r in recs.items():
                    mate = partner[q - j]
                    assert mate.closed == r.closed
                    if not r.closed:
                        assert mate.chern == r.chern
                    for x, y in [(r.lo, -mate.hi), (r.hi, -mate.lo)]:
                        if math.isinf(x):
                            assert math.isinf(y)
                        else:
                            assert abs(x - y) <= 1e-10
                model = HofstadterModel(Flux(q - p, q), phi_d, *t)
                direct = chern.gap_chern_table(model, list(partner.values()))
                assert {j: r.chern for j, r in partner.items()
                        if 0 < j < q and r.chern is not None} == \
                    {j: res.value for j, res in direct.items()}

    @pytest.mark.parametrize("phi_d,expected", [
        # one call per inversion pair, from its flux <= 1/2; 1/2 is its own partner
        (PHI_D_SYMMETRIC, [(1, 5), (1, 4), (1, 3), (2, 5), (1, 2)]),
        # no inversion symmetry: one call per flux with interior gaps
        (0.3, [(1, 5), (1, 4), (1, 3), (2, 5), (1, 2), (3, 5), (2, 3), (3, 4), (4, 5)]),
    ])
    def test_one_fhs_call_per_inversion_pair(self, monkeypatch, phi_d, expected):
        calls = []
        gap_chern_table = chern.gap_chern_table

        def spy(model, gaps, grid):
            calls.append((model.flux.p, model.q))
            return gap_chern_table(model, gaps, grid)

        monkeypatch.setattr(chern, "gap_chern_table", spy)
        diagram = build_diagram(ButterflyConfig(q_max=5, phi_d=phi_d, resolver="computed",
                                                computed_q_max=5))
        assert calls == expected
        assert all(r.chern is not None for r in diagram.records if not r.closed)


class TestColoringErrors:
    def test_single_flux_empty(self):
        diagram = build_diagram(ButterflyConfig(q_max=1))
        assert detect_coloring_errors(diagram) == []

    def test_naive_windows_flagged(self):
        diagram = build_diagram(ButterflyConfig(q_max=5, resolver="triangular",
                                                exclusions=False))
        report = detect_coloring_errors(diagram)
        assert len(report) > 0
        involved = {(r.p, r.q) for pair in report
                    for r in (pair.rec_a, pair.rec_b)}
        assert (2, 5) in involved

    def test_flagged_pairs_differ(self):
        diagram = build_diagram(ButterflyConfig(q_max=5, resolver="triangular",
                                                exclusions=False))
        for pair in detect_coloring_errors(diagram):
            assert pair.rec_a.chern != pair.rec_b.chern

    def test_exact_data_alarms_differ_by_a_multiple_of_q(self, computed_diagram_13):
        # FHS colors every gap here, yet wing tips that die between adjacent
        # fluxes still alarm (criterion 11b); the two sigmas of each alarm
        # agree modulo the q of one of its fluxes
        pairs = detect_coloring_errors(computed_diagram_13)
        assert pairs
        for pair in pairs:
            a, b = pair.rec_a, pair.rec_b
            assert (a.chern - b.chern) % a.q == 0 or (a.chern - b.chern) % b.q == 0


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        diagram = build_diagram(ButterflyConfig(q_max=4, resolver="chain"))
        path = tmp_path / "records.jsonl"
        write_records_jsonl(diagram.records, path)
        assert read_records_jsonl(path) == list(diagram.records)

    def test_jsonl_one_record_per_line(self, tmp_path):
        diagram = build_diagram(ButterflyConfig(q_max=3))
        path = tmp_path / "records.jsonl"
        write_records_jsonl(diagram.records, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(diagram.records)

import gc
import io
import itertools
import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofbutter import (
    ButterflyConfig,
    Flux,
    GapRecord,
    HofstadterModel,
    PHI_D_SYMMETRIC,
    build_diagram,
    detect_coloring_errors,
    enumerate_fluxes,
    iter_flux_results,
    read_records_jsonl,
    resolve_in_window,
    solve_residue,
    sweep_to_jsonl,
    write_records_jsonl,
)
from hofbutter import butterfly, chern
from hofbutter.render import read_ppm, render
from hofbutter.spectrum import BandOverlapError, gap_to_dict


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

    def test_matches_gcd_scan_up_to_200(self):
        # the Farey walk gives the reduced fluxes of the gcd scan, in Fraction order
        brute = sorted(((p, q) for q in range(1, 201) for p in range(1, q + 1)
                        if math.gcd(p, q) == 1), key=lambda f: Fraction(*f))
        for n in range(1, 201):
            assert [(f.p, f.q) for f in enumerate_fluxes(n)] == \
                [f for f in brute if f[1] <= n]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ButterflyConfig(q_max=0)
        # a negative or non-finite hopping, or a non-finite phi_d, fails
        # every flux of a sweep, so the config refuses it
        for bad in ({"t1": -1.0}, {"t2": -1e-9}, {"t3": math.inf}, {"t1": math.nan},
                    {"phi_d": math.nan}, {"phi_d": math.inf}, {"phi_d": -math.inf}):
            with pytest.raises(ValueError):
                ButterflyConfig(**bad)
        with pytest.raises(ValueError):
            ButterflyConfig(mu_bins=1)
        with pytest.raises(ValueError):
            ButterflyConfig(height=0)
        with pytest.raises(ValueError):
            ButterflyConfig(resolver="magic")
        for bad in ({"jobs": 0}, {"jobs": -2}):
            with pytest.raises(ValueError):
                ButterflyConfig(**bad)
        # a non-finite row_scale failed in the render, after the sweep; a NaN
        # or negative eps_gap flagged every gap open
        for bad in ({"row_scale": math.nan}, {"row_scale": math.inf},
                    {"row_scale": -math.inf}, {"eps_gap": math.nan},
                    {"eps_gap": -1e-9}, {"eps_gap": math.inf}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ButterflyConfig(**bad)
        # a period of 0 rendered the default and a negative one reversed the hues
        for period in (0, -3):
            with pytest.raises(ValueError, match="colormap_period"):
                ButterflyConfig(colormap_period=period)
        assert ButterflyConfig(colormap_period=1).colormap_period == 1

    @pytest.mark.parametrize("resolver", butterfly.RESOLVERS)
    def test_reaches_edge(self, resolver):
        cfg = ButterflyConfig(q_max=20, resolver=resolver, computed_q_max=5)
        assert [q for q in range(1, 21) if cfg.reaches_edge(q)] == \
            (list(range(1, 21)) if resolver == "computed" else [1, 2, 3, 4, 5])

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

    def test_computed_sweep_equals_fhs(self, computed_diagram_13, triangular_tables):
        # the sweep's edge-state winding against FHS run on each flux, gap
        # for gap: every open interior gap colored, with FHS's value
        assert not computed_diagram_13.failures
        for (p, q), entry in triangular_tables.items():
            recs = computed_diagram_13.records_for(p, q)
            interior = [r for r in recs if 0 < r.j < q]
            assert [r.j for r in interior if r.closed] == entry.closed
            assert {r.j: r.chern for r in interior if not r.closed} == entry.cherns
            assert all(r.chern_source == "edge_winding" for r in interior if not r.closed)

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

    def test_determinism_across_jobs(self, tmp_path, monkeypatch):
        # jobs=1 maps the denominators in-process, jobs=2 submits them to a
        # pool, largest q first: all-edge sweeps at -pi/2, at +pi/2
        # anisotropic and at phi_d = 0.3, and a triangular q_max 30 sweep
        # with windows and edge winding mixed.
        tasks = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tasks.append([])

            def submit(self, fn, task, **kwargs):
                tasks[-1].append(task[:2])
                return super().submit(fn, task, **kwargs)

        monkeypatch.setattr(butterfly, "ProcessPoolExecutor", Pool)
        mixed = ButterflyConfig(q_max=30, resolver="triangular", computed_q_max=7)
        for cfg1 in [ButterflyConfig(q_max=6, resolver="computed", computed_q_max=6),
                     ButterflyConfig(q_max=6, resolver="computed", phi_d=math.pi / 2,
                                     t2=0.8, t3=0.6),
                     ButterflyConfig(q_max=6, resolver="computed", phi_d=0.3),
                     mixed]:
            cfg2 = replace(cfg1, jobs=2)
            d1, d2 = build_diagram(cfg1), build_diagram(cfg2)
            p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            write_records_jsonl(d1.records, p1)
            write_records_jsonl(d2.records, p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert render(d1.records, cfg1) == render(d2.records, cfg2)
        # one task per denominator, largest first, holding its fluxes p/q
        assert [[q for q, _ in run] for run in tasks] == \
            [list(range(6, 0, -1))] * 3 + [list(range(30, 0, -1))]
        assert all(ps == [f.p for f in enumerate_fluxes(q) if f.q == q]
                   for run in tasks for q, ps in run)

    def test_pool_runs_at_most_two_denominators_a_job_ahead(self, monkeypatch):
        # at jobs=2 the first yielded flux leaves four denominators
        # submitted ahead of it; the rest are submitted one per
        # denominator taken, in order, so finished ones never pile up
        submitted = []

        class Pool(ProcessPoolExecutor):
            def submit(self, fn, task, **kwargs):
                submitted.append(task[0])
                return super().submit(fn, task, **kwargs)

        monkeypatch.setattr(butterfly, "ProcessPoolExecutor", Pool)
        cfg = ButterflyConfig(q_max=12, computed_q_max=0, jobs=2)
        results = iter_flux_results(cfg)
        (recs, failure), = itertools.islice(results, 1)
        assert (recs[0].p, recs[0].q, failure) == (1, 12, None)
        assert submitted == [12, 11, 10, 9, 8]
        rest = list(results)
        assert submitted == list(range(12, 0, -1))
        assert [recs for recs, _ in [(recs, failure)] + rest] == \
            [recs for recs, _ in iter_flux_results(replace(cfg, jobs=1))]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_once_per_flux_in_order(self, jobs):
        # fluxes in the order they are computed, at jobs=1 as from a pool:
        # denominators q_max ... 1, each q's fluxes by ascending p, each
        # flux's records by j
        cfg = ButterflyConfig(q_max=9, resolver="triangular", computed_q_max=5, jobs=jobs)
        seen = []
        results = list(iter_flux_results(
            cfg, progress=lambda done, total: seen.append((done, total))))
        n = len(enumerate_fluxes(9))
        assert seen == [(i, n) for i in range(1, n + 1)]
        assert all(failure is None for _, failure in results)
        fluxes = [(recs[0].p, recs[0].q) for recs, _ in results]
        assert fluxes == sorted(((f.p, f.q) for f in enumerate_fluxes(9)),
                                key=lambda f: (-f[1], f[0]))
        assert all(r[:2] == (p, q) for (p, q), (recs, _) in zip(fluxes, results)
                   for r in recs)
        assert all([r.j for r in recs] == list(range(q + 1))
                   for (_, q), (recs, _) in zip(fluxes, results))

    @pytest.mark.parametrize("resolver", ["computed", "triangular"])
    def test_one_edge_call_per_flux_one_batch_per_denominator(self, monkeypatch, resolver):
        # a denominator's fluxes share one denominator_bands call; each
        # flux takes one edge_chern_table call, and none a compute_bands
        calls = {"table": 0, "batch": 0, "alone": 0}
        denominator_bands = butterfly.denominator_bands

        def certifies_nothing(model, gaps):
            calls["table"] += 1
            return {}

        def batch(models):
            calls["batch"] += 1
            return denominator_bands(models)

        def alone(model):
            calls["alone"] += 1

        monkeypatch.setattr(butterfly, "edge_chern_table", certifies_nothing)
        monkeypatch.setattr(butterfly, "denominator_bands", batch)
        for module in (butterfly, chern):
            monkeypatch.setattr(module, "compute_bands", alone)
        cfg = ButterflyConfig(resolver=resolver, computed_q_max=7)
        entries = butterfly._flux_results(butterfly._denominator_records(
            (7, list(range(1, 7)), cfg)))
        assert calls == {"table": 6, "batch": 1, "alone": 0}
        assert [failure for _, failure in entries] == [None] * 6
        assert all(r.chern is None and r.chern_source == "unresolved"
                   for records, _ in entries for r in records if 0 < r.j < 7)
        records = butterfly.flux_records(3, 7, cfg)  # the one-flux case
        assert calls == {"table": 7, "batch": 2, "alone": 0}
        assert all(r.chern is None for r in records if 0 < r.j < 7)

    def test_sweep_is_lazy_by_denominator(self, monkeypatch):
        # at jobs=1 the phi(q_max) fluxes of q_max come out of the first
        # worker call, before the second denominator is computed
        calls = []
        worker = butterfly._denominator_records

        def spy(args):
            calls.append(args[0])
            return worker(args)

        monkeypatch.setattr(butterfly, "_denominator_records", spy)
        results = iter_flux_results(ButterflyConfig(q_max=12))
        first = list(itertools.islice(results, 4))  # phi(12) = 4: 1, 5, 7, 11
        assert calls == [12]
        assert [(recs[0].p, recs[0].q) for recs, _ in first] == \
            [(1, 12), (5, 12), (7, 12), (11, 12)]
        next(results)
        assert calls == [12, 11]
        results.close()

    def test_finished_sweep_leaves_no_model_alive(self):
        # no per-model cache holds a model, or its q x q matrices, past its flux
        build_diagram(ButterflyConfig(q_max=8, phi_d=0.123, computed_q_max=3))
        gc.collect()
        assert not [o for o in gc.get_objects()
                    if isinstance(o, HofstadterModel) and o.phi_d == 0.123]

    def test_resolver_tags(self):
        diagram = build_diagram(ButterflyConfig(q_max=4, resolver="triangular",
                                                computed_q_max=4))
        sources = {r.chern_source for r in diagram.records}
        assert "window_triangular" in sources  # even q colored by the window
        assert "edge_winding" in sources       # odd q > 1 defers to edge winding


class TestDiagramSymmetry:
    def test_inversion_maps_records(self):
        # (E, sigma, j) -> (-E, sigma, q - j) between fluxes p/q and (q-p)/q,
        # each colored by its own edge winding; those of (q-p)/q are also
        # checked against FHS run on (q-p)/q itself.
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

    @pytest.mark.parametrize("phi_d", [PHI_D_SYMMETRIC, 0.3])
    def test_one_edge_call_per_flux(self, monkeypatch, phi_d):
        # every flux with an open interior gap takes one call, in the
        # order of the denominators (largest q first, then p), at the
        # symmetric phase as elsewhere: no flux borrows its inversion
        # partner's values
        calls = []
        edge_chern_table = butterfly.edge_chern_table

        def spy(model, gaps):
            calls.append((model.flux.p, model.q))
            return edge_chern_table(model, gaps)

        monkeypatch.setattr(butterfly, "edge_chern_table", spy)
        diagram = build_diagram(ButterflyConfig(q_max=5, phi_d=phi_d, resolver="computed",
                                                computed_q_max=5))
        assert calls == sorted(((f.p, f.q) for f in enumerate_fluxes(5) if f.q > 1),
                               key=lambda f: (-f[1], f[0]))
        assert all(r.chern is not None for r in diagram.records if not r.closed)


class TestColoringErrors:
    def test_single_flux_empty(self):
        diagram = build_diagram(ButterflyConfig(q_max=1))
        assert detect_coloring_errors(diagram) == []

    def test_naive_windows_flagged(self):
        diagram = build_diagram(ButterflyConfig(q_max=5, resolver="square"))
        report = detect_coloring_errors(diagram)
        assert len(report) > 0
        involved = {(r.p, r.q) for pair in report
                    for r in (pair.rec_a, pair.rec_b)}
        assert (2, 5) in involved

    def test_flagged_pairs_differ(self):
        diagram = build_diagram(ButterflyConfig(q_max=5, resolver="square"))
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


def _sweep_lines(cfg, tmp_path):
    """The bytes of sweep_to_jsonl, which writes each denominator from its
    columns, after checking that they equal those of write_records_jsonl
    on build_diagram's records and the json.dumps lines of those
    records; and the diagram."""
    diagram = build_diagram(cfg)
    swept, written = tmp_path / "swept.jsonl", tmp_path / "written.jsonl"
    n, failures = sweep_to_jsonl(cfg, str(swept))
    write_records_jsonl(diagram.records, str(written))
    expected = "".join(_json_lines(diagram.records)).encode()
    assert swept.read_bytes() == written.read_bytes() == expected
    assert (n, tuple(failures)) == (len(diagram.records), diagram.failures)
    return diagram


class TestSweepBytes:
    """sweep_to_jsonl, write_records_jsonl and json.dumps write the same bytes."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("resolver", butterfly.RESOLVERS)
    @pytest.mark.parametrize("phi_d,t", [(PHI_D_SYMMETRIC, (1.0, 1.0, 1.0)),
                                         (0.3, (1.0, 1.0, 1.0)),
                                         (math.pi / 2, (1.0, 0.8, 0.6))])
    def test_every_resolver(self, tmp_path, jobs, resolver, phi_d, t):
        # eps_gap 0.02 closes some narrow gaps of every model
        cfg = ButterflyConfig(q_max=8, phi_d=phi_d, t1=t[0], t2=t[1], t3=t[2],
                              resolver=resolver, computed_q_max=5, eps_gap=0.02, jobs=jobs)
        diagram = _sweep_lines(cfg, tmp_path)
        interior = [r for r in diagram.records if 0 < r.j < r.q]
        sources = {r.chern_source for r in interior if not r.closed}
        assert any(r.closed for r in interior)
        assert "edge_winding" in sources
        assert ("unresolved" in sources) == (resolver != "computed")
        # the window colors of the table, gap by gap through the scalar
        # resolve_in_window: a value where it holds one, else not a window tag
        tag = "chain" if resolver == "chain" else "window_" + resolver
        for r in interior:
            window = butterfly._window_for(resolver, r.q)
            sigma = window and resolve_in_window(solve_residue(r.j, Flux(r.p, r.q)), window)
            if r.closed or sigma is None:
                assert r.chern_source != tag
            else:
                assert (r.chern, r.chern_source) == (sigma, tag)

    @pytest.mark.parametrize("block", [1, 10, 30])
    def test_blocks_of_whole_rows(self, tmp_path, monkeypatch, block):
        # each write holds whole fluxes, at most WRITE_BLOCK lines unless
        # one flux alone is longer, and the bytes do not depend on it
        cfg = ButterflyConfig(q_max=9, computed_q_max=0)
        whole, blocks = tmp_path / "whole.jsonl", tmp_path / "blocks.jsonl"
        n, _ = sweep_to_jsonl(cfg, str(whole))
        writes = []
        write_columns = butterfly._write_columns

        def spy(fh, columns):
            writes.append(columns[3])  # the j column
            write_columns(fh, columns)

        monkeypatch.setattr(butterfly, "WRITE_BLOCK", block)
        monkeypatch.setattr(butterfly, "_write_columns", spy)
        sweep_to_jsonl(cfg, str(blocks))
        assert blocks.read_bytes() == whole.read_bytes()
        assert sum(map(len, writes)) == n
        for js in writes:
            q = max(js)
            assert js == list(range(q + 1)) * (len(js) // (q + 1))
            assert len(js) <= max(block, q + 1)

    def test_nan_edge_is_not_written(self, tmp_path, monkeypatch):
        # a NaN band edge of 2/3 makes its table's lines not JSON: the
        # sweep raises before writing any line of q = 3, as the record
        # writer does for such a record
        denominator_bands = butterfly.denominator_bands

        def nan_edge(models):
            los, his, errors = denominator_bands(models)
            if models[0].q == 3:
                his[1, 1] = math.nan
            return los, his, errors

        monkeypatch.setattr(butterfly, "denominator_bands", nan_edge)
        path = tmp_path / "nan.jsonl"
        with pytest.raises(ValueError, match="^gap record 2/3 j=2 is not JSON"):
            sweep_to_jsonl(ButterflyConfig(q_max=4, computed_q_max=0), str(path))
        assert '"q": 3' not in path.read_text() and '"q": 4' in path.read_text()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fallbacks_and_failures(self, tmp_path, monkeypatch, jobs):
        # the batch of q = 7 raises, so its fluxes retry alone, and 3/7
        # fails there; 2/5 fails its own edge check and takes the dense
        # scan; 1/5 fails in the edge winding
        denominator_bands, compute_bands = butterfly.denominator_bands, butterfly.compute_bands
        compute_bands_dense, edge_chern_table = \
            butterfly.compute_bands_dense, butterfly.edge_chern_table

        def batch(models):
            q = models[0].q
            if q == 7:
                raise np.linalg.LinAlgError("forced batch failure")
            los, his, errors = denominator_bands(models)
            if q == 5:
                errors[1] = BandOverlapError("forced overlap")
            return los, his, errors

        def alone(model):
            if (model.flux.p, model.q) == (3, 7):
                raise np.linalg.LinAlgError("forced flux failure")
            return compute_bands(model)

        def edge(model, gaps):
            if (model.flux.p, model.q) == (1, 5):
                raise RuntimeError("forced edge failure")
            return edge_chern_table(model, gaps)

        dense = []
        monkeypatch.setattr(butterfly, "denominator_bands", batch)
        monkeypatch.setattr(butterfly, "compute_bands", alone)
        monkeypatch.setattr(butterfly, "edge_chern_table", edge)
        monkeypatch.setattr(butterfly, "compute_bands_dense",
                            lambda model: dense.append(model.flux) or
                            compute_bands_dense(model, grid=16))
        cfg = ButterflyConfig(q_max=8, computed_q_max=7, jobs=jobs)
        diagram = _sweep_lines(cfg, tmp_path)
        assert diagram.failures == ((3, 7, "LinAlgError: forced flux failure"),
                                    (1, 5, "RuntimeError: forced edge failure"))
        fluxes = {(r.p, r.q) for r in diagram.records}
        assert {(1, 7), (2, 7), (4, 7), (2, 5), (3, 5)} <= fluxes
        assert not {(3, 7), (1, 5)} & fluxes
        assert all(r.chern is not None for r in diagram.records
                   if r.q in (5, 7) and not r.closed)
        if jobs == 1:  # once in build_diagram, once in sweep_to_jsonl
            assert [(f.p, f.q) for f in dense] == [(2, 5)] * 2


def _synthetic_records(n_fluxes: int) -> list:
    """Records of n_fluxes made-up fluxes with q = 7: infinite outer
    gaps, a closed gap and gray (chern=None) gaps among them."""
    out = []
    for f in range(n_fluxes):
        p, q = f % 6 + 1, 7
        for j in range(q + 1):
            if j in (0, q):
                lo, hi = (-math.inf, -3.0 + f / 7) if j == 0 else (3.0 - f / 11, math.inf)
                out.append(GapRecord(p, q, -math.pi / 2, j, lo, hi, math.inf, False, 0, "chain"))
            else:
                lo = -2.5 + j * 0.6 + f * 1e-3
                width = 0.0 if j == 3 else 0.1 + j / 97
                chern = None if j % 2 else j - f % 3
                out.append(GapRecord(p, q, -math.pi / 2, j, lo, lo + width, width,
                                     width < 1e-8, chern,
                                     "unresolved" if chern is None else "window_triangular"))
    return out


class TestBlockDecoding:
    def test_roundtrip_across_block_boundaries(self, tmp_path):
        records = _synthetic_records(80)  # 640 lines: two full blocks and a partial one
        assert len(records) > 2 * butterfly.DECODE_BLOCK
        path = tmp_path / "records.jsonl"
        write_records_jsonl(records, path)
        lines = path.read_text().splitlines(keepends=True)
        # blank and whitespace-only lines around the block edges
        for at in (0, 255, 256, 257, 511, 513, len(lines)):
            lines.insert(at, "\n" if at % 2 else "   \t\n")
        decoded = list(butterfly.decode_records(lines))
        assert decoded == records
        assert [tuple(map(repr, r)) for r in decoded] == [tuple(map(repr, r)) for r in records]
        path.write_text("".join(lines))
        assert read_records_jsonl(path) == records
        assert math.isinf(decoded[0].lo) and decoded[0].width == math.inf
        assert any(r.chern is None for r in decoded)

    def test_lazy(self):
        lines = [json.dumps(gap_to_dict(r)) + "\n" for r in _synthetic_records(80)]
        consumed = []

        def source():
            for line in lines:
                consumed.append(line)
                yield line

        first = next(butterfly.decode_records(source()))
        assert first == butterfly.gap_from_dict(json.loads(lines[0]))
        assert len(consumed) == butterfly.DECODE_BLOCK

    @pytest.mark.parametrize("at", [0, 255, 256, 300, 639])
    @pytest.mark.parametrize("bad", [
        '{"p": 1, "q": 7',                       # truncated
        '{"chern": 0, "closed": false}, {"j": 0}',  # two values on one line
        '{"chern": 0 "closed": false}',          # missing comma
        'NaN x',                                 # extra data
    ])
    def test_malformed_line_raises_the_per_line_error(self, at, bad):
        lines = [json.dumps(gap_to_dict(r)) + "\n" for r in _synthetic_records(80)]
        lines[at] = bad + "\n"
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(lines[at])
        with pytest.raises(json.JSONDecodeError) as got:
            list(butterfly.decode_records(lines))
        assert (got.value.msg, got.value.doc, got.value.pos) == \
            (expected.value.msg, expected.value.doc, expected.value.pos)
        assert str(got.value) == str(expected.value)

    def test_line_split_at_a_comma_raises(self):
        # the joined array parses, but holds one item fewer than the lines
        lines = [json.dumps(gap_to_dict(r)) + "\n" for r in _synthetic_records(4)]
        head, tail = lines[5].split(", ", 1)
        lines[5:6] = [head + "\n", tail]
        with pytest.raises(json.JSONDecodeError) as got:
            list(butterfly.decode_records(lines))
        assert got.value.doc == head + "\n"

    def test_one_write_per_flux(self):
        # the eight records of one flux, as json.dumps(d, sort_keys=True) lines
        records = _synthetic_records(1)
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

        butterfly._write_lines(Sink(), records)
        assert len(writes) == 1
        assert writes[0] == "".join(json.dumps(gap_to_dict(r), sort_keys=True) + "\n"
                                    for r in records)


def _json_lines(records) -> list:
    return [json.dumps(gap_to_dict(r), sort_keys=True) + "\n" for r in records]


def _written(records) -> list:
    """The lines of one _write_lines call; a list, so a failing comparison
    reports the first line that differs."""
    sink = io.StringIO()
    butterfly._write_lines(sink, records)
    return sink.getvalue().splitlines(keepends=True)


# every tag a sweep writes, and the default of an unresolved record
TAGS = ("window_square", "window_triangular", "chain", "edge_winding", "unresolved")


class TestLineWriter:
    """_write_lines writes json.dumps(gap_to_dict(r), sort_keys=True) + "\n"."""

    @pytest.mark.parametrize("resolver", butterfly.RESOLVERS)
    @pytest.mark.parametrize("phi_d,t", [(PHI_D_SYMMETRIC, (1.0, 1.0, 1.0)),
                                         (PHI_D_SYMMETRIC, (1.0, 0.8, 0.6)),
                                         (0.3, (1.0, 1.0, 1.0)),
                                         (0.3, (1.0, 0.8, 0.6))])
    def test_sweep_records(self, resolver, phi_d, t):
        cfg = ButterflyConfig(q_max=6 if resolver == "computed" else 12, phi_d=phi_d,
                              t1=t[0], t2=t[1], t3=t[2], resolver=resolver,
                              computed_q_max=5)
        records = build_diagram(cfg).records
        assert records and _written(records) == _json_lines(records)

    def test_hand_records(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 1 / 3, -2.5,
                  1.7976931348623157e308, 123456789.123]
        records = []
        for k, (chern, closed, source) in enumerate(itertools.product(
                [None, 0, 1, -1, 37, -37], [False, True], TAGS)):
            lo, hi, width = (values[(k + i) % len(values)] for i in range(3))
            phi = values[(k + 3) % len(values)]
            records.append(GapRecord(k % 7 + 1, 7 + k, phi, k % 8, lo, hi, width,
                                     closed, chern, source))
        # the +/-inf ends of the outer gaps, which gap_to_dict writes as null
        for lo, hi, width in [(-math.inf, -3.0, math.inf), (3.0, math.inf, math.inf),
                              (-math.inf, math.inf, math.inf)]:
            records.append(GapRecord(1, 2, -math.pi / 2, 0, lo, hi, width, False, 0,
                                     "chain"))
        lines = _written(records)
        assert lines == _json_lines(records)
        assert list(butterfly.decode_records(lines)) == records

    def test_flux_fragment_follows_each_record(self):
        # runs of one (p, phi_d, q) share a formatted fragment; 0.0 == -0.0
        # must not merge a run, nor p and q swapping at one phi_d
        records = [GapRecord(p, q, phi_d, j, -1.0, 1.0, 2.0, False, 1, "chain")
                   for p, q, phi_d in [(1, 3, 0.0), (1, 3, -0.0), (1, 3, -0.0),
                                       (1, 3, 0.0), (3, 1, 0.0), (1, 3, 0.3),
                                       (1, 3, 0.3), (2, 3, 0.3), (2, 5, 0.3)]
                   for j in (1, 2)]
        assert _written(records) == _json_lines(records)

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False), st.floats(allow_nan=False),
                              st.floats(allow_nan=False),
                              st.sampled_from([None, 0, 3, -3, 10 ** 20]),
                              st.booleans(), st.sampled_from(TAGS + ("\u00e9\"\\",))),
                    max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_finite_floats(self, fields):
        records = [GapRecord(1, 3, phi_d, 1, lo, hi, width, closed, chern, source)
                   for phi_d, lo, hi, width, chern, closed, source in fields]
        assert _written(records) == _json_lines(records)

    @pytest.mark.parametrize("field", ["phi_d", "lo", "hi", "width"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_json_values_raise(self, field, value):
        # json.dumps writes NaN and an infinite phi_d as NaN and Infinity,
        # which are not JSON; only the +/-inf ends of lo, hi and width map
        # to null
        record = GapRecord(1, 3, -math.pi / 2, 1, -1.0, 1.0, 2.0, False, 1,
                           "chain")._replace(**{field: value})
        if field != "phi_d" and math.isinf(value):
            assert _written([record]) == _json_lines([record])
            assert '": null' in _written([record])[0]
            return
        assert any(s in json.dumps(gap_to_dict(record)) for s in ("NaN", "Infinity"))
        sink = io.StringIO()
        with pytest.raises(ValueError, match="not JSON"):
            butterfly._write_lines(sink, [_synthetic_records(1)[0], record])
        assert sink.getvalue() == ""


def _brute_force_pairs(fluxes, q_max):
    """Farey-adjacent pairs by scanning every q2 <= q_max, ordered by Fraction."""
    present = set(fluxes)
    pairs = set()
    for (p, q) in fluxes:
        for q2 in range(1, q_max + 1):
            for delta in (1, -1):
                num = p * q2 + delta
                if num % q == 0:
                    p2 = num // q
                    if 1 <= p2 <= q2 and (p2, q2) in present:
                        key = tuple(sorted([(p, q), (p2, q2)], key=lambda t: Fraction(*t)))
                        if key[0] != key[1]:
                            pairs.add(key)
    return sorted(pairs, key=lambda ab: (Fraction(*ab[0]), Fraction(*ab[1])))


class TestAdjacentFluxPairs:
    @pytest.mark.parametrize("q_max", range(1, 31))
    def test_matches_brute_force(self, q_max):
        fluxes = [(f.p, f.q) for f in enumerate_fluxes(q_max)]
        rng = random.Random(q_max)
        subset = rng.sample(fluxes, len(fluxes) // 2)  # unsorted, with gaps
        for flux_set in (fluxes, subset, subset + [(2, 4), (3, 6)]):  # and unreduced
            assert butterfly._adjacent_flux_pairs(flux_set) == \
                _brute_force_pairs(flux_set, q_max + 1)

    def test_neighbours_of_full_flux(self):
        # 1/1 is the upper neighbour of every (q-1)/q
        pairs = butterfly._adjacent_flux_pairs([(1, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
        assert [a for a, b in pairs if b == (1, 1)] == [(1, 2), (2, 3), (3, 4)]
        assert ((1, 3), (1, 2)) in pairs

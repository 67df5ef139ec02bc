import concurrent.futures
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofbutter import (
    ButterflyConfig,
    ButterflyDiagram,
    Flux,
    GapRecord,
    HofstadterModel,
    PHI_D_SYMMETRIC,
    StredaOutcome,
    build_diagram,
    detect_coloring_errors,
    enumerate_fluxes,
    read_records_jsonl,
    resolve_in_window,
    solve_residue,
    streda_check,
    sweep_to_jsonl,
)
from hofbutter import butterfly, chern
from hofbutter.render import read_ppm, render, render_jsonl
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        mixed = ButterflyConfig(q_max=30, resolver="triangular", computed_q_max=7)
        for cfg1 in [ButterflyConfig(q_max=6, resolver="computed", computed_q_max=6),
                     ButterflyConfig(q_max=6, resolver="computed", phi_d=math.pi / 2,
                                     t2=0.8, t3=0.6),
                     ButterflyConfig(q_max=6, resolver="computed", phi_d=0.3),
                     mixed]:
            p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            assert sweep_to_jsonl(cfg1, str(p1)) == sweep_to_jsonl(replace(cfg1, jobs=2),
                                                                   str(p2))
            assert p1.read_bytes() == p2.read_bytes()
        # one task per denominator, largest first, holding its fluxes p/q
        assert [[q for q, _ in run] for run in tasks] == \
            [list(range(6, 0, -1))] * 3 + [list(range(30, 0, -1))]
        assert all(ps == [f.p for f in enumerate_fluxes(q) if f.q == q]
                   for run in tasks for q, ps in run)

    def test_pool_runs_at_most_two_denominators_a_job_ahead(self, monkeypatch):
        # at jobs=2 the first yielded denominator leaves four others
        # submitted ahead of it; the rest are submitted one per
        # denominator taken, in order, so finished ones never pile up
        submitted = []

        class Pool(ProcessPoolExecutor):
            def submit(self, fn, task, **kwargs):
                submitted.append(task[0])
                return super().submit(fn, task, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        cfg = ButterflyConfig(q_max=12, computed_q_max=0, jobs=2)
        tables = butterfly._denominators(cfg)
        first = next(tables)
        assert (first.q, first.ps, first.failures) == (12, [1, 5, 7, 11], [])
        assert submitted == [12, 11, 10, 9, 8]
        rest = list(tables)
        assert submitted == list(range(12, 0, -1))
        assert [butterfly._records(d) for d in [first] + rest] == \
            [butterfly._records(d) for d in butterfly._denominators(replace(cfg, jobs=1))]

    def test_no_process_pool_at_jobs_1(self):
        # the pool is imported where a jobs > 1 sweep starts one, so a
        # fresh interpreter that imports the package and sweeps at jobs=1
        # never loads concurrent.futures or multiprocessing
        src = os.path.dirname(os.path.dirname(butterfly.__file__))
        code = ("import sys, hofbutter\n"
                "pool = ('concurrent.futures', 'multiprocessing')\n"
                "print(sorted(m for m in pool if m in sys.modules))\n"
                "hofbutter.build_diagram(hofbutter.ButterflyConfig(q_max=4))\n"
                "print(sorted(m for m in pool if m in sys.modules))\n")
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout == "[]\n[]\n"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_once_per_flux_in_order(self, jobs):
        # fluxes in the order they are computed, at jobs=1 as from a pool:
        # denominators q_max ... 1, each q's fluxes by ascending p, each
        # flux's records by j
        cfg = ButterflyConfig(q_max=9, resolver="triangular", computed_q_max=5, jobs=jobs)
        seen = []
        tables = list(butterfly._denominators(
            cfg, progress=lambda done, total: seen.append((done, total))))
        n = len(enumerate_fluxes(9))
        assert seen == [(i, n) for i in range(1, n + 1)]
        assert all(not d.failures for d in tables)
        fluxes = [(p, d.q) for d in tables for p in d.ps]
        assert fluxes == sorted(((f.p, f.q) for f in enumerate_fluxes(9)),
                                key=lambda f: (-f[1], f[0]))
        assert [r[:2] + (r.j,) for d in tables for r in butterfly._records(d)] == \
            [(p, q, j) for p, q in fluxes for j in range(q + 1)]

    @pytest.mark.parametrize("resolver", ["computed", "triangular"])
    def test_one_edge_call_one_batch_per_denominator(self, monkeypatch, resolver):
        # a denominator's fluxes share one denominator_bands call and one
        # denominator_edge_chern call, which gets every flux with a gray gap,
        # each with its own model and gaps; none takes a compute_bands
        calls = {"table": [], "batch": 0, "alone": 0}
        denominator_bands = butterfly.denominator_bands

        def certifies_nothing(models, gaps):
            calls["table"].append([(m.flux.p, m.q) for m in models])
            assert all({(r.p, r.q) for r in g} == {(m.flux.p, m.q)}
                       for m, g in zip(models, gaps))
            return [{} for _ in models]

        def batch(models):
            calls["batch"] += 1
            return denominator_bands(models)

        def alone(model):
            calls["alone"] += 1

        monkeypatch.setattr(butterfly, "denominator_edge_chern", certifies_nothing)
        monkeypatch.setattr(butterfly, "denominator_bands", batch)
        for module in (butterfly, chern):
            monkeypatch.setattr(module, "compute_bands", alone)
        cfg = ButterflyConfig(resolver=resolver, computed_q_max=7)
        table = butterfly._denominator_records((7, list(range(1, 7)), cfg))
        sevenths = [(p, 7) for p in range(1, 7)]
        assert calls == {"table": [sevenths], "batch": 1, "alone": 0}
        assert (table.ps, table.failures) == (list(range(1, 7)), [])
        assert all(r.chern is None and r.chern_source == "unresolved"
                   for r in butterfly._records(table) if 0 < r.j < 7)
        records = butterfly.flux_records(3, 7, cfg)  # the one-flux case
        assert calls == {"table": [sevenths, [(3, 7)]], "batch": 2, "alone": 0}
        assert all(r.chern is None for r in records if 0 < r.j < 7)
        # an even q is window-colored: no flux has a gray gap, and no call runs
        butterfly._denominator_records((8, [1, 3, 5, 7], replace(cfg, resolver="triangular")))
        assert len(calls["table"]) == 2

    def test_sweep_is_lazy_by_denominator(self, monkeypatch):
        # at jobs=1 the table of q_max, its phi(q_max) fluxes, comes out of
        # the first worker call, before the second denominator is computed
        calls = []
        worker = butterfly._denominator_records

        def spy(args):
            calls.append(args[0])
            return worker(args)

        monkeypatch.setattr(butterfly, "_denominator_records", spy)
        tables = butterfly._denominators(ButterflyConfig(q_max=12))
        first = next(tables)
        assert calls == [12]
        assert (first.q, first.ps) == (12, [1, 5, 7, 11])  # phi(12) = 4
        next(tables)
        assert calls == [12, 11]
        tables.close()

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
    def test_one_edge_call_per_denominator(self, monkeypatch, phi_d):
        # every denominator with an open interior gap takes one call, largest
        # q first, with each of its fluxes by p and with that flux's own
        # model, at the symmetric phase as elsewhere; each flux's table is
        # the one its own model gives alone, so no flux borrows its
        # inversion partner's values
        calls = []
        stage = butterfly.denominator_edge_chern

        def spy(models, gaps):
            calls.append([(m.flux.p, m.q) for m in models])
            tables = stage(models, gaps)
            for m, g, table in zip(models, gaps, tables):
                assert {(r.p, r.q) for r in g} == {(m.flux.p, m.q)} and m.phi_d == phi_d
                assert table == chern.edge_chern_table(m, g)
            return tables

        monkeypatch.setattr(butterfly, "denominator_edge_chern", spy)
        diagram = build_diagram(ButterflyConfig(q_max=5, phi_d=phi_d, resolver="computed",
                                                computed_q_max=5))
        fluxes = [(f.p, f.q) for f in enumerate_fluxes(5)]
        assert calls == [sorted(f for f in fluxes if f[1] == q) for q in (5, 4, 3, 2)]
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


    @pytest.mark.parametrize("case", ["square", "triangular", "computed", "synthetic"])
    def test_report_equals_all_pairs(self, computed_diagram_13, case):
        # the audit scans only the pairs that can overlap; on window, exact
        # and made-up records whose hi is not monotone in lo, the report is
        # that of streda_check over every record pair of every adjacent
        # flux pair, in the same order
        if case == "computed":
            diagram = computed_diagram_13
        elif case == "synthetic":
            diagram = _overlapping_records(random.Random(5))
        else:
            diagram = build_diagram(ButterflyConfig(q_max=12, resolver=case, computed_q_max=7))
        reference = _all_pairs_audit(diagram)
        assert reference
        assert detect_coloring_errors(diagram) == reference


def _all_pairs_audit(diagram) -> list:
    """detect_coloring_errors without its overlap scan: streda_check on
    every pair of open, resolved records of each adjacent flux pair, each
    flux's records sorted by lo."""
    by_flux = {}
    for rec in diagram.records:
        if not rec.closed and rec.chern is not None:
            by_flux.setdefault((rec.p, rec.q), []).append(rec)
    for recs in by_flux.values():
        recs.sort(key=lambda r: r.lo)
    return [butterfly.InconsistentPair(ra, rb)
            for fa, fb in butterfly._adjacent_flux_pairs(list(by_flux))
            for ra in by_flux[fa] for rb in by_flux[fb]
            if streda_check(ra, rb) is StredaOutcome.INCONSISTENT]


def _overlapping_records(rng) -> ButterflyDiagram:
    """Made-up records of the fluxes with q <= 5: random, overlapping
    intervals, so hi is not monotone in lo order, random sigma in -3..3,
    some gray or closed."""
    records = []
    for f in enumerate_fluxes(5):
        for j in range(f.q + 1):
            lo = rng.uniform(-3.0, 3.0)
            hi = lo + rng.choice([rng.uniform(0.01, 0.3), rng.uniform(1.0, 4.0)])
            chern = None if rng.random() < 0.1 else rng.randint(-3, 3)
            records.append(GapRecord(f.p, f.q, PHI_D_SYMMETRIC, j, lo, hi, hi - lo,
                                     rng.random() < 0.05, chern))
    return ButterflyDiagram(ButterflyConfig(q_max=5), tuple(records), ())


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        cfg = ButterflyConfig(q_max=4, resolver="chain")
        path = tmp_path / "records.jsonl"
        sweep_to_jsonl(cfg, str(path))
        assert read_records_jsonl(path) == list(build_diagram(cfg).records)

    def test_jsonl_one_record_per_line(self, tmp_path):
        cfg = ButterflyConfig(q_max=3)
        path = tmp_path / "records.jsonl"
        n, _ = sweep_to_jsonl(cfg, str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == n == len(build_diagram(cfg).records)


def _sweep_lines(cfg, tmp_path):
    """build_diagram's diagram, after checking that sweep_to_jsonl, which
    writes each denominator from its columns, writes the json.dumps lines
    of its records."""
    diagram = build_diagram(cfg)
    swept = tmp_path / "swept.jsonl"
    n, failures = sweep_to_jsonl(cfg, str(swept))
    assert swept.read_text().splitlines(keepends=True) == _json_lines(diagram.records)
    assert (n, tuple(failures)) == (len(diagram.records), diagram.failures)
    return diagram


class TestSweepBytes:
    """sweep_to_jsonl writes the json.dumps lines of build_diagram's records."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("resolver", butterfly.RESOLVERS)
    @pytest.mark.parametrize("phi_d,t", [(PHI_D_SYMMETRIC, (1.0, 1.0, 1.0)),
                                         (PHI_D_SYMMETRIC, (1.0, 0.8, 0.6)),
                                         (0.3, (1.0, 1.0, 1.0)),
                                         (0.3, (1.0, 0.8, 0.6)),
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
        monkeypatch.setattr(butterfly, "WRITE_BLOCK", block)
        sweep_to_jsonl(cfg, str(blocks))
        assert blocks.read_bytes() == whole.read_bytes()
        writes = _Sink()
        for d in butterfly._denominators(cfg):
            butterfly._write_table(writes, d)
        assert "".join(writes) == whole.read_text()
        assert len(whole.read_text().splitlines()) == n
        for text in writes:
            js = [json.loads(line)["j"] for line in text.splitlines()]
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
        # scan; 1/5 fails in the edge winding, so the winding of q = 5
        # raises and each of its fluxes retries alone
        denominator_bands, compute_bands = butterfly.denominator_bands, butterfly.compute_bands
        compute_bands_dense, denominator_edge_chern = \
            butterfly.compute_bands_dense, butterfly.denominator_edge_chern

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

        def edge(models, gaps):
            if any((m.flux.p, m.q) == (1, 5) for m in models):
                raise RuntimeError("forced edge failure")
            return denominator_edge_chern(models, gaps)

        dense = []
        monkeypatch.setattr(butterfly, "denominator_bands", batch)
        monkeypatch.setattr(butterfly, "compute_bands", alone)
        monkeypatch.setattr(butterfly, "denominator_edge_chern", edge)
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

    def test_singular_pencil_stays_with_its_flux(self, tmp_path, monkeypatch):
        # without the disk automorphism the leading coefficient is A, and
        # 3/7 with no t2 term has a singular one: its open gaps stay gray
        # with no failure, and its neighbours, which share its batch, keep
        # the records they have without it
        monkeypatch.setattr(chern, "EDGE_SHIFT", 0j)
        cfg = ButterflyConfig(q_max=8, computed_q_max=7)
        plain = _sweep_lines(cfg, tmp_path)
        hopping_terms = chern._hopping_terms

        def no_t2(model):
            M1, M2, M3 = hopping_terms(model)
            return (M1, M2, 0 * M3) if (model.flux.p, model.q) == (3, 7) else (M1, M2, M3)

        monkeypatch.setattr(chern, "_hopping_terms", no_t2)
        forced = _sweep_lines(cfg, tmp_path)
        assert forced.failures == plain.failures == ()
        gray = [r for r in forced.records_for(3, 7) if 0 < r.j < 7 and not r.closed]
        assert gray and all(r.chern_source == "unresolved" for r in gray)
        assert [r for r in forced.records if (r.p, r.q) != (3, 7)] == \
            [r for r in plain.records if (r.p, r.q) != (3, 7)]
        assert all(r.chern is not None for r in plain.records if r.q == 7 and not r.closed)


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
        lines = _json_lines(records)
        path = tmp_path / "records.jsonl"
        # blank and whitespace-only lines around the block edges
        for at in (0, 255, 256, 257, 511, 513, len(lines)):
            lines.insert(at, "\n" if at % 2 else "   \t\n")
        decoded = list(butterfly.decode_records(lines))
        assert decoded == records
        assert [tuple(map(repr, r)) for r in decoded] == [tuple(map(repr, r)) for r in records]
        path.write_text("".join(lines))
        read = read_records_jsonl(path)
        assert read == records
        assert [tuple(map(repr, r)) for r in read] == [tuple(map(repr, r)) for r in records]
        assert math.isinf(decoded[0].lo) and decoded[0].width == math.inf
        assert any(r.chern is None for r in decoded)
        # the image from the decoded values equals the image of the
        # records; in reverse, the first fluxes' narrow outer gaps are
        # painted last and leave the gray and colored gaps visible
        cfg = ButterflyConfig(q_max=7, mu_bins=64, height=32)
        path.write_text("".join(lines[::-1]))
        image = render(records[::-1], cfg)
        assert render_jsonl(str(path), cfg) == image
        assert len(np.unique(read_ppm(image).reshape(-1, 3), axis=0)) > 4

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

    @pytest.mark.parametrize("reader", ["decode_records", "render_jsonl"])
    @pytest.mark.parametrize("at", [0, 255, 256, 300, 639])
    @pytest.mark.parametrize("bad", [
        '{"p": 1, "q": 7',                       # truncated
        '{"chern": 0, "closed": false}, {"j": 0}',  # two values on one line
        '{"chern": 0 "closed": false}',          # missing comma
        'NaN x',                                 # extra data
    ])
    def test_malformed_line_raises_the_per_line_error(self, tmp_path, reader, at, bad):
        lines = [json.dumps(gap_to_dict(r)) + "\n" for r in _synthetic_records(80)]
        lines[at] = bad + "\n"
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(lines[at])
        with pytest.raises(json.JSONDecodeError) as got:
            _read(reader, lines, tmp_path)
        assert (got.value.msg, got.value.doc, got.value.pos) == \
            (expected.value.msg, expected.value.doc, expected.value.pos)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("reader", ["decode_records", "render_jsonl"])
    def test_line_split_at_a_comma_raises(self, tmp_path, reader):
        # the joined array parses, but holds one item fewer than the lines
        lines = [json.dumps(gap_to_dict(r)) + "\n" for r in _synthetic_records(4)]
        head, tail = lines[5].split(", ", 1)
        lines[5:6] = [head + "\n", tail]
        with pytest.raises(json.JSONDecodeError) as got:
            _read(reader, lines, tmp_path)
        assert got.value.doc == head + "\n"


def _read(reader: str, lines: list, tmp_path):
    """The records of JSON lines by decode_records, or their image by
    render_jsonl of a file holding them: the two readers of decode_blocks."""
    if reader == "decode_records":
        return list(butterfly.decode_records(lines))
    path = tmp_path / "records.jsonl"
    path.write_text("".join(lines))
    return render_jsonl(str(path), ButterflyConfig(q_max=7, mu_bins=16, height=8))


def _json_lines(records) -> list:
    return [json.dumps(gap_to_dict(r), sort_keys=True) + "\n" for r in records]


class _Sink(list):
    """A file that keeps each write."""
    write = list.append


# the tags of a sweep's table, by tag code (butterfly.OUTER, WINDOW, EDGE, GRAY)
SWEEP_TAGS = ("chain", "window_triangular", "edge_winding", "unresolved")


def _table(records, tags=SWEEP_TAGS) -> butterfly.Denominator:
    """The Denominator table holding ``records``: whole fluxes of one q
    and one phi_d, each by j = 0..q.  A record's tag code is the index of
    its source in ``tags``, and a gray record alone has sigma None."""
    q, phi_d = records[0].q, records[0].phi_d
    p, qs, phis, js, lo, hi, width, closed, chern, source = zip(*records)
    shape = (len(records) // (q + 1), q + 1)
    tag = [tags.index(t) for t in source]
    assert set(qs) == {q} and set(map(repr, phis)) == {repr(phi_d)}
    assert list(js) == list(range(q + 1)) * shape[0]
    assert [c is None for c in chern] == [t == butterfly.GRAY for t in tag]
    return butterfly.Denominator(
        q, phi_d, list(p[::q + 1]),
        *(np.array(x, dtype=dtype).reshape(shape) for x, dtype in [
            (lo, float), (hi, float), (width, float), (closed, bool),
            ([c or 0 for c in chern], np.int64), (tag, np.int8)]),
        tags, [])


def _written(*tables) -> list:
    """The lines _write_table writes for ``tables``; a list, so a failing
    comparison reports the first line that differs."""
    sink = io.StringIO()
    for d in tables:
        butterfly._write_table(sink, d)
    return sink.getvalue().splitlines(keepends=True)


# every tag a sweep writes, and the default of an unresolved record
TAGS = ("window_square", "window_triangular", "chain", "edge_winding", "unresolved")
ODD_TAG = "\u00e9\"\\"  # a quote, a backslash and non-ASCII text


class TestLineWriter:
    """_write_table writes json.dumps(gap_to_dict(r), sort_keys=True) + "\n"
    for each record r of a table, which _records gives back."""

    def test_one_write_per_flux(self):
        # the eight records of one flux, as json.dumps(d, sort_keys=True) lines
        records = _synthetic_records(1)
        table = _table(records)
        writes = _Sink()
        butterfly._write_table(writes, table)
        assert writes == ["".join(_json_lines(records))]
        assert butterfly._records(table) == records

    def test_hand_records(self):
        # sigma None (gray), 0, +/-1 and +/-37, open and closed gaps, every
        # tag, and each of these values as lo, hi, width and phi_d
        values = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 1 / 3, -2.5,
                  1.7976931348623157e308, 123456789.123]
        sigmas = [None, 0, 1, -1, 37, -37]
        tables, records, k = [], [], 0
        for i, phi_d in enumerate(values):
            q = 5 + i % 4
            tags = tuple(TAGS[(i + m) % 5] for m in range(3)) + (TAGS[(i + 3) % 5],)
            table = []
            for p in (1, 2, 4):
                for j in range(q + 1):
                    lo, hi, width = (values[(k + m) % len(values)] for m in range(3))
                    chern = sigmas[k % 6]
                    source = tags[butterfly.GRAY] if chern is None else tags[k % 3]
                    table.append(GapRecord(p, q, phi_d, j, lo, hi, width, k % 4 == 1,
                                           chern, source))
                    k += 1
            tables.append(_table(table, tags))
            records += table
        # the +/-inf ends of the outer gaps, which gap_to_dict writes as null
        ends = [(-math.inf, -3.0, math.inf), (-math.inf, math.inf, math.inf),
                (3.0, math.inf, math.inf)]
        outer = [GapRecord(1, 2, -math.pi / 2, j, lo, hi, width, False, 0, "chain")
                 for j, (lo, hi, width) in enumerate(ends)]
        tables.append(_table(outer))
        records += outer
        assert {r.chern_source for r in records} == set(TAGS)
        lines = _written(*tables)
        assert lines == _json_lines(records)
        assert list(butterfly.decode_records(lines)) == records
        assert [r for d in tables for r in butterfly._records(d)] == records

    def test_flux_fragment_follows_each_record(self):
        # the p, phi_d, q fragment of each table row: phi_d 0.0 and -0.0
        # each keep their sign, and p and q swapping at one phi_d do not mix
        tables = [[GapRecord(p, q, phi_d, j, -1.0, 1.0, 2.0, False, 1, "chain")
                   for p in ps for j in range(q + 1)]
                  for ps, q, phi_d in [((1, 2), 3, 0.0), ((1, 2), 3, -0.0),
                                       ((3,), 1, 0.0), ((1,), 3, 0.0), ((1, 2), 3, 0.3),
                                       ((2,), 5, 0.3)]]
        records = [r for table in tables for r in table]
        lines = _written(*map(_table, tables))
        assert lines == _json_lines(records)
        assert sum('"phi_d": -0.0,' in line for line in lines) == 8

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.lists(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False),
                                       st.floats(allow_nan=False),
                                       st.sampled_from([None, 0, 3, -3, 2 ** 63 - 1]),
                                       st.booleans(), st.integers(0, 2)),
                             min_size=4, max_size=4),
                    min_size=1, max_size=5),
           st.sampled_from([SWEEP_TAGS, ("window_square", ODD_TAG, "chain", "edge_winding"),
                            (ODD_TAG, "chain", "edge_winding", "window_square")]))
    @settings(max_examples=200, deadline=None)
    def test_finite_floats(self, phi_d, rows, tags):
        # a finite phi_d; ends and widths that may be infinite; the
        # largest sigma of the int64 column; tags with a quote, a
        # backslash and non-ASCII text, as the gray tag too
        records = [GapRecord(f + 1, 3, phi_d, j, lo, hi, width, closed, chern,
                             tags[butterfly.GRAY] if chern is None else tags[t])
                   for f, row in enumerate(rows)
                   for j, (lo, hi, width, chern, closed, t) in enumerate(row)]
        table = _table(records, tags)
        assert _written(table) == _json_lines(records)
        assert butterfly._records(table) == records

    @pytest.mark.parametrize("field", ["phi_d", "lo", "hi", "width"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_json_values_raise(self, field, value):
        # json.dumps writes NaN and an infinite phi_d as NaN and Infinity,
        # which are not JSON; only the +/-inf ends of lo, hi and width map
        # to null.  A table with one such value writes nothing, not even
        # its rows before that value.
        records = [GapRecord(p, 3, -math.pi / 2, j, -1.0, 1.0, 2.0, False, 1, "chain")
                   for p in (1, 2) for j in range(4)]
        records[6] = records[6]._replace(**{field: value})
        if field == "phi_d":
            records = [r._replace(phi_d=value) for r in records]
        if field != "phi_d" and math.isinf(value):
            assert _written(_table(records)) == _json_lines(records)
            assert '": null' in _written(_table(records))[6]
            return
        assert any(s in json.dumps(gap_to_dict(records[6])) for s in ("NaN", "Infinity"))
        sink = io.StringIO()
        with pytest.raises(ValueError, match="^gap record 2/3 j=2 is not JSON"
                           if field != "phi_d" else "^gap record 1/3 j=0 is not JSON"):
            butterfly._write_table(sink, _table(records))
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

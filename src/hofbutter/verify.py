"""Self-contained invariant suites behind ``hofbutter verify``.

Each suite exercises identities the implementation must satisfy
(operator algebra, Chambers structure, Chern quantization and the
Diophantine arithmetic) and reports one pass/fail line per check.
These are smoke-level runs of the same properties the test suite pins
down in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .butterfly import PHI_D_SYMMETRIC, ButterflyConfig, build_diagram, detect_coloring_errors
from .chern import (
    band_chern_fhs,
    band_chern_transport,
    berry_curvature,
    chern_bound,
    gap_chern_table,
)
from .diophantine import (
    chain_assign,
    resolve_in_window,
    solve_residue,
    square_window,
    triangular_window,
)
from .magnetic_algebra import (
    Flux,
    HofstadterModel,
    build_hamiltonian,
    clock_shift,
    inversion_check,
    magnetic_symmetry_residual,
)
from .spectrum import (
    chambers_polynomial,
    compute_bands,
    compute_bands_dense,
    compute_gaps,
    det_closed_form,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _coprime_pairs(rng, n, q_lo=2, q_hi=13):
    out = []
    while len(out) < n:
        q = int(rng.integers(q_lo, q_hi + 1))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) == 1:
            out.append((p, q))
    return out


def suite_algebra() -> list[CheckResult]:
    rng = np.random.default_rng(11)
    checks = []

    worst = 0.0
    for q in [1, 2, 3, 5, 8, 13, 21, 34, 64]:
        p = 1 if q == 1 else int(rng.choice([x for x in range(1, q) if math.gcd(x, q) == 1]))
        flux = Flux(p, q)
        S, T = clock_shift(flux)
        w = flux.omega
        worst = max(worst,
                    float(np.abs(S @ T - w * (T @ S)).max()),
                    float(np.abs(np.linalg.matrix_power(S, q) - np.eye(q)).max()),
                    float(np.abs(np.linalg.matrix_power(T, q) - np.eye(q)).max()))
    checks.append(CheckResult("clock-shift algebra (q<=64)", worst <= 1e-12,
                              f"max residual {worst:.2e}"))

    worst = 0.0
    for p, q in _coprime_pairs(rng, 20):
        model = HofstadterModel(Flux(p, q), float(rng.uniform(-math.pi, math.pi)),
                                *rng.uniform(0.0, 2.0, 3))
        for _ in range(5):
            H = build_hamiltonian(model, rng.uniform(-math.pi, math.pi, 2))
            worst = max(worst, float(np.abs(H - H.conj().T).max()))
    checks.append(CheckResult("hermiticity (100 samples)", worst <= 1e-12,
                              f"max |H - H^+| {worst:.2e}"))

    worst = 0.0
    for p, q in _coprime_pairs(rng, 10):
        model = HofstadterModel(Flux(p, q), float(rng.uniform(-math.pi, math.pi)))
        for _ in range(5):
            r1, r2 = magnetic_symmetry_residual(model, rng.uniform(-math.pi, math.pi, 2))
            worst = max(worst, r1, r2)
    checks.append(CheckResult("magnetic symmetry", worst <= 1e-12,
                              f"max residual {worst:.2e}"))

    worst = 0.0
    for p, q in [(1, 3), (1, 4), (2, 5), (3, 7), (4, 9)]:
        spec_a = compute_bands(HofstadterModel(Flux(p, q), 0.4, t3=0.0))
        spec_b = compute_bands(HofstadterModel(Flux(p, q), -1.1, t3=0.0))
        worst = max(worst, float(np.abs(np.array(spec_a.bands) - np.array(spec_b.bands)).max()))
    checks.append(CheckResult("square limit ignores phi_d", worst <= 1e-10,
                              f"max band drift {worst:.2e}"))

    worst = 0.0
    for p, q in [(1, 3), (1, 4), (2, 5), (3, 7), (3, 8), (4, 9)]:
        worst = max(worst, inversion_check(
            HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)))
    checks.append(CheckResult("spectral inversion at phi_d=-pi/2", worst <= 1e-10,
                              f"max residual {worst:.2e}"))
    return checks


def suite_chambers() -> list[CheckResult]:
    rng = np.random.default_rng(23)
    checks = []

    worst = 0.0
    for p, q in _coprime_pairs(rng, 20):
        model = HofstadterModel(Flux(p, q), float(rng.uniform(-math.pi, math.pi)),
                                *rng.uniform(0.2, 1.8, 3))
        worst = max(worst, chambers_polynomial(model, check_points=5).max_rel_dev)
    checks.append(CheckResult("Chambers k-independence (20 models)",
                              worst <= 1e-9, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for p, q in _coprime_pairs(rng, 20):
        model = HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)
        for _ in range(5):
            k = tuple(rng.uniform(-math.pi, math.pi, 2))
            direct = float(np.real(np.linalg.det(build_hamiltonian(model, k))))
            scale = max(1.0, abs(direct))
            worst = max(worst, abs(det_closed_form(model, k) - direct) / scale)
    checks.append(CheckResult("closed-form determinant (100 samples)",
                              worst <= 1e-9, f"max rel residual {worst:.2e}"))

    worst = 0.0
    for q in [3, 4, 5, 7, 8]:
        for phi_d, t in [(PHI_D_SYMMETRIC, (1.0, 1.0, 1.0)), (0.3, (1.0, 1.0, 1.0)),
                         (0.3, (1.0, 0.8, 0.6))]:
            model = HofstadterModel(Flux(1, q), phi_d, *t)
            fast = np.array(compute_bands(model).bands)
            dense = np.array(compute_bands_dense(model, grid=64).bands)
            worst = max(worst, float(np.abs(fast - dense).max()))
    checks.append(CheckResult("band edges vs dense scan", worst <= 1e-6,
                              f"max deviation {worst:.2e}"))

    ok = True
    for p, q in _coprime_pairs(rng, 8):
        model = HofstadterModel(Flux(p, q), float(rng.uniform(-math.pi, math.pi)))
        gaps = compute_gaps(compute_bands(model))
        ok = ok and len(gaps) == q + 1 and all(r.width >= 0 for r in gaps)
    checks.append(CheckResult("gap count q+1, widths nonnegative", ok, ""))
    return checks


def suite_chern() -> list[CheckResult]:
    checks = []
    model13 = HofstadterModel(Flux(1, 3), t3=0.0)
    bands = [band_chern_fhs(model13, n).value for n in (1, 2, 3)]
    checks.append(CheckResult("square (1,3) band Cherns (1,-2,1)",
                              bands == [1, -2, 1], f"got {bands}"))

    worst = 0.0
    for n in (1, 2, 3):
        t = band_chern_transport(model13, n)
        worst = max(worst, abs(t.chern_mod_q - bands[n - 1] % 3))
    checks.append(CheckResult("transport residue = FHS mod q (square (1,3))",
                              worst == 0, ""))

    model25 = HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)
    t = band_chern_transport(model25, 1)
    checks.append(CheckResult("transport holonomy 2*pi*s/q for (2,5)",
                              t.chern_mod_q == 3 and t.phase_residual < 1e-6,
                              f"residue {t.chern_mod_q}, phase residual {t.phase_residual:.1e}"))

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        k = tuple(rng.uniform(-math.pi, math.pi, 2))
        total = sum(berry_curvature(model25, n, k) for n in range(1, 6))
        worst = max(worst, abs(total))
    checks.append(CheckResult("curvature antisymmetry sum", worst <= 1e-10,
                              f"max pointwise band sum {worst:.2e}"))

    ok = True
    detail = ""
    for p, q in [(1, 3), (2, 5), (3, 7), (4, 9)]:
        model = HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)
        gaps = compute_gaps(compute_bands(model))
        table = gap_chern_table(model, gaps)
        s = Flux(p, q).s
        for j, res in table.items():
            if (res.value - s * j) % q != 0:
                ok = False
                detail = f"sigma_{j}={res.value} at {p}/{q} violates s*j mod q"
            g = gaps[j].width
            if g > 0 and abs(res.value) > chern_bound(j, q, g):
                ok = False
                detail = f"sigma_{j}={res.value} at {p}/{q} violates the bound"
    checks.append(CheckResult("Diophantine identity + curvature bound", ok, detail))

    ok = True
    for p, q in [(1, 4), (2, 5), (3, 7)]:  # every gap open at phi_d=-pi/2
        model = HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)
        total = sum(band_chern_fhs(model, n).value for n in range(1, q + 1))
        ok = ok and total == 0
    checks.append(CheckResult("band Cherns sum to zero", ok, ""))
    return checks


def suite_diophantine() -> list[CheckResult]:
    checks = []

    ok = True
    for q in range(1, 65):
        w = square_window(q)
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            flux = Flux(p, q)
            for sigma in w.members():
                j = (flux.p * sigma) % q  # the gap whose residue class holds sigma
                if resolve_in_window(solve_residue(j, flux), w) != sigma:
                    ok = False
    checks.append(CheckResult("window round-trip (q<=64)", ok, ""))

    ok = True
    for q in range(1, 14):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            flux = Flux(p, q)
            w = square_window(q)
            for j in range(q + 1):
                a = chain_assign(j, flux)
                b = resolve_in_window(solve_residue(j, flux), w)
                if a is not None and b is not None and a != b:
                    ok = False
    checks.append(CheckResult("chain agrees with square window (q<=13)", ok, ""))

    ok = triangular_window(512).lo == -255 and triangular_window(512).hi == 256
    checks.append(CheckResult("shifted window endpoints at q=512", ok, ""))

    naive = ButterflyConfig(q_max=5, resolver="triangular", exclusions=False,
                            phi_d=PHI_D_SYMMETRIC)
    report = detect_coloring_errors(build_diagram(naive))
    checks.append(CheckResult("naive windows trigger the coloring audit (q_max=5)",
                              len(report) > 0, f"{len(report)} inconsistent pairs"))

    cfg = ButterflyConfig(q_max=8, resolver="computed", computed_q_max=8,
                          phi_d=PHI_D_SYMMETRIC)
    diagram = build_diagram(cfg)
    flagged = detect_coloring_errors(diagram)
    modq = all((p.rec_a.chern - p.rec_b.chern) % p.rec_a.q == 0 or
               (p.rec_a.chern - p.rec_b.chern) % p.rec_b.q == 0
               for p in flagged)
    checks.append(CheckResult("flagged pairs respect the mod-q structure", modq,
                              f"{len(flagged)} wing-tip alarms on exact data"))

    opens = [r for r in diagram.records if not r.closed and r.chern is not None]
    distinct = True
    for f in {(r.p, r.q) for r in opens}:
        interior = [r.chern for r in opens if (r.p, r.q) == f and r.j not in (0, r.q)]
        if len(set(interior)) != len(interior):
            distinct = False
    checks.append(CheckResult("distinct open gaps carry distinct sigma", distinct, ""))

    conjecture = all(-r.q <= r.chern <= r.q for r in opens)
    checks.append(CheckResult("sign-ambiguity consistency |sigma| <= q", conjecture, ""))
    return checks


SUITES = {
    "algebra": suite_algebra,
    "chambers": suite_chambers,
    "chern": suite_chern,
    "diophantine": suite_diophantine,
}


def run_suites(names) -> tuple[list[CheckResult], bool]:
    results = []
    for name in names:
        results.extend(SUITES[name]())
    return results, all(r.passed for r in results)

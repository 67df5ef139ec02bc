"""Flux sweeps: build, check and persist colored butterfly diagrams.

A diagram is the list of gap records of every reduced flux p/q with
q <= q_max, each open gap carrying a Chern number from the configured
resolution strategy.  Sweeps parallelize over fluxes, stream to JSON
lines, and can be audited for wing-coloring errors by exact Streda
comparisons between Farey-adjacent fluxes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .diophantine import (
    StredaOutcome,
    chain_assign,
    resolve_in_window,
    solve_residue,
    square_window,
    streda_check,
    triangular_window,
)
from .magnetic_algebra import Flux, HofstadterModel
from .spectrum import (
    GAP_EPS_DEFAULT,
    GapRecord,
    compute_bands,
    compute_bands_dense,
    compute_bands_or_dense,
    compute_gaps,
    gap_from_dict,
    gap_to_dict,
)

RESOLVERS = ("square", "triangular", "chain", "computed")

# phi_d whose down-triangle phase makes the butterfly inversion symmetric
# and reproduces the reference shifted-window coloring (see notes/decisions.md).
PHI_D_SYMMETRIC = -math.pi / 2.0


def enumerate_fluxes(q_max: int) -> list[Flux]:
    """All reduced fluxes p/q with 1 <= p <= q <= q_max, in Farey order.

    The endpoint 1/1 is included so diagrams close at full flux."""
    if q_max < 1:
        raise ValueError("q_max must be positive")
    seen = set()
    out = []
    for q in range(1, q_max + 1):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1:
                frac = Fraction(p, q)
                if frac not in seen:
                    seen.add(frac)
                    out.append(Flux(p, q))
    out.sort(key=lambda f: Fraction(f.p, f.q))
    return out


@dataclass(frozen=True)
class ButterflyConfig:
    """Everything a sweep needs; hashable so runs are reproducible."""

    q_max: int = 1
    phi_d: float = PHI_D_SYMMETRIC
    t1: float = 1.0
    t2: float = 1.0
    t3: float = 1.0
    resolver: str = "triangular"
    exclusions: bool = True          # honor the known-bad window slots
    computed_q_max: int = 16         # direct-Chern fallback threshold
    fhs_grid: int = 32
    eps_gap: float = GAP_EPS_DEFAULT
    mu_bins: int = 1024              # horizontal (chemical potential) pixels
    height: int = 1024               # vertical (flux) pixels
    row_scale: float = 2.0           # row thickness = row_scale*H/(q*q_max)
    energy_max: Optional[float] = None  # clamp for semi-infinite gaps
    colormap_period: Optional[int] = None
    out: Optional[str] = None
    jobs: int = 1

    def __post_init__(self):
        if self.q_max < 1:
            raise ValueError("q_max must be >= 1")
        if self.mu_bins < 2:
            raise ValueError("mu_bins must be >= 2")
        if self.resolver not in RESOLVERS:
            raise ValueError(f"resolver must be one of {RESOLVERS}")

    @property
    def energy_clamp(self) -> float:
        return self.energy_max if self.energy_max is not None else \
            2.0 * (self.t1 + self.t2 + self.t3)

    def config_hash(self) -> str:
        """Hash of the fields that decide the records (not out, jobs)."""
        fields = {k: v for k, v in dataclasses.asdict(self).items()
                  if k not in ("out", "jobs")}
        payload = json.dumps(fields, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ButterflyDiagram:
    """Gap records of all fluxes plus per-flux resolution failures."""

    config: ButterflyConfig
    records: tuple
    failures: tuple   # (p, q, reason) entries; a failed flux never aborts a sweep

    def records_for(self, p: int, q: int) -> list[GapRecord]:
        return [r for r in self.records if r.p == p and r.q == q]


def _window_for(strategy: str, q: int, exclusions: bool):
    """The window of a window strategy, else None.  Odd q has no
    established triangular window: with exclusions those gaps defer."""
    if strategy == "square":
        return square_window(q)
    if strategy != "triangular" or (exclusions and q % 2 == 1):
        return None
    w = triangular_window(q)
    if not exclusions:
        w = dataclasses.replace(w, excluded=frozenset())
    return w


def _resolve_flux(records: list[GapRecord], model: HofstadterModel,
                  cfg: ButterflyConfig) -> list[GapRecord]:
    """Assign Chern numbers to the open interior gaps of one flux."""
    q = model.q
    strategy = cfg.resolver
    computed: dict[int, int] = {}
    source_tag = {"square": "window_square", "triangular": "window_triangular",
                  "chain": "chain", "computed": "computed_fhs"}[strategy]

    def computed_table():
        if not computed and q > 1:
            from .chern import gap_chern_table
            for j, res in gap_chern_table(model, cfg.fhs_grid, cfg.eps_gap).items():
                computed[j] = res.value
        return computed

    window = _window_for(strategy, q, cfg.exclusions)
    out = []
    for rec in records:
        if rec.j in (0, q) or rec.closed:
            out.append(rec)
            continue
        sigma = None
        tag = source_tag
        if strategy == "computed":
            sigma = computed_table().get(rec.j)
        elif strategy == "chain":
            sigma = chain_assign(rec.j, model.flux)
        elif window is not None:
            sigma = resolve_in_window(solve_residue(rec.j, model.flux), window)
        if sigma is None and strategy != "computed" and q <= cfg.computed_q_max:
            if computed_table().get(rec.j) is not None:
                sigma = computed[rec.j]
                tag = "computed_fhs"
        if sigma is None:
            out.append(replace(rec, chern=None, chern_source="unresolved"))
        else:
            out.append(replace(rec, chern=sigma, chern_source=tag))
    return out


def _compute_flux(args):
    """Worker: full per-flux pipeline returning JSON-ready dicts.  BLAS
    threads are not pinned; test_determinism_across_jobs checks jobs=N."""
    (p, q, cfg) = args
    model = HofstadterModel(Flux(p, q), cfg.phi_d, cfg.t1, cfg.t2, cfg.t3)
    try:
        spectrum = compute_bands_or_dense(model, compute_bands, compute_bands_dense)
        records = compute_gaps(spectrum, cfg.eps_gap)
        records = _resolve_flux(records, model, cfg)
        return [gap_to_dict(r) for r in records], None
    except Exception as exc:  # record, never abort the sweep
        return [], (p, q, f"{type(exc).__name__}: {exc}")


def iter_flux_results(config: ButterflyConfig, progress=None):
    """Yield (record_dicts, failure) per flux in flux order.

    The lazy backbone of every sweep: giant diagrams stream through
    without materializing.  Deterministic for a fixed config regardless
    of the parallelism degree.
    """
    fluxes = enumerate_fluxes(config.q_max)
    tasks = [(f.p, f.q, config) for f in fluxes]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            chunk = max(1, len(tasks) // (config.jobs * 64))
            for i, res in enumerate(pool.map(_compute_flux, tasks, chunksize=chunk)):
                if progress:
                    progress(i + 1, len(tasks))
                yield res
    else:
        for i, task in enumerate(tasks):
            res = _compute_flux(task)
            if progress:
                progress(i + 1, len(tasks))
            yield res


def build_diagram(config: ButterflyConfig, progress=None) -> ButterflyDiagram:
    """Sweep all fluxes up to q_max and resolve their gap Chern numbers."""
    records = []
    failures = []
    for dicts, failure in iter_flux_results(config, progress):
        records.extend(gap_from_dict(d) for d in dicts)
        if failure:
            failures.append(failure)
    return ButterflyDiagram(config, tuple(records), tuple(failures))


def sweep_to_jsonl(config: ButterflyConfig, path: str, progress=None):
    """Stream a sweep straight to JSON lines; returns (n_records, failures)."""
    n = 0
    failures = []
    with open(path, "w") as fh:
        for dicts, failure in iter_flux_results(config, progress):
            for d in dicts:
                fh.write(json.dumps(d, sort_keys=True))
                fh.write("\n")
                n += 1
            if failure:
                failures.append(failure)
    return n, failures


@dataclass(frozen=True)
class InconsistentPair:
    """Two Farey-adjacent gap records that fail the Streda check."""

    rec_a: GapRecord
    rec_b: GapRecord


def _adjacent_flux_pairs(fluxes: list[tuple], q_max: int):
    """All unordered Farey-adjacent pairs |p1*q2 - p2*q1| = 1."""
    present = set(fluxes)
    pairs = set()
    for (p, q) in fluxes:
        for q2 in range(1, q_max + 1):
            for delta in (1, -1):
                num = p * q2 + delta
                if num % q == 0:
                    p2 = num // q
                    if 1 <= p2 <= q2 and (p2, q2) in present:
                        key = tuple(sorted([(p, q), (p2, q2)],
                                           key=lambda t: Fraction(*t)))
                        if key[0] != key[1]:
                            pairs.add(key)
    return sorted(pairs, key=lambda ab: (Fraction(*ab[0]), Fraction(*ab[1])))


def detect_coloring_errors(diagram: ButterflyDiagram,
                           overlap_tol: float = 0.0) -> list[InconsistentPair]:
    """Streda audit over all Farey-adjacent flux pairs.

    Every pair of open, resolved gaps with overlapping energy intervals
    where either record's wing claims the other as its continuation
    must agree on sigma; each violation is reported.  An empty report
    means no detected miscoloring, though wing tips that die between
    two adjacent fluxes can raise alarms even on exact data.
    """
    by_flux: dict[tuple, list[GapRecord]] = {}
    for rec in diagram.records:
        if not rec.closed and rec.chern is not None:
            by_flux.setdefault((rec.p, rec.q), []).append(rec)
    for recs in by_flux.values():
        recs.sort(key=lambda r: r.lo)
    q_max = max((q for (_, q) in by_flux), default=1)
    bad = []
    for fa, fb in _adjacent_flux_pairs(sorted(by_flux, key=lambda t: Fraction(*t)),
                                       q_max):
        for ra in by_flux[fa]:
            for rb in by_flux[fb]:
                if rb.lo >= ra.hi:  # sorted; nothing further can overlap
                    break
                if streda_check(ra, rb, overlap_tol) is StredaOutcome.INCONSISTENT:
                    bad.append(InconsistentPair(ra, rb))
    return bad


def write_records_jsonl(records, path: str) -> None:
    """Stream gap records to JSON lines, one record per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(gap_to_dict(rec), sort_keys=True))
            fh.write("\n")


def read_records_jsonl(path: str) -> list[GapRecord]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(gap_from_dict(json.loads(line)))
    return records

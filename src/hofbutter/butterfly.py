"""Flux sweeps: build, check and persist colored butterfly diagrams.

A diagram is the list of gap records of every reduced flux p/q with
q <= q_max, each open gap carrying a Chern number from the configured
resolution strategy.  A sweep's unit of work is a denominator: all
fluxes p/q of one q share their band-edge momenta and take their band
edges from one batched eigensolve.  Sweeps parallelize over
denominators, stream to JSON lines in the order they are computed
(q_max down to 1, then p, then j), and can be audited for
wing-coloring errors by exact Streda comparisons between
Farey-adjacent fluxes.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .chern import edge_chern_table
from .diophantine import (
    StredaOutcome,
    chain_window,
    resolve_in_window,
    solve_residue,
    square_window,
    streda_check,
    triangular_window,
)
from .magnetic_algebra import Flux, HofstadterModel, check_model_parameters
from .spectrum import (
    GAP_EPS_DEFAULT,
    BandOverlapError,
    GapRecord,
    check_eps_gap,
    compute_bands,
    compute_bands_dense,
    compute_bands_or_dense,
    compute_gaps,
    denominator_bands,
    gap_from_dict,
)

RESOLVERS = ("square", "triangular", "chain", "computed")
DECODE_BLOCK = 256  # JSON lines per json.loads in decode_records

# one JSON line: gap_to_dict's keys sorted, as json.dumps(sort_keys=True) writes them
_LINE = ('{"chern": %s, "closed": %s, "hi": %s, "j": %s, "lo": %s, %s, '
         '"source": %s, "width": %s}\n')
_FLUX = '"p": %s, "phi_d": %s, "q": %s'  # adjacent keys, formatted once per run
_NULL_ENDS = {math.inf: "null", -math.inf: "null"}  # gap_to_dict's +/-inf -> None
_quoted = functools.lru_cache(maxsize=None)(json.dumps)  # one json.dumps per tag

# phi_d whose down-triangle phase makes the butterfly inversion symmetric
# and reproduces the reference shifted-window coloring (see notes/decisions.md).
PHI_D_SYMMETRIC = -math.pi / 2.0


def enumerate_fluxes(q_max: int) -> list[Flux]:
    """All reduced fluxes p/q with 1 <= p <= q <= q_max, in Farey order.

    The endpoint 1/1 is included so diagrams close at full flux."""
    if q_max < 1:
        raise ValueError("q_max must be positive")
    # Farey next-term rule: after a/b < c/d comes (k c - a)/(k d - b)
    # with k = (q_max + b) // d; the walk starts at 0/1, 1/q_max
    a, b, c, d = 0, 1, 1, q_max
    out = []
    while c <= d:
        out.append(Flux(c, d))
        k = (q_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
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
    computed_q_max: int = 16         # edge-winding fallback threshold
    eps_gap: float = GAP_EPS_DEFAULT
    mu_bins: int = 1024              # horizontal (chemical potential) pixels
    height: int = 1024               # vertical (flux) pixels
    row_scale: float = 2.0           # row thickness = row_scale*H/(q*q_max)
    colormap_period: Optional[int] = None
    jobs: int = 1

    def __post_init__(self):
        if self.q_max < 1:
            raise ValueError("q_max must be >= 1")
        if self.mu_bins < 2:
            raise ValueError("mu_bins must be >= 2")
        if self.height < 1:
            raise ValueError("height must be >= 1")
        if not math.isfinite(self.row_scale):
            raise ValueError(f"row_scale must be finite, got {self.row_scale}")
        if self.colormap_period is not None and self.colormap_period < 1:
            raise ValueError(f"colormap_period must be >= 1, got {self.colormap_period}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.resolver not in RESOLVERS:
            raise ValueError(f"resolver must be one of {RESOLVERS}")
        check_eps_gap(self.eps_gap)
        check_model_parameters(self.phi_d, self.t1, self.t2, self.t3)

    @property
    def energy_clamp(self) -> float:
        """Energy at which semi-infinite gaps are clipped: the spectral
        bound 2(t1 + t2 + t3)."""
        return 2.0 * (self.t1 + self.t2 + self.t3)

    def reaches_edge(self, q: int) -> bool:
        """Whether the gaps the resolver leaves gray at denominator q go
        to the edge-state winding: always under the computed resolver,
        else up to computed_q_max."""
        return self.resolver == "computed" or q <= self.computed_q_max


@dataclass(frozen=True)
class ButterflyDiagram:
    """Gap records of all fluxes plus per-flux resolution failures, in
    the order of ``iter_flux_results``: q descending, then p, then j."""

    config: ButterflyConfig
    records: tuple
    failures: tuple   # (p, q, reason) entries; a failed flux never aborts a sweep

    def records_for(self, p: int, q: int) -> list[GapRecord]:
        return [r for r in self.records if r.p == p and r.q == q]


def _window_for(strategy: str, q: int):
    """The window of the resolver at denominator q, or None: the
    computed resolver has no window, and neither has triangular at odd
    q, where no shifted window is established.  The window functions
    are looked up at call time, so a tracer that patches them sees
    every build."""
    if strategy == "square":
        return square_window(q)
    if strategy == "chain":
        return chain_window(q)
    if strategy == "triangular" and q % 2 == 0:
        return triangular_window(q)
    return None


def _colors(records: list[GapRecord], model: HofstadterModel, cfg: ButterflyConfig) -> dict:
    """{j: (sigma, tag)} of the open interior gaps of one flux that the
    resolver colors: those its window holds, then, within
    ``cfg.reaches_edge(q)``, those of the rest that the edge-state
    winding certifies (one ``edge_chern_table`` call, tagged
    ``edge_winding``).  So each flux builds its window once."""
    q = model.q
    open_gaps = [rec for rec in records if 0 < rec.j < q and not rec.closed]
    colors = {}
    window = _window_for(cfg.resolver, q)
    if window is not None:
        tag = "chain" if cfg.resolver == "chain" else "window_" + cfg.resolver
        for rec in open_gaps:
            sigma = resolve_in_window(solve_residue(rec.j, model.flux), window)
            if sigma is not None:
                colors[rec.j] = (sigma, tag)
    gray = [rec for rec in open_gaps if rec.j not in colors]
    if gray and cfg.reaches_edge(q):
        colors.update((j, (res.value, "edge_winding"))
                      for j, res in edge_chern_table(model, gray).items()
                      if res.value is not None)
    return colors


def _denominator_records(args) -> list:
    """Worker for one denominator: per flux p/q of ``ps``, in that order,
    (records, None), or ([], (p, q, reason)) when the flux fails; a
    failed flux never aborts a sweep.  The records stay ``GapRecord``
    tuples all the way to the JSONL writer.

    ``denominator_bands`` gives every flux its edges from one batched
    eigensolve.  A flux whose edges fail its own checks takes the dense
    scan; if the batch raises, each flux retries alone through
    ``compute_bands``, so a failure stays with its own flux.  Each flux
    then takes its gaps from one ``compute_gaps`` and its colors from
    one ``_colors``.
    """
    q, ps, cfg = args
    models = [HofstadterModel(Flux(p, q), cfg.phi_d, cfg.t1, cfg.t2, cfg.t3)
              for p in ps]
    try:
        spectra = denominator_bands(models)
    except Exception:  # whatever the batch raised, each flux retries alone below
        spectra = [None] * len(models)
    out = []
    for model, spectrum in zip(models, spectra):
        try:
            if spectrum is None:
                spectrum = compute_bands_or_dense(model, compute_bands, compute_bands_dense)
            elif isinstance(spectrum, BandOverlapError):
                spectrum = compute_bands_dense(model)
            records = compute_gaps(spectrum, cfg.eps_gap)
            colors = _colors(records, model, cfg)
            out.append(([GapRecord(*rec[:8], *colors[rec.j]) if rec.j in colors else rec
                         for rec in records], None))
        except Exception as exc:  # record, never abort the sweep
            out.append(([], (model.flux.p, q, f"{type(exc).__name__}: {exc}")))
    return out


def flux_records(p: int, q: int, cfg: ButterflyConfig) -> list[GapRecord]:
    """The gap records of flux p/q, colored by the configured resolver:
    the one-flux case of a sweep's denominator (``hofbutter dioph``).
    A failed flux raises RuntimeError with the sweep's reason."""
    ((records, failure),) = _denominator_records((q, [p], cfg))
    if failure:
        raise RuntimeError(f"flux {p}/{q} failed: {failure[2]}")
    return records


def iter_flux_results(config: ButterflyConfig, progress=None):
    """Yield (records, failure) per flux in the order the sweep computes
    them: denominators q_max ... 1, each q's fluxes by ascending p, each
    flux's records by j.

    The lazy backbone of every sweep: giant diagrams stream through
    without materializing, each flux yielded with the denominator that
    computed it.  The unit of work is a denominator:
    ``_denominator_records`` runs once per q, largest q first, through
    the builtin ``map`` at jobs=1 and one ``pool.map`` of a process pool
    at jobs>1, and its entries are yielded as they arrive.  The order is that of the tasks, so the
    output is deterministic for a fixed config regardless of ``jobs``.
    No reader depends on it: ``render`` paints in stable descending-q
    order and the audit sorts the fluxes.  BLAS threads are not pinned;
    test_determinism_across_jobs checks jobs=N.
    """
    fluxes = sorted(enumerate_fluxes(config.q_max), key=lambda f: (-f.q, f.p))
    tasks = [(q, [f.p for f in group], config)
             for q, group in itertools.groupby(fluxes, key=lambda f: f.q)]
    n = len(fluxes)
    with (ProcessPoolExecutor(max_workers=config.jobs) if config.jobs > 1
          else contextlib.nullcontext()) as pool:
        done = (pool.map(_denominator_records, tasks) if pool
                else map(_denominator_records, tasks))
        for i, result in enumerate(itertools.chain.from_iterable(done), 1):
            if progress:
                progress(i, n)
            yield result


def build_diagram(config: ButterflyConfig, progress=None) -> ButterflyDiagram:
    """Sweep all fluxes up to q_max and resolve their gap Chern numbers."""
    records = []
    failures = []
    for recs, failure in iter_flux_results(config, progress):
        records.extend(recs)
        if failure:
            failures.append(failure)
    return ButterflyDiagram(config, tuple(records), tuple(failures))


def sweep_to_jsonl(config: ButterflyConfig, path: str, progress=None):
    """Stream a sweep straight to JSON lines; returns (n_records, failures)."""
    n = 0
    failures = []
    with open(path, "w") as fh:
        for recs, failure in iter_flux_results(config, progress):
            _write_lines(fh, recs)
            n += len(recs)
            if failure:
                failures.append(failure)
    return n, failures


@dataclass(frozen=True)
class InconsistentPair:
    """Two Farey-adjacent gap records that fail the Streda check."""

    rec_a: GapRecord
    rec_b: GapRecord


def _flux_order(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as flux a = (p, q) lies below, at or above flux b."""
    d = a[0] * b[1] - b[0] * a[1]
    return (d > 0) - (d < 0)


def _adjacent_flux_pairs(fluxes: list[tuple]):
    """All Farey-adjacent pairs p2*q - p*q2 = 1 among ``fluxes``, each
    (p/q, p2/q2) with p/q below p2/q2, in increasing order.

    The upper neighbours of p/q have q2 = -p^-1 (mod q), so they are
    listed by stepping q2 by q up to the largest q present.  Fluxes are
    ordered by exact integer comparison.
    """
    order = sorted(set(fluxes), key=functools.cmp_to_key(_flux_order))
    rank = {f: i for i, f in enumerate(order)}
    q_max = max((q for _, q in order), default=1)
    pairs = []
    for (p, q), i in rank.items():
        if math.gcd(p, q) != 1:
            continue  # p2*q - p*q2 = 1 has no solution
        for q2 in range(-pow(p, -1, q) % q or q, q_max + 1, q):
            p2 = (p * q2 + 1) // q
            k = rank.get((p2, q2))
            if k is not None:
                pairs.append((i, k))
    return [(order[i], order[k]) for i, k in sorted(pairs)]


def detect_coloring_errors(diagram: ButterflyDiagram) -> list[InconsistentPair]:
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
    bad = []
    for fa, fb in _adjacent_flux_pairs(list(by_flux)):
        for ra in by_flux[fa]:
            for rb in by_flux[fb]:
                if rb.lo >= ra.hi:  # sorted; nothing further can overlap
                    break
                if streda_check(ra, rb) is StredaOutcome.INCONSISTENT:
                    bad.append(InconsistentPair(ra, rb))
    return bad


def _write_lines(fh, records) -> None:
    """One JSON line per gap record, in one write.

    Each line is ``_LINE`` filled from the record's fields, with the
    adjacent keys p, phi_d and q formatted once per run of records that
    share them.  Its bytes are those of
    ``json.dumps(gap_to_dict(r), sort_keys=True) + "\n"``:
    ints and floats print as ``str``, which is ``int.__repr__`` and
    ``float.__repr__`` as in ``json``; +/-inf ends print as null, a
    missing sigma as null, ``closed`` as true or false, and each tag is
    quoted by ``json.dumps``.  ``json`` writes NaN and an infinite phi_d
    as NaN and Infinity, which are not JSON, so such a record raises
    ValueError instead.
    """
    end = _NULL_ENDS.get
    lines = []
    key = flux = None
    for p, q, phi_d, j, lo, hi, width, closed, chern, source in records:
        if (p, phi_d, q) != key or not phi_d:  # 0.0 == -0.0: zeros anew
            key = (p, phi_d, q)
            flux = _FLUX % key
        # x - x is 0.0 (false) for finite x and NaN (true) otherwise
        if phi_d - phi_d or lo != lo or hi != hi or width != width:
            raise ValueError(f"gap record {p}/{q} j={j} is not JSON: phi_d={phi_d}, "
                             f"lo={lo}, hi={hi}, width={width}")
        lines.append(_LINE % ("null" if chern is None else chern,
                              "true" if closed else "false", end(hi, hi), j,
                              end(lo, lo), flux, _quoted(source),
                              end(width, width)))
    fh.write("".join(lines))


def write_records_jsonl(records, path: str) -> None:
    """Stream gap records to JSON lines, one record per line and one
    write per flux."""
    with open(path, "w") as fh:
        for _, recs in itertools.groupby(records, key=lambda r: (r.p, r.q)):
            _write_lines(fh, recs)


def _decode_block(lines: list) -> list:
    """The records of non-blank JSON lines, from one json.loads of their
    joined array.  On a parse error or an item count other than the
    line count, each line is decoded alone, so malformed input raises
    the JSONDecodeError of its first bad line."""
    try:
        dicts = json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError:
        dicts = None
    if dicts is None or len(dicts) != len(lines):
        dicts = [json.loads(line) for line in lines]
    return [gap_from_dict(d) for d in dicts]


def decode_records(lines):
    """Gap records of JSON lines, lazily; blank lines are skipped.

    ``lines`` is read one line at a time and decoded DECODE_BLOCK
    non-blank lines per ``_decode_block``."""
    block = []
    for line in lines:
        if line.strip():
            block.append(line)
            if len(block) == DECODE_BLOCK:
                yield from _decode_block(block)
                block = []
    if block:
        yield from _decode_block(block)


def read_records_jsonl(path: str) -> list[GapRecord]:
    with open(path) as fh:
        return list(decode_records(fh))

"""Flux sweeps: build, check and persist colored butterfly diagrams.

A diagram is the list of gap records of every reduced flux p/q with
q <= q_max, each open gap carrying a Chern number from the configured
resolution strategy.  A sweep's unit of work is a denominator: all
fluxes p/q of one q share their band-edge momenta, take their band
edges from one batched eigensolve, and come out as one table of columns
(``Denominator``): the gaps, window colors and edge-winding colors of
every flux.  Sweeps parallelize over denominators and stream to JSON
lines in the order they are computed (q_max down to 1, then p, then j),
straight from the columns; ``GapRecord`` tuples are built only where an
API returns records.  Diagrams can be audited for wing-coloring errors
by exact Streda comparisons between Farey-adjacent fluxes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .chern import edge_chern_table
# compute_gaps and resolve_in_window, the one-flux and one-gap forms of
# what the sweep does per table, stay names of this module, where
# perfbench/tracing.py patches them
from .diophantine import (
    StredaOutcome,
    chain_window,
    resolve_in_window,
    square_window,
    streda_check,
    triangular_window,
    window_representatives,
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
    gap_table,
)

RESOLVERS = ("square", "triangular", "chain", "computed")
DECODE_BLOCK = 256  # JSON lines per json.loads in decode_records
WRITE_BLOCK = 2048  # JSON lines per write of a sweep, at most (one flux at least)

# one JSON line: gap_to_dict's keys sorted, as json.dumps(sort_keys=True) writes them
_LINE = ('{"chern": %s, "closed": %s, "hi": %s, "j": %s, "lo": %s, %s, '
         '"source": %s, "width": %s}\n')
_FLUX = '"p": %s, "phi_d": %s, "q": %s'  # adjacent keys, one fragment
_NULL_ENDS = {math.inf: "null", -math.inf: "null"}  # gap_to_dict's +/-inf -> None
_quoted = functools.lru_cache(maxsize=None)(json.dumps)  # one json.dumps per tag
_JSON_BOOLS = np.array(["false", "true"], dtype=object)

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


# the tag codes of a table: an outer gap, a window color, an edge-winding
# color and a gray (or closed) gap; Denominator.tags spells them
OUTER, WINDOW, EDGE, GRAY = range(4)


class Denominator(NamedTuple):
    """The gap records of the fluxes p/q of one q, as columns.

    Row f holds the q + 1 gaps of flux ``ps[f]``: ``lo``, ``hi``,
    ``width`` and ``closed`` from ``gap_table``, sigma in ``chern`` and
    the index into ``tags`` of its source in ``tag``, all arrays of shape
    (len(ps), q + 1); ``chern`` is meaningful only where ``tag`` is not
    GRAY.  ``failures`` holds the (p, q, reason) of the fluxes that
    failed, which have no row.
    """

    q: int
    phi_d: float
    ps: list
    lo: np.ndarray
    hi: np.ndarray
    width: np.ndarray
    closed: np.ndarray
    chern: np.ndarray
    tag: np.ndarray
    tags: tuple
    failures: list


def _denominator_records(args) -> Denominator:
    """Worker for one denominator: the records of every flux p/q of
    ``ps`` as one ``Denominator`` table; a failed flux loses its row
    and never aborts a sweep.

    ``denominator_bands`` gives every flux its edges from one batched
    eigensolve.  A flux whose edges fail its own checks takes the dense
    scan; if the batch raises, each flux retries alone through
    ``compute_bands``, so a failure stays with its own flux.  The gaps
    of all fluxes come from one ``gap_table``, and the resolver's
    window, built once, colors every open interior gap of the table in
    one step: sigma = lo + (s*j - lo) mod q where that lies in the
    window.  Within ``cfg.reaches_edge(q)`` each flux then hands the
    open gaps the window leaves gray to one ``edge_chern_table`` call,
    tagged ``edge_winding``.
    """
    q, ps, cfg = args
    models = [HofstadterModel(Flux(p, q), cfg.phi_d, cfg.t1, cfg.t2, cfg.t3)
              for p in ps]
    failures = {}
    alone = False
    try:
        los, his, errors = denominator_bands(models)
    except Exception:  # whatever the batch raised, each flux retries alone below
        los, his, errors = np.zeros((len(ps), q)), np.zeros((len(ps), q)), [None] * len(ps)
        alone = True
    for f, (model, error) in enumerate(zip(models, errors)):
        if error is None and not alone:
            continue
        try:
            spectrum = (compute_bands_or_dense(model, compute_bands, compute_bands_dense)
                        if alone else compute_bands_dense(model))
            los[f], his[f] = zip(*spectrum.bands)
        except Exception as exc:  # record, never abort the sweep
            failures[f] = f"{type(exc).__name__}: {exc}"
    lo, hi, width, closed = gap_table(los, his, cfg.eps_gap)
    tag = np.full(lo.shape, GRAY, dtype=np.int8)
    tag[:, ::q] = OUTER  # j = 0 and j = q: sigma = 0, the chain anchors
    chern = np.zeros(lo.shape, dtype=np.int64)
    open_gap = ~closed
    open_gap[:, ::q] = False
    window = _window_for(cfg.resolver, q)
    if window is not None:
        # gap j of p/q has sigma = s*j (mod q), s = p^-1 (mod q)
        s = np.array([model.flux.s for model in models])
        sigma, inside = window_representatives(np.outer(s, np.arange(q + 1)) % q, window)
        colored = open_gap & inside
        chern[colored] = sigma[colored]
        tag[colored] = WINDOW
    gray = open_gap & (tag == GRAY)
    if cfg.reaches_edge(q):
        for f in np.flatnonzero(gray.any(axis=1)).tolist():
            if f in failures:
                continue
            recs = [GapRecord(ps[f], q, cfg.phi_d, j, lo[f, j], hi[f, j], width[f, j], False)
                    for j in np.flatnonzero(gray[f]).tolist()]
            try:
                table = edge_chern_table(models[f], recs)
            except Exception as exc:  # record, never abort the sweep
                failures[f] = f"{type(exc).__name__}: {exc}"
                continue
            for j, res in table.items():
                if res.value is not None:
                    chern[f, j] = res.value
                    tag[f, j] = EDGE
    rows = [f for f in range(len(ps)) if f not in failures]
    window_tag = "chain" if cfg.resolver == "chain" else "window_" + cfg.resolver
    return Denominator(q, cfg.phi_d, [ps[f] for f in rows],
                       *(x[rows] for x in (lo, hi, width, closed, chern, tag)),
                       ("chain", window_tag, "edge_winding", "unresolved"),
                       [(ps[f], q, failures[f]) for f in sorted(failures)])


def _flux_results(d: Denominator) -> list:
    """(records, None) per flux of ``d`` by ascending p, or ([], (p, q,
    reason)) for a flux that failed; the records are ``GapRecord``s made
    from the table's columns."""
    n = d.q + 1
    chern = _masked(d.chern, d.tag == GRAY, None)
    source = np.array(d.tags, dtype=object)[d.tag.ravel()].tolist()
    ps = [p for p in d.ps for _ in range(n)]
    records = list(map(GapRecord._make, zip(
        ps, [d.q] * len(ps), [d.phi_d] * len(ps), list(range(n)) * len(d.ps),
        *(x.ravel().tolist() for x in (d.lo, d.hi, d.width, d.closed)), chern, source)))
    results = {p: (records[f * n:(f + 1) * n], None) for f, p in enumerate(d.ps)}
    results.update((failure[0], ([], failure)) for failure in d.failures)
    return [results[p] for p in sorted(results)]


def _line_columns(d: Denominator, rows: slice) -> list:
    """The eight columns of ``_LINE``, in its order, for the records of
    ``d`` in ``rows``: each value JSON text, or a number that ``%s``
    writes as ``json`` does."""
    ps, tag = d.ps[rows], d.tag[rows]
    n = d.q + 1
    lo, hi, width = (_masked(x[rows], np.isinf(x[rows]), "null") for x in (d.lo, d.hi, d.width))
    source = np.array([_quoted(t) for t in d.tags], dtype=object)[tag.ravel()].tolist()
    closed = _JSON_BOOLS[d.closed[rows].ravel().astype(np.int8)].tolist()
    flux = [text for text in (_FLUX % (p, d.phi_d, d.q) for p in ps) for _ in range(n)]
    return [_masked(d.chern[rows], tag == GRAY, "null"), closed, hi,
            list(range(n)) * len(ps), lo, flux, source, width]


def _masked(x: np.ndarray, mask: np.ndarray, value) -> list:
    """The values of x, row by row, as Python numbers, with ``value``
    where ``mask`` holds."""
    out = x.astype(object)
    out[mask] = value
    return out.ravel().tolist()


def flux_records(p: int, q: int, cfg: ButterflyConfig) -> list[GapRecord]:
    """The gap records of flux p/q, colored by the configured resolver:
    the one-flux case of a sweep's denominator (``hofbutter dioph``).
    A failed flux raises RuntimeError with the sweep's reason."""
    ((records, failure),) = _flux_results(_denominator_records((q, [p], cfg)))
    if failure:
        raise RuntimeError(f"flux {p}/{q} failed: {failure[2]}")
    return records


def _in_order(fn, tasks: list, jobs: int):
    """fn over tasks, results in task order: the builtin ``map`` at
    jobs=1, else a pool of ``jobs`` processes with at most 2 * jobs
    tasks submitted ahead of the result being yielded, so results that
    finish early wait in bounded number."""
    if jobs == 1:
        yield from map(fn, tasks)
        return
    todo = iter(tasks)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        ahead = deque(pool.submit(fn, task) for task in itertools.islice(todo, 2 * jobs))
        while ahead:
            result = ahead.popleft().result()
            ahead.extend(pool.submit(fn, task) for task in itertools.islice(todo, 1))
            yield result


def _denominators(config: ButterflyConfig, progress=None):
    """The ``Denominator`` tables of a sweep as they are computed, q_max
    down to 1; ``progress(done, total)`` runs once per flux."""
    fluxes = sorted(enumerate_fluxes(config.q_max), key=lambda f: (-f.q, f.p))
    tasks = [(q, [f.p for f in group], config)
             for q, group in itertools.groupby(fluxes, key=lambda f: f.q)]
    done, total = 0, len(fluxes)
    for d in _in_order(_denominator_records, tasks, config.jobs):
        if progress:
            for i in range(done + 1, done + len(d.ps) + len(d.failures) + 1):
                progress(i, total)
        done += len(d.ps) + len(d.failures)
        yield d


def iter_flux_results(config: ButterflyConfig, progress=None):
    """Yield (records, failure) per flux in the order the sweep computes
    them: denominators q_max ... 1, each q's fluxes by ascending p, each
    flux's records by j.

    The lazy backbone of every sweep that returns records: giant
    diagrams stream through without materializing, each flux yielded
    with the denominator that computed it.  The unit of work is a
    denominator: ``_denominator_records`` runs once per q, largest q
    first, in-process at jobs=1 and in a process pool at jobs>1, at most
    2 * jobs denominators ahead of the one being yielded.  The order is
    that of the tasks, so the output is deterministic for a fixed
    config regardless of ``jobs``.  No reader depends on it: ``render``
    paints in stable descending-q order and the audit sorts the fluxes.
    BLAS threads are not pinned; test_determinism_across_jobs checks
    jobs=N.
    """
    for d in _denominators(config, progress):
        yield from _flux_results(d)


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
    """Stream a sweep straight to JSON lines; returns (n_records, failures).

    Each denominator's table goes to the file from its columns, in
    blocks of whole rows, with no ``GapRecord`` built (``_write_table``)."""
    n = 0
    failures = []
    with open(path, "w") as fh:
        for d in _denominators(config, progress):
            _write_table(fh, d)
            n += len(d.ps) * (d.q + 1)
            failures.extend(d.failures)
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


def _not_json(p, q, phi_d, j, lo, hi, width) -> ValueError:
    return ValueError(f"gap record {p}/{q} j={j} is not JSON: phi_d={phi_d}, "
                      f"lo={lo}, hi={hi}, width={width}")


def _write_columns(fh, columns) -> None:
    """One JSON line per row of the eight ``_LINE`` columns, in one
    write: one C-level ``%`` per line over ready values."""
    fh.write("".join(map(_LINE.__mod__, zip(*columns))))


def _write_lines(fh, records) -> None:
    """One JSON line per gap record, in one write.

    Each line is ``_LINE`` filled from the record's fields, column by
    column, with the adjacent keys p, phi_d and q as one fragment.  Its
    bytes are those of ``json.dumps(gap_to_dict(r), sort_keys=True) +
    "\n"``: ints and floats print as ``str``, which is ``int.__repr__``
    and ``float.__repr__`` as in ``json``; +/-inf ends print as null, a
    missing sigma as null, ``closed`` as true or false, and each tag is
    quoted by ``json.dumps``.  ``json`` writes NaN and an infinite phi_d
    as NaN and Infinity, which are not JSON, so such a record raises
    ValueError instead, before anything is written.  A sweep writes its
    ``Denominator`` tables through the same ``_write_columns``.
    """
    records = list(records)
    if not records:
        return
    p, q, phi_d, j, lo, hi, width, closed, chern, source = zip(*records)
    bad = next(itertools.compress(records, map(_not_finite, phi_d, lo, hi, width)), None)
    if bad:
        raise _not_json(*bad[:7])
    end = _NULL_ENDS.get
    _write_columns(fh, [["null" if c is None else c for c in chern],
                        ["true" if c else "false" for c in closed],
                        list(map(end, hi, hi)), j, list(map(end, lo, lo)),
                        _fragments(p, phi_d, q),
                        list(map(_quoted, source)), list(map(end, width, width))])


def _fragments(p, phi_d, q) -> list:
    """The p, phi_d, q fragment of each record, formatted once per run of
    records that share it; 0.0 == -0.0, so the sign of phi_d is part of
    a run's key."""
    out = []
    signs = map(math.copysign, itertools.repeat(1.0), phi_d)
    for (*key, _), run in itertools.groupby(zip(p, phi_d, q, signs)):
        out.extend(itertools.repeat(_FLUX % tuple(key), sum(1 for _ in run)))
    return out


def _not_finite(phi_d, lo, hi, width) -> bool:
    """Whether a record has a NaN float or an infinite phi_d: x - x is
    0.0 (false) for finite x and NaN (true) otherwise."""
    return bool(phi_d - phi_d) or lo != lo or hi != hi or width != width


def _write_table(fh, d: Denominator) -> None:
    """The JSON lines of a ``Denominator`` table, one write per block of
    rows of up to WRITE_BLOCK lines, with the bytes and the NaN rule of
    ``_write_lines``; nothing is written if a value is not JSON."""
    bad = np.isnan(d.lo) | np.isnan(d.hi) | np.isnan(d.width) | (not math.isfinite(d.phi_d))
    if bad.any():
        f, j = np.argwhere(bad)[0].tolist()
        raise _not_json(d.ps[f], d.q, d.phi_d, j,
                        *(x[f, j].item() for x in (d.lo, d.hi, d.width)))
    step = max(1, WRITE_BLOCK // (d.q + 1))
    for start in range(0, len(d.ps), step):
        _write_columns(fh, _line_columns(d, slice(start, start + step)))


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

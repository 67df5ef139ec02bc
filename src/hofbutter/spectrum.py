"""Band intervals and gaps via the Chambers structure of det H(k).

The characteristic polynomial splits as det(H(k) - x) = P(x) + det H(k)
with P independent of k, so every band edge is attained where det H(k)
is extremal (Chambers, Phys. Rev. 140, A135, 1965).  Closed forms give
those momenta for the square limit and the isotropic model at phi_d =
+/-pi/2; elsewhere a 1-D search over the k-dependent part finds them.
That part does not depend on p, so all fluxes p/q of one denominator
share their two edge momenta, and ``denominator_bands`` takes the band
edges of all of them from one batched eigensolve; ``compute_bands`` is
its one-flux case.  At those momenta the loop phase of the hops of H is
real, so H gauges to a real symmetric periodic Jacobi matrix
(``jacobi_batch``), and the edge eigensolves are real ones.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .magnetic_algebra import (
    BlochMomentum,
    HofstadterModel,
    _is_half_pi,
    build_hamiltonian,
    hamiltonian_batch,
    jacobi_batch,
)

CHAMBERS_REL_TOL = 1e-9
BAND_OVERLAP_TOL = 1e-8
GAP_EPS_DEFAULT = 1e-8
CONTAINMENT_REL_TOL = 1e-9
EDGE_GRID = 256  # samples of y = q k2 that locate the peaks before bisection
REFINE_ROUNDS, REFINE_POINTS = 14, 7  # shrinking grids of compute_bands_dense
# bytes of the largest stacks that one batched call of a sweep's stages
# holds: J at the edges and H at the probes in denominator_bands, one call
# per q up to q = 52 (36 with probes), and the edge-winding companions and
# polish in chern.denominator_edge_chern; a q_max 128 sweep's peak RSS
# stays near that of one flux at a time (notes/decisions.md)
EDGE_STACK_BYTES = 1 << 21
# (k1s, k2s) of two generic momenta at which denominator_bands checks searched
# edges; plain literals, as an rng here would import numpy.random
_PROBE_K = ((-1.5146502, -0.9436313), (-1.1435780, -2.6196691))


class ChambersMismatch(Exception):
    """Raised when the char-poly coefficients drift with k beyond tolerance."""


class BandOverlapError(Exception):
    """Raised when band intervals assembled from edge k-points overlap."""


class BandContainmentError(BandOverlapError):
    """Raised when a probe eigenvalue falls outside searched band edges."""


@dataclass(frozen=True)
class ChambersData:
    """k-independent characteristic polynomial data of one model.

    ``poly_coeffs`` holds P(x) = det(H(k)-x) - det H(k) in descending
    powers of x (length q+1, zero constant term); ``h_offset`` is
    det H(k) at the reference momentum k = (0, 0), its k-dependent part
    included (the constant part alone is ``det_offset``).
    """

    poly_coeffs: np.ndarray
    h_offset: float
    max_rel_dev: float


def _char_poly(model: HofstadterModel, k) -> np.ndarray:
    """Coefficients of det(H(k) - x), descending powers of x."""
    evs = np.linalg.eigvalsh(build_hamiltonian(model, k))
    return np.real(np.poly(evs)) * (-1.0) ** model.q


def chambers_polynomial(model: HofstadterModel, check_points: int = 3) -> ChambersData:
    """P(x) from a reference momentum, cross-checked at other momenta.

    Raises ChambersMismatch if recomputed coefficients deviate by more
    than 1e-9 relative to the coefficient scale (should not happen for
    this Hamiltonian class).
    """
    k0 = (0.0, 0.0)
    c0 = _char_poly(model, k0)
    h_offset = c0[-1]
    coeffs = c0.copy()
    coeffs[-1] = 0.0
    scale = max(1.0, np.abs(c0).max())
    rng = np.random.default_rng(20240801)
    dev = 0.0
    for _ in range(max(check_points, 1)):
        k = rng.uniform(-math.pi, math.pi, 2)
        c = _char_poly(model, tuple(k))
        c[-1] = 0.0
        dev = max(dev, float(np.abs(c - coeffs).max()))
    if dev / scale > CHAMBERS_REL_TOL:
        raise ChambersMismatch(
            f"char poly varies with k: rel dev {dev / scale:.3e} for {model}")
    return ChambersData(coeffs, float(h_offset), dev / scale)


def _chambers_terms(model: HofstadterModel):
    """(a, b, c, scale): the k-dependent part of det H(k) is
    (-1)^(q+1) 2 scale Re(a e^{ix} + b e^{iy} + c e^{i(x+y)}) with
    x = q k1, y = q k2 and scale = max(t)^q, so |a|, |b|, |c| <= 1.
    The phase of c is w_u^q = e^{2 pi i p} e^{-i q phi_d} = e^{-i q phi_d},
    taken in that exact form, so the terms are the same for every p/q
    of one q.  All-zero hoppings (H = 0) give a = b = c = 0."""
    q = model.q
    t_max = max(model.t1, model.t2, model.t3) or 1.0
    a = (model.t2 / t_max) ** q
    b = (model.t1 / t_max) ** q
    c = (-1.0) ** (q - 1) * (model.t3 / t_max) ** q * cmath.exp(-1j * (q * model.phi_d))
    return a, b, c, t_max ** q


def _oscillatory(model: HofstadterModel, k1, k2):
    """The k-dependent part of det H(k), for any hoppings."""
    q = model.q
    a, b, c, scale = _chambers_terms(model)
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    inner = (a * np.exp(1j * q * k1) + b * np.exp(1j * q * k2)
             + c * np.exp(1j * q * (k1 + k2)))
    return (-1.0) ** (q + 1) * 2.0 * scale * np.real(inner)


def det_offset(model: HofstadterModel) -> float:
    """Constant part h of det H(k), calibrated at a reference momentum."""
    if not model.is_isotropic:
        raise ValueError("closed-form determinant requires t1 = t2 = t3 = 1")
    k0 = (0.0, 0.0)
    d0 = float(np.real(np.linalg.det(build_hamiltonian(model, k0))))
    return d0 - float(_oscillatory(model, *k0))


def det_closed_form(model: HofstadterModel, k) -> float:
    """det H(k) from the Chambers closed form (isotropic models only)."""
    h = det_offset(model)
    k1, k2 = k
    return h + float(_oscillatory(model, k1, k2))


def _refine_extremum(f, k0, span, minimize: bool) -> float:
    """Shrinking-grid search around k0; returns the extremal value."""
    k1, k2 = k0
    best = f(np.array([k1]), np.array([k2]))[0]
    sign = 1.0 if minimize else -1.0
    for _ in range(REFINE_ROUNDS):
        a = np.linspace(k1 - span, k1 + span, REFINE_POINTS)
        b = np.linspace(k2 - span, k2 + span, REFINE_POINTS)
        A, B = np.meshgrid(a, b, indexing="ij")
        vals = f(A.ravel(), B.ravel())
        i = int(np.argmin(sign * vals))
        k1, k2, best = A.ravel()[i], B.ravel()[i], vals[i]
        span /= 3.0
    return float(best)


def _extremize_det(model: HofstadterModel) -> list[BlochMomentum]:
    """Global min and max momenta of det H(k), from its k-dependent part:
    with z = a + c e^{iy}, g = Re(e^{ix} z) + b cos y is extremal over x at
    -arg z (max) and pi - arg z (min); each grid peak of the rest,
    F = |z| +/- b cos y, is bisected on F' (see notes/decisions.md)."""
    q = model.q
    a, b, c, _ = _chambers_terms(model)
    step = 2.0 * math.pi / EDGE_GRID
    grid = np.arange(EDGE_GRID) * step
    out = []
    for s, x0 in ((-1.0, math.pi), (1.0, 0.0)):  # min of g, then max
        vals = np.abs(a + c * np.exp(1j * grid)) + s * b * np.cos(grid)
        ys = [float(grid[np.argmax(vals)])]  # the grid's best stays a candidate
        for y in grid[(vals > np.roll(vals, 1)) & (vals >= np.roll(vals, -1))].tolist():
            lo, mid, hi = y - step, y, y + step
            while lo < mid < hi:  # on the sign of F' |z|, defined at z = 0 too
                e = c * cmath.exp(1j * mid)
                z = a + e
                rising = (1j * e * z.conjugate()).real > s * b * math.sin(mid) * abs(z)
                lo, hi = (mid, hi) if rising else (lo, mid)
                mid = 0.5 * (lo + hi)
            ys.append(mid)
        y = max(ys, key=lambda y: abs(a + c * cmath.exp(1j * y)) + s * b * math.cos(y))
        x = x0 - cmath.phase(a + c * cmath.exp(1j * y))
        out.append(BlochMomentum(x / q, y / q))
    return out


def _edges_in_closed_form(model: HofstadterModel) -> bool:
    """Whether band_edge_kpoints knows this model's edge momenta exactly."""
    return model.t3 == 0.0 or (model.is_isotropic and _is_half_pi(model.phi_d))


def _edge_candidates(model: HofstadterModel) -> list[tuple[float, float]]:
    """The closed-form family of momenta among which det H(k) takes its
    global min and max: the square limit (t3 = 0) and the isotropic model
    at phi_d = +/-pi/2; note the even-q family splits on q mod 4."""
    q = model.q
    if model.t3 == 0.0:
        # square/rectangular limit: det depends on cos(q k1), cos(q k2)
        return [(0.0, 0.0), (math.pi / q, 0.0),
                (0.0, math.pi / q), (math.pi / q, math.pi / q)]
    if q % 2 == 1:
        base = [(math.pi / 6, math.pi / 6), (5 * math.pi / 6, 5 * math.pi / 6)]
        pts = [(x / q, y / q) for x, y in base]
        return pts + [(-x, -y) for x, y in pts]
    if q % 4 == 2:
        x = 2 * math.pi / (3 * q)
        return [(0.0, 0.0), (x, x), (-x, -x)]
    x = math.pi / (3 * q)
    y = math.pi / q
    return [(x, x), (-x, -x), (y, y), (-y, -y)]


def band_edge_kpoints(model: HofstadterModel) -> list[BlochMomentum]:
    """The global min and max momenta of det H(k), where every band edge
    occurs; they depend on q, phi_d and the hoppings, not on p.

    For a closed-form family (_edge_candidates) they are the argmin and
    argmax of _oscillatory among its candidates: the others tie with them
    or lie between them in det H, so their spectra add no edge.  Any
    other model gets them from the 1-D search of _extremize_det.
    """
    if not _edges_in_closed_form(model):
        return _extremize_det(model)
    pts = _edge_candidates(model)
    det = _oscillatory(model, *zip(*pts))
    return [BlochMomentum(*pts[int(np.argmin(det))]),
            BlochMomentum(*pts[int(np.argmax(det))])]


@dataclass(frozen=True)
class BandSpectrum:
    """q ordered band intervals of one model."""

    model: HofstadterModel
    bands: tuple  # ((lo, hi), ...) ascending


class GapRecord(NamedTuple):
    """One spectral gap: index, interval, width and Chern bookkeeping.

    Gap j sits between bands j and j+1; j = 0 and j = q are the
    semi-infinite gaps below/above the spectrum with sigma = 0.  The
    density is the rational j/q.  ``chern_source`` records how the
    Chern number was resolved.  A plain tuple underneath, so a sweep
    builds, compares and hashes its records cheaply; ``_replace``
    returns a changed copy.
    """

    p: int
    q: int
    phi_d: float
    j: int
    lo: float
    hi: float
    width: float
    closed: bool
    chern: Optional[int] = None
    chern_source: str = "unresolved"


def denominator_bands(models):
    """Band edges of fluxes p/q that share q, phi_d and the hoppings,
    from one batched real eigensolve: J (jacobi_batch) of every flux at
    the two band-edge momenta of the denominator, a float64
    (len(models), 2, q, q) stack.  When the edges were searched, H at
    the two probe momenta follows as a complex stack of the same shape.
    Stacks over EDGE_STACK_BYTES together are solved in slices of fluxes
    that fit.

    Returns (los, his, errors): the lower and upper edges of every band,
    float64 arrays of shape (len(models), q) with row m for models[m],
    and per flux None or the error its own edges raised, since each
    flux keeps its own checks: BandOverlapError if its intervals overlap
    by more than 1e-8, the signature of a band-edge k-point failure, and
    BandContainmentError if searched edges miss one of its probe
    eigenvalues.  A failed eigensolve raises for the whole batch.
    """
    pts = band_edge_kpoints(models[0])
    probed = not _edges_in_closed_form(models[0])
    q = models[0].q
    # a flux adds 8 bytes an entry of J and 16 an entry of a probe H
    per_flux = (8 * len(pts) + 16 * len(_PROBE_K[0]) * probed) * q * q
    per_call = max(1, EDGE_STACK_BYTES // per_flux)
    slices = [models[i:i + per_call] for i in range(0, len(models), per_call)]
    evs = np.concatenate([np.linalg.eigvalsh(jacobi_batch(s, *zip(*pts)))
                          for s in slices])
    # + 0.0 turns an edge of -0.0 (all-zero hoppings) into 0.0
    los = evs.min(axis=1) + 0.0
    his = evs.max(axis=1) + 0.0
    overlap = his[:, :-1] > los[:, 1:] + BAND_OVERLAP_TOL
    if probed:
        probe = np.concatenate([np.linalg.eigvalsh(hamiltonian_batch(s, *_PROBE_K))
                                for s in slices])
        outside = np.maximum(los[:, None] - probe, probe - his[:, None])
        tol = CONTAINMENT_REL_TOL * np.maximum(1.0, np.abs(probe))
        missed = (outside > tol).any(axis=(1, 2))
    errors = [None] * len(models)
    for m in np.flatnonzero(overlap.any(axis=1)).tolist():
        n = int(overlap[m].argmax())
        errors[m] = BandOverlapError(
            f"bands {n + 1} and {n + 2} overlap by {his[m, n] - los[m, n + 1]:.3e}")
    if probed:
        for m in np.flatnonzero(missed).tolist():
            errors[m] = errors[m] or BandContainmentError(
                f"probe eigenvalues up to {outside[m].max():.3e} outside their bands")
    return los, his, errors


def compute_bands(model: HofstadterModel) -> BandSpectrum:
    """Band intervals of one flux: ``denominator_bands`` of it alone.

    Raises its BandOverlapError or BandContainmentError; callers should
    then retry with compute_bands_dense, as compute_bands_or_dense does.
    """
    los, his, (error,) = denominator_bands([model])
    if error is not None:
        raise error
    return BandSpectrum(model, tuple(zip(los[0].tolist(), his[0].tolist())))


def compute_bands_dense(model: HofstadterModel, grid: int = 64) -> BandSpectrum:
    """Validation fallback: dense scan over the 2*pi/q cell, then local
    refinement of each band extremum.  Makes no Chambers assumption."""
    q = model.q
    step = 2.0 * math.pi / q / grid
    axis = (np.arange(grid) + 0.5) * step - math.pi / q
    A, B = np.meshgrid(axis, axis, indexing="ij")
    evs = np.linalg.eigvalsh(hamiltonian_batch(model, A.ravel(), B.ravel()))
    los = np.empty(q)
    his = np.empty(q)
    for n in range(q):
        band = evs[:, n]

        def level(a, b, n=n):
            return np.linalg.eigvalsh(hamiltonian_batch(model, a, b))[..., n]

        imin = int(np.argmin(band))
        imax = int(np.argmax(band))
        los[n] = _refine_extremum(level, (A.ravel()[imin], B.ravel()[imin]), step, True)
        his[n] = _refine_extremum(level, (A.ravel()[imax], B.ravel()[imax]), step, False)
    bands = tuple(zip((los + 0.0).tolist(), (his + 0.0).tolist()))
    return BandSpectrum(model, bands)


def compute_bands_or_dense(model: HofstadterModel, fast=compute_bands,
                           dense=compute_bands_dense) -> BandSpectrum:
    """fast(model), or dense(model) if its band-edge momenta fail.  Other
    modules pass the routines they import, so that a wrapper on their
    names (perfbench/tracing.py) sees each call."""
    try:
        return fast(model)
    except BandOverlapError:
        return dense(model)


def check_eps_gap(eps_gap: float) -> None:
    """Raise ValueError unless eps_gap is finite and >= 0; NaN or < 0 opens every gap."""
    if not 0 <= eps_gap < math.inf:
        raise ValueError(f"eps_gap must be finite and >= 0, got {eps_gap}")


def gap_table(los, his, eps_gap: float = GAP_EPS_DEFAULT):
    """lo, hi, width and closed of gaps j = 0..q of every row of band
    edges, arrays of shape (rows, q + 1) from (rows, q) ``los`` and
    ``his`` (as ``denominator_bands`` returns them).

    Interior gap j spans [e_max(j), e_min(j+1)], with width
    max(hi - lo, 0), and is closed when its width falls below eps_gap.
    The semi-infinite gaps j = 0 and j = q reach -inf and +inf, have
    width inf and are open."""
    ends = np.full((len(los), 1), np.inf)
    lo = np.concatenate([-ends, his], axis=1)
    hi = np.concatenate([los, ends], axis=1)
    width = np.full(lo.shape, np.inf)
    width[:, 1:-1] = np.maximum(los[:, 1:] - his[:, :-1], 0.0)
    return lo, hi, width, width < eps_gap


def compute_gaps(spectrum: BandSpectrum, eps_gap: float = GAP_EPS_DEFAULT) -> list[GapRecord]:
    """The q+1 gap records of a band spectrum: one row of ``gap_table``.

    The semi-infinite gaps j = 0 and j = q carry sigma = 0 from the
    start (the chain anchors); interior gaps are unresolved.
    """
    check_eps_gap(eps_gap)
    model = spectrum.model
    p, q, phi_d = model.flux.p, model.q, model.phi_d
    los, his = np.array(spectrum.bands, dtype=float).T
    lo, hi, width, closed = (x[0].tolist() for x in gap_table(los[None], his[None], eps_gap))
    records = [GapRecord(p, q, phi_d, j, *gap) for j, gap in enumerate(zip(lo, hi, width, closed))]
    records[0] = records[0]._replace(chern=0, chern_source="chain")
    records[q] = records[q]._replace(chern=0, chern_source="chain")
    return records


# ---------------------------------------------------------------------------
# serialization

def _num(x):
    if x is None or math.isinf(x):
        return None
    return x


def gap_to_dict(rec: GapRecord) -> dict:
    return {
        "p": rec.p, "q": rec.q, "phi_d": rec.phi_d, "j": rec.j,
        "lo": _num(rec.lo), "hi": _num(rec.hi), "width": _num(rec.width),
        "closed": rec.closed, "chern": rec.chern, "source": rec.chern_source,
    }


def gap_from_dict(d: dict) -> GapRecord:
    lo = -math.inf if d["lo"] is None else d["lo"]
    hi = math.inf if d["hi"] is None else d["hi"]
    width = math.inf if d["width"] is None else d["width"]
    return GapRecord(d["p"], d["q"], d["phi_d"], d["j"], lo, hi, width,
                     d["closed"], d["chern"], d["source"])


def spectrum_to_json(spectrum: BandSpectrum, gaps: list[GapRecord]) -> str:
    """JSON schema: {p, q, phi_d, t, bands, gaps}."""
    m = spectrum.model
    return json.dumps({
        "p": m.flux.p, "q": m.q, "phi_d": m.phi_d,
        "t": [m.t1, m.t2, m.t3],
        "bands": [[lo, hi] for lo, hi in spectrum.bands],
        "gaps": [{k: v for k, v in gap_to_dict(r).items()
                  if k not in ("p", "q", "phi_d")} for r in gaps],
    })


GAP_CSV_COLUMNS = ["p", "q", "j", "lo", "hi", "width", "closed", "chern", "source"]


def gaps_to_csv(records: list[GapRecord]) -> str:
    """CSV export with columns p,q,j,lo,hi,width,closed,chern,source."""
    lines = [",".join(GAP_CSV_COLUMNS)]
    for r in records:
        d = gap_to_dict(r)
        row = []
        for c in GAP_CSV_COLUMNS:
            v = d[c]
            row.append("" if v is None else (repr(v) if isinstance(v, float) else str(v)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"

"""Band intervals and gaps via the Chambers structure of det H(k).

The characteristic polynomial splits as det(H(k) - x) = P(x) + det H(k)
with P independent of k, so every band edge is attained where det H(k)
is extremal (Chambers, Phys. Rev. 140, A135, 1965).  Closed forms give
those momenta for the square limit and the isotropic model at phi_d =
+/-pi/2; elsewhere a 1-D search over the k-dependent part finds them.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .magnetic_algebra import (
    BlochMomentum,
    HofstadterModel,
    _is_half_pi,
    build_hamiltonian,
    hamiltonian_batch,
)

CHAMBERS_REL_TOL = 1e-9
BAND_OVERLAP_TOL = 1e-8
GAP_EPS_DEFAULT = 1e-8
CONTAINMENT_REL_TOL = 1e-9
EDGE_GRID = 256  # samples of y = q k2 that locate the peaks before bisection
# (k1s, k2s) of two generic momenta at which compute_bands checks searched
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
    powers of x (length q+1, zero constant term); ``h_offset`` is the
    flux-dependent constant part of det H(k).
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
    x = q k1, y = q k2 and scale = max(t)^q, so |a|, |b|, |c| <= 1."""
    q = model.q
    t_max = max(model.t1, model.t2, model.t3)
    a = (model.t2 / t_max) ** q
    b = (model.t1 / t_max) ** q
    c = complex((-1.0) ** (q - 1) * (model.t3 / t_max) ** q * model.omega_u ** q)
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


@functools.lru_cache(maxsize=256)
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


def _refine_extremum(f, k0, span, minimize: bool, rounds: int = 14, n: int = 7):
    """Shrinking-grid search around k0; returns (k, value)."""
    k1, k2 = k0
    best = f(np.array([k1]), np.array([k2]))[0]
    sign = 1.0 if minimize else -1.0
    for _ in range(rounds):
        a = np.linspace(k1 - span, k1 + span, n)
        b = np.linspace(k2 - span, k2 + span, n)
        A, B = np.meshgrid(a, b, indexing="ij")
        vals = f(A.ravel(), B.ravel())
        i = int(np.argmin(sign * vals))
        k1, k2, best = A.ravel()[i], B.ravel()[i], vals[i]
        span /= 3.0
    return (float(k1), float(k2)), float(best)


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


def band_edge_kpoints(model: HofstadterModel) -> list[BlochMomentum]:
    """Momenta where det H(k) is extremal, hence where band edges occur.

    Closed-form families exist for the square limit (t3 = 0) and for
    the isotropic model at phi_d = +/-pi/2; note the even-q family
    splits on q mod 4.  Any other model gets the global min and max
    momenta of det H from the 1-D search of _extremize_det.
    """
    if not _edges_in_closed_form(model):
        return _extremize_det(model)
    q = model.q
    if model.t3 == 0.0:
        # square/rectangular limit: det depends on cos(q k1), cos(q k2)
        pts = [(0.0, 0.0), (math.pi / q, 0.0),
               (0.0, math.pi / q), (math.pi / q, math.pi / q)]
    elif q % 2 == 1:
        base = [(math.pi / 6, math.pi / 6), (5 * math.pi / 6, 5 * math.pi / 6)]
        pts = [(x / q, y / q) for x, y in base]
        pts += [(-x, -y) for x, y in pts]
    elif q % 4 == 2:
        x = 2 * math.pi / (3 * q)
        pts = [(0.0, 0.0), (x, x), (-x, -x)]
    else:
        x = math.pi / (3 * q)
        y = math.pi / q
        pts = [(x, x), (-x, -x), (y, y), (-y, -y)]
    return [BlochMomentum(*k) for k in pts]


@dataclass(frozen=True)
class BandSpectrum:
    """q ordered band intervals of one model plus the momenta used."""

    model: HofstadterModel
    bands: tuple  # ((lo, hi), ...) ascending
    edge_kpoints: tuple

    @property
    def q(self) -> int:
        return self.model.q


@dataclass(frozen=True)
class GapRecord:
    """One spectral gap: index, interval, width and Chern bookkeeping.

    Gap j sits between bands j and j+1; j = 0 and j = q are the
    semi-infinite gaps below/above the spectrum with sigma = 0.  The
    density is the rational j/q.  ``chern_source`` records how the
    Chern number was resolved.
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

    @property
    def rho(self) -> Fraction:
        return Fraction(self.j, self.q)

    @property
    def flux_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


def compute_bands(model: HofstadterModel) -> BandSpectrum:
    """Band intervals from eigensolves at the band-edge momenta only.

    Raises BandOverlapError if the assembled intervals overlap by more
    than 1e-8, the signature of a band-edge k-point failure; callers
    should then retry with compute_bands_dense, as compute_bands_or_dense
    does.  Searched edges must also contain the spectrum at two probe
    momenta, else BandContainmentError.
    """
    pts = band_edge_kpoints(model)
    evs = np.stack([np.linalg.eigvalsh(build_hamiltonian(model, k)) for k in pts])
    los = evs.min(axis=0)
    his = evs.max(axis=0)
    for n in range(model.q - 1):
        if his[n] > los[n + 1] + BAND_OVERLAP_TOL:
            raise BandOverlapError(
                f"bands {n + 1} and {n + 2} overlap by {his[n] - los[n + 1]:.3e}")
    if not _edges_in_closed_form(model):
        probe = np.linalg.eigvalsh(hamiltonian_batch(model, *_PROBE_K))
        outside = np.maximum(los - probe, probe - his)
        if (outside > CONTAINMENT_REL_TOL * np.maximum(1.0, np.abs(probe))).any():
            raise BandContainmentError(
                f"probe eigenvalues up to {outside.max():.3e} outside their bands")
    bands = tuple((float(lo), float(hi)) for lo, hi in zip(los, his))
    return BandSpectrum(model, bands, tuple(pts))


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
    kpts = []
    for n in range(q):
        band = evs[:, n]

        def level(a, b, n=n):
            return np.linalg.eigvalsh(hamiltonian_batch(model, a, b))[..., n]

        imin = int(np.argmin(band))
        imax = int(np.argmax(band))
        kmin, los[n] = _refine_extremum(
            level, (A.ravel()[imin], B.ravel()[imin]), step, True)
        kmax, his[n] = _refine_extremum(
            level, (A.ravel()[imax], B.ravel()[imax]), step, False)
        kpts += [BlochMomentum(*kmin), BlochMomentum(*kmax)]
    bands = tuple((float(lo), float(hi)) for lo, hi in zip(los, his))
    return BandSpectrum(model, bands, tuple(kpts))


def compute_bands_or_dense(model: HofstadterModel, fast=compute_bands,
                           dense=compute_bands_dense) -> BandSpectrum:
    """fast(model), or dense(model) if its band-edge momenta fail.  Other
    modules pass the routines they import, so that a wrapper on their
    names (perfbench/tracing.py) sees each call."""
    try:
        return fast(model)
    except BandOverlapError:
        return dense(model)


def compute_gaps(spectrum: BandSpectrum, eps_gap: float = GAP_EPS_DEFAULT) -> list[GapRecord]:
    """The q+1 gap records of a band spectrum.

    Interior gap j spans [e_max(j), e_min(j+1)] and is flagged closed
    when its width falls below eps_gap.  The semi-infinite gaps j = 0
    and j = q carry sigma = 0 from the start (the chain anchors).
    """
    model = spectrum.model
    p, q, phi_d = model.flux.p, model.q, model.phi_d
    bands = spectrum.bands
    records = [GapRecord(p, q, phi_d, 0, -math.inf, bands[0][0], math.inf,
                         False, 0, "chain")]
    for j in range(1, q):
        lo = bands[j - 1][1]
        hi = bands[j][0]
        width = max(hi - lo, 0.0)
        records.append(GapRecord(p, q, phi_d, j, lo, hi, width,
                                 width < eps_gap))
    records.append(GapRecord(p, q, phi_d, q, bands[-1][1], math.inf, math.inf,
                             False, 0, "chain"))
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


def spectrum_to_dict(spectrum: BandSpectrum, gaps: list[GapRecord]) -> dict:
    """JSON schema: {p, q, phi_d, t, bands, gaps}."""
    m = spectrum.model
    return {
        "p": m.flux.p, "q": m.q, "phi_d": m.phi_d,
        "t": [m.t1, m.t2, m.t3],
        "bands": [[lo, hi] for lo, hi in spectrum.bands],
        "gaps": [{k: v for k, v in gap_to_dict(r).items()
                  if k not in ("p", "q", "phi_d")} for r in gaps],
    }


def spectrum_to_json(spectrum: BandSpectrum, gaps: list[GapRecord]) -> str:
    return json.dumps(spectrum_to_dict(spectrum, gaps))


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

"""Band and gap Chern numbers.

Two independent routes are implemented.  The workhorse is a
gauge-invariant plaquette (link-variable) discretization of the Berry
curvature over the magnetic Brillouin zone, computed from rank-j
projector overlap determinants so that only the target gap needs to be
open.  The oracle is discrete Kato parallel transport around the
2*pi/q reduced cell, whose holonomy fixes every band's Chern residue
mod q.  Orientation is chosen so that the two agree and the square
model reproduces its known window; with it the curvature quadrature of
``berry_curvature`` integrates to the same integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .magnetic_algebra import (
    HofstadterModel,
    _symmetry_unitaries,
    build_hamiltonian,
    hamiltonian_batch,
    hamiltonian_derivatives,
)
from .spectrum import GAP_EPS_DEFAULT, compute_bands, compute_bands_or_dense, compute_gaps

DEGENERACY_TOL = 1e-10
QUANTIZATION_TOL = 0.05
ADMISSIBILITY = 0.98 * math.pi
GRID_DEFAULT = 32
GRID_CAP = 256
TRANSPORT_STEPS_DEFAULT = 256
TRANSPORT_STEPS_CAP = 16384
TRANSPORT_PHASE_TOL = 1e-8


class GapClosed(Exception):
    """Chern number requested for a gap that is not open."""


class GridDegeneracy(Exception):
    """Eigenvalue collision on the integration grid; carries the momentum."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class QuantizationFailure(Exception):
    """Field strength not admissible up to the grid cap."""


class TransportFailure(Exception):
    """Parallel transport lost the band (projector jump too large)."""


@dataclass(frozen=True)
class ChernResult:
    """An accepted integer Chern value plus how it was obtained."""

    index: int
    value: int
    method: str
    grid: int
    residual: float


@dataclass(frozen=True)
class TransportResult:
    """Holonomy of Kato transport around the reduced 2*pi/q cell."""

    band: int
    holonomy_phase: float
    chern_mod_q: int
    phase_residual: float
    steps: int


@dataclass(frozen=True)
class CurvatureField:
    """Per-plaquette Berry field strength on an n1 x n2 grid."""

    n1: int
    n2: int
    values: np.ndarray

    def total(self) -> float:
        """Sum over plaquettes / 2*pi; near-integer for an isolated band."""
        return float(self.values.sum() / (2.0 * math.pi))


def berry_curvature(model: HofstadterModel, n: int, k, gap_tol: float = DEGENERACY_TOL) -> float:
    """Adiabatic curvature of band n (1-based) at momentum k.

    Evaluated through the spectral sum with analytic dH/dk; no finite
    differencing of H.  Signals near-degeneracy when a neighboring
    level approaches closer than gap_tol.
    """
    q = model.q
    if not 1 <= n <= q:
        raise ValueError(f"band index {n} outside 1..{q}")
    if q == 1:
        return 0.0
    evs, vecs = np.linalg.eigh(build_hamiltonian(model, k))
    i = n - 1
    near = min(abs(evs[i] - evs[m]) for m in range(q) if m != i)
    if near < gap_tol:
        raise GridDegeneracy(f"band {n} within {near:.2e} of a neighbor at k={k}", k=k)
    d1, d2 = hamiltonian_derivatives(model, k)
    g1 = vecs.conj().T @ d1 @ vecs
    g2 = vecs.conj().T @ d2 @ vecs
    total = 0.0
    for m in range(q):
        if m == i:
            continue
        total += 2.0 * np.imag(g1[m, i] * g2[i, m]) / (evs[i] - evs[m]) ** 2
    return float(total)


def _grid_eigensystem(model: HofstadterModel, n_grid: int):
    """Eigendecomposition of H on the offset n_grid x n_grid magnetic-BZ grid."""
    q = model.q
    k1 = -math.pi + (np.arange(n_grid) + 0.5) * (2.0 * math.pi / n_grid)
    k2 = -math.pi / q + (np.arange(n_grid) + 0.5) * (2.0 * math.pi / (q * n_grid))
    K1, K2 = np.meshgrid(k1, k2, indexing="ij")
    H = hamiltonian_batch(model, K1, K2)
    evs, vecs = np.linalg.eigh(H)
    return evs, vecs, (K1, K2)


def _overlap_links(model: HofstadterModel, vecs: np.ndarray):
    """Full q x q eigenvector overlap matrices along both grid directions.

    The k1 direction wraps with the true 2*pi period of H; the k2 seam
    uses the magnetic identification psi(k2 + 2*pi/q) = S^s psi(k2).
    """
    n = vecs.shape[0]
    _, Ss = _symmetry_unitaries(model.flux)
    vd = vecs.conj().swapaxes(-1, -2)
    o1 = vd @ vecs[np.r_[1:n, 0]]
    o2 = np.empty_like(o1)
    o2[:, : n - 1] = vd[:, : n - 1] @ vecs[:, 1:]
    o2[:, n - 1] = vd[:, n - 1] @ (Ss @ vecs[:, 0])
    return o1, o2


def _field_strength(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Plaquette field strength from the two link-variable arrays.

    Orientation matches the curvature sign of ``berry_curvature`` and
    the transport holonomy (k2 edge first), so band sums land on the
    same integers as the spectral-sum quadrature.
    """
    n = u1.shape[0]
    plaq = (u2 * u1[:, np.r_[1:n, 0]]
            * np.conj(u2[np.r_[1:n, 0]]) * np.conj(u1))
    if np.any(np.abs(plaq) < 1e-12):
        raise GridDegeneracy("vanishing overlap link; refine the grid")
    return np.angle(plaq)


def _band_isolation(evs: np.ndarray, n: int):
    """Min distance of band n (1-based) to its neighbors over the grid."""
    i = n - 1
    dist = math.inf
    where = None
    if i > 0:
        d = evs[..., i] - evs[..., i - 1]
        j = np.unravel_index(int(np.argmin(d)), d.shape)
        if d[j] < dist:
            dist, where = float(d[j]), j
    if i < evs.shape[-1] - 1:
        d = evs[..., i + 1] - evs[..., i]
        j = np.unravel_index(int(np.argmin(d)), d.shape)
        if d[j] < dist:
            dist, where = float(d[j]), j
    return dist, where


def curvature_field(model: HofstadterModel, n: int, grid: int = GRID_DEFAULT) -> CurvatureField:
    """Plaquette field strength of band n on the magnetic-BZ grid."""
    q = model.q
    if not 1 <= n <= q:
        raise ValueError(f"band index {n} outside 1..{q}")
    evs, vecs, (K1, K2) = _grid_eigensystem(model, grid)
    if q > 1:
        dist, where = _band_isolation(evs, n)
        if dist < DEGENERACY_TOL:
            raise GridDegeneracy(
                f"band {n} degenerate on grid (gap {dist:.2e})",
                k=(float(K1[where]), float(K2[where])))
    u_full1, u_full2 = _overlap_links(model, vecs)
    u1 = u_full1[..., n - 1, n - 1]
    u2 = u_full2[..., n - 1, n - 1]
    return CurvatureField(grid, grid, _field_strength(u1, u2))


def band_chern_fhs(model: HofstadterModel, n: int, grid: int = GRID_DEFAULT) -> ChernResult:
    """Integer Chern number of an isolated band by plaquette sums.

    The lattice sum is an exact integer at any grid, so a small
    quantization residual alone cannot certify convergence; narrow
    features can alias a plaquette by a full turn.  A value is accepted
    only when admissible (no plaquette angle near +/-pi) and stable
    under grid doubling, up to the grid cap.
    """
    g = grid
    prev = None
    while g <= GRID_CAP:
        fld = curvature_field(model, n, g)
        total = fld.total()
        residual = abs(total - round(total))
        value = int(round(total))
        admissible = (residual <= QUANTIZATION_TOL
                      and np.abs(fld.values).max() < ADMISSIBILITY)
        if admissible and prev == value:
            return ChernResult(n, value, "fhs", g, residual)
        prev = value if admissible else None
        g *= 2
    raise QuantizationFailure(
        f"band {n}: no stable admissible field strength up to grid {GRID_CAP}")


def _gap_chern_from_links(u1, u2, j):
    u1j = np.linalg.det(u1[..., :j, :j])
    u2j = np.linalg.det(u2[..., :j, :j])
    return _field_strength(u1j, u2j)


def gap_chern_table(model: HofstadterModel, grid: int = GRID_DEFAULT,
                    eps_gap: float = GAP_EPS_DEFAULT) -> dict[int, ChernResult]:
    """FHS Chern numbers of every open interior gap in one sweep.

    Shares a single grid eigendecomposition across gaps; rank-j
    projector overlaps keep gaps below the target irrelevant.  Gaps
    whose grid separation collapses are skipped (unresolvable at this
    grid), as are closed gaps.
    """
    q = model.q
    spec = compute_bands_or_dense(model, compute_bands)
    gaps = compute_gaps(spec, eps_gap)
    open_js = [r.j for r in gaps if 0 < r.j < q and not r.closed]
    out: dict[int, ChernResult] = {}
    if not open_js:
        return out
    g = grid
    remaining = set(open_js)
    prev: dict[int, int] = {}
    while remaining and g <= GRID_CAP:
        evs, vecs, _ = _grid_eigensystem(model, g)
        u1, u2 = _overlap_links(model, vecs)
        for j in sorted(remaining):
            sep = float((evs[..., j] - evs[..., j - 1]).min())
            if sep < DEGENERACY_TOL:
                continue
            try:
                field = _gap_chern_from_links(u1, u2, j)
            except GridDegeneracy:
                continue
            total = field.sum() / (2.0 * math.pi)
            residual = abs(total - round(total))
            value = int(round(total))
            admissible = (residual <= QUANTIZATION_TOL
                          and np.abs(field).max() < ADMISSIBILITY)
            # the exact-integer lattice sum certifies only once it is
            # stable under grid doubling
            if admissible and prev.get(j) == value:
                out[j] = ChernResult(j, value, "fhs", g, float(residual))
            elif admissible:
                prev[j] = value
            else:
                prev.pop(j, None)
        remaining -= set(out)
        g *= 2
    return out


def gap_chern(model: HofstadterModel, j: int, method: str = "fhs",
              grid: int = GRID_DEFAULT, eps_gap: float = GAP_EPS_DEFAULT) -> int:
    """Chern number of gap j: the summed Chern of all bands below it.

    Computed from rank-j projector overlaps, which stay smooth across
    band touchings below the gap; only gap j itself must be open.
    Raises GapClosed otherwise.  Transport certifies residues only;
    see gap_residue_transport.
    """
    q = model.q
    if not 0 <= j <= q:
        raise ValueError(f"gap index {j} outside 0..{q}")
    if j in (0, q):
        return 0
    if method == "transport":
        raise ValueError("transport certifies only mod-q residues; "
                         "use gap_residue_transport")
    if method != "fhs":
        raise ValueError(f"unknown method {method!r}")
    spec = compute_bands_or_dense(model, compute_bands)
    rec = compute_gaps(spec, eps_gap)[j]
    if rec.closed:
        raise GapClosed(f"gap {j} of {model.flux.p}/{q} has width {rec.width:.3e}")
    table = gap_chern_table(model, grid, eps_gap)
    if j not in table:
        raise QuantizationFailure(f"gap {j}: no admissible grid up to {GRID_CAP}")
    return table[j].value


def band_chern_transport(model: HofstadterModel, n: int,
                         steps: int = TRANSPORT_STEPS_DEFAULT) -> TransportResult:
    """Kato-transport holonomy of band n around the 2*pi/q reduced cell.

    Discrete projector transport (project, renormalize) along the cell
    boundary converges to the Kato equation's solution; the loop phase
    must equal 2*pi*s/q modulo 2*pi, which pins the band's Chern
    residue.  Steps double until the phase stabilizes.
    """
    q = model.q
    if not 1 <= n <= q:
        raise ValueError(f"band index {n} outside 1..{q}")
    if q == 1:
        return TransportResult(1, 0.0, 0, 0.0, steps)

    L = 2.0 * math.pi / q
    corners = [(0.0, 0.0), (L, 0.0), (L, L), (0.0, L), (0.0, 0.0)]

    def loop_phase(m: int) -> float:
        evs0, vecs0 = np.linalg.eigh(build_hamiltonian(model, (0.0, 0.0)))
        _check_isolated(evs0, n, (0.0, 0.0))
        psi0 = vecs0[:, n - 1]
        psi = psi0.copy()
        for a, b in zip(corners[:-1], corners[1:]):
            ts = np.arange(1, m + 1) / m
            k1s = a[0] + ts * (b[0] - a[0])
            k2s = a[1] + ts * (b[1] - a[1])
            evs, vecs = np.linalg.eigh(hamiltonian_batch(model, k1s, k2s))
            for i in range(m):
                _check_isolated(evs[i], n, (k1s[i], k2s[i]))
                v = vecs[i, :, n - 1]
                amp = v.conj() @ psi
                if abs(amp) < 0.5:
                    raise TransportFailure(
                        f"projector jump |<v|psi>|={abs(amp):.3f} at "
                        f"k=({k1s[i]:.4f},{k2s[i]:.4f}); step too large")
                psi = v * (amp / abs(amp))
        return float(np.angle(psi0.conj() @ psi))

    m = steps
    phase = loop_phase(m)
    while m < TRANSPORT_STEPS_CAP:
        m *= 2
        refined = loop_phase(m)
        if abs(_circle_dist(refined, phase)) < TRANSPORT_PHASE_TOL:
            phase = refined
            break
        phase = refined
    residue = round(phase * q / (2.0 * math.pi)) % q
    residual = abs(_circle_dist(phase, 2.0 * math.pi * residue / q))
    return TransportResult(n, phase, residue, residual, m)


def _check_isolated(evs, n, k):
    i = n - 1
    dist = math.inf
    if i > 0:
        dist = min(dist, evs[i] - evs[i - 1])
    if i < len(evs) - 1:
        dist = min(dist, evs[i + 1] - evs[i])
    if dist < DEGENERACY_TOL:
        raise GridDegeneracy(f"band {n} degenerate along path (gap {dist:.2e})", k=k)


def _circle_dist(a: float, b: float) -> float:
    """Signed distance from a to b modulo 2*pi, in (-pi, pi]."""
    d = (a - b) % (2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    return d


def gap_residue_transport(model: HofstadterModel, j: int,
                          steps: int = TRANSPORT_STEPS_DEFAULT) -> int:
    """Mod-q residue of gap j from per-band transport holonomies."""
    q = model.q
    if j in (0, q):
        return 0
    total = 0
    for n in range(1, j + 1):
        total += band_chern_transport(model, n, steps).chern_mod_q
    return total % q


def chern_bound(j: int, q: int, g_j: float) -> float:
    """Analytic bound |sigma_j| <= 4*pi*36*j*(q-j) / (q*g_j^2)."""
    if g_j <= 0:
        raise ValueError(f"gap width must be positive, got {g_j}")
    if j * (q - j) == 0:
        return 0.0
    return 4.0 * math.pi * 36.0 * j * (q - j) / (q * g_j * g_j)

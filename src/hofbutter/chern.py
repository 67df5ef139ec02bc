"""Band and gap Chern numbers.

Three routes are implemented.  The sweep's route is the edge-state
winding of Hatsugai (PRL 71, 3697 and PRB 48, 11851, 1993): at fixed
k1 the model is a chain in the row index, the eigenvalues of its
(q-1)-row Dirichlet cut are edge states, one per gap, and a gap's Chern
number is the signed count of left-edge states crossing an energy
inside it as k1 winds.  ``denominator_edge_chern`` finds every crossing
of every flux of one q as a unit-circle root of one quadratic pencil in
z = e^{i k1}, with no k grid: roots from companion eigenvalues alone,
in slices of one byte budget, and a null vector only for the roots near
the circle, by inverse iteration on the tridiagonal pencil
(notes/decisions.md, "Edge-state winding"); ``edge_chern_table`` is its
one-flux case.

The independent oracle is the Fukui-Hatsugai-Suzuki plaquette
(link-variable) discretization of the Berry curvature over the magnetic
Brillouin zone, taken from overlap determinants of an eigenvector block
(a, b), the bands a+1..b.  Band n is the block (n-1, n); the bands
below gap j are the block (0, j).  Only the block's bounding gaps a and
b need to be open, so touchings inside the block do not matter.  One
certifier, ``_certify``, serves bands and gaps alike.  A block's
overlap determinant is a leading principal minor of the overlap matrix
cut at a, so one batched elimination per grid level and direction
(``_leading_minors``) gives the determinants of every block that starts
at a.  Discrete Kato parallel transport around the 2*pi/q reduced cell
fixes every band's Chern residue mod q.  Orientation is chosen so that
FHS and transport agree and the square model reproduces its known
window; the transport holonomy (acceptance criterion 13) and the square
window (criterion 05) pin it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .magnetic_algebra import (
    HofstadterModel,
    _hopping_terms,
    build_hamiltonian,
    clock_shift,
    hamiltonian_batch,
)
from . import spectrum
from .spectrum import GAP_EPS_DEFAULT, compute_bands, compute_bands_or_dense, compute_gaps

DEGENERACY_TOL = 1e-10
QUANTIZATION_TOL = 0.05
ADMISSIBILITY = 0.98 * math.pi
GRID_DEFAULT = 32
GRID_CAP = 256
TRANSPORT_STEPS_DEFAULT = 256
TRANSPORT_STEPS_CAP = 16384
TRANSPORT_PHASE_TOL = 1e-8
PIVOT_FLOOR = 1e-6  # smaller elimination pivots hand their grid points to np.linalg.det
MINOR_CHUNK = 1024  # grid points per leading-minor elimination pass
EDGE_FRACTIONS = (0.25, 0.5, 0.75)  # energies of a gap, as fractions of its width
EDGE_SHIFT = 0.5 + 0.3j  # a of the disk automorphism z = (w + a) / (1 + conj(a) w)
ON_CIRCLE_TOL = 1e-9     # ||z| - 1| of a root that is a crossing
OFF_CIRCLE_TOL = 1e-6    # ||z| - 1| of a root that is not
EDGE_SIDE_TOL = 1e-8     # |log|lambda|| of a crossing's Bloch multiplier
POLISH_BAND = 1e-3       # ||z| - 1| of the roots that take an inverse-iteration step
POLISH_VECTORS = 24      # vectors of a chain's length a near root holds while it is polished


class GapClosed(Exception):
    """Chern number requested for a gap that is not open."""


class GridDegeneracy(Exception):
    """Eigenvalue collision on the integration grid or the transport path."""


class QuantizationFailure(Exception):
    """Field strength not admissible up to the grid cap."""


class TransportFailure(Exception):
    """Parallel transport lost the band (projector jump too large)."""


class WindingFailure(Exception):
    """An open gap whose edge-state winding fails its certificate."""


@dataclass(frozen=True)
class ChernResult:
    """An FHS-certified integer Chern value, its grid and residual."""

    index: int
    value: int
    grid: int
    residual: float


@dataclass(frozen=True)
class EdgeResult:
    """Edge-state winding of one gap.

    ``value`` is the Chern number, or None with the ``reason`` the
    certificate failed.  Per energy of ``energies``, ``crossings``
    counts the left-edge crossings whose slope signs sum to the value.
    ``margin`` is the least distance from a rejection threshold: the
    smallest ||z| - 1| of a root off the unit circle or |log|lambda||
    of a crossing.
    """

    index: int
    value: Optional[int]
    energies: tuple
    crossings: tuple
    margin: float
    reason: str = ""


@dataclass(frozen=True)
class TransportResult:
    """Holonomy of Kato transport around the reduced 2*pi/q cell."""

    holonomy_phase: float
    chern_mod_q: int
    phase_residual: float
    steps: int


def _grid_eigensystem(model: HofstadterModel, n_grid: int):
    """Eigendecomposition of H on the offset n_grid x n_grid magnetic-BZ grid."""
    q = model.q
    k1 = -math.pi + (np.arange(n_grid) + 0.5) * (2.0 * math.pi / n_grid)
    k2 = -math.pi / q + (np.arange(n_grid) + 0.5) * (2.0 * math.pi / (q * n_grid))
    K1, K2 = np.meshgrid(k1, k2, indexing="ij")
    return np.linalg.eigh(hamiltonian_batch(model, K1, K2))


def _overlap_links(model: HofstadterModel, vecs: np.ndarray):
    """Full q x q eigenvector overlap matrices along both grid directions.

    The k1 direction wraps with the true 2*pi period of H; the k2 seam
    uses the magnetic identification psi(k2 + 2*pi/q) = S^s psi(k2).
    Built one k1 row at a time, so no whole-grid temporary sits next to
    the eigenvectors and the two results.
    """
    n = vecs.shape[0]
    S, _ = clock_shift(model.flux)
    Ss = np.linalg.matrix_power(S, model.flux.s)
    o1 = np.empty_like(vecs)
    o2 = np.empty_like(vecs)
    for i in range(n):
        vd = vecs[i].conj().swapaxes(-1, -2)
        np.matmul(vd, vecs[(i + 1) % n], out=o1[i])
        np.matmul(vd[: n - 1], vecs[i, 1:], out=o2[i, : n - 1])
        np.matmul(vd[n - 1], Ss @ vecs[i, 0], out=o2[i, n - 1])
    return o1, o2


def _field_strength(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Plaquette field strength from the two link-variable arrays.

    Orientation matches the transport holonomy (k2 edge first), so
    band sums land on the integers whose residues transport gives
    (criterion 13) and on the square model's window (criterion 05).
    """
    n = u1.shape[0]
    plaq = (u2 * u1[:, np.r_[1:n, 0]]
            * np.conj(u2[np.r_[1:n, 0]]) * np.conj(u1))
    if np.any(np.abs(plaq) < 1e-12):
        raise GridDegeneracy("vanishing overlap link; refine the grid")
    return np.angle(plaq)


def _leading_minors(u: np.ndarray, m: int) -> np.ndarray:
    """det u[..., :j, :j] for j = 1..m, stacked along a new first axis.

    One Gaussian elimination without pivoting gives them all: the j-th
    leading minor is the product of the first j pivots.  The work array
    is grid-last, (m, m, points), so each step is a few whole-array
    operations; it takes MINOR_CHUNK grid points at a time, which keeps
    it small.  Where a pivot that is divided by (k < m) is below
    PIVOT_FLOOR, 1 stands in for it and the minors of those grid points
    come from np.linalg.det instead.
    """
    flat = u.reshape((-1,) + u.shape[-2:])
    minors = np.empty((m, flat.shape[0]), dtype=flat.dtype)
    guarded = np.zeros(flat.shape[0], dtype=bool)
    for start in range(0, flat.shape[0], MINOR_CHUNK):
        part = slice(start, start + MINOR_CHUNK)
        w = np.ascontiguousarray(np.moveaxis(flat[part, :m, :m], 0, -1))
        out = minors[:, part]
        for k in range(m):
            pivot = w[k, k]
            out[k] = out[k - 1] * pivot if k else pivot
            if k == m - 1:
                break
            tiny = np.abs(pivot) < PIVOT_FLOOR
            if tiny.any():
                guarded[part] |= tiny
                pivot = np.where(tiny, 1.0, pivot)
            w[k + 1:, k + 1:] -= (w[k + 1:, k] / pivot)[:, None] * w[k, k + 1:]
    if guarded.any():
        sub = flat[guarded]
        for j in range(1, m + 1):
            minors[j - 1, guarded] = np.linalg.det(sub[:, :j, :j])
    return minors.reshape((m,) + u.shape[:-2])


def _certify(model: HofstadterModel, blocks: dict, grid: int) -> dict[int, ChernResult]:
    """FHS Chern numbers of eigenvector blocks, keyed as ``blocks``.

    ``blocks`` maps a result index to a block (a, b), the bands
    a+1..b.  Each grid level takes one eigendecomposition and one pair
    of overlap links for all blocks.  A block skips a grid where its
    bounding level a or b touches the level below, or where an overlap
    determinant vanishes.  The determinant of block (a, b) is the
    leading minor of size b - a of the overlaps cut at a, so the
    blocks are grouped by a and each group takes one
    ``_leading_minors`` pass per direction: gap tables (all a = 0)
    take one, a single band or gap takes one.

    The lattice sum is an exact integer at any grid, so a small
    quantization residual alone cannot certify convergence; narrow
    features can alias a plaquette by a full turn.  A value is accepted
    only when admissible (no plaquette angle near +/-pi) and equal at
    two successive grids, up to the grid cap.  Blocks that never pass
    are absent from the result.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    q = model.q
    remaining = dict(blocks)
    out: dict[int, ChernResult] = {}
    prev: dict[int, int] = {}
    g = grid
    while remaining and g <= GRID_CAP:
        evs, vecs = _grid_eigensystem(model, g)
        live = {key: (a, b) for key, (a, b) in sorted(remaining.items())
                if not any(0 < e < q and (evs[..., e] - evs[..., e - 1]).min() < DEGENERACY_TOL
                           for e in (a, b))}
        spans: dict[int, int] = {}
        for a, b in live.values():
            spans[a] = max(spans.get(a, 0), b - a)
        u1, u2 = _overlap_links(model, vecs)
        minors = {a: (_leading_minors(u1[..., a:, a:], m), _leading_minors(u2[..., a:, a:], m))
                  for a, m in spans.items()}
        del vecs, u1, u2  # freed before the next grid, four times larger, is built
        for key, (a, b) in live.items():
            d1, d2 = minors[a]
            try:
                field = _field_strength(d1[b - a - 1], d2[b - a - 1])
            except GridDegeneracy:
                continue
            total = field.sum() / (2.0 * math.pi)
            residual = abs(total - round(total))
            value = int(round(total))
            admissible = (residual <= QUANTIZATION_TOL
                          and np.abs(field).max() < ADMISSIBILITY)
            if admissible and prev.get(key) == value:
                out[key] = ChernResult(key, value, g, float(residual))
                del remaining[key]
            elif admissible:
                prev[key] = value
            else:
                prev.pop(key, None)
        g *= 2
    return out


def _require_open(model: HofstadterModel, gaps, eps_gap: float) -> list:
    """The gap records of one spectrum of the model; raises GapClosed
    for the first of the gap indices ``gaps`` that is not open."""
    records = compute_gaps(compute_bands_or_dense(model, compute_bands), eps_gap)
    for j in gaps:
        if records[j].closed:
            raise GapClosed(
                f"gap {j} of {model.flux.p}/{model.q} has width {records[j].width:.3e}")
    return records


def _certify_block(model: HofstadterModel, index: int, a: int, b: int,
                   grid: int, eps_gap: float) -> ChernResult:
    """Certify the one block (a, b) as result ``index``.

    Raises GapClosed unless both bounding gaps a and b are open;
    QuantizationFailure if no grid up to the cap certifies the block.
    """
    _require_open(model, (a, b), eps_gap)
    table = _certify(model, {index: (a, b)}, grid)
    if index not in table:
        raise QuantizationFailure(f"bands {a + 1}..{b} of {model.flux.p}/{model.q}: no stable "
                                  f"admissible field strength up to grid {GRID_CAP}")
    return table[index]


def band_chern_fhs(model: HofstadterModel, n: int, grid: int = GRID_DEFAULT,
                   eps_gap: float = GAP_EPS_DEFAULT) -> ChernResult:
    """Integer Chern number of band n, the block (n-1, n).

    The band must be isolated: gaps n-1 and n open (GapClosed
    otherwise).
    """
    q = model.q
    if not 1 <= n <= q:
        raise ValueError(f"band index {n} outside 1..{q}")
    return _certify_block(model, n, n - 1, n, grid, eps_gap)


def gap_chern_table(model: HofstadterModel, gaps,
                    grid: int = GRID_DEFAULT) -> dict[int, ChernResult]:
    """FHS Chern numbers of the open interior gaps among ``gaps``.

    ``gaps`` are gap records of this model's flux; whether a gap is
    open is their ``closed`` flag, so no spectrum is computed here.
    Gap j is the block (0, j) of all bands below it, so band touchings
    below the gap do not matter.  Gaps that no grid certifies are
    absent from the table.
    """
    q = model.q
    return _certify(model, {r.j: (0, r.j) for r in gaps if 0 < r.j < q and not r.closed},
                    grid)


def certify_gap(model: HofstadterModel, j: int, grid: int = GRID_DEFAULT,
                eps_gap: float = GAP_EPS_DEFAULT) -> ChernResult:
    """FHS Chern number of gap j, the summed Chern of all bands below
    it, with the grid and residual that certified it.  Only gap j must
    be open (GapClosed otherwise); the outer gaps j = 0, q are 0 at
    grid 0.  Transport certifies residues only; see
    gap_residue_transport."""
    q = model.q
    if not 0 <= j <= q:
        raise ValueError(f"gap index {j} outside 0..{q}")
    if j in (0, q):
        return ChernResult(j, 0, 0, 0.0)
    return _certify_block(model, j, 0, j, grid, eps_gap)


def edge_pencil(model: HofstadterModel):
    """(A, B) of the Dirichlet chain D(z) = z A + B + A^H / z, z = e^{i k1}.

    D(e^{i k1}) is H(k1, k2)[1:, 1:] up to a diagonal gauge in k2: rows
    and columns 1..q-1 of the Bloch Hamiltonian, cut at row 0.  A holds
    the e^{i k1} part, B the rest, both from ``_hopping_terms``.
    """
    return _pencil_of(*_hopping_terms(model))


def _pencil_of(M1, M2, M3):
    """``edge_pencil`` from the hopping matrices of its model."""
    return (M2 + M3)[1:, 1:], (M1 + M1.conj().T)[1:, 1:]


def edge_chern_table(model: HofstadterModel, gaps) -> dict[int, EdgeResult]:
    """Edge-state winding of the open interior gaps among ``gaps``, gap
    records of this model's flux: ``denominator_edge_chern`` of the one
    flux."""
    return denominator_edge_chern([model], [gaps])[0]


def denominator_edge_chern(models, gaps) -> list[dict[int, EdgeResult]]:
    """Edge-state winding of fluxes p/q that share q, phi_d and the
    hoppings: per model, the results of the open interior gaps among
    ``gaps[m]``, gap records of ``models[m]``.

    At each energy E of EDGE_FRACTIONS of a gap, the crossings mu(k1) = E
    of the Dirichlet chain are the unit-circle roots z of the pencil
    P(z) = z^2 A + z (B - E) + A^H.  The pencil is mapped through z =
    (w + a)/(1 + conj(a) w), a = EDGE_SHIFT, whose leading coefficient
    is invertible at t2 = 0 too, and each flux, gap and energy is one
    row: a 2(q-1) companion matrix whose roots come from
    ``np.linalg.eigvals``, without vectors.  Only the roots within
    POLISH_BAND of the unit circle take a null vector, from inverse
    iteration on the tridiagonal P(z) itself, and a Newton step
    (``_polish_roots``).  A crossing with null vector x is a left-edge
    state when |c_q x_(q-1)| < |c_1 x_1|, c_1 and c_q the bonds to the
    cut row; the gap's value is the sum of sign(d mu/dk1) over the
    left-edge crossings.  A value is kept only when every root is within
    ON_CIRCLE_TOL of the unit circle or OFF_CIRCLE_TOL off it, every
    crossing has |log|lambda|| >= EDGE_SIDE_TOL and a nonzero slope, the
    energies agree, and sigma = s*j (mod q).  Every open interior gap is
    in its flux's table; those that fail have value None and a reason
    (notes/decisions.md, "Edge-state winding").

    The rows of all fluxes are solved in slices whose working set
    (``_stack_rows``) fits in EDGE_STACK_BYTES: one batched
    ``np.linalg.solve`` and one ``np.linalg.eigvals`` per slice, and one
    ``_polish_roots`` pass per slice for its near roots, in chunks of
    the same budget.  No row's result depends on the rows beside it, so
    each flux gets the table it would get alone.  A singular leading
    coefficient fails its whole slice; the slice's fluxes are then
    solved apart, and only a flux with a singular one of its own is
    gray, every gap with the reason "singular pencil".
    """
    q = models[0].q
    recs = [[r for r in g if 0 < r.j < q and not r.closed] for g in gaps]
    owner = np.array([m for m, rs in enumerate(recs) for _ in rs], dtype=np.intp)
    if not owner.size:
        return [{} for _ in models]
    n = q - 1
    terms = [_hopping_terms(model) for model in models]
    pencils = [_pencil_of(*t) for t in terms]
    A = np.array([P[0] for P in pencils])
    B = pencils[0][1]  # t1 on both off-diagonals, the same at every p of one q
    # the coefficients of the bonds c_q = M1[0, q-1] + z M2[0, q-1] and
    # c_1 = M1[1, 0] + z M2[1, 0] to the cut row, one column per flux
    bonds = np.array([(M1[0, q - 1], M2[0, q - 1], M1[1, 0], M2[1, 0])
                      for M1, M2, _ in terms]).T
    # (sub, main, super) diagonals, row-first: of A one column per flux, of B one
    diagonals = (tuple(np.diagonal(A, k, axis1=1, axis2=2).T for k in (-1, 0, 1)),
                 tuple(np.diagonal(B, k)[:, None] for k in (-1, 0, 1)))
    lo = np.array([r.lo for rs in recs for r in rs])
    hi = np.array([r.hi for rs in recs for r in rs])
    energies = lo[:, None] + np.array(EDGE_FRACTIONS) * (hi - lo)[:, None]
    E = energies.ravel()
    row_flux = np.repeat(owner, len(EDGE_FRACTIONS))
    counts = np.zeros(E.shape, dtype=int)
    crossings = np.zeros(E.shape, dtype=int)
    clear = np.zeros(E.shape, dtype=bool)
    margin = np.zeros(E.shape)
    singular = np.zeros(len(models), dtype=bool)
    step = _stack_rows(n)
    for start in range(0, len(E), step):
        for rows, w in _slice_roots(A, B, E, row_flux, np.arange(start, min(start + step, len(E))),
                                    singular):
            counts[rows], crossings[rows], clear[rows], margin[rows] = _winding_rows(
                w, row_flux[rows], diagonals, bonds, E[rows])
    counts, crossings, clear, margin = (x.reshape(energies.shape)
                                        for x in (counts, crossings, clear, margin))
    out = [{} for _ in models]
    for g, (m, r) in enumerate((m, r) for m, rs in enumerate(recs) for r in rs):
        if singular[m]:
            out[m][r.j] = EdgeResult(r.j, None, (), (), 0.0, "singular pencil")
            continue
        value = int(counts[g, 0])
        if not clear[g].all():
            reason = "a root or crossing within its threshold"
        elif (counts[g] != value).any():
            reason = f"energies disagree: {counts[g].tolist()}"
        elif (value - models[m].flux.s * r.j) % q:
            reason = f"sigma = {value} fails the residue s*j mod q"
        else:
            reason = ""
        out[m][r.j] = EdgeResult(r.j, None if reason else value,
                                 tuple(energies[g].tolist()), tuple(crossings[g].tolist()),
                                 float(margin[g].min()), reason)
    return out


def _stack_rows(n: int) -> int:
    """Rows of ``denominator_edge_chern`` per slice at q = n + 1: a row
    holds its companion (2n x 2n), lead (n x n), rhs (n x 2n), gathered
    A and B - E (n x n each), 16 bytes a complex entry, and a slice
    stays within EDGE_STACK_BYTES."""
    return max(1, spectrum.EDGE_STACK_BYTES // (16 * 9 * n * n))


def _polish_chunk(n: int) -> int:
    """Near roots per ``_polish_roots`` pass at q = n + 1: a root holds
    POLISH_VECTORS complex vectors of n entries at once, and a pass
    stays within EDGE_STACK_BYTES."""
    return max(1, spectrum.EDGE_STACK_BYTES // (16 * POLISH_VECTORS * n))


def _slice_roots(A, B, E, row_flux, rows, singular) -> list:
    """[(rows, w)]: the ``_companion_roots`` w of ``rows`` in one batch,
    or, when a leading coefficient of the batch is singular, one pair
    per flux of them, solved apart; a flux whose own is singular is
    marked in ``singular`` and has no pair."""
    fr = row_flux[rows]
    try:
        return [(rows, _companion_roots(A, B, fr, E[rows]))]
    except np.linalg.LinAlgError:
        pass
    out = []
    for m in np.unique(fr).tolist():
        mine = rows[fr == m]
        try:
            out.append((mine, _companion_roots(A, B, row_flux[mine], E[mine])))
        except np.linalg.LinAlgError:
            singular[m] = True
    return out


def _companion_roots(A, B, fr, E):
    """The roots w of w^2 L + w M + N = (1 + conj(a) w)^2 P(z), one row
    per index into the flux stack A of ``fr`` and energy of E, with the
    one B of all fluxes: the eigenvalues of the companion
    [[0, I], [-L^-1 N, -L^-1 M]].  Raises LinAlgError when an L is
    singular."""
    n = A.shape[-1]
    a = EDGE_SHIFT
    ac = a.conjugate()
    Af = A[fr]
    BE = B - E[:, None, None] * np.eye(n)
    AH = Af.conj().swapaxes(-1, -2)
    lead = Af + ac * BE + ac * ac * AH
    rhs = np.empty(BE.shape[:-1] + (2 * n,), dtype=complex)
    rhs[..., :n] = a * a * Af + a * BE + AH
    rhs[..., n:] = 2 * a * Af + (1 + abs(a) ** 2) * BE + 2 * ac * AH
    del Af, AH, BE
    sol = np.linalg.solve(lead, rhs)
    del lead, rhs
    companion = np.zeros((len(E), 2 * n, 2 * n), dtype=complex)
    companion[:, :n, n:] = np.eye(n)
    np.negative(sol, out=companion[:, n:, :])
    del sol
    return np.linalg.eigvals(companion)


def _winding_rows(w, fr, diagonals, bonds, E):
    """Per row of roots w (flux index ``fr``, energy E): the signed count
    of left-edge crossings, their number, whether every root and crossing
    clears its threshold, and the least margin.  ``diagonals`` holds the
    (sub, main, super) diagonals of A, one column per flux, and of B,
    and ``bonds`` the bond coefficients, one column per flux."""
    a = EDGE_SHIFT
    ac = a.conjugate()
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (w + a) / (1 + ac * w)   # inf for a root at w = -1/conj(a), z = infinity
        dist = np.abs(np.abs(z) - 1.0)
    # a root outside POLISH_BAND is off the circle: it has no slope and no side
    near = np.nonzero(dist < POLISH_BAND)
    slope = np.zeros(dist.shape)
    log_lam = np.zeros(dist.shape)
    chunk = _polish_chunk(w.shape[-1] // 2)
    for start in range(0, len(near[0]), chunk):
        part = tuple(ix[start:start + chunk] for ix in near)
        f = fr[part[0]]
        dist[part], slope[part], log_lam[part] = _crossing_terms(
            tuple(d[:, f] for d in diagonals[0]), diagonals[1], bonds[:, f], E[part[0]],
            z[part])
    on = dist <= ON_CIRCLE_TOL
    left = on & (log_lam < 0)
    clear = ((on | (dist >= OFF_CIRCLE_TOL)).all(-1)
             & (~on | ((np.abs(log_lam) >= EDGE_SIDE_TOL) & (slope != 0))).all(-1))
    return (np.where(left, np.sign(slope), 0).sum(-1).astype(int), left.sum(-1), clear,
            np.where(on, np.abs(log_lam), dist).min(-1))


def _crossing_terms(A, B, bonds, E, z):
    """(||z| - 1|, d mu/dk1, log|lambda|) of near roots z after
    ``_polish_roots``, with A and B the diagonals of their pencils and
    ``bonds`` their bond coefficients, one column per root (B, one
    column for all).  The slope
    is Hellmann-Feynman, Re x^H i(z A - A^H / z) x / x^H x at |z| = 1,
    and lambda = -c_q x_(q-1) / (conj(c_1) x_1) is the Bloch multiplier."""
    zn, x = _polish_roots(A, B, E, z)
    AH = tuple(np.conj(d) for d in A[::-1])
    y = 1j * (zn * _tridiagonal_matvec(*A, x) - np.conj(zn) * _tridiagonal_matvec(*AH, x))
    slope = _column_sums(np.conj(x) * y).real / _column_sums(np.abs(x) ** 2)
    c_q = bonds[0] + zn * bonds[1]
    c_1 = bonds[2] + zn * bonds[3]
    with np.errstate(divide="ignore"):
        log_lam = np.log(np.abs(c_q * x[-1])) - np.log(np.abs(c_1 * x[0]))
    return np.abs(np.abs(zn) - 1.0), slope, log_lam


def _polish_roots(A, B, E, z):
    """Roots z of P(z) = z^2 A + z (B - E) + A^H, one energy of E each,
    after a Newton step, and their unit null vectors, row-first.  A and
    B are the (sub, main, super) diagonals of the roots' pencils,
    row-first: A of shapes (n-1, m), (n, m) and (n-1, m) for m roots, B
    of shapes (n-1, 1), (n, 1) and (n-1, 1), one B for all roots.

    Each root takes one LU of the tridiagonal P(z), O(q).  The start
    vector solves U x = (1, ..., 1), the first step of LAPACK's inverse
    iteration, and the Newton step reuses the LU.  The companion's
    roots carry the condition of its leading coefficient, up to 1e-6
    off the circle for crossings on it; the step leaves those of the
    reference set within 6e-13.  The roots it leaves between
    ON_CIRCLE_TOL and OFF_CIRCLE_TOL, slow crossings in narrow gaps,
    take a second step from a fresh LU.  Every sum over the rows runs
    row by row (``_column_sums``), so a root's result does not depend on
    the roots beside it.
    """
    lu = _pencil_lu(A, B, E, z)
    x = _unit(_back_substitute(lu, np.ones_like(lu[2])))
    z, x = _newton_step(A, B, E, z, x, lu)
    dist = np.abs(np.abs(z) - 1.0)
    again = (dist > ON_CIRCLE_TOL) & (dist < OFF_CIRCLE_TOL)
    if again.any():
        A2 = tuple(d[:, again] for d in A)
        z[again], x[:, again] = _newton_step(A2, B, E[again], z[again], x[:, again],
                                             _pencil_lu(A2, B, E[again], z[again]))
    return z, x


def _newton_step(A, B, E, z, x, lu):
    """One Newton step on P(z) x = 0 from unit vectors x, row-first, with
    ``lu`` the ``_pencil_lu`` of P(z): u = P(z)^-1 P'(z) x, then
    z - x^H x / x^H u and u / |u|.  A root whose correction is not
    finite, such as the 0/0 of an exact root, keeps its z and x."""
    u = _tridiagonal_solve(lu, _tridiagonal_matvec(*_pencil_diagonals(A, B, E, z, True), x))
    with np.errstate(divide="ignore", invalid="ignore"):
        step = _column_sums(np.abs(x) ** 2) / _column_sums(np.conj(x) * u)
        u = _unit(u)
    ok = np.isfinite(step) & np.isfinite(u).all(0)
    return np.where(ok, z - step, z), np.where(ok, u, x)


def _pencil_diagonals(A, B, E, z, derivative=False):
    """(sub, main, super) diagonals of P(z) = z^2 A + z (B - E) + A^H,
    or of P'(z) = 2 z A + B - E, for roots z with energies E and the
    diagonals A and B of their pencils; row-first, shape (row, root)."""
    ca, cb, ch = (2 * z, 1.0, 0.0) if derivative else (z * z, z, 1.0)
    AH = tuple(np.conj(d) for d in A[::-1])
    dl, d, du = (ca * a + cb * b + ch * h for a, b, h in zip(A, B, AH))
    return dl, d - cb * E, du


def _pencil_lu(A, B, E, z):
    """``_tridiagonal_lu`` of P(z) per root.  The pivot floor is eps
    times (1 + |z|^2) |A| + |z| (|B| + |E|), in max-entry norms: a bound
    on ||P(z)|| that stays positive at an exact root of a 1 x 1 P."""
    r = np.abs(z)
    a, b = (np.abs(np.concatenate(X)).max(0) for X in (A, B))
    norm = (1 + r * r) * a + r * (b + np.abs(E))
    return _tridiagonal_lu(*_pencil_diagonals(A, B, E, z), np.finfo(float).eps * norm)


def _tridiagonal_lu(dl, d, du, tol):
    """LU with partial pivoting of stacked tridiagonal matrices, as
    LAPACK's zgttrf.

    ``dl``, ``d`` and ``du`` are the sub-, main and super-diagonals,
    row-first: shapes (n-1, m), (n, m) and (n-1, m) for m matrices.
    Returns (swap, l, u0, u1, u2): step i swaps rows i and i+1 where
    swap[i] and subtracts l[i] times row i from row i+1; U has the
    diagonals u0, u1 and u2.  As in inverse iteration, a pivot smaller
    than ``tol`` (one per matrix) is replaced by it, so a singular
    matrix factors too and its solves are large but finite.
    """
    n = len(d)
    u0 = d.astype(complex)
    u1 = np.zeros_like(u0)
    u2 = np.zeros_like(u0)
    u1[:-1] = du
    swap = np.zeros(dl.shape, dtype=bool)
    l = np.zeros_like(u1[:-1])
    for i in range(n - 1):
        r0, r1 = u0[i], u1[i]                      # row i, columns i and i+1
        s0, s1, s2 = dl[i], u0[i + 1], u1[i + 1]   # row i+1, columns i to i+2
        sw = swap[i] = np.abs(s0) > np.abs(r0)
        p0 = np.where(sw, s0, r0)
        p0 = np.where(np.abs(p0) < tol, tol, p0)
        l[i] = np.where(sw, r0, s0) / p0
        p1, o1 = np.where(sw, s1, r1), np.where(sw, r1, s1)
        p2, o2 = np.where(sw, s2, 0), np.where(sw, 0, s2)
        u0[i], u1[i], u2[i] = p0, p1, p2
        u0[i + 1], u1[i + 1] = o1 - l[i] * p1, o2 - l[i] * p2
    u0[-1] = np.where(np.abs(u0[-1]) < tol, tol, u0[-1])
    return swap, l, u0, u1, u2


def _tridiagonal_solve(lu, b):
    """x with P x = b for the ``_tridiagonal_lu`` factors of P; b is
    row-first, shape (n, m)."""
    swap, l = lu[:2]
    y = b.astype(complex)
    for i in range(len(l)):
        lo = np.where(swap[i], y[i + 1], y[i])
        y[i + 1] = np.where(swap[i], y[i], y[i + 1]) - l[i] * lo
        y[i] = lo
    return _back_substitute(lu, y)


def _back_substitute(lu, y):
    """x with U x = y for the ``_tridiagonal_lu`` factors; row-first."""
    u0, u1, u2 = lu[2:]
    n = len(y)
    x = np.zeros((n + 2,) + y.shape[1:], dtype=complex)  # two zero rows below
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
    return x[:n]


def _tridiagonal_matvec(dl, d, du, x):
    """P x for the diagonals of P, row-first."""
    y = d * x
    y[:-1] += du * x[1:]
    y[1:] += dl * x[:-1]
    return y


def _column_sums(v):
    """v summed over its first axis, row by row, for any number of
    columns; numpy's sum over axis 0 does so only for two columns or
    more."""
    return np.cumsum(v, axis=0)[-1]


def _unit(x):
    """The columns of x at unit norm, each scaled by its largest entry
    first, so the norm cannot overflow."""
    x = x / np.abs(x).max(0)
    return x / np.sqrt(_column_sums((x.conj() * x).real))


def edge_chern(model: HofstadterModel, gaps,
               eps_gap: float = GAP_EPS_DEFAULT) -> dict[int, EdgeResult]:
    """Edge-winding results of the gap indices ``gaps``.

    Every gap must be open (GapClosed otherwise) and certified
    (WindingFailure otherwise); the outer gaps j = 0, q are 0.
    """
    q = model.q
    records = _require_open(model, gaps, eps_gap)
    table = edge_chern_table(model, [records[j] for j in gaps])
    out = {}
    for j in gaps:
        res = table.get(j, EdgeResult(j, 0, (), (), math.inf))
        if res.value is None:
            raise WindingFailure(f"gap {j} of {model.flux.p}/{q}: {res.reason}")
        out[j] = res
    return out


def band_chern_transport(model: HofstadterModel, n: int,
                         steps: int = TRANSPORT_STEPS_DEFAULT) -> TransportResult:
    """Kato-transport holonomy of band n around the 2*pi/q reduced cell.

    Discrete projector transport (project, renormalize) along the cell
    boundary converges to the Kato equation's solution; the loop phase
    must equal 2*pi*s/q modulo 2*pi, which pins the band's Chern
    residue.  Steps double until the phase stabilizes.  As for FHS, the
    band must be isolated: gaps n-1 and n open (GapClosed otherwise).
    """
    q = model.q
    if not 1 <= n <= q:
        raise ValueError(f"band index {n} outside 1..{q}")
    _require_open(model, (n - 1, n), GAP_EPS_DEFAULT)
    return _transport(model, n, steps)


def _transport(model: HofstadterModel, n: int, steps: int) -> TransportResult:
    """band_chern_transport of band n, whose bounding gaps are open."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    q = model.q
    if q == 1:
        return TransportResult(0.0, 0, 0.0, steps)

    L = 2.0 * math.pi / q
    corners = [(0.0, 0.0), (L, 0.0), (L, L), (0.0, L), (0.0, 0.0)]

    def loop_phase(m: int) -> float:
        evs0, vecs0 = np.linalg.eigh(build_hamiltonian(model, (0.0, 0.0)))
        _check_isolated(evs0, n)
        psi0 = vecs0[:, n - 1]
        psi = psi0.copy()
        for a, b in zip(corners[:-1], corners[1:]):
            ts = np.arange(1, m + 1) / m
            k1s = a[0] + ts * (b[0] - a[0])
            k2s = a[1] + ts * (b[1] - a[1])
            evs, vecs = np.linalg.eigh(hamiltonian_batch(model, k1s, k2s))
            for i in range(m):
                _check_isolated(evs[i], n)
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
    return TransportResult(phase, residue, residual, m)


def _check_isolated(evs, n):
    i = n - 1
    dist = math.inf
    if i > 0:
        dist = min(dist, evs[i] - evs[i - 1])
    if i < len(evs) - 1:
        dist = min(dist, evs[i + 1] - evs[i])
    if dist < DEGENERACY_TOL:
        raise GridDegeneracy(f"band {n} degenerate along path (gap {dist:.2e})")


def _circle_dist(a: float, b: float) -> float:
    """Signed distance from a to b modulo 2*pi, in (-pi, pi]."""
    d = (a - b) % (2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    return d


def gap_residue_transport(model: HofstadterModel, j: int,
                          steps: int = TRANSPORT_STEPS_DEFAULT) -> int:
    """Mod-q residue of gap j from the transport holonomies of bands
    1..j, so gaps 1..j must all be open (GapClosed otherwise)."""
    q = model.q
    if not 0 <= j <= q:
        raise ValueError(f"gap index {j} outside 0..{q}")
    if j in (0, q):
        return 0
    _require_open(model, range(1, j + 1), GAP_EPS_DEFAULT)
    return sum(_transport(model, n, steps).chern_mod_q for n in range(1, j + 1)) % q


def chern_bound(j: int, q: int, g_j: float) -> float:
    """Analytic bound |sigma_j| <= 4*pi*36*j*(q-j) / (q*g_j^2)."""
    if g_j <= 0:
        raise ValueError(f"gap width must be positive, got {g_j}")
    if j * (q - j) == 0:
        return 0.0
    return 4.0 * math.pi * 36.0 * j * (q - j) / (q * g_j * g_j)

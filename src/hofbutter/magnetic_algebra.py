"""Fluxes, clock-and-shift matrices and the magnetic Bloch Hamiltonian.

The model lives on a triangular lattice threaded by a rational flux
2*pi*p/q per unit cell, with an independently tunable phase ``phi_d``
for the down-triangle plaquettes.  Everything downstream (spectra,
Chern numbers, butterflies) is built from the q x q Bloch families
constructed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


def modular_inverse(p: int, q: int) -> int:
    """Return s in [1, q] with s*p = 1 (mod q).

    The degenerate modulus q=1 returns 1.  Raises ValueError for
    non-positive or non-coprime input.
    """
    if q < 1 or p < 1:
        raise ValueError(f"need positive integers, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} are not coprime")
    if q == 1:
        return 1
    return pow(p, -1, q)


class BlochMomentum(NamedTuple):
    """A point (k1, k2) in momentum space."""

    k1: float
    k2: float


@dataclass(frozen=True)
class Flux:
    """Reduced rational flux 2*pi*p/q through the unit cell."""

    p: int
    q: int
    s: int = field(init=False)

    def __post_init__(self):
        if self.q < 1 or self.p < 1 or self.p > self.q:
            raise ValueError(f"need 1 <= p <= q, got p={self.p}, q={self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"flux {self.p}/{self.q} is not reduced")
        object.__setattr__(self, "s", modular_inverse(self.p, self.q))

    @property
    def omega(self) -> complex:
        return np.exp(2j * math.pi * self.p / self.q)

    def conjugate(self) -> "Flux":
        """The flux -Phi, i.e. (q-p)/q; 1/1 is self-conjugate."""
        if self.p == self.q:
            return self
        return Flux(self.q - self.p, self.q)


def check_model_parameters(phi_d: float, t1: float, t2: float, t3: float) -> None:
    """Raise ValueError unless phi_d is finite and the hoppings are finite
    and nonnegative; NaN or infinite entries make every eigensolve fail."""
    if not math.isfinite(phi_d):
        raise ValueError(f"phi_d must be finite, got {phi_d}")
    if not all(math.isfinite(t) and t >= 0 for t in (t1, t2, t3)):
        raise ValueError(f"hopping amplitudes must be finite and nonnegative, "
                         f"got t1={t1}, t2={t2}, t3={t3}")


@dataclass(frozen=True)
class HofstadterModel:
    """Triangular-lattice Hofstadter model at rational flux.

    ``t1``, ``t2``, ``t3`` weigh the three hopping directions (the
    cyclic-shift, diagonal-clock and combined terms).  ``t3 = 0``
    recovers the square/rectangular model, where ``phi_d`` drops out.
    The isotropic triangular model is t1 = t2 = t3 = 1.
    """

    flux: Flux
    phi_d: float = 0.0
    t1: float = 1.0
    t2: float = 1.0
    t3: float = 1.0

    def __post_init__(self):
        check_model_parameters(self.phi_d, self.t1, self.t2, self.t3)

    @property
    def q(self) -> int:
        return self.flux.q

    @property
    def omega_d(self) -> complex:
        return np.exp(1j * self.phi_d)

    @property
    def omega_u(self) -> complex:
        # always derived so that omega_u * omega_d == omega exactly
        return self.flux.omega / self.omega_d

    @property
    def is_isotropic(self) -> bool:
        return self.t1 == self.t2 == self.t3 == 1.0


def _clock(flux: Flux) -> np.ndarray:
    """The diagonal (w, w^2, ..., w^q) of the clock matrix S."""
    return flux.omega ** np.arange(1, flux.q + 1)


def clock_shift(flux: Flux) -> tuple[np.ndarray, np.ndarray]:
    """The clock matrix S = diag(w, w^2, ..., w^q) and the cyclic shift T.

    T carries 1s on the subdiagonal and in the top-right corner; the
    pair satisfies S T = w T S and S^q = T^q = 1.
    """
    q = flux.q
    S = np.diag(_clock(flux))
    T = np.zeros((q, q), dtype=complex)
    for i in range(1, q):
        T[i, i - 1] = 1.0
    T[0, q - 1] = 1.0
    return S, T


def _hopping_terms(model: HofstadterModel):
    """The three k-independent hopping matrices (M1, M2, M3).

    H(k) = e^{i k2} M1 + e^{i(k1+k2)} M2 + e^{i k1} M3 + h.c.
    """
    S, T = clock_shift(model.flux)
    M1 = model.t1 * T
    M2 = model.t3 * model.omega_u * (T @ S)
    M3 = model.t2 * S
    return M1, M2, M3


def build_hamiltonian(model: HofstadterModel, k) -> np.ndarray:
    """The q x q Bloch Hamiltonian H(k1, k2); exactly Hermitian."""
    return hamiltonian_batch(model, *k)


def _bloch_entries(model, k1, k2):
    """The O(q) entries of H(k) that both assemblies read: (single, hop,
    diag), with the hops h_i at (i, i-1) and the diagonal of A in the last
    axis (see hamiltonian_batch), and ``single`` whether ``model`` is one
    model rather than a sequence of models of one q."""
    single = isinstance(model, HofstadterModel)
    models = [model] if single else model
    q = models[0].q
    k1 = np.asarray(k1, dtype=float)[..., None]
    k2 = np.asarray(k2, dtype=float)[..., None]
    # per-model factors on a leading axis, broadcast against the momenta
    axes = (len(models),) + (1,) * (np.broadcast(k1, k2).ndim - 1)
    s = np.array([_clock(m.flux) for m in models]).reshape(axes + (q,))
    t1, t2, t3w = (np.array(t).reshape(axes + (1,)) for t in zip(
        *((m.t1, m.t2, m.t3 * m.omega_u) for m in models)))
    hop = np.exp(1j * k2) * t1 + np.exp(1j * (k1 + k2)) * (t3w * s[..., np.arange(q) - 1])
    diag = np.exp(1j * k1) * (t2 * s)
    return single, hop, diag


def hamiltonian_batch(model, k1, k2) -> np.ndarray:
    """H evaluated on broadcastable arrays of momenta; shape (..., q, q).

    ``model`` may also be a sequence of models of one q, such as the
    fluxes p/q of a denominator; H then takes a leading axis over them,
    shape (len(model), ..., q, q), each model at every momentum.

    H(k) = A + A^dagger with A = e^{i k2} M1 + e^{i(k1+k2)} M2 + e^{i k1} M3
    (see _hopping_terms) is periodic tridiagonal: A holds the hops
    h_i = e^{i k2} t1 + e^{i(k1+k2)} t3 w_u s_(i-1) at (i, i-1), the corner
    (0, q-1) included, and e^{i k1} t2 s_i on its diagonal, with s the
    clock diagonal.  Only these O(q) entries (_bloch_entries) are
    written, each by the floating-point operations of the dense sum, so
    the values are the dense form's (only the sign of an exact zero can
    differ).  For q > 2 H is written directly, one allocation a call, not
    summed as A + A^dagger (see notes/decisions.md, "Two edge momenta, H
    from its diagonals").  The band edges take the real form of H,
    jacobi_batch; this complex form serves momenta where that does not
    apply.
    """
    single, hop, diag = _bloch_entries(model, k1, k2)
    q = hop.shape[-1]
    i = np.arange(q)
    H = np.zeros(hop.shape[:-1] + (q, q), dtype=complex)
    if q > 2:  # hops, their conjugates and the diagonal fill distinct entries
        H[..., i, i - 1] = hop
        H[..., i - 1, i] = np.conj(hop)
        H[..., i, i] = diag + np.conj(diag)
    else:
        # q = 2: the two hops are each other's conjugate partners; q = 1: A is 1 x 1
        H[..., i, i - 1] = hop
        H[..., i, i] += diag
        H = H + np.conj(np.swapaxes(H, -1, -2))
    return H[0] if single else H


def jacobi_batch(model, k1, k2) -> np.ndarray:
    """The real symmetric periodic Jacobi matrix J that H gauges to, on
    the momenta and models of hamiltonian_batch; float64, same shape.

    The diagonal gauge d_i = d_(i-1) h_i / |h_i| turns the hops into
    |h_i| and leaves the loop phase, that of L = h_0 h_1 ... h_(q-1), on
    the corner.  Where L is real, as at the extremal momenta of det H
    (notes/decisions.md, "Real band edges"), J is H in that gauge, with
    diagonal 2 Re(e^{i k1} t2 s_i), hops |h_i| and corner
    sign(Re L) |h_0|.  Elsewhere L sits at an angle theta off the real
    axis and J is H(k1, k2 - theta/q) in that gauge, since a shift of k2
    turns every hop by the same phase and leaves the diagonal.  So the
    eigenvalues of J are always those of H at some momentum.  At q <= 2
    no loop is left: J holds the diagonal of H and the modulus of its
    one off-diagonal entry, so it is H in a gauge at every momentum.
    """
    single, hop, diag = _bloch_entries(model, k1, k2)
    q = hop.shape[-1]
    i = np.arange(q)
    J = np.zeros(hop.shape[:-1] + (q, q))
    J[..., i, i] = 2.0 * diag.real
    if q > 2:
        off = np.abs(hop)
        # Re L < 0 exactly where the summed phases of the hops point left
        off[..., 0] = np.copysign(off[..., 0], np.cos(np.angle(hop).sum(axis=-1)))
        J[..., i, i - 1] = off
        J[..., i - 1, i] = off
    elif q == 2:  # both hops land on one entry of H, h_1 + conj(h_0)
        J[..., 1, 0] = J[..., 0, 1] = np.abs(hop[..., 1] + np.conj(hop[..., 0]))
    else:  # q = 1: the hop lands on the diagonal
        J[..., 0, 0] += 2.0 * hop[..., 0].real
    return J[0] if single else J


def _is_half_pi(phi: float) -> bool:
    r = phi % (2 * math.pi)
    return min(abs(r - math.pi / 2), abs(r - 3 * math.pi / 2)) < 1e-9


def inversion_check(model: HofstadterModel) -> float:
    """Residual of the spectral inversion E -> -E between fluxes +/-Phi.

    Valid only at phi_d = +/-pi/2 where the anti-unitary symmetry makes
    the spectra of flux p/q and flux (q-p)/q exact negatives.  Compares
    the sorted multiset of eigenvalues over the band-edge k-points of
    each flux; returns the max deviation.
    """
    from .spectrum import band_edge_kpoints  # local import avoids a cycle

    if not _is_half_pi(model.phi_d):
        raise ValueError("inversion symmetry requires phi_d = +/-pi/2")
    partner = HofstadterModel(model.flux.conjugate(), model.phi_d,
                              model.t1, model.t2, model.t3)
    evs_a = np.sort(np.concatenate([
        np.linalg.eigvalsh(build_hamiltonian(model, k))
        for k in band_edge_kpoints(model)]))
    evs_b = np.sort(np.concatenate([
        np.linalg.eigvalsh(build_hamiltonian(partner, k))
        for k in band_edge_kpoints(partner)]))
    return float(np.abs(evs_a + evs_b[::-1]).max())

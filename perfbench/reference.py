"""Independent reference physics for the benchmark's output checks.

Nothing here imports ``hofbutter``.  The Bloch Hamiltonian is rebuilt
from the model's definition,

    H(k) = e^{i k2} t1 T + e^{i(k1+k2)} t3 w_u T S + e^{i k1} t2 S + h.c.,

with the clock S = diag(w, ..., w^q), w = e^{2 pi i p/q}, the cyclic
shift T (T e_i = e_{i+1}) and w_u = w e^{-i phi_d}.  Two references
come from it:

* band edges from the Chambers structure of det H(k), whose
  k-dependent part is, up to a constant and an overall sign,
  2 Re(t2^q e^{iq k1} + t1^q e^{iq k2} + (-1)^{q-1} t3^q w_u^q e^{iq(k1+k2)});
  every band edge sits at the global minimum or maximum of that part;
* gap Chern numbers by the plaquette method of Fukui, Hatsugai and
  Suzuki (J. Phys. Soc. Jpn. 74, 1674, 2005) on the magnetic zone
  k1 in [0, 2 pi), k2 in [0, 2 pi/q), closed by
  psi(k1, k2 + 2 pi/q) = S^s psi(k1, k2) with s = p^{-1} mod q.

Run ``python3 perfbench/reference.py`` to validate the method and
regenerate ``perfbench/reference_chern.json`` from scratch (under a
minute on one core); ``--validate`` runs only the validation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from math import gcd

import numpy as np

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "reference_chern.json")

# Models of the benchmark workloads: name -> (phi_d, (t1, t2, t3), q range).
MODELS = {
    "sym": (-math.pi / 2, (1.0, 1.0, 1.0), 15),
    "gen": (0.3, (1.0, 1.0, 1.0), 13),
    "aniso": (0.3, (1.0, 0.8, 0.6), 13),
}

GAP_OPEN = 1e-8          # a gap narrower than this is closed
FHS_GRID_START = 16
FHS_GRID_CAP = 256
FHS_MAX_FIELD = math.pi / 2   # largest admissible plaquette angle
SUB = 4                       # split of a plaquette that is not admissible
REFINE_DEPTH = 10

# The Chern sets printed in the paper (semi-infinite gaps included as 0).
PAPER_SETS = {
    (1, 3): {0, 1}, (2, 3): {0, 1},
    (1, 5): {-1, 0, 1, 2, 3}, (4, 5): {-1, 0, 1, 2, 3},
    (3, 7): {-4, -2, -1, 0, 1, 2, 4}, (4, 7): {-4, -2, -1, 0, 1, 2, 4},
    (4, 9): {-4, -2, -1, 0, 1, 2, 3, 4, 6},
    (5, 9): {-4, -2, -1, 0, 1, 2, 3, 4, 6},
    (6, 13): {-8, -6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6, 8},
    (7, 13): {-8, -6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6, 8},
}


def inverse_mod(p: int, q: int) -> int:
    """s with s*p = 1 (mod q) by the extended Euclidean algorithm."""
    if q == 1:
        return 0
    r0, r1, s0, s1 = q, p % q, 0, 1
    while r1:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    if r0 != 1:
        raise ValueError(f"{p} has no inverse mod {q}")
    return s0 % q


def fluxes(q_max: int):
    """Reduced fluxes p/q, 1 <= p <= q <= q_max."""
    return [(p, q) for q in range(1, q_max + 1) for p in range(1, q + 1)
            if gcd(p, q) == 1]


class Model:
    """The triangular-lattice Hofstadter model at flux p/q."""

    def __init__(self, p, q, phi_d, t=(1.0, 1.0, 1.0)):
        self.p, self.q, self.phi_d = p, q, phi_d
        self.t1, self.t2, self.t3 = t
        idx = np.arange(q)
        w = np.exp(2j * math.pi * p * (idx + 1) / q)
        self.clock = w                       # diagonal of S
        self.w_u = np.exp(2j * math.pi * p / q - 1j * phi_d)
        # A(k) = e^{ik2} t1 T + e^{i(k1+k2)} t3 w_u T S + e^{ik1} t2 S;
        # T S carries w^{i} at row i+1 (0-based) below the diagonal.
        self.shift_rows = (idx + 1) % q
        self.shift_cols = idx
        self.ts_entries = w[idx]

    def hamiltonian(self, k1, k2) -> np.ndarray:
        """H on broadcastable momentum arrays; shape (..., q, q)."""
        k1 = np.asarray(k1, dtype=float)
        k2 = np.asarray(k2, dtype=float)
        shape = np.broadcast(k1, k2).shape
        q = self.q
        A = np.zeros(shape + (q, q), dtype=complex)
        e1 = np.exp(1j * k1)[..., None]
        e2 = np.exp(1j * k2)[..., None]
        e12 = np.exp(1j * (k1 + k2))[..., None]
        A[..., self.shift_rows, self.shift_cols] += (
            self.t1 * e2 + self.t3 * self.w_u * e12 * self.ts_entries)
        diag = np.arange(q)
        A[..., diag, diag] += self.t2 * e1 * self.clock
        return A + np.conj(np.swapaxes(A, -1, -2))

    # -- band edges --------------------------------------------------------

    def _chambers_terms(self):
        """(a, b, c) of g = Re(a e^{ix} + b e^{iy} + c e^{i(x+y)})."""
        q = self.q
        scale = max(self.t1, self.t2, self.t3) ** q
        a = self.t2 ** q / scale
        b = self.t1 ** q / scale
        c = (-1.0) ** (q - 1) * self.t3 ** q / scale * np.exp(-1j * q * self.phi_d)
        return a, b, c

    def chambers_part(self, k1, k2):
        """k-dependent part of det H up to scale, sign and a constant."""
        a, b, c = self._chambers_terms()
        x = self.q * np.asarray(k1, dtype=float)
        y = self.q * np.asarray(k2, dtype=float)
        return np.real(a * np.exp(1j * x) + b * np.exp(1j * y)
                       + c * np.exp(1j * (x + y)))

    def extremal_momenta(self):
        """Global minimum and maximum momenta of the Chambers part.

        For fixed y = q k2 the extremum over x is closed-form,
        +/-|a + c e^{iy}| + b cos y, leaving a 1-D search over y: a
        grid, then bisection on the derivative.  Locating the root of
        the derivative, not the flat top of the function, keeps y exact
        to rounding, which matters where two bands touch at the edge."""
        a, b, c = self._chambers_terms()
        out = []
        for sign in (-1.0, 1.0):
            def h(y):
                return sign * np.abs(a + c * np.exp(1j * y)) + b * np.cos(y)

            def dh(y):
                e = c * np.exp(1j * y)
                z = a + e
                return sign * np.real(np.conj(z) * 1j * e) / abs(z) - b * math.sin(y)

            n = 4096
            y = np.arange(n) * (2 * math.pi / n)
            i = int(np.argmax(sign * h(y)))
            lo, hi = y[i] - 2 * math.pi / n, y[i] + 2 * math.pi / n
            y0 = float(y[i])
            # the extremum of sign*h is where sign*dh falls through zero
            if sign * dh(lo) > 0 > sign * dh(hi):
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if sign * dh(mid) > 0:
                        lo = mid
                    else:
                        hi = mid
                y0 = 0.5 * (lo + hi)
            z = a + c * np.exp(1j * y0)
            x0 = -np.angle(z) if sign > 0 else math.pi - np.angle(z)
            out.append((x0 / self.q, y0 / self.q))
        return out

    def bands(self) -> np.ndarray:
        """(q, 2) array of band intervals from the two extremal momenta."""
        (k1a, k2a), (k1b, k2b) = self.extremal_momenta()
        evs = np.linalg.eigvalsh(self.hamiltonian(np.array([k1a, k1b]),
                                                  np.array([k2a, k2b])))
        return np.stack([evs.min(axis=0), evs.max(axis=0)], axis=1)

    # -- Chern numbers -----------------------------------------------------

    def _links(self, V_a, V_b, rank, high):
        """det of the rank x rank overlap block <a|b> per grid point."""
        sl = slice(self.q - rank, self.q) if high else slice(0, rank)
        M = np.conj(np.swapaxes(V_a[..., :, sl], -1, -2)) @ V_b[..., :, sl]
        return np.linalg.det(M)

    def _patch_flux(self, k1a, k2a, d1, d2, rank, high, depth):
        """Berry flux through the rectangle [k1a, k1a+d1] x [k2a, k2a+d2].

        The rectangle is split into SUB x SUB plaquettes; any that is
        still not admissible is split again, up to REFINE_DEPTH levels.
        Momenta are used as they are, without the seam: a loop of
        projectors is gauge invariant.  Returns None when the depth
        cap is reached."""
        m = SUB
        k1 = k1a + np.arange(m + 1) * (d1 / m)
        k2 = k2a + np.arange(m + 1) * (d2 / m)
        K1, K2 = np.meshgrid(k1, k2, indexing="ij")
        _, V = np.linalg.eigh(self.hamiltonian(K1, K2))
        u1 = self._links(V[:-1], V[1:], rank, high)            # (m, m+1)
        u2 = self._links(V[:, :-1], V[:, 1:], rank, high)      # (m+1, m)
        F = np.angle(u1[:, :-1] * u2[1:] * np.conj(u1[:, 1:]) * np.conj(u2[:-1]))
        for a, b in np.argwhere(np.abs(F) >= FHS_MAX_FIELD):
            if depth >= REFINE_DEPTH:
                return None
            sub = self._patch_flux(k1[a], k2[b], d1 / m, d2 / m, rank, high, depth + 1)
            if sub is None:
                return None
            F[a, b] = _branch(F[a, b], sub)
        return float(F.sum())

    def gap_cherns_at(self, n: int, js):
        """Plaquette Chern numbers of gaps ``js`` on an n x n grid.

        A plaquette whose angle is not admissible (|F| >= FHS_MAX_FIELD)
        keeps its angle up to the multiple of 2 pi that its refined
        flux selects, so the sum stays an exact integer.  Returns
        {j: (sigma, admissible)}.  Gaps above q/2 use the bands above
        them (rank q - j), whose Chern number is minus the gap's."""
        q = self.q
        s = inverse_mod(self.p, q)
        seam = self.clock ** s                    # diagonal of S^s
        d1, d2 = 2 * math.pi / n, 2 * math.pi / (q * n)
        k1 = np.arange(n) * d1
        k2 = np.arange(n) * d2
        plan = {j: (min(j, q - j), j > q - j) for j in js}
        totals = {j: 0.0 for j in js}
        admissible = {j: True for j in js}

        def row(i):
            _, V = np.linalg.eigh(self.hamiltonian(np.full(n, k1[i % n]), k2))
            return V

        V_first = row(0)
        V_cur = V_first
        for i in range(n):
            V_next = V_first if i == n - 1 else row(i + 1)
            # k2 neighbours of the current and next row, closed by the seam
            up_cur = np.concatenate([V_cur[1:], (seam[:, None] * V_cur[0])[None]])
            up_next = np.concatenate([V_next[1:], (seam[:, None] * V_next[0])[None]])
            for j, (rank, high) in plan.items():
                u1 = self._links(V_cur, V_next, rank, high)      # k1 link at k2
                u1_up = self._links(up_cur, up_next, rank, high)  # k1 link at k2 + dk2
                u2 = self._links(V_cur, up_cur, rank, high)       # k2 link at k1
                u2_next = self._links(V_next, up_next, rank, high)  # k2 link at k1 + dk1
                F = np.angle(u1 * u2_next * np.conj(u1_up) * np.conj(u2))
                for b in np.flatnonzero(np.abs(F) >= FHS_MAX_FIELD):
                    sub = self._patch_flux(k1[i], k2[b], d1, d2, rank, high, 1)
                    if sub is None:
                        admissible[j] = False
                    else:
                        F[b] = _branch(F[b], sub)
                totals[j] += float(F.sum())
            V_cur = V_next
        out = {}
        for j, (rank, high) in plan.items():
            value = int(round(totals[j] / (2 * math.pi)))
            # the paper's sigma is minus the counterclockwise plaquette sum
            # of the bands below the gap; the residue check fixes the sign
            out[j] = ((value if high else -value), admissible[j])
        return out

    def gap_cherns(self, js):
        """Certified Chern numbers: admissible and equal on grids n and 2n.

        Returns ({j: sigma}, {j: grid}); gaps not certified by the cap
        are left out."""
        remaining = list(js)
        prev = {}
        values, grids = {}, {}
        n = FHS_GRID_START
        while remaining and n <= FHS_GRID_CAP:
            res = self.gap_cherns_at(n, remaining)
            for j in list(remaining):
                value, admissible = res[j]
                if admissible and prev.get(j) == value:
                    values[j], grids[j] = value, n
                    remaining.remove(j)
                prev[j] = value if admissible else None
            n *= 2
        return values, grids


def _branch(angle: float, flux: float) -> float:
    """The representative angle + 2 pi m closest to a refined flux."""
    return angle + 2 * math.pi * round((flux - angle) / (2 * math.pi))


def open_gaps(model: Model):
    """Interior gaps j of the reference spectrum wider than GAP_OPEN."""
    bands = model.bands()
    return [j for j in range(1, model.q) if bands[j][0] - bands[j - 1][1] >= GAP_OPEN]


# ---------------------------------------------------------------------------
# validation and regeneration


def validate(log=print) -> bool:
    ok = True
    rng = np.random.default_rng(7)

    def check(cond, what):
        nonlocal ok
        ok &= bool(cond)
        log(("ok    " if cond else "FAIL  ") + what)

    # 1. Chambers form: det H(k) - det H(k0) is proportional to g(k) - g(k0)
    worst = 0.0
    for q in range(2, 10):
        for p in [p for p in range(1, q + 1) if gcd(p, q) == 1]:
            for phi_d, t in [(-math.pi / 2, (1, 1, 1)), (0.3, (1, 1, 1)),
                             (0.3, (1, 0.8, 0.6)), (1.1, (0.7, 1.2, 0.4))]:
                m = Model(p, q, phi_d, t)
                k = rng.uniform(-math.pi, math.pi, (6, 2))
                d = np.real(np.linalg.det(m.hamiltonian(k[:, 0], k[:, 1])))
                g = m.chambers_part(k[:, 0], k[:, 1])
                scale = max(t) ** q
                ratio = (d[1:] - d[0]) / (2 * scale)
                dg = g[1:] - g[0]
                sign = (-1.0) ** (q + 1)
                worst = max(worst, float(np.abs(ratio - sign * dg).max()))
    check(worst < 1e-9, f"Chambers form matches det H at q <= 9 (max dev {worst:.1e})")

    # 2. band edges contain the spectrum at random momenta
    worst = 0.0
    for (p, q, phi_d, t) in [(3, 7, -math.pi / 2, (1, 1, 1)), (9, 89, 0.3, (1, 1, 1)),
                             (11, 127, 0.3, (1, 1, 1)), (5, 19, 0.3, (1, 0.8, 0.6))]:
        m = Model(p, q, phi_d, t)
        bands = m.bands()
        k = rng.uniform(-math.pi, math.pi, (64, 2))
        evs = np.linalg.eigvalsh(m.hamiltonian(k[:, 0], k[:, 1]))
        excess = np.maximum(bands[:, 0] - evs, evs - bands[:, 1]).max()
        worst = max(worst, float(excess))
    check(worst < 1e-9, f"band edges contain 64 random momenta (max excess {worst:.1e})")

    # 3. magnetic translation S^s H(k1, k2) S^-s = H(k1, k2 + 2 pi/q)
    m = Model(3, 7, 0.3, (1, 0.8, 0.6))
    s = inverse_mod(3, 7)
    Ss = np.diag(m.clock ** s)
    H = m.hamiltonian(0.4, 0.1)
    H2 = m.hamiltonian(0.4, 0.1 + 2 * math.pi / 7)
    check(np.abs(Ss @ H @ np.conj(Ss.T) - H2).max() < 1e-12, "seam unitary S^s")

    # 4. the paper's printed Chern sets at phi_d = -pi/2
    for (p, q), expected in PAPER_SETS.items():
        m = Model(p, q, -math.pi / 2)
        values, _ = m.gap_cherns(open_gaps(m))
        got = set(values.values()) | {0}
        check(got == expected, f"paper set at {p}/{q}: {sorted(got)}")

    # 5. square limit t3 = 0: the TKNN window |sigma| <= (q-1)/2 at odd q
    for q in (3, 5, 7, 9):
        for p in [p for p in range(1, q) if gcd(p, q) == 1]:
            m = Model(p, q, 0.0, (1, 1, 0))
            js = open_gaps(m)
            values, _ = m.gap_cherns(js)
            s = inverse_mod(p, q)
            want = {j: ((s * j + (q - 1) // 2) % q) - (q - 1) // 2 for j in js}
            check(values == want, f"square window at {p}/{q}")
    return ok


def regenerate(path: str = TABLE_PATH, log=print) -> dict:
    table = {"method": "Fukui-Hatsugai-Suzuki plaquette sum, certified by "
                       "grid doubling; see perfbench/reference.py",
             "gap_open": GAP_OPEN, "models": {}}
    for name, (phi_d, t, q_max) in MODELS.items():
        entry = {"phi_d": phi_d, "t": list(t), "q_max": q_max, "fluxes": {}}
        for p, q in fluxes(q_max):
            t0 = time.perf_counter()
            m = Model(p, q, phi_d, t)
            js = open_gaps(m) if q > 1 else []
            values, grids = m.gap_cherns(js)
            s = inverse_mod(p, q)
            for j, v in values.items():
                if (v - s * j) % q:
                    raise RuntimeError(f"{name} {p}/{q} gap {j}: sigma {v} "
                                       f"breaks the Diophantine residue")
            entry["fluxes"][f"{p}/{q}"] = {
                "open": js,
                "sigma": {str(j): values[j] for j in sorted(values)},
                "grid": {str(j): grids[j] for j in sorted(grids)},
            }
            log(f"{name} {p}/{q}: {len(values)}/{len(js)} gaps certified "
                f"({time.perf_counter() - t0:.1f}s)")
        table["models"][name] = entry
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--validate", action="store_true",
                    help="run the validation only; write no table")
    args = ap.parse_args(argv)
    if not validate():
        print("validation failed; table not written", file=sys.stderr)
        return 1
    if not args.validate:
        regenerate()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks of one sweep, made without the program's own code.

Every flux is one operation, and so are the image and the audit.  A
flux fails when any of these checks fails on its records:

* ``records``: q + 1 records, j = 0..q, consistent widths and flags;
* ``bands``: band edges within BAND_TOL of the Chambers reference;
* ``containment``: eigenvalues of the reference H(k) at seeded random
  momenta lie inside the reported bands (within 2 BAND_TOL, so that a
  flux this check fails has already failed ``bands``: the failure set
  does not depend on the seed);
* ``residue``: sigma = s*j (mod q), s = p^{-1} mod q;
* ``reference``: a colored gap agrees with the FHS reference table;
* ``inversion`` (phi_d = -pi/2): gap j of p/q mirrors gap q-j of
  (q-p)/q in energy, flag and sigma.

The image must have the configured size, use only palette colors and,
at phi_d = -pi/2, be invariant under a 180 degree rotation.  The audit
must report exactly the Farey-adjacent, overlapping pairs whose Streda
claim Delta rho = sigma Delta phi holds for one side and whose sigma
differ; that set is recomputed here from the records.
"""

from __future__ import annotations

import colorsys
import json
import math
from fractions import Fraction

import numpy as np

import reference
from workloads import is_symmetric_phase

BAND_TOL = 1e-8
RANDOM_K = 8
BLACK, NEUTRAL, SENTINEL = (0, 0, 0), (245, 245, 245), (128, 128, 128)


def _inf(x, sign):
    return sign * math.inf if x is None else x


def load_records(path: str) -> dict:
    """(p, q) -> list of record dicts sorted by j, read with plain json."""
    by_flux: dict = {}
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            d["lo"] = _inf(d["lo"], -1)
            d["hi"] = _inf(d["hi"], 1)
            by_flux.setdefault((d["p"], d["q"]), []).append(d)
    for recs in by_flux.values():
        recs.sort(key=lambda d: d["j"])
    return by_flux


class SweepCheck:
    """Checks of one sweep's outputs against the independent references."""

    def __init__(self, config: dict, model: str, table: dict, seed: int):
        self.cfg = config
        self.phi_d = config["phi_d"]
        self.t = (config.get("t1", 1.0), config.get("t2", 1.0), config.get("t3", 1.0))
        self.eps_gap = config.get("eps_gap", 1e-8)
        self.symmetric = is_symmetric_phase(self.phi_d) and self.t == (1.0, 1.0, 1.0)
        self.ref = table["models"][model]["fluxes"]
        self.fluxes = reference.fluxes(config["q_max"])
        self.rng_seed = seed
        self._bands = {}

    def reference_bands(self, p, q):
        if (p, q) not in self._bands:
            self._bands[(p, q)] = reference.Model(p, q, self.phi_d, self.t).bands()
        return self._bands[(p, q)]

    # -- per flux ----------------------------------------------------------

    def check_flux(self, p, q, recs, by_flux, rng) -> tuple[set, int]:
        """(failed check names, verified gap count) of flux p/q."""
        bad = set()
        if recs is None or [r["j"] for r in recs] != list(range(q + 1)):
            return {"records"}, 0
        for r in recs:
            if r["phi_d"] != self.phi_d:
                bad.add("records")
            if 0 < r["j"] < q:
                width = max(r["hi"] - r["lo"], 0.0)
                if r["width"] != width or r["closed"] != (width < self.eps_gap):
                    bad.add("records")
        if recs[0]["chern"] != 0 or recs[q]["chern"] != 0 \
                or recs[0]["lo"] != -math.inf or recs[q]["hi"] != math.inf:
            bad.add("records")

        lo = np.array([recs[n - 1]["hi"] for n in range(1, q + 1)])
        hi = np.array([recs[n]["lo"] for n in range(1, q + 1)])
        ref = self.reference_bands(p, q)
        if not (np.all(np.abs(lo - ref[:, 0]) <= BAND_TOL)
                and np.all(np.abs(hi - ref[:, 1]) <= BAND_TOL)):
            bad.add("bands")
        k = rng.uniform(-math.pi, math.pi, (RANDOM_K, 2))
        model = reference.Model(p, q, self.phi_d, self.t)
        evs = np.linalg.eigvalsh(model.hamiltonian(k[:, 0], k[:, 1]))
        if np.maximum(lo - evs, evs - hi).max() > 2 * BAND_TOL:
            bad.add("containment")

        s = reference.inverse_mod(p, q)
        ref_sigma = self.ref.get(f"{p}/{q}", {}).get("sigma", {})
        verified = 0
        for r in recs[1:q]:
            sigma = r["chern"]
            if sigma is None or r["closed"]:
                continue
            if (sigma - s * r["j"]) % q:
                bad.add("residue")
            want = ref_sigma.get(str(r["j"]))
            if want is not None:
                if sigma == want:
                    verified += 1
                else:
                    bad.add("reference")

        if self.symmetric:
            partner = by_flux.get((q - p, q) if p < q else (p, q))
            if partner is None or len(partner) != q + 1:
                bad.add("inversion")
            else:
                for r in recs:
                    m = partner[q - r["j"]]
                    if (r["chern"] != m["chern"] or r["closed"] != m["closed"]
                            or not _close(r["lo"], -m["hi"])
                            or not _close(r["hi"], -m["lo"])):
                        bad.add("inversion")
                        break
        return bad, verified

    def check_fluxes(self, by_flux) -> tuple[dict, int]:
        """({(p, q): failed checks}, verified gaps) over the sweep."""
        rng = np.random.default_rng(self.rng_seed)
        failed, verified = {}, 0
        for p, q in self.fluxes:
            bad, v = self.check_flux(p, q, by_flux.get((p, q)), by_flux, rng)
            verified += v
            if bad:
                failed[(p, q)] = bad
        return failed, verified

    # -- image -------------------------------------------------------------

    def palette(self, by_flux) -> set:
        """Colors the renderer may use: black bands, the sigma = 0 tone,
        the gray of unresolved gaps and the signed cyclic hue of every
        sigma present (hue = 0.5 + sigma/period, S = 0.88, V = 0.95)."""
        sigmas = {r["chern"] for recs in by_flux.values() for r in recs
                  if r["chern"] and not r["closed"]}
        period = self.cfg.get("colormap_period") or \
            2 * max((abs(x) for x in sigmas), default=1) + 1
        colors = {BLACK, NEUTRAL, SENTINEL}
        for sigma in sigmas:
            rgb = colorsys.hsv_to_rgb((0.5 + sigma / period) % 1.0, 0.88, 0.95)
            colors.add(tuple(round(255 * c) for c in rgb))
        return colors

    def check_image(self, data: bytes, palette: set) -> bool:
        w, h = self.cfg.get("mu_bins", 1024), self.cfg.get("height", 1024)
        header = b"P6\n%d %d\n255\n" % (w, h)
        if not data.startswith(header) or len(data) != len(header) + w * h * 3:
            return False
        img = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(h, w, 3)
        packed = (img[..., 0].astype(np.int32) << 16) | (img[..., 1].astype(np.int32) << 8) \
            | img[..., 2]
        allowed = np.array([(r << 16) | (g << 8) | b for r, g, b in palette])
        if not np.isin(packed, allowed).all():
            return False
        if self.symmetric and not np.array_equal(img, img[::-1, ::-1]):
            return False
        return True

    # -- audit -------------------------------------------------------------

    def expected_audit(self, by_flux) -> set:
        """Inconsistent pairs recomputed from the records.

        A colored open gap (sigma, rho = j/q) at flux A claims, at a
        Farey neighbour B, the gap j' = q_B (rho + sigma (phi_B - phi_A)),
        when that is an integer.  A claimed gap that is open, colored,
        overlaps in energy and carries another sigma makes a pair."""
        present = set(by_flux)
        q_max = self.cfg["q_max"]
        pairs = set()
        for (pa, qa), recs_a in by_flux.items():
            for qb in range(1, q_max + 1):
                for delta in (1, -1):
                    num = pa * qb + delta
                    if num % qa:
                        continue
                    pb = num // qa            # pb*qa - pa*qb = delta
                    if (pb, qb) not in present or (pb, qb) == (pa, qa):
                        continue
                    recs_b = by_flux[(pb, qb)]
                    for a in recs_a:
                        sigma = a["chern"]
                        if sigma is None or a["closed"]:
                            continue
                        # j' = (qb*j + sigma*(pb*qa - pa*qb)) / qa
                        num_j = qb * a["j"] + sigma * delta
                        if num_j % qa:
                            continue
                        jb = num_j // qa
                        if not 0 <= jb < len(recs_b):
                            continue
                        b = recs_b[jb]
                        if (b["chern"] is None or b["closed"] or b["chern"] == sigma
                                or min(a["hi"], b["hi"]) - max(a["lo"], b["lo"]) <= 0):
                            continue
                        pairs.add(frozenset([(pa, qa, a["j"]), (pb, qb, jb)]))
        return pairs

    def check_audit(self, reported, by_flux, expected: set) -> bool:
        got = set()
        for ra, rb in reported:
            a, b = (_as_record(x, by_flux) for x in (ra, rb))
            if a is None or b is None:
                return False
            (pa, qa), (pb, qb) = (a["p"], a["q"]), (b["p"], b["q"])
            if abs(pa * qb - pb * qa) != 1:
                return False
            if min(a["hi"], b["hi"]) - max(a["lo"], b["lo"]) <= 0:
                return False
            if a["closed"] or b["closed"] or None in (a["chern"], b["chern"]) \
                    or a["chern"] == b["chern"]:
                return False
            drho = Fraction(b["j"], qb) - Fraction(a["j"], qa)
            dphi = Fraction(pb, qb) - Fraction(pa, qa)
            if drho != a["chern"] * dphi and drho != b["chern"] * dphi:
                return False
            got.add(frozenset([(pa, qa, a["j"]), (pb, qb, b["j"])]))
        return got == expected and len(reported) == len(expected)


def _close(x, y) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= BAND_TOL


def _as_record(item, by_flux):
    """The JSONL record an audit entry [p, q, j, lo, hi, closed, chern]
    names, or None when the entry does not match it."""
    p, q, j, lo, hi, closed, chern = item
    recs = by_flux.get((p, q))
    if recs is None or not 0 <= j < len(recs):
        return None
    r = recs[j]
    if (r["lo"], r["hi"], r["closed"], r["chern"]) != \
            (_inf(lo, -1), _inf(hi, 1), closed, chern):
        return None
    return r


def attribute(check: SweepCheck, p, q, bad: set, recs) -> str:
    """The known fault a failed flux is due to, or 'unattributed'.

    F1: band edges off away from the closed-form routes (the determinant
    scan loses its k-dependent part).  F2: window colors away from
    phi_d = -pi/2, where the shifted window does not hold."""
    if check.symmetric:
        return "unattributed"
    causes = []
    if bad & {"bands", "containment"}:
        causes.append("F1")
    if "reference" in bad:
        ref_sigma = check.ref[f"{p}/{q}"]["sigma"]
        wrong = [r for r in recs[1:q] if r["chern"] is not None and not r["closed"]
                 and ref_sigma.get(str(r["j"])) not in (None, r["chern"])]
        if wrong and all(r["source"] == "window_triangular" for r in wrong):
            causes.append("F2")
        else:
            return "unattributed"
    if bad - {"bands", "containment", "reference"} or not causes:
        return "unattributed"
    return "+".join(causes)

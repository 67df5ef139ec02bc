"""Gap-labeling arithmetic: residues, windows, chains and Streda checks.

The gap Chern number satisfies sigma_j = s*j (mod q), which determines
it only up to a multiple of q.  The strategies here pick a concrete
representative: a fixed integer window (square or shifted), a two-sided
chain walk from the trivial gaps, or deference to a directly computed
value.  A cross-flux Streda consistency check in exact rational
arithmetic exposes wrong choices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .magnetic_algebra import Flux
from .spectrum import GapRecord


class ResidueClass(NamedTuple):
    residue: int
    modulus: int


def solve_residue(j: int, flux: Flux) -> ResidueClass:
    """The residue class s*j mod q of gap j."""
    if not 0 <= j <= flux.q:
        raise ValueError(f"gap index {j} outside 0..{flux.q}")
    return ResidueClass((flux.s * j) % flux.q, flux.q)


@dataclass(frozen=True)
class Window:
    """An integer interval [lo, hi] minus exclusions, holding at most
    one representative of every residue class mod ``modulus``."""

    lo: int
    hi: int
    modulus: int
    excluded: frozenset = frozenset()

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        members = [v for v in range(self.lo, self.hi + 1) if v not in self.excluded]
        seen = {}
        for v in members:
            r = v % self.modulus
            if r in seen:
                raise ValueError(
                    f"window [{self.lo},{self.hi}] holds two representatives "
                    f"({seen[r]}, {v}) of class {r} mod {self.modulus}")
            seen[r] = v

    def members(self) -> list[int]:
        return [v for v in range(self.lo, self.hi + 1) if v not in self.excluded]


def square_window(q: int) -> Window:
    """The nearest-neighbor-model window: [1-q/2, q/2-1] for even q,
    [-(q-1)/2, (q-1)/2] for odd q.  Even q leaves the middle-gap class
    unrepresented, matching its permanently closed gap."""
    if q < 1:
        raise ValueError("q must be positive")
    if q % 2 == 0:
        return Window(1 - q // 2, q // 2 - 1, q)
    return Window(-(q - 1) // 2, (q - 1) // 2, q)


def triangular_window(q: int) -> Window:
    """The shifted window [1-q/2, q/2] for even q.

    No odd-q form is established; the naive symmetric interval is
    returned with the two boundary classes (the +/-(q-1)/2 slots whose
    alternative representative has comparable size) marked excluded,
    since resolving those classes by window is exactly what produces
    wing-coloring errors.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if q % 2 == 0:
        return Window(1 - q // 2, q // 2, q)
    b = (q - 1) // 2
    excluded = frozenset({-b, b}) if q > 1 else frozenset()
    return Window(-b, b, q, excluded)


def resolve_in_window(rc: ResidueClass, window: Window) -> Optional[int]:
    """The unique window member congruent to rc, or None if the window
    cannot color this class (the wing-miscoloring failure mode).  The
    first candidate is lo + (r - lo) mod q; an excluded one yields to the
    next, q higher."""
    if rc.modulus != window.modulus:
        raise ValueError(
            f"residue modulus {rc.modulus} != window modulus {window.modulus}")
    v = window.lo + (rc.residue - window.lo) % window.modulus
    while v in window.excluded:
        v += window.modulus
    return v if v <= window.hi else None


def chain_assign(j: int, flux: Flux, cutoff: Optional[int] = None) -> Optional[int]:
    """Two-sided chain heuristic: gap m*p mod q gets sigma = m and gap
    (q - m*p) mod q gets sigma = -m, for m up to the cutoff.

    Default cutoff is max(1, q // 4).  Returns None when neither walk
    reaches j within the cutoff or when both reach it and disagree (the
    mod-q ambiguity for O(q)-sized Chern numbers).
    """
    q = flux.q
    if not 0 <= j <= q:
        raise ValueError(f"gap index {j} outside 0..{q}")
    if cutoff is None:
        cutoff = max(1, q // 4)
    if j in (0, q):
        return 0
    r = (flux.s * j) % q  # left walk reaches j at step r, right walk at q-r
    left = r <= cutoff
    right = (q - r) <= cutoff
    if left and right:
        return None
    if left:
        return r
    if right:
        return r - q
    return None


class StredaOutcome(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    NOT_COMPARABLE = "not_comparable"


def _intervals_overlap(a: GapRecord, b: GapRecord, tol: float = 0.0) -> bool:
    return min(a.hi, b.hi) - max(a.lo, b.lo) > tol


def streda_check(rec_a: GapRecord, rec_b: GapRecord,
                 overlap_tol: float = 0.0) -> StredaOutcome:
    """Do two gap records lie consistently on one butterfly wing?

    Records whose energy intervals are disjoint (or that lack a Chern
    value or are closed) are NOT_COMPARABLE.  Among overlapping pairs,
    a record claims the other's slot as its wing's continuation when
    delta-rho = sigma * delta-Phi/2pi holds exactly in rational
    arithmetic for its own sigma; a claimed pair must then agree on
    sigma.  Overlapping records claimed by neither side belong to
    different wings that merely cross in energy (common at coarse flux
    spacing) and are NOT_COMPARABLE.
    """
    if rec_a.closed or rec_b.closed:
        return StredaOutcome.NOT_COMPARABLE
    if rec_a.chern is None or rec_b.chern is None:
        return StredaOutcome.NOT_COMPARABLE
    if not _intervals_overlap(rec_a, rec_b, overlap_tol):
        return StredaOutcome.NOT_COMPARABLE
    drho = rec_b.rho - rec_a.rho
    dphi = rec_b.flux_fraction - rec_a.flux_fraction
    claims_a = drho == rec_a.chern * dphi
    claims_b = drho == rec_b.chern * dphi
    if not (claims_a or claims_b):
        return StredaOutcome.NOT_COMPARABLE
    if rec_a.chern == rec_b.chern:
        return StredaOutcome.CONSISTENT
    return StredaOutcome.INCONSISTENT


@dataclass(frozen=True)
class FragmentationReport:
    """Whether a flux's computed Chern set fits one contiguous window."""

    q: int
    values: tuple
    contiguous: bool
    window: Optional[tuple]
    struck: tuple
    span: tuple


def fragmentation_report(computed: dict[int, int], q: int) -> FragmentationReport:
    """Analyze the computed gap->sigma map of one flux.

    A contiguous window exists iff the value span is at most q wide.
    ``struck`` lists the square-window slots whose residue class is
    realized by a different integer, i.e. the entries a contiguous
    presentation must cross out.
    """
    values = sorted(set(computed.values()))
    if not values:
        raise ValueError("no computed gap values")
    lo, hi = min(values), max(values)
    contiguous = hi - lo <= q - 1
    residues = {v % q: v for v in values}
    struck = tuple(sorted(
        v for v in square_window(q).members()
        if v not in values and residues.get(v % q, v) != v))
    return FragmentationReport(
        q=q, values=tuple(values), contiguous=contiguous,
        window=(lo, hi) if contiguous else None, struck=struck, span=(lo, hi))

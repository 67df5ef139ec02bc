"""Gap-labeling arithmetic: residues, windows and Streda checks.

The gap Chern number satisfies sigma_j = s*j (mod q), which determines
it only up to a multiple of q.  Every resolver picks a concrete
representative by a window condition: the integer interval of its
window (square, shifted or the chain's [-c, c]) holds at most one
member of each residue class.  A cross-flux Streda consistency check in
exact integer arithmetic exposes wrong choices.
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
    """An integer interval [lo, hi] holding at most one representative
    of every residue class mod ``modulus``."""

    lo: int
    hi: int
    modulus: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if self.hi - self.lo >= self.modulus:
            raise ValueError(
                f"window [{self.lo},{self.hi}] holds two representatives "
                f"({self.lo}, {self.lo + self.modulus}) of class "
                f"{self.lo % self.modulus} mod {self.modulus}")

    def members(self) -> list[int]:
        return list(range(self.lo, self.hi + 1))


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
    """The shifted window [1-q/2, q/2] of even q.

    No odd-q form is established, so odd q raises ValueError: resolving
    the boundary classes +/-(q-1)/2 by a window is exactly what produces
    wing-coloring errors.
    """
    if q < 1 or q % 2:
        raise ValueError(f"no triangular window for q={q}: q must be even")
    return Window(1 - q // 2, q // 2, q)


def chain_window(q: int) -> Window:
    """The window [-c, c], c = max(1, q // 4), of the two-sided chain.

    The chain walks out from the trivial gaps: gap m*p mod q gets
    sigma = m and gap (q - m*p) mod q gets sigma = -m, for m up to c.
    Gap j with r = s*j mod q is reached at step r from the left and at
    step q - r from the right, so it gets r if r <= c, r - q if
    q - r <= c, and nothing if neither walk reaches it.  That is the
    representative of r in [-c, c].  Both walks reach the same gap only
    when q <= 2c, i.e. q <= 2; that gap is ambiguous, and [0, 0] leaves
    it gray.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if q <= 2:
        return Window(0, 0, q)
    c = max(1, q // 4)
    return Window(-c, c, q)


def resolve_in_window(rc: ResidueClass, window: Window) -> Optional[int]:
    """The unique window member congruent to rc, lo + (r - lo) mod q,
    or None if the window cannot color this class (the
    wing-miscoloring failure mode)."""
    if rc.modulus != window.modulus:
        raise ValueError(
            f"residue modulus {rc.modulus} != window modulus {window.modulus}")
    v = window.lo + (rc.residue - window.lo) % window.modulus
    return v if v <= window.hi else None


class StredaOutcome(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    NOT_COMPARABLE = "not_comparable"


def streda_check(rec_a: GapRecord, rec_b: GapRecord) -> StredaOutcome:
    """Do two gap records lie consistently on one butterfly wing?

    Records whose energy intervals are disjoint (or that lack a Chern
    value or are closed) are NOT_COMPARABLE.  Among overlapping pairs,
    a record claims the other's slot as its wing's continuation when
    delta-rho = sigma * delta-Phi/2pi holds exactly for its own sigma;
    a claimed pair must then agree on sigma.  Both sides are compared
    times q_a q_b, in integers: delta-rho q_a q_b = j_b q_a - j_a q_b
    and delta-Phi/2pi q_a q_b = p_b q_a - p_a q_b.  Overlapping records
    claimed by neither side belong to different wings that merely
    cross in energy (common at coarse flux spacing) and are
    NOT_COMPARABLE.
    """
    if rec_a.closed or rec_b.closed:
        return StredaOutcome.NOT_COMPARABLE
    if rec_a.chern is None or rec_b.chern is None:
        return StredaOutcome.NOT_COMPARABLE
    if not min(rec_a.hi, rec_b.hi) - max(rec_a.lo, rec_b.lo) > 0.0:
        return StredaOutcome.NOT_COMPARABLE
    drho = rec_b.j * rec_a.q - rec_a.j * rec_b.q
    dphi = rec_b.p * rec_a.q - rec_a.p * rec_b.q
    if drho != rec_a.chern * dphi and drho != rec_b.chern * dphi:
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

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofbutter import (
    Flux,
    GapRecord,
    HofstadterModel,
    PHI_D_SYMMETRIC,
    ResidueClass,
    StredaOutcome,
    Window,
    chain_window,
    compute_bands,
    compute_gaps,
    fragmentation_report,
    resolve_in_window,
    solve_residue,
    square_window,
    streda_check,
    triangular_window,
)


def coprime(q):
    return [p for p in range(1, q + 1) if math.gcd(p, q) == 1]


class TestSolveResidue:
    def test_trivial(self):
        assert solve_residue(0, Flux(3, 7)) == ResidueClass(0, 7)

    def test_known(self):
        assert solve_residue(2, Flux(3, 7)).residue == 3   # s = 5
        assert solve_residue(4, Flux(2, 5)).residue == 2   # s = 3

    def test_range_check(self):
        with pytest.raises(ValueError):
            solve_residue(8, Flux(3, 7))


class TestWindows:
    def test_square_examples(self):
        assert (square_window(5).lo, square_window(5).hi) == (-2, 2)
        assert (square_window(4).lo, square_window(4).hi) == (-1, 1)
        assert (square_window(1).lo, square_window(1).hi) == (0, 0)

    def test_triangular_examples(self):
        assert (triangular_window(512).lo, triangular_window(512).hi) == (-255, 256)
        assert (triangular_window(2).lo, triangular_window(2).hi) == (0, 1)
        assert (triangular_window(4).lo, triangular_window(4).hi) == (-1, 2)

    @pytest.mark.parametrize("q", [1, 3, 5, 13, 513])
    def test_triangular_odd_q_raises(self, q):
        # no shifted window is established at odd q
        with pytest.raises(ValueError, match="must be even"):
            triangular_window(q)

    def test_chain_examples(self):
        assert [(chain_window(q).lo, chain_window(q).hi) for q in (1, 2, 3, 7, 8, 13)] \
            == [(0, 0), (0, 0), (-1, 1), (-1, 1), (-2, 2), (-3, 3)]

    def test_window_sizes(self):
        for q in range(1, 30):
            assert len(square_window(q).members()) == q - (q % 2 == 0)
            if q % 2 == 0:
                assert len(triangular_window(q).members()) == q

    def test_double_representative_rejected(self):
        with pytest.raises(ValueError):
            Window(0, 5, 5)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            Window(3, 2, 5)


class TestResolveInWindow:
    def test_unique_representative(self):
        assert resolve_in_window(ResidueClass(3, 5), square_window(5)) == -2

    def test_shifted_window_picks_positive(self):
        assert resolve_in_window(ResidueClass(3, 5), Window(-1, 3, 5)) == 3

    def test_modulus_one(self):
        assert resolve_in_window(ResidueClass(1, 1), square_window(1)) == 0

    def test_no_representative(self):
        w = square_window(4)  # middle class q/2 unrepresented
        assert resolve_in_window(ResidueClass(2, 4), w) is None

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            resolve_in_window(ResidueClass(1, 3), square_window(5))

    def test_round_trip_identity(self):
        # whenever sigma itself lies in the window the composite is identity
        for q in range(1, 65):
            w = square_window(q)
            for p in coprime(q):
                flux = Flux(p, q)
                for sigma in w.members():
                    j = (p * sigma) % q
                    assert resolve_in_window(solve_residue(j, flux), w) == sigma

    def test_arithmetic_matches_member_scan(self):
        def scan(r, w):
            return next((v for v in w.members() if v % w.modulus == r), None)

        windows = []
        for q in range(1, 65):
            windows += [square_window(q), chain_window(q)]
            if q % 2 == 0:
                windows.append(triangular_window(q))
        for w in windows:
            for r in range(w.modulus):
                assert resolve_in_window(ResidueClass(r, w.modulus), w) == scan(r, w)


def _chain_walk(j, flux):
    """The two-sided chain walk as a rule on gap indices: gap m*p mod q
    gets sigma = m and gap (q - m*p) mod q gets sigma = -m, for m up to
    max(1, q // 4); a gap that neither walk reaches, or both reach, is
    unresolved."""
    q = flux.q
    cutoff = max(1, q // 4)
    left = {(m * flux.p) % q: m for m in range(cutoff + 1)}
    right = {(-m * flux.p) % q: -m for m in range(cutoff + 1)}
    if j in (0, q):
        return 0
    if (j in left) == (j in right):
        return None
    return left[j] if j in left else right[j]


class TestChainWindow:
    def _chain(self, j, flux):
        return resolve_in_window(solve_residue(j, flux), chain_window(flux.q))

    def test_matches_walk_rule(self):
        # every reduced flux with q <= 64 and every gap index j
        cases = 0
        for q in range(1, 65):
            for p in coprime(q):
                flux = Flux(p, q)
                for j in range(q + 1):
                    assert self._chain(j, flux) == _chain_walk(j, flux), (p, q, j)
                    cases += 1
        assert cases == sum(len(coprime(q)) * (q + 1) for q in range(1, 65))

    def test_anchors(self):
        flux = Flux(3, 7)
        assert self._chain(0, flux) == 0
        assert self._chain(7, flux) == 0

    def test_first_links(self):
        for p, q in [(1, 5), (3, 7), (5, 13), (2, 9)]:
            flux = Flux(p, q)
            assert self._chain(p, flux) == 1
            assert self._chain(q - p, flux) == -1

    def test_unresolved_middle(self):
        flux = Flux(1, 13)  # gap 6 would need sigma = 6 > c = 3
        assert self._chain(6, flux) is None

    def test_agrees_with_square_window(self):
        for q in range(1, 14):
            w = square_window(q)
            for p in coprime(q):
                flux = Flux(p, q)
                for j in range(q + 1):
                    a = self._chain(j, flux)
                    b = resolve_in_window(solve_residue(j, flux), w)
                    if a is not None and b is not None:
                        assert a == b


def _record(p, q, j, lo, hi, chern):
    return GapRecord(p, q, PHI_D_SYMMETRIC, j, lo, hi, hi - lo, False, chern, "edge_winding")


class TestStredaCheck:
    def test_identical_records_consistent(self):
        r = _record(1, 3, 1, -3.0, 0.0, 1)
        assert streda_check(r, r) is StredaOutcome.CONSISTENT

    def test_wing_example(self):
        # the sigma = 1 wing from flux 1/3 continues into gap 2 of 2/5
        a = _record(1, 3, 1, -3.0, 0.0, 1)
        b = _record(2, 5, 2, -2.55, 0.83, 1)
        assert streda_check(a, b) is StredaOutcome.CONSISTENT

    def test_wing_example_real_intervals(self):
        ga = compute_gaps(compute_bands(HofstadterModel(Flux(1, 3), PHI_D_SYMMETRIC)))
        gb = compute_gaps(compute_bands(HofstadterModel(Flux(2, 5), PHI_D_SYMMETRIC)))
        a = _record(1, 3, 1, ga[1].lo, ga[1].hi, 1)
        b = _record(2, 5, 2, gb[2].lo, gb[2].hi, 1)
        assert streda_check(a, b) is StredaOutcome.CONSISTENT

    def test_forced_wrong_sigma_inconsistent(self):
        a = _record(1, 3, 1, -3.0, 0.0, 1)
        b = _record(2, 5, 2, -2.55, 0.83, -2)
        assert streda_check(a, b) is StredaOutcome.INCONSISTENT

    def test_disjoint_not_comparable(self):
        a = _record(1, 3, 1, -3.0, -2.0, 1)
        b = _record(2, 5, 2, 5.0, 6.0, 1)
        assert streda_check(a, b) is StredaOutcome.NOT_COMPARABLE

    def test_closed_or_unresolved_not_comparable(self):
        a = _record(1, 3, 1, -3.0, 0.0, 1)
        closed = GapRecord(2, 5, PHI_D_SYMMETRIC, 2, -2.5, -2.5, 0.0, True, 1, "chain")
        assert streda_check(a, closed) is StredaOutcome.NOT_COMPARABLE
        unresolved = _record(2, 5, 2, -2.55, 0.83, None)
        assert streda_check(a, unresolved) is StredaOutcome.NOT_COMPARABLE

    def test_symmetric_and_reflexive(self):
        a = _record(1, 3, 1, -3.0, 0.0, 1)
        b = _record(2, 5, 2, -2.55, 0.83, 1)
        assert streda_check(a, b) is streda_check(b, a)

    def test_transitive_along_wing(self):
        a = _record(1, 3, 1, -3.0, 0.0, 1)
        b = _record(2, 5, 2, -2.55, 0.83, 1)
        c = _record(3, 8, 3, -2.7, 0.4, 1)  # rho 3/8 = 1/3 + (3/8 - 1/3)
        assert streda_check(a, b) is StredaOutcome.CONSISTENT
        assert streda_check(b, c) is StredaOutcome.CONSISTENT
        assert streda_check(a, c) is StredaOutcome.CONSISTENT


def _streda_by_fractions(a, b):
    """streda_check as written in rational arithmetic."""
    if a.closed or b.closed or a.chern is None or b.chern is None:
        return StredaOutcome.NOT_COMPARABLE
    if not min(a.hi, b.hi) - max(a.lo, b.lo) > 0.0:
        return StredaOutcome.NOT_COMPARABLE
    drho = Fraction(b.j, b.q) - Fraction(a.j, a.q)
    dphi = Fraction(b.p, b.q) - Fraction(a.p, a.q)
    if drho != a.chern * dphi and drho != b.chern * dphi:
        return StredaOutcome.NOT_COMPARABLE
    if a.chern == b.chern:
        return StredaOutcome.CONSISTENT
    return StredaOutcome.INCONSISTENT


def test_integer_streda_matches_fractions():
    rng = random.Random(20261018)
    fluxes = [(p, q) for q in range(1, 13) for p in coprime(q)]
    outcomes = set()
    for _ in range(4000):
        (pa, qa), (pb, qb) = rng.sample(fluxes, 2)
        ja = rng.randrange(qa + 1)
        sa = rng.randrange(-qa, qa + 1)
        sb = rng.randrange(-qb, qb + 1)
        # on a claimed wing half the time: j_b = q_b (j_a/q_a + sigma_a dphi)
        claimed = Fraction(ja, qa) + sa * (Fraction(pb, qb) - Fraction(pa, qa))
        jb = claimed * qb
        if rng.random() < 0.5 or jb.denominator != 1:
            jb = rng.randrange(qb + 1)
        if rng.random() < 0.3:
            sb = sa
        lo_a, lo_b = rng.uniform(-3, 2), rng.uniform(-3, 2)
        a = GapRecord(pa, qa, PHI_D_SYMMETRIC, ja, lo_a, lo_a + rng.uniform(0, 1), 0.5,
                      rng.random() < 0.05, None if rng.random() < 0.05 else sa, "x")
        b = GapRecord(pb, qb, PHI_D_SYMMETRIC, int(jb), lo_b, lo_b + rng.uniform(0, 1), 0.5,
                      rng.random() < 0.05, None if rng.random() < 0.05 else sb, "x")
        expected = _streda_by_fractions(a, b)
        assert streda_check(a, b) is expected
        assert streda_check(b, a) is _streda_by_fractions(b, a)
        outcomes.add(expected)
    assert outcomes == set(StredaOutcome)


class TestFragmentation:
    def test_contiguous_q5(self):
        rep = fragmentation_report({0: 0, 1: -1, 2: 1, 3: 2, 4: 3, 5: 0}, 5)
        assert rep.contiguous
        assert rep.window == (-1, 3)
        assert rep.struck == (-2,)

    def test_fragmented_q7(self):
        rep = fragmentation_report(
            {0: 0, 1: -4, 2: -2, 3: -1, 4: 1, 5: 2, 6: 4}, 7)
        assert not rep.contiguous
        assert rep.window is None
        assert rep.struck == (-3, 3)
        assert rep.span == (-4, 4)

    def test_trivial_q1(self):
        rep = fragmentation_report({0: 0}, 1)
        assert rep.contiguous
        assert rep.window == (0, 0)
        assert rep.struck == ()


def test_distinct_sigma_per_flux(triangular_tables):
    for (p, q), entry in triangular_tables.items():
        values = list(entry.cherns.values())
        assert len(set(values)) == len(values)


def test_conjecture_bound(triangular_tables):
    # tested, not proved: the mod-q ambiguity is a sign ambiguity, so every
    # computed sigma is r or r - q with r = s*j mod q
    for (p, q), entry in triangular_tables.items():
        s = Flux(p, q).s
        for j, sigma in entry.cherns.items():
            r = s * j % q
            assert sigma in (r, r - q), f"{p}/{q} gap {j}: {sigma}"

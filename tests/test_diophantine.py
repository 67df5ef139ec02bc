import dataclasses
import math
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
    chain_assign,
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

    def test_triangular_odd_q_excludes_boundary(self):
        w = triangular_window(5)
        assert w.excluded == frozenset({-2, 2})
        assert set(w.members()) == {-1, 0, 1}

    def test_window_sizes(self):
        for q in range(1, 30):
            assert len(square_window(q).members()) == q - (q % 2 == 0)
            if q % 2 == 0:
                assert len(triangular_window(q).members()) == q

    def test_double_representative_rejected(self):
        with pytest.raises(ValueError):
            Window(0, 5, 5)
        # with one duplicate excluded the same span is fine
        Window(0, 5, 5, excluded=frozenset({5}))

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

    def test_exclusions_respected(self):
        w = triangular_window(5)
        assert resolve_in_window(ResidueClass(3, 5), w) is None  # -2 excluded

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

        windows = [Window(0, 5, 5, frozenset({0}))]  # wider than q: 5 stands for 0
        for q in range(1, 65):
            tri = triangular_window(q)
            windows += [square_window(q), tri,
                        dataclasses.replace(tri, excluded=frozenset())]
        for w in windows:
            for r in range(w.modulus):
                assert resolve_in_window(ResidueClass(r, w.modulus), w) == scan(r, w)


class TestChainAssign:
    def test_anchors(self):
        flux = Flux(3, 7)
        assert chain_assign(0, flux) == 0
        assert chain_assign(7, flux) == 0

    def test_first_links(self):
        for p, q in [(1, 5), (3, 7), (5, 13), (2, 9)]:
            flux = Flux(p, q)
            assert chain_assign(p, flux) == 1
            assert chain_assign(q - p, flux) == -1

    def test_unresolved_middle(self):
        flux = Flux(1, 13)  # gap 6 would need sigma = 6 > cutoff 3
        assert chain_assign(6, flux) is None

    def test_agrees_with_square_window(self):
        for q in range(1, 14):
            w = square_window(q)
            for p in coprime(q):
                flux = Flux(p, q)
                for j in range(q + 1):
                    a = chain_assign(j, flux)
                    b = resolve_in_window(solve_residue(j, flux), w)
                    if a is not None and b is not None:
                        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 200), st.integers(1, 40))
    def test_chain_respects_residue(self, q, j_seed, cutoff):
        ps = coprime(q)
        flux = Flux(ps[j_seed % len(ps)], q)
        j = j_seed % (q + 1)
        sigma = chain_assign(j, flux, cutoff)
        if sigma is not None:
            assert (sigma - flux.s * j) % q == 0


def _record(p, q, j, lo, hi, chern):
    return GapRecord(p, q, PHI_D_SYMMETRIC, j, lo, hi, hi - lo, False, chern, "computed_fhs")


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
    # tested, not proved: every computed sigma satisfies -q <= sigma <= q
    for (p, q), entry in triangular_tables.items():
        assert all(-q <= v <= q for v in entry.cherns.values())

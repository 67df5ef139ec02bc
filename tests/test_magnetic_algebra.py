import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofbutter import chern
from hofbutter import (
    ButterflyConfig,
    Flux,
    HofstadterModel,
    PHI_D_SYMMETRIC,
    build_hamiltonian,
    clock_shift,
    compute_bands,
    compute_gaps,
    gap_chern_table,
    inversion_check,
    modular_inverse,
)
from hofbutter.magnetic_algebra import _hopping_terms, hamiltonian_batch

PI = math.pi


def dense_hamiltonian_batch(model, k1, k2):
    """H = A + A^dagger from the three dense clock-and-shift matrices."""
    M1, M2, M3 = _hopping_terms(model)
    k1 = np.asarray(k1, dtype=float)[..., None, None]
    k2 = np.asarray(k2, dtype=float)[..., None, None]
    A = np.exp(1j * k2) * M1 + np.exp(1j * (k1 + k2)) * M2 + np.exp(1j * k1) * M3
    return A + np.conj(np.swapaxes(A, -1, -2))


def coprime_pairs(q_max):
    return [(p, q) for q in range(1, q_max + 1) for p in range(1, q + 1)
            if math.gcd(p, q) == 1]


class TestModularInverse:
    def test_identity(self):
        for q in (1, 2, 7, 64):
            assert modular_inverse(1, q) == 1

    def test_known_values(self):
        assert modular_inverse(2, 5) == 3
        assert modular_inverse(5, 13) == 8

    def test_defining_property(self):
        for p, q in coprime_pairs(40):
            s = modular_inverse(p, q)
            assert 1 <= s <= q
            assert (s * p) % q == 1 % q

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            modular_inverse(2, 4)
        with pytest.raises(ValueError):
            modular_inverse(0, 5)
        with pytest.raises(ValueError):
            modular_inverse(3, 0)


class TestFlux:
    def test_invariants(self):
        for p, q in coprime_pairs(30):
            flux = Flux(p, q)
            assert (flux.s * p) % q == 1 % q
            assert abs(abs(flux.omega) - 1.0) < 1e-12
            assert abs(flux.omega ** q - 1.0) < 1e-12

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Flux(2, 4)
        with pytest.raises(ValueError):
            Flux(5, 3)

    def test_conjugate(self):
        assert Flux(2, 5).conjugate() == Flux(3, 5)
        assert Flux(1, 1).conjugate() == Flux(1, 1)


class TestClockShift:
    def test_q1_scalars(self):
        S, T = clock_shift(Flux(1, 1))
        assert np.allclose(S, [[1.0]])
        assert np.allclose(T, [[1.0]])

    def test_q2_matrices(self):
        S, T = clock_shift(Flux(1, 2))
        assert np.allclose(S, np.diag([-1.0, 1.0]))
        assert np.allclose(T, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (1, 3), (2, 5), (3, 7), (3, 8),
                                     (5, 13), (8, 21), (13, 34), (7, 32), (63, 64)])
    def test_algebra(self, p, q):
        flux = Flux(p, q)
        S, T = clock_shift(flux)
        assert np.abs(S @ T - flux.omega * (T @ S)).max() <= 1e-12
        assert np.abs(np.linalg.matrix_power(S, q) - np.eye(q)).max() <= 1e-12
        assert np.abs(np.linalg.matrix_power(T, q) - np.eye(q)).max() <= 1e-12


class TestHamiltonian:
    def test_q1_square_model(self):
        model = HofstadterModel(Flux(1, 1), t3=0.0)
        H = build_hamiltonian(model, (0.0, 0.0))
        assert np.allclose(H, [[4.0]])

    def test_q1_triangular(self):
        for phi_d in (0.3, -1.2, PI / 2):
            model = HofstadterModel(Flux(1, 1), phi_d)
            H = build_hamiltonian(model, (0.0, 0.0))
            expected = 4.0 + 2.0 * np.real(model.omega_u)
            assert abs(H[0, 0] - expected) < 1e-12

    def test_hermitian_100_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = int(rng.integers(1, 14))
            p = int(rng.choice([x for x in range(1, q + 1) if math.gcd(x, q) == 1]))
            model = HofstadterModel(Flux(p, q), float(rng.uniform(-PI, PI)),
                                    *rng.uniform(0.0, 2.0, 3))
            H = build_hamiltonian(model, rng.uniform(-PI, PI, 2))
            assert np.abs(H - H.conj().T).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 13), st.floats(-PI, PI), st.floats(-PI, PI),
           st.floats(-PI, PI), st.floats(0, 2), st.floats(0, 2), st.floats(0, 2))
    def test_spectral_radius_bound(self, q, phi_d, k1, k2, t1, t2, t3):
        ps = [x for x in range(1, q) if math.gcd(x, q) == 1]
        model = HofstadterModel(Flux(ps[q % len(ps)], q), phi_d, t1, t2, t3)
        evs = np.linalg.eigvalsh(build_hamiltonian(model, (k1, k2)))
        bound = ButterflyConfig(phi_d=phi_d, t1=t1, t2=t2, t3=t3).energy_clamp
        assert np.abs(evs).max() <= bound + 1e-9

    def test_rejects_negative_hopping(self):
        with pytest.raises(ValueError):
            HofstadterModel(Flux(1, 3), t1=-0.5)
        # and a non-finite hopping or phi_d, on which every eigensolve fails
        for bad in ({"t2": math.inf}, {"t3": math.nan}, {"phi_d": math.nan},
                    {"phi_d": -math.inf}):
            with pytest.raises(ValueError):
                HofstadterModel(Flux(1, 3), **bad)


class TestDiagonalAssembly:
    """hamiltonian_batch writes only the three diagonals of H, by the
    floating-point operations of the dense clock-and-shift sum."""

    MODELS = [(PHI_D_SYMMETRIC, (1.0, 1.0, 1.0)), (PI / 2, (1.0, 1.0, 1.0)),
              (0.3, (1.0, 0.8, 0.6)), (0.0, (1.0, 1.0, 0.0))]

    def test_lower_triangle_equals_dense_form(self):
        # eigvalsh and eigh read the lower triangle; == does not tell a
        # zero's sign, which can differ at special momenta such as k = 0
        rng = np.random.default_rng(11)
        n = 8  # an FHS grid of n x n offset momenta, as chern._grid_eigensystem
        for q in range(1, 41):
            ps = [p for p in range(1, q + 1) if math.gcd(p, q) == 1]
            k1 = -PI + (np.arange(n) + 0.5) * (2.0 * PI / n)
            k2 = -PI / q + (np.arange(n) + 0.5) * (2.0 * PI / (q * n))
            grid = np.meshgrid(k1, k2, indexing="ij")
            for p in rng.choice(ps, min(3, len(ps)), replace=False).tolist():
                for phi_d, t in self.MODELS:
                    model = HofstadterModel(Flux(p, q), phi_d, *t)
                    for k in (rng.uniform(-PI, PI, (2, 8)), grid, (0.0, 0.0)):
                        H = hamiltonian_batch(model, *k)
                        dense = dense_hamiltonian_batch(model, *k)
                        assert np.array_equal(np.tril(H), np.tril(dense)), (p, q, phi_d)
                        assert np.array_equal(H, np.conj(np.swapaxes(H, -1, -2)))
                    # build_hamiltonian is the same assembly at one momentum
                    assert np.array_equal(build_hamiltonian(model, (k1[1], k2[2])),
                                          hamiltonian_batch(model, *grid)[1, 2])

    @pytest.mark.parametrize("p,q", [(1, 3), (1, 5), (2, 5), (1, 7), (2, 7), (3, 7),
                                     (1, 9), (2, 9), (4, 9), (7, 15)])
    def test_gap_tables_unchanged(self, monkeypatch, p, q):
        # the odd-q fluxes of a q_max 9 sweep at phi_d = -pi/2 that reach FHS
        # (one of each inversion pair) and 7/15, whose gap 5 needs grid 256
        model = HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)
        gaps = compute_gaps(compute_bands(model))
        table = gap_chern_table(model, gaps)
        monkeypatch.setattr(chern, "hamiltonian_batch", dense_hamiltonian_batch)
        dense = gap_chern_table(model, gaps)
        assert table and {j: (r.value, r.grid) for j, r in table.items()} == \
            {j: (r.value, r.grid) for j, r in dense.items()}


def magnetic_symmetry_residual(model, k):
    """Deviations (r1, r2) from the magnetic-translation identities.

    r1 compares H(k1, k2) with T^s' H(k1 - 2*pi/q, k2) T^s and r2 with
    S^s' H(k1, k2 + 2*pi/q) S^s, the identity behind the k2 seam of the
    FHS overlap links; both vanish identically for this Hamiltonian class.
    """
    k1, k2 = k
    q, s = model.q, model.flux.s
    S, T = clock_shift(model.flux)
    Ts, Ss = np.linalg.matrix_power(T, s), np.linalg.matrix_power(S, s)
    H = build_hamiltonian(model, (k1, k2))
    H1 = build_hamiltonian(model, (k1 - 2.0 * PI / q, k2))
    H2 = build_hamiltonian(model, (k1, k2 + 2.0 * PI / q))
    r1 = np.abs(H - Ts.conj().T @ H1 @ Ts).max()
    r2 = np.abs(H - Ss.conj().T @ H2 @ Ss).max()
    return float(r1), float(r2)


class TestMagneticSymmetry:
    def test_q1_trivial(self):
        model = HofstadterModel(Flux(1, 1), 0.7)
        r1, r2 = magnetic_symmetry_residual(model, (0.3, -0.4))
        assert max(r1, r2) <= 1e-12  # scalar case: only phase roundoff

    def test_13_random_k(self):
        rng = np.random.default_rng(1)
        model = HofstadterModel(Flux(1, 3), PHI_D_SYMMETRIC)
        for _ in range(5):
            r1, r2 = magnetic_symmetry_residual(model, rng.uniform(-PI, PI, 2))
            assert max(r1, r2) <= 1e-12

    def test_37_ten_random_k(self):
        rng = np.random.default_rng(2)
        model = HofstadterModel(Flux(3, 7), PI / 2)
        for _ in range(10):
            r1, r2 = magnetic_symmetry_residual(model, rng.uniform(-PI, PI, 2))
            assert max(r1, r2) <= 1e-12

    def test_random_models(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = int(rng.integers(2, 14))
            p = int(rng.choice([x for x in range(1, q) if math.gcd(x, q) == 1]))
            phi_d = float(rng.uniform(-PI, PI))
            for t in [(1.0, 1.0, 1.0), rng.uniform(0.0, 2.0, 3)]:
                model = HofstadterModel(Flux(p, q), phi_d, *t)
                for _ in range(5):
                    r1, r2 = magnetic_symmetry_residual(model, rng.uniform(-PI, PI, 2))
                    assert max(r1, r2) <= 1e-12


class TestInversion:
    def test_q1_zero(self):
        assert inversion_check(HofstadterModel(Flux(1, 1), PI / 2)) <= 1e-12

    @pytest.mark.parametrize("p,q", [(1, 4), (2, 5), (1, 3), (3, 8), (4, 9)])
    @pytest.mark.parametrize("phi_d", [PI / 2, -PI / 2])
    def test_flux_pairs(self, p, q, phi_d):
        assert inversion_check(HofstadterModel(Flux(p, q), phi_d)) <= 1e-10

    def test_rejects_generic_phi(self):
        with pytest.raises(ValueError):
            inversion_check(HofstadterModel(Flux(1, 3), 0.3))

    def test_partner_is_the_antiunitary_image(self):
        # H_{(q-p)/q}(-k) = -conj H_{p/q}(k + (pi, pi)) at phi_d = +-pi/2 for
        # any hoppings, the identity behind sigma_j((q-p)/q) = sigma_(q-j)(p/q);
        # at phi_d = 0.3 the t3 term breaks it
        rng = np.random.default_rng(20)
        for p, q in [(1, 4), (2, 5), (3, 8), (4, 9), (5, 12), (5, 13)]:
            t = rng.uniform(0.2, 1.8, 3)
            ks = rng.uniform(-PI, PI, (5, 2))
            for phi_d in (PI / 2, -PI / 2, 0.3):
                a = HofstadterModel(Flux(p, q), phi_d, *t)
                b = HofstadterModel(Flux(q - p, q), phi_d, *t)
                worst = max(np.abs(build_hamiltonian(b, -k)
                                   + build_hamiltonian(a, k + PI).conj()).max()
                            for k in ks)
                if phi_d == 0.3:
                    assert worst > 0.1
                else:
                    assert worst <= 1e-13


def test_square_limit_ignores_phi_d():
    for p, q in [(1, 3), (1, 4), (2, 5), (3, 7), (4, 9)]:
        a = compute_bands(HofstadterModel(Flux(p, q), 0.9, t3=0.0)).bands
        b = compute_bands(HofstadterModel(Flux(p, q), -2.2, t3=0.0)).bands
        assert np.abs(np.array(a) - np.array(b)).max() <= 1e-10


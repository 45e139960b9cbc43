"""Chain geometry, hopping rates, Fock space indexing, and the oracle's
Kronecker-product ladder operators and Hamiltonians."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from phonondd import model
from phonondd.model import (
    DEFAULT_ION_MASS,
    DEFAULT_SECULAR_FREQUENCY,
    CouplingMatrix,
    FockSpace,
    IonChainConfig,
    basis_state,
    build_coupling_matrix,
    coupling_rate,
)
from phonondd.propagation import ModeMaps, SchedulePropagator
from phonondd.pulses import ShapedPulse, TrapParams
from phonondd.sequences import Evolve

from dense_oracle import hopping_hamiltonian, ladder_operator, modulation_hamiltonian
from fock_labels import label, occupations

HBAR = 1.054571817e-34


def expected_rate(spacing):
    # Coulomb dipole-dipole exchange between two unit-charge oscillators,
    # written out with independently typed constants.
    e = 1.602176634e-19
    eps0 = 8.8541878128e-12
    m = 40 * 1.66053906660e-27
    w0 = 2 * math.pi * 2.2e6
    return e * e / (4 * math.pi * eps0 * spacing ** 3 * m * w0)


def compute_bare_frequencies(config):
    """Per-mode oscillation frequencies before the common-frequency compensation.

    Mode j sits in the static Coulomb curvature of all other ions, so its
    bare frequency is sqrt(omega0^2 + sum_k e^2 / (4 pi eps0 d_jk^3 m)).
    """
    e = model.ELEMENTARY_CHARGE
    pref = e * e / (4.0 * math.pi * model.VACUUM_PERMITTIVITY * config.ion_mass)
    out = np.empty(config.mode_count)
    for j in range(config.mode_count):
        shift = sum(pref / config.distance(j, k) ** 3
                    for k in range(config.mode_count) if k != j)
        out[j] = math.sqrt(config.secular_frequency ** 2 + shift)
    return out


class TestCouplingRate:
    def test_matches_closed_form(self):
        for d in (27.6e-6, 43.8e-6, 10e-6, 100e-6):
            got = coupling_rate(d, DEFAULT_ION_MASS, DEFAULT_SECULAR_FREQUENCY)
            assert got == pytest.approx(expected_rate(d), rel=1e-12)

    def test_frozen_values(self):
        k1 = coupling_rate(27.6e-6, DEFAULT_ION_MASS, DEFAULT_SECULAR_FREQUENCY)
        k2 = coupling_rate(43.8e-6, DEFAULT_ION_MASS, DEFAULT_SECULAR_FREQUENCY)
        assert k1 / (2 * math.pi) == pytest.approx(1902.1442160987162, rel=1e-9)
        assert k2 / (2 * math.pi) == pytest.approx(475.93578023115873, rel=1e-9)

    def test_inverse_cube_scaling(self):
        base = coupling_rate(20e-6, DEFAULT_ION_MASS, DEFAULT_SECULAR_FREQUENCY)
        assert coupling_rate(40e-6, DEFAULT_ION_MASS,
                             DEFAULT_SECULAR_FREQUENCY) == pytest.approx(base / 8)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            coupling_rate(0.0, DEFAULT_ION_MASS, DEFAULT_SECULAR_FREQUENCY)
        with pytest.raises(ValueError):
            coupling_rate(27.6e-6, -1.0, DEFAULT_SECULAR_FREQUENCY)
        with pytest.raises(ValueError):
            coupling_rate(27.6e-6, DEFAULT_ION_MASS, 0.0)

    @pytest.mark.parametrize("args,name", [
        ((math.nan, DEFAULT_ION_MASS, DEFAULT_SECULAR_FREQUENCY), "spacing"),
        ((math.inf, DEFAULT_ION_MASS, DEFAULT_SECULAR_FREQUENCY), "spacing"),
        ((43.8e-6, math.nan, DEFAULT_SECULAR_FREQUENCY), "ion_mass"),
        ((43.8e-6, math.inf, DEFAULT_SECULAR_FREQUENCY), "ion_mass"),
        ((43.8e-6, DEFAULT_ION_MASS, math.nan), "secular_frequency"),
        ((43.8e-6, DEFAULT_ION_MASS, math.inf), "secular_frequency"),
    ])
    def test_rejects_a_non_finite_input_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            coupling_rate(*args)

    @pytest.mark.parametrize("build,message", [
        (lambda: Evolve(True), "duration must be a real number, not True"),
        (lambda: Evolve("1e-6"), "duration must be a real number, not '1e-6'"),
        (lambda: ShapedPulse(True, 1e-6, 1e-6), "duration must be a real number, not True"),
        (lambda: ShapedPulse("4e-6", 1e-6, 1e-6),
         "duration must be a real number, not '4e-6'"),
        (lambda: IonChainConfig.equidistant(2, True), "spacing must be a real number, not True"),
        (lambda: IonChainConfig.equidistant(2, "4e-5"),
         "spacing must be a real number, not '4e-5'"),
        (lambda: TrapParams(axial_frequency="1"),
         "axial_frequency must be a real number, not '1'"),
        (lambda: TrapParams(axial_frequency=True),
         "axial_frequency must be a real number, not True"),
        (lambda: TrapParams(dc_parameter="0.002"),
         "dc_parameter must be a real number, not '0.002'"),
        (lambda: ShapedPulse(4e-6, 1e-6, 1e-6, depth="0.1"),
         "depth must be a real number, not '0.1'"),
    ])
    def test_reals_must_be_real_numbers(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("spacing", [1e-306, 1e-106, 1e294])
    def test_rejects_a_spacing_without_a_float_rate(self, spacing):
        # the cube underflows to 0 (a division by zero), or overflows
        with pytest.raises(ValueError, match="no finite positive hopping rate"):
            coupling_rate(spacing, DEFAULT_ION_MASS, DEFAULT_SECULAR_FREQUENCY)


class TestChainAndCouplings:
    def test_equidistant_positions(self):
        cfg = IonChainConfig.equidistant(4, 27.6e-6)
        diffs = np.diff(cfg.positions)
        np.testing.assert_allclose(diffs, 27.6e-6, rtol=1e-15)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0])
    def test_equidistant_rejects_a_bad_spacing(self, spacing):
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            IonChainConfig.equidistant(3, spacing)

    @pytest.mark.parametrize("field", ["ion_mass", "secular_frequency"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_chain_rejects_a_bad_ion_parameter_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            IonChainConfig.equidistant(3, 27.6e-6, **{field: value})

    @pytest.mark.parametrize("positions", [(0.0, math.nan), (0.0, math.inf)])
    def test_chain_rejects_non_finite_positions(self, positions):
        with pytest.raises(ValueError, match="positions must be finite"):
            IonChainConfig(2, positions)

    def test_matrix_symmetry_and_decay(self):
        cm = build_coupling_matrix(IonChainConfig.equidistant(4, 27.6e-6))
        assert cm.mode_count == 4
        np.testing.assert_array_equal(cm.kappa, cm.kappa.T)
        assert np.all(np.diag(cm.kappa) == 0.0)
        # nearest neighbour dominates by the cube of the distance ratio
        assert cm.kappa[0, 1] / cm.kappa[0, 2] == pytest.approx(8.0, rel=1e-12)
        assert cm.kappa[0, 1] / cm.kappa[0, 3] == pytest.approx(27.0, rel=1e-12)

    def test_truncation_zeroes_far_pairs(self):
        cfg = IonChainConfig.equidistant(4, 27.6e-6, truncation_distance=1)
        cm = build_coupling_matrix(cfg)
        assert cm.kappa[0, 1] > 0
        assert cm.kappa[1, 2] > 0
        assert cm.kappa[0, 2] == 0.0
        assert cm.kappa[0, 3] == 0.0

    def test_coupling_matrix_validation(self):
        with pytest.raises(ValueError):
            CouplingMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            CouplingMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]))

    def test_bare_frequencies_shifted_by_neighbours(self):
        freqs = compute_bare_frequencies(IonChainConfig.equidistant(3, 27.6e-6))
        # Coulomb curvature raises every mode, the interior one the most
        assert np.all(freqs > DEFAULT_SECULAR_FREQUENCY)
        assert freqs[1] > freqs[0]
        assert freqs[0] == pytest.approx(freqs[2], rel=1e-15)


class TestFockSpace:
    def test_dimension(self):
        assert FockSpace(3, 10).dimension == 11 ** 3
        assert FockSpace(2, 14).dimension == 15 ** 2

    @pytest.mark.parametrize("build,message", [
        (lambda: FockSpace(2, 2.5), "per_mode_cutoff must be an integer, not 2.5"),
        (lambda: FockSpace(2.0, 3), "mode_count must be an integer, not 2.0"),
        (lambda: FockSpace(True, 3), "mode_count must be an integer, not True"),
        (lambda: FockSpace(2, math.nan), "per_mode_cutoff must be an integer, not nan"),
        (lambda: IonChainConfig.equidistant(2, 40e-6, truncation_distance=1.5),
         "truncation_distance must be an integer, not 1.5"),
        (lambda: IonChainConfig(True, (0.0,)), "mode_count must be an integer, not True"),
        (lambda: FockSpace(0, 3), "mode_count must be at least 1, not 0"),
        (lambda: FockSpace(2, -1), "per_mode_cutoff must be at least 1, not -1"),
        (lambda: IonChainConfig(0, ()), "mode_count must be at least 1, not 0"),
        (lambda: IonChainConfig.equidistant(2, 40e-6, truncation_distance=0),
         "truncation_distance must be at least 1, not 0"),
    ])
    def test_counts_must_be_integers_of_at_least_one(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("modes,cutoff", [(3, 3), (2, 10), (1, 6)])
    def test_index_bijection(self, modes, cutoff):
        space = FockSpace(modes, cutoff)
        seen = set()
        for i in range(space.dimension):
            occ = occupations(space, i)
            assert len(occ) == modes
            assert all(0 <= n <= cutoff for n in occ)
            assert space.index(occ) == i
            seen.add(occ)
        assert len(seen) == space.dimension

    def test_label_order_is_most_significant_first(self):
        space = FockSpace(3, 3)
        # tuple reads left to right as written on a ket
        i = space.index((2, 1, 0))
        assert label(space, i) == "210"
        assert occupations(space, i) == (2, 1, 0)

    def test_wide_cutoff_labels_are_dash_joined(self):
        space = FockSpace(3, 10)
        assert label(space, space.index((1, 0, 2))) == "1-0-2"
        assert label(space, space.index((10, 0, 10))) == "10-0-10"

    @pytest.mark.parametrize("modes", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [9, 10])
    def test_digit_built_labels_match_label(self, modes, cutoff):
        space = FockSpace(modes, cutoff)
        assert space.labels() == [label(space, i) for i in range(space.dimension)]

    def test_boundary_mask(self):
        # the engine's cutoff mask, read back into Fock order
        space = FockSpace(2, 3)
        engine = SchedulePropagator(space, ModeMaps(CouplingMatrix(np.zeros((2, 2)))))
        mask = engine._boundary[engine._position]
        for i in range(space.dimension):
            occ = occupations(space, i)
            assert mask[i] == (max(occ) == 3)

    def test_mode_occupations(self):
        space = FockSpace(2, 4)
        n0 = space.mode_occupations(0)
        n1 = space.mode_occupations(1)
        for i in range(space.dimension):
            occ = occupations(space, i)  # label order, mode 0 rightmost
            assert n0[i] == occ[-1]
            assert n1[i] == occ[-2]

    def test_basis_state(self):
        space = FockSpace(2, 3)
        state = basis_state(space, (2, 1))
        amps = state.amplitudes
        assert amps[space.index((2, 1))] == 1.0
        assert np.count_nonzero(amps) == 1

    def test_index_rejects_out_of_range(self):
        space = FockSpace(2, 3)
        with pytest.raises(ValueError):
            space.index((4, 0))
        with pytest.raises(ValueError):
            space.index((0, -1))
        with pytest.raises(ValueError):
            space.index((1, 1, 1))

    def test_index_rejects_non_integer_occupations(self):
        space = FockSpace(2, 3)
        with pytest.raises(ValueError, match=r"^occupation 1.0 is not an integer in \[0, 3\]$"):
            space.index((1.0, 0))
        with pytest.raises(ValueError, match=r"^occupation 1.5 is not an integer in \[0, 3\]$"):
            basis_state(space, (1.5, 0))


class TestLadderOperators:
    def test_annihilation_matrix_elements(self):
        space = FockSpace(1, 5)
        a = ladder_operator(space, 0).toarray()
        for n in range(1, 6):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(a) == 5

    def test_number_operator_diagonal(self):
        space = FockSpace(2, 3)
        a0 = ladder_operator(space, 0)
        num = (a0.conj().T @ a0).toarray()
        expect = space.mode_occupations(0)
        np.testing.assert_allclose(np.diag(num), expect, atol=1e-14)
        assert np.count_nonzero(num - np.diag(np.diag(num))) == 0

    def test_modes_commute(self):
        space = FockSpace(2, 3)
        a0 = ladder_operator(space, 0)
        a1 = ladder_operator(space, 1)
        c = (a0 @ a1 - a1 @ a0).toarray()
        assert np.abs(c).max() == 0.0


class TestHamiltonians:
    def setup_method(self):
        self.space = FockSpace(3, 4)
        self.cm = build_coupling_matrix(IonChainConfig.equidistant(3, 43.8e-6))

    def test_hermitian(self):
        h = hopping_hamiltonian(self.space, self.cm).toarray()
        np.testing.assert_allclose(h, h.conj().T, atol=1e-25)

    def test_rwa_conserves_total_number(self):
        h = hopping_hamiltonian(self.space, self.cm)
        total = sum(np.asarray(self.space.mode_occupations(m))
                    for m in range(3))
        n_op = sp.diags(total.astype(float))
        comm = (h @ n_op - n_op @ h).toarray()
        assert np.abs(comm).max() == 0.0

    def test_single_exchange_element(self):
        # half the pair rate: the full rate is defined so the 50:50
        # exchange window comes out at pi / (2 kappa)
        h = hopping_hamiltonian(self.space, self.cm)
        i10 = self.space.index((0, 0, 1))
        i01 = self.space.index((0, 1, 0))
        got = complex(h[i01, i10]) / HBAR
        assert got.imag == 0.0
        assert got.real == pytest.approx(self.cm.kappa[0, 1] / 2, rel=1e-12,
                                         abs=0)

    def test_modulation_drive_prefactor(self):
        space = FockSpace(1, 4)
        excess = (2 * math.pi * 250e3) ** 2
        h = modulation_hamiltonian(space, 0, excess,
                                   DEFAULT_SECULAR_FREQUENCY).toarray()
        a = ladder_operator(space, 0).toarray()
        x = a + a.conj().T
        expect = HBAR * excess / (4 * DEFAULT_SECULAR_FREQUENCY) * (x @ x)
        np.testing.assert_allclose(h, expect, rtol=1e-12)

    def test_constants_frozen(self):
        assert model.HBAR == HBAR
        assert model.ELEMENTARY_CHARGE == 1.602176634e-19
        assert model.VACUUM_PERMITTIVITY == 8.8541878128e-12
        assert model.ATOMIC_MASS_UNIT == 1.66053906660e-27
        assert DEFAULT_ION_MASS == pytest.approx(40 * 1.66053906660e-27,
                                                 rel=1e-15, abs=0)
        assert DEFAULT_SECULAR_FREQUENCY == pytest.approx(2 * math.pi * 2.2e6,
                                                          rel=1e-15, abs=0)

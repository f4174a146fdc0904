import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dressedcavity.entanglement as entanglement
from dressedcavity.density import EntangledStateSpec, ReducedDensityMatrix, reduced_density_closed
from dressedcavity.entanglement import (entanglement_of_formation, family_concurrence, measures,
                                        partial_transpose)
from dressedcavity.errors import ContractViolationError, DomainError

# Frozen from a 30-digit evaluation of the binary-entropy expression at C = 1/2.
EOF_HALF = 0.35457890266526988
# Frozen from the 2x2 partial-transpose block (a - sqrt(a^2 + 4 z^2))/2, a = 1/2, z = 1/4.
PT_MIN_EIGENVALUE = -0.10355339059327379


def family_rho(xi, survival, phi=0.0):
    f00 = math.sqrt(survival)
    return reduced_density_closed(EntangledStateSpec(xi, phi), f00)


def random_states(count, seed=7):
    """A (count, 4, 4) stack of random full-rank physical states."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, 4, 4)) + 1j * rng.normal(size=(count, 4, 4))
    rho = a @ a.conj().swapaxes(-1, -2)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


class TestConcurrence:
    def test_bell_state(self):
        assert measures(family_rho(0.5, 1.0)).concurrence == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    def test_product_family_never_entangled(self, xi):
        for survival in (1.0, 0.5, 0.1):
            assert measures(family_rho(xi, survival)).concurrence == pytest.approx(0.0, abs=1e-12)

    def test_family_point_against_closed_form(self):
        rho = family_rho(0.5, 0.5)
        general = measures(rho).concurrence
        assert general == pytest.approx(0.5, abs=1e-12)
        assert general == pytest.approx(2.0 * abs(rho.matrix[1, 2]), abs=1e-12)
        assert general == pytest.approx(family_concurrence(0.5, 0.5), abs=1e-12)

    @given(xi=st.floats(0.0, 1.0), survival=st.floats(0.0, 1.0),
           phi=st.floats(0.0, 6.28))
    def test_spin_flip_equals_coherence_formula(self, xi, survival, phi):
        rho = family_rho(xi, survival, phi)
        assert measures(rho).concurrence == pytest.approx(family_concurrence(xi, survival),
                                                          abs=1e-10)

    def test_non_positive_matrix_rejected(self):
        bad = ReducedDensityMatrix(matrix=np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
        with pytest.raises(ContractViolationError):
            measures(bad)


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert entanglement_of_formation(0.0) == 0.0
        assert entanglement_of_formation(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_concurrence(self):
        assert entanglement_of_formation(0.5) == pytest.approx(EOF_HALF, abs=1e-15)

    @given(c=st.floats(0.0, 1.0))
    def test_bounds(self, c):
        value = entanglement_of_formation(c)
        assert 0.0 <= value <= 1.0

    @given(c1=st.floats(0.0, 1.0), c2=st.floats(0.0, 1.0))
    def test_monotone(self, c1, c2):
        lo, hi = sorted((c1, c2))
        assert entanglement_of_formation(lo) <= entanglement_of_formation(hi) + 1e-15

    @pytest.mark.parametrize("c", [-0.1, 1.1])
    def test_domain(self, c):
        with pytest.raises(DomainError):
            entanglement_of_formation(c)


class TestNegativity:
    def test_bell_state(self):
        assert measures(family_rho(0.5, 1.0)).negativity == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        assert measures(family_rho(0.0, 0.7)).negativity == pytest.approx(0.0, abs=1e-12)

    def test_family_point_against_eigensolver(self):
        rho = family_rho(0.5, 0.5)
        pt = partial_transpose(rho.matrix)
        eigenvalues = np.linalg.eigvalsh(pt)
        assert eigenvalues[0] == pytest.approx(PT_MIN_EIGENVALUE, abs=1e-12)
        expected = (math.sqrt(2.0) - 1.0) / 2.0
        assert measures(rho).negativity == pytest.approx(expected, abs=1e-12)
        assert measures(rho).negativity == pytest.approx(2.0 * abs(eigenvalues[0]), abs=1e-12)

    def test_partial_transpose_moves_coherence(self):
        rho = family_rho(0.5, 1.0, phi=0.3)
        pt = partial_transpose(rho.matrix)
        assert pt[0, 3] == pytest.approx(rho.matrix[1, 2], abs=1e-15)
        assert pt[1, 2] == 0.0


class TestMeasureBundle:
    def test_one_positivity_check_matches_the_single_measures(self, monkeypatch):
        # a stack, however long, is checked once, and each field matches the
        # measures of its state alone
        stack = reduced_density_closed(EntangledStateSpec(0.3, 0.4), np.sqrt([1.0, 0.6, 0.2]))
        checked = []
        check = entanglement._require_physical
        monkeypatch.setattr(entanglement, "_require_physical",
                            lambda *args, **kw: checked.append(args) or check(*args, **kw))
        m = measures(stack)
        assert len(checked) == 1
        for i, single in enumerate(stack.matrix):
            alone = measures(ReducedDensityMatrix(single))
            assert m.concurrence[i] == alone.concurrence
            assert m.eof[i] == alone.eof
            assert m.negativity[i] == alone.negativity
        checked.clear()
        measures(ReducedDensityMatrix(random_states(1030)))
        assert len(checked) == 1

    def test_stack_equals_each_state_alone(self):
        stack = random_states(1030)
        m = measures(ReducedDensityMatrix(stack))
        assert m.concurrence.shape == m.eof.shape == m.negativity.shape == (1030,)
        alone = [measures(ReducedDensityMatrix(single)) for single in stack]
        assert np.array_equal(m.concurrence, [a.concurrence for a in alone])
        assert np.array_equal(m.eof, [a.eof for a in alone])
        assert np.array_equal(m.negativity, [a.negativity for a in alone])

    def test_fields_keep_the_leading_shape(self):
        m = measures(ReducedDensityMatrix(random_states(6).reshape(2, 3, 4, 4)))
        assert m.concurrence.shape == m.eof.shape == m.negativity.shape == (2, 3)
        single = measures(family_rho(0.5, 1.0))
        assert isinstance(single.concurrence, float) and isinstance(single.eof, float)

    @pytest.mark.parametrize("bad", [5, 1031])
    def test_positivity_error_names_the_first_bad_sample(self, bad):
        # the first flat index, plus `first`: the index of the stack's first
        # state in the series it was cut from
        stack = random_states(1034)
        for index in (bad, bad + 2):
            stack[index] = np.diag([1.5, -0.5, 0.0, 0.0])
        rho = ReducedDensityMatrix(stack)
        with pytest.raises(ContractViolationError, match=rf"at sample {bad} is not positive"):
            measures(rho)
        with pytest.raises(ContractViolationError, match=rf"at sample {100 + bad} is not positive"):
            measures(rho, first=100)

    def test_stacked_partial_transpose_is_per_state(self):
        stack = random_states(5)
        pt = partial_transpose(stack)
        for i, single in enumerate(stack):
            assert np.array_equal(pt[i], partial_transpose(single))

    def test_invariant_eof_zero_iff_concurrence_zero(self):
        for xi, survival in ((0.0, 1.0), (0.5, 0.0), (0.5, 0.8), (0.2, 0.3)):
            m = measures(family_rho(xi, survival))
            assert (m.eof == 0.0) == (m.concurrence == 0.0)

    @given(xi=st.floats(0.0, 1.0), survival=st.floats(0.0, 1.0))
    def test_bounds_and_pt_detection(self, xi, survival):
        m = measures(family_rho(xi, survival))
        assert 0.0 <= m.concurrence <= 1.0
        assert 0.0 <= m.eof <= 1.0
        assert 0.0 <= m.negativity <= 1.0 + 1e-12
        # exact family negativity sqrt(a^2 + 4 z^2) - a with a = rho[00,00]
        # and z the coherence; nonzero exactly when the concurrence is
        a = 1.0 - survival
        z = math.sqrt(xi * (1.0 - xi)) * survival
        assert m.negativity == pytest.approx(math.sqrt(a * a + 4.0 * z * z) - a, abs=1e-12)
        if m.concurrence > 1e-6:  # PT never misses entanglement here (N ~ C^2/2 near 0)
            assert m.negativity > m.concurrence ** 2 / 4.0
        if m.concurrence == 0.0:
            assert m.negativity <= 1e-14

    def test_phase_invariance(self):
        reference = measures(family_rho(0.3, 0.6, phi=0.0))
        for phi in np.linspace(0.0, 2.0 * math.pi, 9):
            m = measures(family_rho(0.3, 0.6, phi=phi))
            assert m.concurrence == pytest.approx(reference.concurrence, abs=1e-12)
            assert m.eof == pytest.approx(reference.eof, abs=1e-12)
            assert m.negativity == pytest.approx(reference.negativity, abs=1e-12)

    def test_concurrence_tracks_survival(self):
        # C(t) = C(0) |f_00(t)|^2 on the identical-atom family
        c0 = family_concurrence(0.5, 1.0)
        for survival in (1.0, 0.8, 0.3, 0.05):
            assert measures(family_rho(0.5, survival)).concurrence == pytest.approx(
                c0 * survival, abs=1e-12)


class TestFamilyConcurrence:
    def test_t0_value(self):
        assert family_concurrence(0.5, 1.0) == pytest.approx(1.0)
        assert family_concurrence(0.3, 1.0) == pytest.approx(2.0 * math.sqrt(0.21))

    @pytest.mark.parametrize("kwargs", [{"xi": -0.1, "survival": 0.5},
                                        {"xi": 1.1, "survival": 0.5},
                                        {"xi": 0.5, "survival": -0.2},
                                        {"xi": 0.5, "survival": 1.5}])
    def test_domain(self, kwargs):
        with pytest.raises(DomainError):
            family_concurrence(**kwargs)

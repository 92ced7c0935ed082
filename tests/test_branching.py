import math

import numpy as np
import numpy.testing as npt
import pytest

from brw2.branching import (BranchingLaw, LawError, TwoTypeModel, classify_criticality,
                            derive_constants, theta_coefficients)
from brw2.lattice import ThetaGrid, simple_kernel, uniform_range_kernel
from brw2.moments import fundamental_solution
from brw2.simulate import _CompiledType


def critical_two_type_law() -> BranchingLaw:
    # the d=1 critical simulation law: exact rationals, Perron root 0
    return BranchingLaw(mu1=0.25, mu2=0.375,
                        beta1={(2, 0): 0.125, (1, 1): 0.125},
                        beta2={(0, 2): 0.125, (1, 1): 0.25})


def critical_model() -> TwoTypeModel:
    return TwoTypeModel(simple_kernel(1), uniform_range_kernel(1, 3), 1.0, 4.0,
                        critical_two_type_law())


class TestDeriveConstants:
    def test_critical_law_matrix(self):
        dc = derive_constants(critical_two_type_law())
        npt.assert_allclose(dc.matrix_d, [[-0.125, 0.125], [0.25, -0.25]], rtol=0)
        assert dc.b == 0.125 and dc.c == 0.25
        assert dc.r1 == -0.125 and dc.r2 == -0.25
        # characteristic polynomial lambda^2 + 0.375 lambda = 0
        npt.assert_allclose(dc.perron_root, 0.0, atol=1e-15)
        assert not dc.defective

    def test_empty_law(self):
        dc = derive_constants(BranchingLaw(mu1=0.0, mu2=0.0))
        assert dc.b == dc.c == dc.r1 == dc.r2 == 0.0
        npt.assert_allclose(dc.matrix_d, np.zeros((2, 2)))
        assert dc.perron_root == 0.0

    def test_balanced_binary(self):
        lam = 0.7
        dc = derive_constants(BranchingLaw(mu1=lam, mu2=0.0, beta1={(2, 0): lam}))
        assert dc.r1 == 0.0 and dc.b == 0.0 and dc.c == 0.0

    def test_eigenpair_identities(self):
        dc = derive_constants(critical_two_type_law())
        npt.assert_allclose(dc.matrix_d @ dc.right_eig,
                            dc.perron_root * dc.right_eig, atol=1e-10)
        npt.assert_allclose(dc.left_eig @ dc.matrix_d,
                            dc.perron_root * dc.left_eig, atol=1e-10)
        npt.assert_allclose(dc.left_eig @ dc.right_eig, 1.0, rtol=1e-12)
        assert (dc.left_eig >= 0).all() and (dc.right_eig >= 0).all()

    def test_factorial_densities(self):
        dc = derive_constants(critical_two_type_law())
        npt.assert_allclose(dc.factorial_density[0], [[0.25, 0.125], [0.125, 0.0]])
        npt.assert_allclose(dc.factorial_density[1], [[0.0, 0.25], [0.25, 0.25]])
        assert dc.factorial_density[0, 0, 0] == 0.25


class TestClassify:
    def test_critical_irreducible(self):
        law = critical_two_type_law()
        cls = classify_criticality(derive_constants(law), law)
        assert cls.criticality == "critical"
        assert cls.structure == "irreducible"
        assert cls.positivity is not None and cls.positivity > 0

    def test_supercritical_reducible(self):
        law = BranchingLaw(mu1=0.5, mu2=0.0, beta1={(2, 0): 1.0})
        cls = classify_criticality(derive_constants(law), law)
        assert cls.criticality == "supercritical"
        assert cls.structure == "reducible"
        assert cls.positivity is None

    def test_subcritical_reducible(self):
        law = BranchingLaw(mu1=1.0, mu2=1.0)
        cls = classify_criticality(derive_constants(law), law)
        assert cls.criticality == "subcritical"
        assert cls.structure == "reducible"


class TestThetaCoefficients:
    """The roots of [[a(theta), b], [c, d(theta)]], seen through U(t) = exp(t D(theta))."""

    @staticmethod
    def propagator(model, theta, t):
        coef = theta_coefficients(model, theta)
        dc = model.derived
        return coef, fundamental_solution(coef.a, coef.d, dc.b, dc.c, t)

    def test_vieta_identities(self):
        # det U(t) is e^{root t} multiplied over both roots, e^{(a + d) t};
        # the logs of U's eigenvalues are the roots themselves
        model = critical_model()
        rng = np.random.default_rng(3)
        theta = rng.uniform(-np.pi, np.pi, size=(100, 1))
        t = 2.0
        coef, u = self.propagator(model, theta, t)
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        npt.assert_allclose(det, np.exp((coef.a + coef.d) * t), rtol=1e-10)
        roots = np.log(np.linalg.eigvals(np.moveaxis(u, -1, 0)).real) / t
        dc = model.derived
        npt.assert_allclose(roots.sum(axis=1), coef.a + coef.d, atol=1e-12)
        npt.assert_allclose(roots.prod(axis=1), coef.a * coef.d - dc.b * dc.c, atol=1e-12)

    def test_discriminant_nonnegative_on_grid(self):
        # real roots, and U(t) a nonnegative matrix at every node
        model = critical_model()
        coef, u = self.propagator(model, ThetaGrid.for_dim(1).points, 2.0)
        dc = model.derived
        assert ((coef.a - coef.d) ** 2 + 4 * dc.b * dc.c).min() >= 0.0
        assert u.min() >= 0.0

    def test_perron_equals_lam1_at_zero(self):
        # at theta = 0 the top eigenvalue of U(t) is e^{rho t}
        model = critical_model()
        t = 2.0
        _, u = self.propagator(model, np.zeros((1, 1)), t)
        top = np.linalg.eigvals(u[..., 0]).real.max()
        npt.assert_allclose(top, math.exp(model.derived.perron_root * t), atol=1e-12)

    def test_decoupled_roots(self):
        # b = c = 0: U = diag(e^{a t}, e^{d t})
        law = BranchingLaw(mu1=0.3, mu2=0.7, beta1={(2, 0): 0.1}, beta2={(0, 2): 0.2})
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 2.0, law)
        t = 1.5
        coef, u = self.propagator(model, np.array([[0.4], [2.2]]), t)
        npt.assert_allclose(u[0, 0], np.exp(coef.a * t), atol=1e-14)
        npt.assert_allclose(u[1, 1], np.exp(coef.d * t), atol=1e-14)
        assert (u[0, 1] == 0).all() and (u[1, 0] == 0).all()


class TestEpidemicShapedLaw:
    """The infected/immune law: type-1 entries beta1(n, 0) = b_n and a
    conversion rate r, whose epidemic scalars are derived constants."""

    def test_derived_scalars(self):
        law = BranchingLaw(mu1=0.1, mu2=0.2, beta1={(2, 0): 0.5, (3, 0): 0.25},
                           conversion_rate=0.05)
        dc = derive_constants(law)
        # A = beta - mu1 - r, with beta = sum (n - 1) b_n = 1
        assert dc.r1 == pytest.approx(1.0 - 0.1 - 0.05)
        # beta2 = sum n (n - 1) b_n
        assert dc.factorial_density[0, 0, 0] == pytest.approx(2 * 0.5 + 6 * 0.25)
        assert dc.b == 0.05 and dc.c == 0.0 and dc.r2 == -0.2
        assert not dc.factorial_density[0, 1].any() and not dc.factorial_density[1].any()

    def test_validation(self):
        # an infection needs n >= 2 offspring; rates must be nonnegative
        with pytest.raises(LawError, match=r"\(1,0\)"):
            BranchingLaw(mu1=0.0, mu2=0.0, beta1={(1, 0): 0.5})
        for bad in ({"mu1": -1.0}, {"conversion_rate": -0.1}):
            with pytest.raises(LawError):
                BranchingLaw(**{"mu1": 0.0, "mu2": 0.0, **bad})


class TestLawValidation:
    def test_rejects_low_offspring_pairs(self):
        with pytest.raises(LawError, match=r"\(0,1\)|\(0, 1\)"):
            BranchingLaw(mu1=0.0, mu2=0.0, beta1={(0, 1): 0.5})

    def test_rejects_negative_rate(self):
        with pytest.raises(LawError):
            BranchingLaw(mu1=0.0, mu2=0.0, beta1={(2, 0): -0.5})

    def test_rejects_negative_mu(self):
        with pytest.raises(LawError):
            BranchingLaw(mu1=-0.1, mu2=0.0)

    def test_total_rate(self):
        # the event loop's total rate of one particle is kappa plus its
        # death, branching and conversion intensities
        model = critical_model()
        assert _CompiledType(model, 1).rho == pytest.approx(1.0 + 0.5)
        assert _CompiledType(model, 2).rho == pytest.approx(4.0 + 0.75)

    def test_kernel_dim_mismatch_in_model(self):
        with pytest.raises(LawError):
            TwoTypeModel(simple_kernel(1), simple_kernel(2), 1.0, 1.0,
                         BranchingLaw(mu1=0.1, mu2=0.1))

import numpy as np
import pytest
from scipy.stats import norm

from skofbsde.errors import DiracMeasureError, DomainError
from skofbsde.fbsde import normal_increments
from skofbsde.measure import PHI_ABS_TOL, TargetMeasure, make_g, phi, phi_inv
from skofbsde.verify import ks_statistic

PHI_196 = 0.9750021048517795


def test_phi_reference_values():
    assert phi(0.0) == 0.5
    assert abs(phi(1.96) - PHI_196) < PHI_ABS_TOL


def test_phi_against_scipy_grid():
    x = np.linspace(-9.0, 9.0, 40_001)
    assert np.abs(phi(x) - norm.cdf(x)).max() < 1e-12


def test_phi_inv_against_scipy_grid():
    p = np.linspace(1e-10, 1.0 - 1e-10, 20_001)
    assert np.abs(phi_inv(p) - norm.ppf(p)).max() < 1e-9


def test_phi_round_trip():
    x = np.linspace(-5.5, 5.5, 4001)
    assert np.abs(phi_inv(phi(x)) - x).max() < 1e-9


def test_phi_inv_domain():
    for bad in (0.0, 1.0, -0.2, 1.4, np.nan):
        with pytest.raises(DomainError):
            phi_inv(bad)


def test_cdf_examples():
    assert TargetMeasure.normal(0, 1).cdf(0.0) == 0.5
    assert TargetMeasure.uniform(0, 1).cdf(0.25) == 0.25
    # brute-force count <= x over n
    emp = TargetMeasure.empirical([1.0, 2.0, 3.0])
    assert emp.cdf(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert emp.cdf(0.5) == 0.0 and emp.cdf(3.5) == 1.0


def test_cdf_monotone_and_limits():
    for m in (TargetMeasure.normal(1, 2), TargetMeasure.uniform(-1, 3),
              TargetMeasure.empirical(np.linspace(0, 1, 17))):
        x = np.linspace(-10, 10, 1001)
        F = np.asarray(m.cdf(x))
        assert np.all(np.diff(F) >= 0)
        assert F[0] <= 1e-5 and F[-1] >= 1 - 1e-5


def test_quantile_examples():
    assert TargetMeasure.uniform(0, 1).quantile(0.7) == pytest.approx(0.7)
    assert TargetMeasure.normal(2, 3).quantile(0.5) == pytest.approx(2.0)
    # inf{x : F(x) >= 0.5} for the 3-point sample, by scan: F(1)=1/3 < 0.5,
    # F(2)=2/3 >= 0.5
    assert TargetMeasure.empirical([1, 2, 3]).quantile(0.5) == 2.0


def test_quantile_domain():
    m = TargetMeasure.normal(0, 1)
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(DomainError):
            m.quantile(bad)


def test_composition_consistency():
    y = np.linspace(0.01, 0.99, 99)
    for m in (TargetMeasure.normal(0, 1), TargetMeasure.uniform(0, 1),
              TargetMeasure.empirical([1.0, 1.0, 2.0, 5.0]),
              TargetMeasure.piecewise_cdf([0, 1, 2], [0, 0.25, 1.0])):
        F_of_q = np.asarray(m.cdf(m.quantile(y)))
        assert np.all(F_of_q >= y - 1e-12)


def test_make_g_normal_identity():
    g = make_g(TargetMeasure.normal(0, 1))
    x = np.linspace(-5, 5, 101)
    assert np.abs(np.asarray(g(x)) - x).max() < 1e-9
    assert g.lipschitz == 1.0
    assert g.smoothness.d2_bound == 0.0


def test_make_g_affine():
    g = make_g(TargetMeasure.normal(2.0, 3.0))
    x = np.linspace(-4, 4, 41)
    assert np.abs(np.asarray(g(x)) - (2.0 + 3.0 * x)).max() < 1e-8
    assert g.lipschitz == 3.0


def test_make_g_uniform():
    g = make_g(TargetMeasure.uniform(0, 1))
    assert g(0.0) == pytest.approx(0.5, abs=1e-12)
    # sup of the standard normal density, checked against a grid max of Phi'
    grid = np.linspace(-8, 8, 2001)
    grid_slope = np.max((np.asarray(phi(grid + 1e-4)) - np.asarray(phi(grid))) / 1e-4)
    assert g.lipschitz == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)
    assert grid_slope == pytest.approx(g.lipschitz, abs=1e-7)


def test_g_monotone_probe():
    for m in (TargetMeasure.uniform(0, 1), TargetMeasure.normal(-1, 0.5),
              TargetMeasure.piecewise_cdf([0, 0.5, 2], [0, 0.8, 1.0])):
        g = make_g(m)
        vals = np.asarray(g(np.linspace(-8, 8, 801)))
        assert np.all(np.diff(vals) >= -1e-14)


def test_dirac_rejected():
    with pytest.raises(DiracMeasureError):
        make_g(TargetMeasure.uniform(0.3, 0.3))
    with pytest.raises(DiracMeasureError):
        make_g(TargetMeasure.empirical([2.0, 2.0, 2.0]))
    with pytest.raises(DiracMeasureError):
        make_g(TargetMeasure.normal(1.0, 0.0))


def test_empirical_flagged_non_lipschitz():
    g = make_g(TargetMeasure.empirical(np.linspace(0, 1, 50)))
    assert g.non_lipschitz


def test_piecewise_validation():
    with pytest.raises(DomainError):
        TargetMeasure.piecewise_cdf([0, 0], [0, 1])          # x not increasing
    with pytest.raises(DomainError):
        TargetMeasure.piecewise_cdf([0, 1], [0.5, 0.2])      # F decreasing
    with pytest.raises(DomainError):
        TargetMeasure.piecewise_cdf([0, 1], [0.0, 0.7])      # F never reaches 1


def test_piecewise_flat_run_inf_convention():
    # F is flat on [1, 2]; the generalized inverse must jump to the first x
    m = TargetMeasure.piecewise_cdf([0, 1, 2, 3], [0, 0.5, 0.5, 1.0])
    assert m.quantile(0.5) == pytest.approx(1.0)
    assert m.quantile(0.500001) > 2.0 - 1e-3


@pytest.mark.parametrize("m", [
    TargetMeasure.uniform(0, 1),
    TargetMeasure.normal(1.0, 2.0),
    TargetMeasure.piecewise_cdf([-1, 0, 2], [0, 0.3, 1.0]),
])
def test_law_transport(m):
    # 1e5 standard normal draws through g must follow the target law
    n = 100_000
    xi = normal_increments(424242, n, 1.0)
    samples = np.asarray(make_g(m)(xi))
    assert ks_statistic(samples, m) < 1.63 / np.sqrt(n) + 1e-3

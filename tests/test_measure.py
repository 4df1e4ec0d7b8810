import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import norm

from skofbsde import measure
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


def test_phi_nan_propagates():
    # no branch of the erfc approximation takes a NaN; it stays NaN, and the
    # finite values around it are the ones phi gives without it
    assert np.isnan(phi(np.nan))
    x = np.linspace(-9.0, 9.0, 1001)
    mixed = np.insert(x, [0, 500, 1001], np.nan)
    res = phi(mixed)
    assert np.isnan(res).sum() == 3
    assert np.array_equal(res[~np.isnan(mixed)], phi(x))


def test_phi_at_infinity():
    # the tail branch of the erfc approximation gave NaN and a RuntimeWarning
    # (inf - inf) for an infinite argument, and for finite ones above 1e154;
    # they map to 0 and 1 now, and the values around them are unchanged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (phi(-np.inf), phi(np.inf)) == (0.0, 1.0)
        assert phi(np.array([-np.inf, -1e300, -60.0, 60.0, 1e300, np.inf])
                   ).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        normal = TargetMeasure.normal(0.0, 1.0)
        assert (normal.cdf(-np.inf), normal.cdf(np.inf)) == (0.0, 1.0)
        x = np.linspace(-60.0, 60.0, 2001)
        mixed = np.insert(x, [0, 1000, 2001], [np.inf, -np.inf, np.nan])
        res = phi(mixed)
    assert res[0] == 1.0 and res[1001] == 0.0 and np.isnan(res[2003])
    assert np.array_equal(res[np.isfinite(mixed)], phi(x))


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


def test_phi_inv_chunk_edges():
    # longer than two chunks, with tail points (|p - 1/2| > 0.425) on both
    # sides of each chunk edge and the extremes of the uniform stream
    chunk = measure._PHI_INV_CHUNK
    n = 2 * chunk + chunk // 2
    p = np.random.default_rng(3).random(n)
    edges = [0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, n - 1]
    for i, v in zip(edges, (5e-324, 0.01, 0.99, 1.0 - 2.0**-53, 0.075,
                            np.nextafter(0.925, 1.0))):
        p[i] = v
    want = np.array([phi_inv(float(v)) for v in p])
    assert np.array_equal(phi_inv(p), want)
    assert np.array_equal(phi_inv(p.reshape(-1, 5)), want.reshape(-1, 5))
    assert type(phi_inv(0.3)) is float
    p[chunk + 5] = 1.0
    with pytest.raises(DomainError):
        phi_inv(p)


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


@st.composite
def measures(draw):
    """A random uniform, normal or piecewise-linear-CDF law."""
    kind = draw(st.sampled_from(["uniform", "normal", "piecewise_cdf"]))
    loc = draw(st.floats(-50.0, 50.0))
    if kind == "uniform":
        return TargetMeasure.uniform(loc, loc + draw(st.floats(1e-3, 50.0)))
    if kind == "normal":
        return TargetMeasure.normal(loc, draw(st.floats(1e-3, 50.0)))
    widths = draw(st.lists(st.floats(1e-2, 10.0), min_size=1, max_size=8))
    masses = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                           min_size=len(widths), max_size=len(widths)))
    cum = np.cumsum([0.0] + masses)
    assume(cum[-1] > 0.0)
    return TargetMeasure.piecewise_cdf(loc + np.cumsum([0.0] + widths),
                                       cum / cum[-1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(measures(), st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=50))
def test_g_monotone_property(m, extra):
    g = make_g(m)
    x = np.sort(np.concatenate([np.linspace(-9.0, 9.0, 2001), extra]))
    assert np.all(np.diff(np.asarray(g(x))) >= 0.0)


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

import json

import numpy as np
import pytest

from skofbsde.errors import DomainError
from skofbsde.fbsde import normal_increments
from skofbsde.measure import TargetMeasure, make_g
from skofbsde.verify import (LawReport, OracleField, ks_statistic, law_report,
                             shifted_field, wasserstein1)


def test_ks_stratified_quantiles():
    m = TargetMeasure.normal(0, 1)
    n = 999
    samples = np.asarray(m.quantile((np.arange(1, n + 1)) / (n + 1)))
    assert ks_statistic(samples, m) <= 1.0 / (n + 1) + 1e-9


def test_ks_off_support():
    m = TargetMeasure.uniform(0, 1)
    assert ks_statistic(np.full(50, -3.0), m) == 1.0


def test_ks_seeded_gaussian():
    n = 10_000
    samples = normal_increments(31337, n, 1.0)
    assert ks_statistic(samples, TargetMeasure.normal(0, 1)) < 1.63 / np.sqrt(n)


def test_ks_empty_rejected():
    with pytest.raises(DomainError):
        ks_statistic(np.array([]), TargetMeasure.normal(0, 1))


def test_w1_exact_quantiles_shrink():
    m = TargetMeasure.normal(0, 1)
    vals = []
    for n in (100, 10_000):
        samples = np.asarray(m.quantile((np.arange(n) + 0.5) / n))
        vals.append(wasserstein1(samples, m))
    assert vals[1] < vals[0]
    assert vals[1] < 1e-3


def test_w1_point_mass_against_uniform():
    # int_0^1 |0 - y| dy = 1/2
    m = TargetMeasure.uniform(0, 1)
    assert wasserstein1(np.zeros(1000), m) == pytest.approx(0.5, abs=1e-8)


def test_w1_seeded_reproducible():
    samples = normal_increments(99, 5000, 1.0)
    a = wasserstein1(samples, TargetMeasure.normal(0, 1))
    b = wasserstein1(samples, TargetMeasure.normal(0, 1))
    assert a == b
    assert a < 0.05


def test_oracle_identity_no_drift():
    g = make_g(TargetMeasure.normal(0, 1))
    assert OracleField("no_drift", g)(0.3, 1.2, 0.0) == \
        pytest.approx(1.2, abs=1e-12)


def test_oracle_identity_linear_drift_mgf():
    # Gaussian moment generating function collapses the transform:
    # -(1/2k) ln E exp(-2k (x1 + s xi)) = x1 - k s^2
    g = make_g(TargetMeasure.normal(0, 1))
    for t, x1, x2 in ((0.0, 0.3, 0.0), (0.4, -1.0, 0.2)):
        want = x1 - 0.5 * (1.0 - t) - 0.5 * x2
        assert OracleField("linear_drift", g, kappa=0.5)(t, x1, x2) == \
            pytest.approx(want, abs=1e-9)


def test_oracle_uniform_dual_method():
    g = make_g(TargetMeasure.uniform(0, 1))
    orc = OracleField("linear_drift", g, kappa=0.5)
    report = orc.validate(seed=1, n=200_000)
    assert all(v["ok"] for v in report.values())


def test_oracle_no_overflow_large_kappa():
    g = make_g(TargetMeasure.normal(0, 5.0))
    val = OracleField("linear_drift", g, kappa=40.0)(0.0, 0.0, 0.0)
    assert np.isfinite(val)


def test_oracle_validation_kind():
    g = make_g(TargetMeasure.normal(0, 1))
    with pytest.raises(DomainError):
        OracleField("magic", g)
    with pytest.raises(DomainError):
        OracleField("linear_drift", g, kappa=0.0)


def test_law_report_serialization(tmp_path):
    samples = normal_increments(5, 2000, 1.0)
    rep = law_report(samples, TargetMeasure.normal(0, 1))
    assert isinstance(rep, LawReport)
    path = tmp_path / "report.json"
    rep.to_json(str(path))
    loaded = json.loads(path.read_text())
    assert loaded["n"] == 2000
    assert loaded["ks_passed"] is True
    assert 0.0 <= loaded["ks"] <= 1.0
    assert loaded["w1"] >= 0.0


def test_histogram_csv(tmp_path):
    from skofbsde.verify import histogram_csv
    samples = normal_increments(8, 1000, 1.0)
    out = tmp_path / "hist.csv"
    histogram_csv(samples, str(out), bins=20)
    rows = out.read_text().splitlines()
    assert rows[0] == "bin_lo,bin_hi,count"
    counts = [int(r.split(",")[2]) for r in rows[1:]]
    assert len(counts) == 20 and sum(counts) == 1000


def test_shifted_field_moves_u_only(case_linear):
    f = case_linear.value["field"]
    f2 = shifted_field(f, coef_time_to_go=0.05)
    assert np.abs(f2.u[0] - f.u[0] - 0.05).max() < 1e-12
    assert np.array_equal(f2.u[-1], f.u[-1])
    assert np.array_equal(f2.u1, f.u1)

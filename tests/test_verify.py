import json
import os

import numpy as np
import pytest

from skofbsde import verify
from skofbsde.errors import DomainError
from skofbsde.fbsde import normal_increments
from skofbsde.field import eval_field
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


def test_ks_exact_at_atoms():
    # perfect samples of laws with atoms: D- reads the left limit F(x-)
    n = 10_000
    assert ks_statistic(np.repeat([0.0, 1.0], n // 2),
                        TargetMeasure.empirical([0.0, 1.0])) == 0.0
    m = TargetMeasure.piecewise_cdf([0.0, 1.0], [0.5, 1.0])
    samples = np.asarray(m.quantile((np.arange(n) + 0.5) / n))
    assert ks_statistic(samples, m) <= 1.0 / n
    # a sample all at the atom of mass 1/2 is off by 1/2
    assert ks_statistic(np.zeros(n), m) == 0.5


@pytest.mark.parametrize("m", [TargetMeasure.normal(0.5, 2.0),
                               TargetMeasure.uniform(0.0, 1.0)],
                         ids=lambda m: m.kind)
def test_ks_of_continuous_laws_reads_F_on_both_sides(m):
    # without atoms both gaps read F(x_i), bit for bit
    s = np.sort(normal_increments(2718, 5000, 1.0) * 0.4 + 0.5)
    F = np.asarray(m.cdf(s))
    i = np.arange(1, s.size + 1)
    expected = max((i / s.size - F).max(), (F - (i - 1) / s.size).max(), 0.0)
    assert ks_statistic(s, m) == expected


def test_ks_empty_rejected():
    with pytest.raises(DomainError):
        ks_statistic(np.array([]), TargetMeasure.normal(0, 1))


@pytest.mark.parametrize("m", [
    TargetMeasure.normal(0.0, 1.0), TargetMeasure.uniform(0.0, 1.0),
    TargetMeasure.piecewise_cdf([0.0, 0.5, 1.0], [0.0, 0.6, 1.0]),
    TargetMeasure.empirical([0.1, 0.4, 0.9])], ids=lambda m: m.kind)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_rejected(m, bad):
    # a NaN would otherwise pass the KS gate for some laws
    for check in (ks_statistic, wasserstein1, law_report):
        with pytest.raises(DomainError, match="finite"):
            check([0.2, bad, 0.6, 0.4], m)


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


def _reference_validate(orc, seed, n):
    """The whole-array Monte Carlo estimates of OracleField.validate."""
    xi = np.random.default_rng(seed).standard_normal(n)
    report = {}
    for t, x1 in verify._ORACLE_PROBES:
        gv = np.asarray(orc.g(x1 + np.sqrt(1.0 - t) * xi))
        if orc.kind == "no_drift":
            mc, se = gv.mean(), gv.std() / np.sqrt(n)
        else:
            ev = np.exp(-2.0 * orc.kappa * gv)
            mc = -np.log(ev.mean()) / (2.0 * orc.kappa)
            se = ev.std() / np.sqrt(n) / ev.mean() / abs(2.0 * orc.kappa)
        quad = orc(t, x1)
        report[(t, x1)] = {"quadrature": float(quad), "mc": float(mc),
                           "se": float(se),
                           "ok": bool(abs(quad - mc) <= 3.0 * se + 1e-12)}
    return report


@pytest.mark.parametrize("kind, kappa", [("linear_drift", 0.5),
                                         ("no_drift", 0.0)])
def test_oracle_validate_in_chunks(kind, kappa):
    # g is evaluated in chunks into one n-array, which also holds the
    # normals: the report equals the whole-array one, and the 1M-point
    # temporaries and the separate normals are gone
    import tracemalloc
    orc = OracleField(kind, make_g(TargetMeasure.uniform(0, 1)), kappa=kappa)
    tracemalloc.start()
    try:
        report = orc.validate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report == _reference_validate(orc, 20_240_001, 1_000_000)
    assert peak < 20 * 2**20, peak / 2**20


class _OffOracle(OracleField):
    """An oracle whose quadrature is off by 1 at the times in ``off``."""

    def __init__(self, off, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.off = off

    def __call__(self, t, x1, x2=0.0):
        return super().__call__(t, x1, x2) + (1.0 if t in self.off else 0.0)


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("off", [(), (0.0,), (0.5,), (0.25, 0.5)])
def test_oracle_validate_halves(forks, monkeypatch, split, off):
    # the probes run one after another in this process, on one CPU and on
    # two (``split``): the report, and the error of the first failing
    # probe, are those of the reference
    if not split:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    orc = _OffOracle(off, "linear_drift", make_g(TargetMeasure.uniform(0, 1)),
                     kappa=0.5)
    want = _reference_validate(orc, 3, 100_000)
    if off:
        t, x1 = next(p for p in verify._ORACLE_PROBES if p[0] in off)
        with pytest.raises(DomainError,
                           match=rf"^oracle self-check failed at "
                                 rf"\(t={t}, x1={x1}\): quad="):
            orc.validate(seed=3, n=100_000)
    else:
        assert orc.validate(seed=3, n=100_000) == want
    assert forks.calls == []


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
    # u1 is formed from the shifted u, so the shift moves it by rounding
    # only
    f = case_linear.value["field"]
    q = (0.3, f.x1_grid, 0.1)
    before = eval_field(f, *q, "u1")
    f2 = shifted_field(f, coef_time_to_go=0.05)
    assert np.abs(f2.u[0] - f.u[0] - 0.05).max() < 1e-12
    assert np.array_equal(f2.u[-1], f.u[-1])
    assert np.abs(eval_field(f2, *q, "u1") - before).max() < 1e-12

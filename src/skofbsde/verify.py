"""Statistical and analytical oracles: law distances, closed-form fields,
negative controls.

The law checks quantify how close the empirical law of the stopped values is
to the target.  The KS threshold is the asymptotic 1% Kolmogorov quantile
1.63/sqrt(n) plus an additive discretization allowance, because the stopped
values carry Euler and interpolation bias that the asymptotic band ignores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .field import DecouplingField
from .measure import TargetMeasure

__all__ = ["LawReport", "ks_statistic", "wasserstein1", "law_report",
           "histogram_csv", "OracleField", "shifted_field",
           "KS_COEFF_1PCT", "KS_DISCRETIZATION_ALLOWANCE"]

KS_COEFF_1PCT = 1.63
KS_DISCRETIZATION_ALLOWANCE = 0.01
_W1_LEVELS = 10_000
_GH_NODES = 64
_ORACLE_PROBES = ((0.0, 0.0), (0.25, -1.0), (0.5, 1.5))
# Monte Carlo points per evaluation of g in OracleField.validate
_ORACLE_CHUNK = 65536


@dataclass
class LawReport:
    n: int
    ks: float
    ks_pass_threshold: float
    w1: float
    mean: float
    var: float
    mean_target: float
    var_target: float

    @property
    def ks_passed(self) -> bool:
        return bool(self.ks <= self.ks_pass_threshold)

    def to_dict(self) -> dict:
        d = {k: float(v) for k, v in vars(self).items()}
        d["n"] = int(self.n)
        d["ks_passed"] = self.ks_passed
        return d

    def to_json(self, path: str | None = None) -> str:
        s = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(s)
        return s


def _sorted_samples(samples, what: str) -> np.ndarray:
    """Sorted samples; none, or a NaN or inf (sorted to an end), is an error."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size < 1 or not (np.isfinite(s[0]) and np.isfinite(s[-1])):
        raise DomainError(f"{what} needs at least one sample, all finite")
    return s


def ks_statistic(samples, m: TargetMeasure) -> float:
    """sup_x |F_n(x) - F(x)|, exact: at the i-th smallest sample x_i the
    gap D+ compares i/n with F(x_i), and D- compares (i-1)/n with the left
    limit F(x_i-), which is below F(x_i) at an atom of the law."""
    s = _sorted_samples(samples, "KS statistic")
    n = s.size
    i = np.arange(1, n + 1)
    d_plus = (i / n - np.asarray(m.cdf(s))).max()
    d_minus = (np.asarray(m.cdf(s, left=True)) - (i - 1) / n).max()
    return float(max(d_plus, d_minus, 0.0))


def wasserstein1(samples, m: TargetMeasure) -> float:
    """int_0^1 |F_n^{-1}(y) - F^{-1}(y)| dy by midpoint quadrature on
    ``_W1_LEVELS`` levels."""
    s = _sorted_samples(samples, "Wasserstein-1")
    n = s.size
    y = (np.arange(_W1_LEVELS) + 0.5) / _W1_LEVELS
    emp = s[np.minimum((y * n).astype(int), n - 1)]
    return float(np.abs(emp - np.asarray(m.quantile(y))).mean())


def law_report(samples, m: TargetMeasure) -> LawReport:
    s = np.asarray(samples, dtype=float)
    return LawReport(
        n=int(s.size),
        ks=ks_statistic(s, m),
        ks_pass_threshold=float(KS_COEFF_1PCT / np.sqrt(s.size)
                                + KS_DISCRETIZATION_ALLOWANCE),
        w1=wasserstein1(s, m),
        mean=float(s.mean()),
        var=float(s.var()),
        mean_target=float(m.mean),
        var_target=float(m.var),
    )


def histogram_csv(samples, path: str, bins: int = 50) -> None:
    """Plot-ready histogram: rows of ``bin_lo,bin_hi,count``."""
    counts, edges = np.histogram(np.asarray(samples, dtype=float), bins=bins)
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, n in zip(edges[:-1], edges[1:], counts):
            fh.write(f"{float(lo)!r},{float(hi)!r},{int(n)}\n")


# ----------------------------------------------------------------------------
# closed-form / quadrature field oracles
# ----------------------------------------------------------------------------

class OracleField:
    """Quadrature reference for the decoupling field in the two solvable
    regimes.

    ``no_drift``:  u(t, x1, x2) = E[g(x1 + sqrt(1-t) xi)]  (martingale
    representation; no x2 dependence).

    ``linear_drift`` (delta(x) = kappa x, kappa != 0):
    u(t, x1, x2) = -(1/(2 kappa)) ln E[exp(-2 kappa g(x1 + sqrt(1-t) xi))]
                   - kappa x2,
    the exponential transform that linearizes the quadratic coupling.  The
    expectation is a 64-node Gauss-Hermite sum; the log uses max-subtraction
    so large kappa * g spreads cannot overflow.
    """

    def __init__(self, kind: str, g, kappa: float = 0.0):
        if kind not in ("no_drift", "linear_drift"):
            raise DomainError(f"unknown oracle kind {kind!r}")
        if kind == "linear_drift" and kappa == 0.0:
            raise DomainError("linear_drift oracle needs kappa != 0")
        self.kind = kind
        self.g = g
        self.kappa = float(kappa)
        h, w = np.polynomial.hermite.hermgauss(_GH_NODES)
        self._nodes = np.sqrt(2.0) * h
        self._logw = np.log(w / np.sqrt(np.pi))
        self._w = w / np.sqrt(np.pi)

    def __call__(self, t, x1, x2=0.0):
        t, x1, x2 = np.broadcast_arrays(np.asarray(t, dtype=float),
                                        np.asarray(x1, dtype=float),
                                        np.asarray(x2, dtype=float))
        scalar = t.ndim == 0
        t, x1, x2 = np.atleast_1d(t), np.atleast_1d(x1), np.atleast_1d(x2)
        if not np.all((-1e-12 <= t) & (t <= 1.0 + 1e-12)):
            raise DomainError("oracle time outside [0, 1]")
        s = np.sqrt(np.maximum(1.0 - t, 0.0))
        gv = np.asarray(self.g(x1[:, None] + s[:, None] * self._nodes[None, :]))
        if self.kind == "no_drift":
            res = gv @ self._w
        else:
            expo = -2.0 * self.kappa * gv + self._logw[None, :]
            peak = expo.max(axis=1, keepdims=True)
            res = (-1.0 / (2.0 * self.kappa)
                   * (np.log(np.exp(expo - peak).sum(axis=1)) + peak[:, 0])
                   - self.kappa * x2)
        return float(res[0]) if scalar else res

    def validate(self, seed: int = 20_240_001, n: int = 1_000_000) -> dict:
        """Cross-check the quadrature against Monte Carlo at the
        ``_ORACLE_PROBES`` points (t, x1), all on the same seeded normals;
        raises at the first probe that is off by more than three standard
        errors.  It holds one n-array: each probe draws the seeded normals
        into it again, and ``g`` overwrites them ``_ORACLE_CHUNK`` points at
        a time, so its temporaries stay small."""
        gv = np.empty(n)
        report = {}
        for t, x1 in _ORACLE_PROBES:
            s = np.sqrt(1.0 - t)
            np.random.default_rng(seed).standard_normal(out=gv)
            for i in range(0, n, _ORACLE_CHUNK):
                chunk = gv[i:i + _ORACLE_CHUNK]
                chunk[:] = self.g(x1 + s * chunk)
            if self.kind == "no_drift":
                mc, se = gv.mean(), gv.std() / np.sqrt(n)
            else:
                ev = np.exp(np.multiply(gv, -2.0 * self.kappa, out=gv), out=gv)
                mc_mean, mc_se = ev.mean(), ev.std() / np.sqrt(n)
                mc = -np.log(mc_mean) / (2.0 * self.kappa)
                se = mc_se / mc_mean / abs(2.0 * self.kappa)
            quad = self(t, x1)
            ok = abs(quad - mc) <= 3.0 * se + 1e-12
            report[(t, x1)] = {"quadrature": float(quad), "mc": float(mc),
                               "se": float(se), "ok": bool(ok)}
            if not ok:
                raise DomainError(
                    f"oracle self-check failed at (t={t}, x1={x1}): "
                    f"quad={quad:.6g} mc={mc:.6g} se={se:.2e}")
        return report


# ----------------------------------------------------------------------------
# negative controls
# ----------------------------------------------------------------------------

def shifted_field(f: DecouplingField, coef_t: float = 0.0,
                  coef_time_to_go: float = 0.0) -> DecouplingField:
    """Copy of the field with u replaced by u + coef_t * t
    + coef_time_to_go * (T - t).  Its ``u1`` is formed from the new ``u``
    where it is read, so it moves from that of ``f`` by rounding only.

    Used as a deliberate corruption: a time-affine shift breaks the
    martingale property of Y and moves the starting constant, so downstream
    checks must flag it.
    """
    t = f.t_grid[:, None, None]
    u = f.u + coef_t * t + coef_time_to_go * (f.t_grid[-1] - t)
    return replace(f, u=u)

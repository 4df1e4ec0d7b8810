"""Target laws, their CDF/quantile representations, and the quantile transform.

A target law ``nu`` is represented by its cumulative distribution function
``F(x) = nu((-inf, x])`` and the generalized inverse
``F^{-1}(y) = inf{x : F(x) >= y}``.  Composing the inverse with the standard
normal CDF gives the non-decreasing transform ``g(x) = F^{-1}(Phi(x))``, which
maps a standard normal sample to a sample of ``nu``.  The transform is shipped
together with smoothness metadata (Lipschitz constant and bounds on the second
and third derivatives) consumed by the PDE solver and the diagnostics.

``Phi`` and its inverse are evaluated by classical rational approximations
(Cody's erf/erfc and Wichura's PPND16) so that results are plain IEEE-754
arithmetic, identical across platforms.  Absolute accuracy is far below
``PHI_ABS_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiracMeasureError, DomainError

__all__ = [
    "PHI_ABS_TOL",
    "phi",
    "phi_inv",
    "norm_pdf",
    "Smoothness",
    "TargetMeasure",
    "QuantileTransform",
    "make_g",
]

# Certified absolute accuracy of phi / phi_inv (validated in the test suite
# against Phi(0) = 1/2 and Phi(1.96) = 0.9750021048517795).
PHI_ABS_TOL = 1e-10

# Lipschitz probe grid for transforms without an analytic constant: Phi mass
# outside [-8, 8] is below 1e-15, so slopes outside cannot dominate.
_PROBE_LO = -8.0
_PROBE_HI = 8.0
_PROBE_POINTS = 2001
_PROBE_H = 1e-4

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 0.5641895835477562869480794515607726


# ----------------------------------------------------------------------------
# Standard normal CDF via Cody's rational erfc approximation.
# ----------------------------------------------------------------------------

_ERF_A = (3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e1, 2.44024637934444173e2,
          1.28261652607737228e3, 2.84423683343917062e3)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e0,
          6.61191906371416295e1, 2.98635138197400131e2,
          8.81952221241769090e2, 1.71204761263407058e3,
          2.05107837782607147e3, 1.23033935479799725e3,
          2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e1, 1.17693950891312499e2,
          5.37181101862009858e2, 1.62138957456669019e3,
          3.29079923573345963e3, 4.36261909014324716e3,
          3.43936767414372164e3, 1.23033935480374942e3)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
          1.25781726111229246e-1, 1.60837851487422766e-2,
          6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e0, 1.87295284992346047e0,
          5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)


def _erfc_positive(y: np.ndarray) -> np.ndarray:
    """erfc on y >= 0, Cody's three-branch rational approximation."""
    out = np.empty_like(y)

    small = y <= 0.46875
    if np.any(small):
        z = y[small] ** 2
        num = _ERF_A[4] * z
        den = z
        for i in range(3):
            num = (num + _ERF_A[i]) * z
            den = (den + _ERF_B[i]) * z
        out[small] = 1.0 - y[small] * (num + _ERF_A[3]) / (den + _ERF_B[3])

    mid = (~small) & (y <= 4.0)
    if np.any(mid):
        ym = y[mid]
        num = _ERF_C[8] * ym
        den = ym
        for i in range(7):
            num = (num + _ERF_C[i]) * ym
            den = (den + _ERF_D[i]) * ym
        ratio = (num + _ERF_C[7]) / (den + _ERF_D[7])
        # split exp(-y^2) to avoid cancellation in the argument
        ysq = np.trunc(ym * 16.0) / 16.0
        dely = (ym - ysq) * (ym + ysq)
        out[mid] = np.exp(-ysq * ysq) * np.exp(-dely) * ratio

    big = y > 4.0
    if np.any(big):
        yb = y[big]
        z = 1.0 / (yb * yb)
        num = _ERF_P[5] * z
        den = z
        for i in range(4):
            num = (num + _ERF_P[i]) * z
            den = (den + _ERF_Q[i]) * z
        r = z * (num + _ERF_P[4]) / (den + _ERF_Q[4])
        ysq = np.trunc(yb * 16.0) / 16.0
        dely = (yb - ysq) * (yb + ysq)
        with np.errstate(under="ignore"):
            out[big] = np.exp(-ysq * ysq) * np.exp(-dely) * (_INV_SQRT_PI - r) / yb
    return out


def phi(x) -> np.ndarray | float:
    """Standard normal CDF, absolute error well below ``PHI_ABS_TOL``."""
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    arg = -xa / _SQRT2
    res = np.where(arg >= 0.0,
                   0.5 * _erfc_positive(np.abs(arg)),
                   1.0 - 0.5 * _erfc_positive(np.abs(arg)))
    return float(res[0]) if scalar else res


def norm_pdf(x) -> np.ndarray | float:
    """Standard normal density."""
    xa = np.asarray(x, dtype=float)
    return np.exp(-0.5 * xa * xa) * _INV_SQRT_2PI


# ----------------------------------------------------------------------------
# Standard normal quantile via Wichura's PPND16 (AS 241).
# ----------------------------------------------------------------------------

_PPND_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
           1.9715909503065514427e3, 1.3731693765509461125e4,
           4.5921953931549871457e4, 6.7265770927008700853e4,
           3.3430575583588128105e4, 2.5090809287301226727e3)
_PPND_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
           5.3941960214247511077e3, 2.1213794301586595867e4,
           3.9307895800092710610e4, 2.8729085735721942674e4,
           5.2264952788528545610e3)
_PPND_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
           5.76949722146069140550e0, 3.64784832476320460504e0,
           1.27045825245236838258e0, 2.41780725177450611770e-1,
           2.27238449892691845833e-2, 7.74545014278341407640e-4)
_PPND_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
           6.89767334985100004550e-1, 1.48103976427480074590e-1,
           1.51986665636164571966e-2, 5.47593808499534494600e-4,
           1.05075007164441684324e-9)
_PPND_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
           1.78482653991729133580e0, 2.96560571828504891230e-1,
           2.65321895265761230930e-2, 1.24266094738807843860e-3,
           2.71155556874348757815e-5, 2.01033439929228813265e-7)
_PPND_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
           1.48753612908506148525e-2, 7.86869131145613259100e-4,
           1.84631831751005468180e-5, 1.42151175831644588870e-7,
           2.04426310338993978564e-15)


def _poly(coeffs, r):
    acc = np.full_like(r, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * r + c
    return acc


def phi_inv(p) -> np.ndarray | float:
    """Standard normal quantile for p in (0, 1); raises DomainError outside."""
    pa = np.asarray(p, dtype=float)
    scalar = pa.ndim == 0
    pa = np.atleast_1d(pa).copy()
    if np.any(~np.isfinite(pa)) or np.any(pa <= 0.0) or np.any(pa >= 1.0):
        raise DomainError("phi_inv requires probabilities strictly inside (0, 1)")

    q = pa - 0.5
    out = np.empty_like(pa)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] ** 2
        out[central] = q[central] * _poly(_PPND_A, r) / _poly(_PPND_B, r)

    tail = ~central
    if np.any(tail):
        pt = np.where(q[tail] < 0.0, pa[tail], 1.0 - pa[tail])
        r = np.sqrt(-np.log(pt))
        near = r <= 5.0
        val = np.empty_like(r)
        if np.any(near):
            rn = r[near] - 1.6
            val[near] = _poly(_PPND_C, rn) / _poly(_PPND_D, rn)
        if np.any(~near):
            rf = r[~near] - 5.0
            val[~near] = _poly(_PPND_E, rf) / _poly(_PPND_F, rf)
        out[tail] = np.where(q[tail] < 0.0, -val, val)
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------------
# Target measures.
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Smoothness:
    """Derivative bounds of the quantile transform g.

    ``None`` means unknown.  ``estimated`` marks values obtained by finite
    differences instead of analytic knowledge.
    """

    lipschitz: float | None
    d2_bound: float | None = None
    d3_bound: float | None = None
    estimated: bool = False


class TargetMeasure:
    """Immutable one-dimensional target law.

    Supported kinds: ``normal``, ``uniform``, ``piecewise_cdf`` (sorted
    breakpoints of a piecewise-linear CDF) and ``empirical`` (sorted sample
    values).  Instances are safe to share read-only across workers.
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        self._p = params
        if kind == "normal":
            mu, sigma = params["mu"], params["sigma"]
            if sigma < 0.0 or not np.isfinite(mu) or not np.isfinite(sigma):
                raise DomainError("normal law needs finite mu and sigma >= 0")
            self.support = (-math.inf, math.inf)
            self.mean, self.var = mu, sigma**2
        elif kind == "uniform":
            lo, hi = params["lo"], params["hi"]
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
                raise DomainError("uniform law needs finite lo <= hi")
            self.support = (lo, hi)
            self.mean, self.var = 0.5 * (lo + hi), (hi - lo) ** 2 / 12.0
        elif kind == "piecewise_cdf":
            xs = np.asarray(params["xs"], dtype=float)
            Fs = np.asarray(params["Fs"], dtype=float)
            if xs.ndim != 1 or xs.shape != Fs.shape or xs.size < 2:
                raise DomainError("piecewise CDF needs matching 1-d breakpoint arrays")
            if np.any(np.diff(xs) <= 0.0):
                raise DomainError("piecewise CDF breakpoints must be strictly increasing in x")
            if np.any(np.diff(Fs) < 0.0) or Fs[0] < 0.0 or abs(Fs[-1] - 1.0) > 1e-12:
                raise DomainError("piecewise CDF values must be non-decreasing from >=0 to 1")
            self._p = {"xs": xs, "Fs": Fs}
            self.support = (float(xs[0]), float(xs[-1]))
            levels = (np.arange(10_000) + 0.5) / 10_000
            qs = self.quantile(levels)
            self.mean, self.var = float(qs.mean()), float(qs.var())
        elif kind == "empirical":
            samples = np.sort(np.asarray(params["samples"], dtype=float))
            if samples.ndim != 1 or samples.size < 1 or np.any(~np.isfinite(samples)):
                raise DomainError("empirical law needs a non-empty finite sample vector")
            self._p = {"samples": samples}
            self.support = (float(samples[0]), float(samples[-1]))
            self.mean, self.var = float(samples.mean()), float(samples.var())
        else:
            raise DomainError(f"unknown measure kind {kind!r}")
        self.has_finite_first_moment = True

    # -- constructors --------------------------------------------------------

    @classmethod
    def normal(cls, mu: float = 0.0, sigma: float = 1.0) -> "TargetMeasure":
        return cls("normal", mu=float(mu), sigma=float(sigma))

    @classmethod
    def uniform(cls, lo: float = 0.0, hi: float = 1.0) -> "TargetMeasure":
        return cls("uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def piecewise_cdf(cls, xs, Fs) -> "TargetMeasure":
        return cls("piecewise_cdf", xs=xs, Fs=Fs)

    @classmethod
    def empirical(cls, samples) -> "TargetMeasure":
        return cls("empirical", samples=samples)

    # -- CDF / quantile ------------------------------------------------------

    def cdf(self, x) -> np.ndarray | float:
        """F(x) = nu((-inf, x]); total, non-decreasing, right-continuous."""
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        xa = np.atleast_1d(xa)
        if self.kind == "normal":
            mu, sigma = self._p["mu"], self._p["sigma"]
            if sigma == 0.0:
                res = np.where(xa >= mu, 1.0, 0.0)
            else:
                res = np.asarray(phi((xa - mu) / sigma))
        elif self.kind == "uniform":
            lo, hi = self._p["lo"], self._p["hi"]
            if hi == lo:
                res = np.where(xa >= lo, 1.0, 0.0)
            else:
                res = np.clip((xa - lo) / (hi - lo), 0.0, 1.0)
        elif self.kind == "piecewise_cdf":
            res = np.interp(xa, self._p["xs"], self._p["Fs"], left=0.0, right=1.0)
        else:
            s = self._p["samples"]
            res = np.searchsorted(s, xa, side="right") / s.size
        return float(res[0]) if scalar else res

    def quantile(self, y) -> np.ndarray | float:
        """Generalized inverse inf{x : F(x) >= y} for y in (0, 1)."""
        ya = np.asarray(y, dtype=float)
        scalar = ya.ndim == 0
        ya = np.atleast_1d(ya)
        if np.any(ya <= 0.0) or np.any(ya >= 1.0):
            raise DomainError("quantile requires probabilities strictly inside (0, 1)")
        if self.kind == "normal":
            mu, sigma = self._p["mu"], self._p["sigma"]
            res = mu + sigma * np.asarray(phi_inv(ya))
        elif self.kind == "uniform":
            lo, hi = self._p["lo"], self._p["hi"]
            res = lo + (hi - lo) * ya
        elif self.kind == "piecewise_cdf":
            xs, Fs = self._p["xs"], self._p["Fs"]
            # inf{x : F(x) >= y}: exact hits land on the first breakpoint of a
            # flat run, strict ones interpolate the bracketing rising segment
            i = np.searchsorted(Fs, ya, side="left")
            exact = Fs[i] <= ya
            j = np.maximum(i, 1)
            den = Fs[j] - Fs[j - 1]
            frac = np.where(den > 0.0, (ya - Fs[j - 1]) / np.where(den > 0.0, den, 1.0), 0.0)
            interp = xs[j - 1] + frac * (xs[j] - xs[j - 1])
            res = np.where(exact, xs[i], np.where(i == 0, xs[0], interp))
        else:
            s = self._p["samples"]
            idx = np.ceil(ya * s.size).astype(int) - 1
            res = s[np.clip(idx, 0, s.size - 1)]
        return float(res[0]) if scalar else res

    def is_dirac(self) -> bool:
        return self.quantile(0.25) == self.quantile(0.75) == self.quantile(0.5)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TargetMeasure({self.kind}, support={self.support})"


# ----------------------------------------------------------------------------
# Quantile transform g = F^{-1} o Phi.
# ----------------------------------------------------------------------------

class QuantileTransform:
    """Non-decreasing transform mapping N(0,1) to the target law.

    Attributes
    ----------
    lipschitz : float
        Best available Lipschitz constant of g (sup |g'|).
    monotone : bool
        Always True for quantile transforms; kept for downstream checks.
    non_lipschitz : bool
        Set when the transform has jumps (step quantiles) or an unbounded
        slope was detected on the probe grid.  Such transforms are rejected
        by the field solver, not here.
    smoothness : Smoothness
        Bounds on g', g'', g''' where available; ``estimated`` marks
        finite-difference values.
    """

    def __init__(self, measure: TargetMeasure):
        if measure.is_dirac():
            raise DiracMeasureError("g identically constant: target law is a Dirac measure")
        self.measure = measure
        self.monotone = True
        self.non_lipschitz = False

        if measure.kind == "normal":
            sigma = measure._p["sigma"]
            self.smoothness = Smoothness(lipschitz=sigma, d2_bound=0.0, d3_bound=0.0)
        elif measure.kind == "uniform":
            scale = measure._p["hi"] - measure._p["lo"]
            # g = lo + scale * Phi, so |g'| <= scale/sqrt(2 pi),
            # |g''| <= scale * pdf(1), |g'''| <= scale * pdf(0).
            self.smoothness = Smoothness(
                lipschitz=scale * _INV_SQRT_2PI,
                d2_bound=scale * float(norm_pdf(1.0)),
                d3_bound=scale * float(norm_pdf(0.0)),
            )
        else:
            self.smoothness = self._probe_smoothness()
            if measure.kind == "empirical":
                self.non_lipschitz = True

    @property
    def lipschitz(self) -> float:
        return self.smoothness.lipschitz

    def __call__(self, x) -> np.ndarray | float:
        p = np.clip(np.asarray(phi(x)), 1e-300, 1.0 - 1e-16)
        return self.measure.quantile(p)

    def derivative(self, x) -> np.ndarray | float:
        """g'; analytic for parametric laws, one-sided elsewhere is not needed."""
        if self.measure.kind == "normal":
            sigma = self.measure._p["sigma"]
            return np.full_like(np.asarray(x, dtype=float), sigma)
        if self.measure.kind == "uniform":
            scale = self.measure._p["hi"] - self.measure._p["lo"]
            return scale * norm_pdf(x)
        h = 1e-5
        xa = np.asarray(x, dtype=float)
        return (np.asarray(self(xa + h)) - np.asarray(self(xa - h))) / (2.0 * h)

    def _probe_smoothness(self) -> Smoothness:
        xs = np.linspace(_PROBE_LO, _PROBE_HI, _PROBE_POINTS)
        h = _PROBE_H
        g0 = np.asarray(self(xs))
        gp = np.asarray(self(xs + h))
        gm = np.asarray(self(xs - h))
        slopes = np.abs(gp - g0) / h
        lip = float(slopes.max())
        d2 = float(np.abs(gp - 2.0 * g0 + gm).max() / h**2)
        g2p = np.asarray(self(xs + 2.0 * h))
        g2m = np.asarray(self(xs - 2.0 * h))
        d3 = float(np.abs(g2p - 2.0 * gp + 2.0 * gm - g2m).max() / (2.0 * h**3))
        # slope still growing at the probe boundary hints at an unbounded g'
        edge = max(slopes[0], slopes[-1])
        if lip > 0.0 and edge >= 0.999 * lip and slopes.argmax() in (0, slopes.size - 1):
            self.non_lipschitz = True
        return Smoothness(lipschitz=lip, d2_bound=d2, d3_bound=d3, estimated=True)


def make_g(m: TargetMeasure) -> QuantileTransform:
    """Build g = F^{-1} o Phi with Lipschitz/smoothness metadata.

    Rejects Dirac measures (constant g).  Non-Lipschitz transforms are
    flagged, not rejected; the field solver refuses them.
    """
    return QuantileTransform(m)

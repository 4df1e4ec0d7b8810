"""Target laws, their CDF/quantile representations, and the quantile transform.

A target law ``nu`` is represented by its cumulative distribution function
``F(x) = nu((-inf, x])`` and the generalized inverse
``F^{-1}(y) = inf{x : F(x) >= y}``.  Composing the inverse with the standard
normal CDF gives the non-decreasing transform ``g(x) = F^{-1}(Phi(x))``, which
maps a standard normal sample to a sample of ``nu``.  The transform carries
its exact Lipschitz constant, which sizes the solver's grid and bounds the
control, and ``math.inf`` where none exists.

``Phi`` and its inverse are evaluated by classical rational approximations
(Cody's erf/erfc and Wichura's PPND16) so that results are plain IEEE-754
arithmetic, identical across platforms.  Absolute accuracy is far below
``PHI_ABS_TOL``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DiracMeasureError, DomainError

__all__ = [
    "PHI_ABS_TOL",
    "phi",
    "phi_inv",
    "norm_pdf",
    "TargetMeasure",
    "QuantileTransform",
    "make_g",
]

# Certified absolute accuracy of phi / phi_inv (validated in the test suite
# against Phi(0) = 1/2 and Phi(1.96) = 0.9750021048517795).
PHI_ABS_TOL = 1e-10

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
    """erfc on y >= 0, Cody's three-branch rational approximation; a NaN,
    which no branch takes, stays NaN."""
    out = np.full_like(y, np.nan)

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

    # erfc underflows to 0 from y = 27.3; from there on, and for an infinite
    # y, no branch is taken
    out[y >= 40.0] = 0.0
    big = (y > 4.0) & (y < 40.0)
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
    """Standard normal CDF, absolute error well below ``PHI_ABS_TOL``;
    -inf and inf map to 0 and 1, NaN to NaN."""
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    arg = -xa / _SQRT2
    e = 0.5 * _erfc_positive(np.abs(arg))
    res = np.where(arg >= 0.0, e, 1.0 - e)
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


# points per pass of phi_inv's central formula: its work arrays stay in cache
_PHI_INV_CHUNK = 16384


def _poly(coeffs, r, acc=None):
    """Horner's rule for the polynomial with ``coeffs`` (lowest degree
    first) at ``r``, accumulated in place in ``acc`` when given."""
    acc = np.empty_like(r) if acc is None else acc
    acc.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= r
        acc += c
    return acc


def _phi_inv_tail(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """PPND16's tail branches at the points with |q| = |p - 1/2| > 0.425."""
    r = np.sqrt(-np.log(np.where(q < 0.0, p, 1.0 - p)))
    near = r <= 5.0
    val = np.empty_like(r)
    if np.any(near):
        rn = r[near] - 1.6
        val[near] = _poly(_PPND_C, rn) / _poly(_PPND_D, rn)
    if not np.all(near):
        rf = r[~near] - 5.0
        val[~near] = _poly(_PPND_E, rf) / _poly(_PPND_F, rf)
    return np.where(q < 0.0, -val, val)


def phi_inv(p) -> np.ndarray | float:
    """Standard normal quantile for p in (0, 1); raises DomainError outside.

    Works through the points in chunks of ``_PHI_INV_CHUNK``: the central
    rational function is evaluated on every point of a chunk, in place, and
    the points in the tails are then overwritten.
    """
    pa = np.asarray(p, dtype=float)
    flat = pa.ravel()
    out = np.empty(flat.shape)
    width = min(flat.size, _PHI_INV_CHUNK)
    q_buf, r_buf, den_buf = np.empty((3, width))
    for lo in range(0, flat.size, _PHI_INV_CHUNK):
        pc = flat[lo:lo + _PHI_INV_CHUNK]
        if not (np.all(pc > 0.0) and np.all(pc < 1.0)):
            raise DomainError("phi_inv requires probabilities strictly inside (0, 1)")
        n = pc.size
        q = np.subtract(pc, 0.5, out=q_buf[:n])
        r = np.multiply(q, q, out=r_buf[:n])
        np.subtract(0.180625, r, out=r)
        oc = _poly(_PPND_A, r, out[lo:lo + n])
        oc *= q
        oc /= _poly(_PPND_B, r, den_buf[:n])
        tail = np.flatnonzero(np.abs(q) > 0.425)
        if tail.size:
            oc[tail] = _phi_inv_tail(pc[tail], q[tail])
    return float(out[0]) if pa.ndim == 0 else out.reshape(pa.shape)


# ----------------------------------------------------------------------------
# Target measures.
# ----------------------------------------------------------------------------

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
            self.mean, self.var = mu, sigma**2
        elif kind == "uniform":
            lo, hi = params["lo"], params["hi"]
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
                raise DomainError("uniform law needs finite lo <= hi")
            self.mean, self.var = 0.5 * (lo + hi), (hi - lo) ** 2 / 12.0
        elif kind == "piecewise_cdf":
            xs = np.asarray(params["xs"], dtype=float)
            Fs = np.asarray(params["Fs"], dtype=float)
            if xs.ndim != 1 or xs.shape != Fs.shape or xs.size < 2 \
                    or not (np.isfinite(xs).all() and np.isfinite(Fs).all()):
                raise DomainError("piecewise CDF needs matching finite 1-d breakpoint arrays")
            if np.any(np.diff(xs) <= 0.0):
                raise DomainError("piecewise CDF breakpoints must be strictly increasing in x")
            if np.any(np.diff(Fs) < 0.0) or Fs[0] < 0.0 or abs(Fs[-1] - 1.0) > 1e-12:
                raise DomainError("piecewise CDF values must be non-decreasing from >=0 to 1")
            self._p = {"xs": xs, "Fs": Fs}
            levels = (np.arange(10_000) + 0.5) / 10_000
            qs = self.quantile(levels)
            self.mean, self.var = float(qs.mean()), float(qs.var())
        elif kind == "empirical":
            samples = np.sort(np.asarray(params["samples"], dtype=float))
            if samples.ndim != 1 or samples.size < 1 or np.any(~np.isfinite(samples)):
                raise DomainError("empirical law needs a non-empty finite sample vector")
            self._p = {"samples": samples}
            self.mean, self.var = float(samples.mean()), float(samples.var())
        else:
            raise DomainError(f"unknown measure kind {kind!r}")

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

    def cdf(self, x, left: bool = False) -> np.ndarray | float:
        """F(x) = nu((-inf, x]); total, non-decreasing, right-continuous.
        With ``left`` the left limit F(x-) = nu((-inf, x)), which differs
        from F(x) only at an atom."""
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        xa = np.atleast_1d(xa)
        if self.kind == "normal":
            mu, sigma = self._p["mu"], self._p["sigma"]
            if sigma == 0.0:
                res = np.where(xa > mu if left else xa >= mu, 1.0, 0.0)
            else:
                res = np.asarray(phi((xa - mu) / sigma))
        elif self.kind == "uniform":
            lo, hi = self._p["lo"], self._p["hi"]
            if hi == lo:
                res = np.where(xa > lo if left else xa >= lo, 1.0, 0.0)
            else:
                res = np.clip((xa - lo) / (hi - lo), 0.0, 1.0)
        elif self.kind == "piecewise_cdf":
            res = np.interp(xa, self._p["xs"], self._p["Fs"], left=0.0, right=1.0)
            if left:    # the only atom sits at xs[0], of mass Fs[0]
                res[xa == self._p["xs"][0]] = 0.0
        else:
            s = self._p["samples"]
            res = np.searchsorted(s, xa, side="left" if left else "right") / s.size
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
            # flat run, strict ones interpolate the bracketing rising segment,
            # levels above a last value within 1e-12 below 1 on xs[-1]
            i = np.minimum(np.searchsorted(Fs, ya, side="left"), Fs.size - 1)
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
        """True for a point mass: the quantiles at the extreme levels
        ``2**-53`` and ``1 - 2**-53`` coincide.  An atom that only covers
        the quartiles leaves the law a real one."""
        return self.quantile(2.0**-53) == self.quantile(1.0 - 2.0**-53)


# ----------------------------------------------------------------------------
# Quantile transform g = F^{-1} o Phi.
# ----------------------------------------------------------------------------

class QuantileTransform:
    """Non-decreasing transform mapping N(0,1) to the target law.

    Attributes
    ----------
    lipschitz : float
        Exact Lipschitz constant sup |g'| of g, or ``math.inf`` where g
        jumps: for every empirical law, and for a piecewise CDF flat at a
        level inside (0, 1).  ``SolverConfig.validate`` refuses ``inf``.
    """

    def __init__(self, measure: TargetMeasure):
        if measure.is_dirac():
            raise DiracMeasureError("g identically constant: target law is a Dirac measure")
        self.measure = measure
        p = measure._p
        if measure.kind == "normal":
            self.lipschitz = p["sigma"]
        elif measure.kind == "uniform":
            # g = lo + scale * Phi, so |g'| <= scale/sqrt(2 pi)
            self.lipschitz = (p["hi"] - p["lo"]) * _INV_SQRT_2PI
        elif measure.kind == "piecewise_cdf":
            self.lipschitz = _piecewise_lipschitz(p["xs"], p["Fs"])
        else:
            self.lipschitz = math.inf

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


def _piecewise_lipschitz(xs: np.ndarray, Fs: np.ndarray) -> float:
    """sup |g'| for the piecewise-linear CDF through (xs, Fs).  Where F
    rises from F_{j-1} to F_j, g' = s_j Phi' with s_j = (x_j - x_{j-1}) /
    (F_j - F_{j-1}), largest at the point of [Phi^{-1}(F_{j-1}),
    Phi^{-1}(F_j)] nearest 0.  A flat run inside (0, 1) is a jump of g, and
    g never reaches levels of 1 and above."""
    lo, hi = Fs[:-1], Fs[1:]
    if np.any((lo == hi) & (lo > 0.0) & (lo < 1.0)):
        return math.inf
    rise = (hi > lo) & (lo < 1.0)
    lo, hi = lo[rise], hi[rise]
    above, below = lo >= 0.5, hi <= 0.5
    nearest = np.zeros(lo.size)
    nearest[above] = phi_inv(lo[above])
    nearest[below] = phi_inv(hi[below])
    return float((np.diff(xs)[rise] / (hi - lo) * norm_pdf(nearest)).max())


def make_g(m: TargetMeasure) -> QuantileTransform:
    """Build g = F^{-1} o Phi with its exact Lipschitz constant
    (``math.inf`` where g jumps, which only the solver refuses).  Rejects
    Dirac measures (constant g)."""
    return QuantileTransform(m)

"""Gaussian-process coefficients and the quadratic-variation clock.

The driving process is ``G_t = G0 + int_0^t alpha_s ds + int_0^t beta_s dW_s``
with deterministic time functions ``alpha`` and ``beta`` and ``inf |beta| > 0``.
Derived objects:

* clock ``H(t) = int_0^t beta_s^2 ds`` and its inverse (Lipschitz with
  constant ``1 / beta_floor^2``),
* accumulated drift ``delta_hat(t) = G0 + int_0^t alpha_s ds``,
* delayed drift ``delta = delta_hat o H^{-1}`` entering the terminal
  condition of the backward equation.

Integrals are trapezoid sums on a grid of at least ``MIN_QUAD_POINTS`` nodes;
the inverse clock interpolates the same table with the axes swapped (the
table is strictly increasing, so this is exact inversion of the piecewise
linear clock, kinks of tabulated ``beta^2`` included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, HorizonError

__all__ = ["TimeFunction", "ProcessCoefficients", "DelayedDrift"]

MIN_QUAD_POINTS = 4096

# names allowed in "expr" time functions; evaluated with numpy semantics
_EXPR_NS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "pi": math.pi, "e": math.e,
}


class TimeFunction:
    """Deterministic function of time: constant, tabulated or expression.

    Tabulated functions are piecewise linear between the given nodes and are
    held constant beyond the last node.  Expressions may use the variable
    ``s`` and the names in ``_EXPR_NS``.
    """

    def __init__(self, kind: str, *, value: float | None = None,
                 t=None, v=None, expr: str | None = None):
        self.kind = kind
        if kind == "const":
            if value is None or not np.isfinite(value):
                raise ConfigError("const time function needs a finite 'value'")
            self.value = float(value)
        elif kind == "table":
            t = np.asarray(t, dtype=float)
            v = np.asarray(v, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 2:
                raise ConfigError("table time function needs matching 1-d arrays")
            if np.any(np.diff(t) <= 0.0) or t[0] > 0.0:
                raise ConfigError("table times must start at <= 0 and increase strictly")
            self.t, self.v = t, v
        elif kind == "expr":
            if not expr:
                raise ConfigError("expr time function needs an 'expr' string")
            self.expr = expr
            code = compile(expr, "<timefunction>", "eval")
            for name in code.co_names:
                if name not in _EXPR_NS and name != "s":
                    raise ConfigError(f"unknown name {name!r} in time function expression")
            self._code = code
        else:
            raise ConfigError(f"unknown time function kind {kind!r}")

    @classmethod
    def const(cls, value: float) -> "TimeFunction":
        return cls("const", value=value)

    @classmethod
    def table(cls, t, v) -> "TimeFunction":
        return cls("table", t=t, v=v)

    @classmethod
    def expression(cls, expr: str) -> "TimeFunction":
        return cls("expr", expr=expr)

    def __call__(self, s) -> np.ndarray:
        sa = np.asarray(s, dtype=float)
        if self.kind == "const":
            return np.full_like(sa, self.value)
        if self.kind == "table":
            return np.interp(sa, self.t, self.v)
        return np.broadcast_to(np.asarray(eval(self._code, {"__builtins__": {}},
                                               dict(_EXPR_NS, s=sa)), dtype=float),
                               sa.shape).copy()


@dataclass(frozen=True)
class DelayedDrift:
    """Callable delta = delta_hat o H^{-1} with derivative metadata.

    ``deriv_sup`` is the grid supremum of ``|alpha / beta^2|``, the exact
    formula for ``|delta'|``; ``lipschitz_bound`` is the coarser a-priori
    bound ``sup|alpha| / beta_floor^2``.
    """

    coeffs: "ProcessCoefficients"
    deriv_sup: float
    lipschitz_bound: float
    d2_estimate: float

    def __call__(self, x):
        return self.coeffs.delta(x)

    def derivative(self, x):
        c = self.coeffs
        t = c.clock_H_inv(x)
        return c.alpha(t) / c.beta(t) ** 2


class ProcessCoefficients:
    """Coefficients (G0, alpha, beta) with precomputed clock tables.

    The quadrature grid spans ``[0, T_phys]``.  When ``t_phys`` is omitted it
    is solved from ``H(T_phys) = h_target`` (callers pass
    ``h_target = 1.05 * L_g^2`` so the embedding bound stays in range).
    Instances are immutable after construction.
    """

    def __init__(self, G0: float, alpha: TimeFunction, beta: TimeFunction,
                 beta_floor: float, t_phys: float | None = None,
                 h_target: float | None = None, quad_points: int = MIN_QUAD_POINTS):
        if beta_floor <= 0.0:
            raise ConfigError("beta_floor must be positive")
        if t_phys is None:
            if h_target is None:
                raise ConfigError("either t_phys or h_target is required")
            # H grows with slope >= beta_floor^2, so this horizon reaches h_target
            t_upper = h_target / beta_floor**2 + 1e-9
            grid = np.linspace(0.0, t_upper, max(quad_points, MIN_QUAD_POINTS))
            h_tab = self._cumtrapz(grid, np.asarray(beta(grid))**2)
            if h_tab[-1] < h_target:
                raise ConfigError("internal horizon solve failed to reach target")
            t_phys = float(np.interp(h_target, h_tab, grid))
        if t_phys <= 0.0:
            raise ConfigError("T_phys must be positive")

        self.G0 = float(G0)
        self.alpha = alpha
        self.beta = beta
        self.beta_floor = float(beta_floor)
        self.t_phys = float(t_phys)

        n = max(quad_points, MIN_QUAD_POINTS)
        self._grid = np.linspace(0.0, self.t_phys, n)
        beta_vals = np.asarray(beta(self._grid), dtype=float)
        if np.any(np.abs(beta_vals) < self.beta_floor * (1.0 - 1e-12)):
            raise ConfigError("certified beta_floor violated on the quadrature grid")
        alpha_vals = np.asarray(alpha(self._grid), dtype=float)
        if np.any(~np.isfinite(alpha_vals)) or np.any(~np.isfinite(beta_vals)):
            raise ConfigError("alpha/beta must be finite on [0, T_phys]")
        self._h_tab = self._cumtrapz(self._grid, beta_vals**2)
        self._dhat_tab = self.G0 + self._cumtrapz(self._grid, alpha_vals)
        self.alpha_sup = float(np.abs(alpha_vals).max())
        self._delta_deriv_sup = float(np.abs(alpha_vals / beta_vals**2).max())

    @staticmethod
    def _cumtrapz(t: np.ndarray, f: np.ndarray) -> np.ndarray:
        out = np.zeros_like(f)
        out[1:] = np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))
        return out

    # -- clock ---------------------------------------------------------------

    @property
    def h_max(self) -> float:
        return float(self._h_tab[-1])

    def clock_H(self, t) -> np.ndarray | float:
        """H(t) = int_0^t beta^2; strictly increasing with slope >= beta_floor^2."""
        ta = np.asarray(t, dtype=float)
        if np.any(ta < -1e-12) or np.any(ta > self.t_phys * (1.0 + 1e-12)):
            raise DomainError(f"clock argument outside [0, {self.t_phys}]")
        res = np.interp(np.clip(ta, 0.0, self.t_phys), self._grid, self._h_tab)
        return float(res) if np.ndim(t) == 0 else res

    def clock_H_inv(self, x) -> np.ndarray | float:
        """Inverse clock by interpolation of the strictly increasing clock
        table (slope >= beta_floor^2); Lipschitz <= 1/beta_floor^2."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xa < -1e-12):
            raise DomainError("clock inverse argument must be non-negative")
        if np.any(xa > self.h_max * (1.0 + 1e-12)):
            overshoot = float(xa.max()) - self.h_max
            raise HorizonError(
                f"horizon too short: H(T_phys) = {self.h_max:.6g} < {float(xa.max()):.6g}",
                required_t_phys=self.t_phys + overshoot / self.beta_floor**2,
            )
        res = np.interp(xa, self._h_tab, self._grid)
        return float(res[0]) if np.ndim(x) == 0 else res

    # -- drift ---------------------------------------------------------------

    def delta_hat(self, t) -> np.ndarray | float:
        """delta_hat(t) = G0 + int_0^t alpha."""
        ta = np.asarray(t, dtype=float)
        if np.any(ta < -1e-12) or np.any(ta > self.t_phys * (1.0 + 1e-12)):
            raise DomainError(f"delta_hat argument outside [0, {self.t_phys}]")
        res = np.interp(np.clip(ta, 0.0, self.t_phys), self._grid, self._dhat_tab)
        return float(res) if np.ndim(t) == 0 else res

    def delta(self, x) -> np.ndarray | float:
        """Delayed drift delta(x) = delta_hat(H^{-1}(x))."""
        return self.delta_hat(self.clock_H_inv(x))

    def delayed_drift(self) -> DelayedDrift:
        """Package delta with its derivative bounds."""
        xs = np.linspace(0.0, self.h_max, 1025)
        dp = self.alpha(self.clock_H_inv(xs)) / self.beta(self.clock_H_inv(xs)) ** 2
        d2 = float(np.abs(np.diff(dp) / np.diff(xs)).max()) if xs.size > 1 else 0.0
        return DelayedDrift(
            coeffs=self,
            deriv_sup=self._delta_deriv_sup,
            lipschitz_bound=self.alpha_sup / self.beta_floor**2,
            d2_estimate=d2,
        )

"""Gaussian-process coefficients and the quadratic-variation clock.

The driving process is ``G_t = G0 + int_0^t alpha_s ds + int_0^t beta_s dW_s``
with deterministic time functions ``alpha`` and ``beta`` and ``inf |beta| > 0``.
Derived objects:

* clock ``H(t) = int_0^t beta_s^2 ds`` and its inverse (Lipschitz with
  constant ``1 / beta_floor^2``),
* accumulated drift ``delta_hat(t) = G0 + int_0^t alpha_s ds``,
* delayed drift ``delta = delta_hat o H^{-1}`` entering the terminal
  condition of the backward equation.

Integrals are trapezoid sums on a grid of ``MIN_QUAD_POINTS`` nodes;
the inverse clock interpolates the same table with the axes swapped (the
table is strictly increasing, so this is exact inversion of the piecewise
linear clock, kinks of tabulated ``beta^2`` included).
"""

from __future__ import annotations

import ast
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
_EXPR_FUNCS = {k for k, v in _EXPR_NS.items() if callable(v)}
_EXPR_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
             ast.Pow, ast.UAdd, ast.USub)


def _allowed(node: ast.AST) -> bool:
    """Whether ``node`` may appear in an expression: a numeric constant,
    ``s``, an ``_EXPR_NS`` name, arithmetic or a one-argument call of an
    ``_EXPR_NS`` function.  Such expressions act elementwise on ``s``."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Name):
        return node.id == "s" or node.id in _EXPR_NS
    if isinstance(node, (ast.UnaryOp, ast.BinOp)):
        return isinstance(node.op, _EXPR_OPS)
    if isinstance(node, ast.Call):
        # a numpy function's second positional argument is its out array
        return (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCS
                and len(node.args) == 1 and not node.keywords)
    # the root, and the operators and contexts of the nodes above
    return isinstance(node, (ast.Expression, ast.operator, ast.unaryop,
                             ast.Load))


class TimeFunction:
    """Deterministic function of time: constant, tabulated or expression.

    Tabulated functions are piecewise linear between the given nodes and are
    held constant beyond the last node.  Expressions are arithmetic on
    numbers, the variable ``s``, ``pi`` and ``e``, with one-argument calls of
    the ``_EXPR_NS`` functions, so they act elementwise on ``s``.
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
            try:
                tree = ast.parse(expr, mode="eval")
                code = compile(expr, "<timefunction>", "eval")
            except (SyntaxError, ValueError, RecursionError) as exc:
                raise ConfigError(f"time function expression does not "
                                  f"parse: {exc}") from None
            for node in ast.walk(tree):
                if not _allowed(node):
                    raise ConfigError(f"{ast.unparse(node)!r} is not allowed "
                                      f"in a time function expression")
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


def _tabulate(fn, grid: np.ndarray) -> np.ndarray:
    """``fn(grid)`` as floats.  An error of ``fn`` is a :class:`ConfigError`;
    a non-finite value is left to the callers' finiteness checks, so numpy
    does not warn about it."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(grid), dtype=float)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"time function fails on [0, T_phys]: {exc}") from None


@dataclass(frozen=True)
class DelayedDrift:
    """Callable delta = delta_hat o H^{-1} with its derivative bound.

    ``deriv_sup`` is the grid supremum of ``|alpha / beta^2|``, the exact
    formula for ``|delta'|``.
    """

    coeffs: "ProcessCoefficients"
    deriv_sup: float

    def __call__(self, x):
        return self.coeffs.delta(x)

    def derivative(self, x):
        c = self.coeffs
        t = c.clock_H_inv(x)
        return c.alpha(t) / c.beta(t) ** 2


class ProcessCoefficients:
    """Coefficients (G0, alpha, beta) with precomputed clock tables.

    The quadrature grid spans ``[0, T_phys]``, and ``t_phys`` solves
    ``H(T_phys) = h_target``: callers pass the solver's x2 box ``x2_hi``,
    which covers the embedding bound L_g^2.  A clock table that falls short
    of ``h_target`` ends at ``h_target``, so the box's top is inside the
    clock; an overshoot is kept.  ``beta_sup`` is the largest
    ``|beta|`` on that grid.  Instances are immutable after construction.
    An error raised while ``alpha`` or ``beta`` is tabulated is a
    :class:`ConfigError`.
    """

    def __init__(self, G0: float, alpha: TimeFunction, beta: TimeFunction,
                 beta_floor: float, h_target: float):
        if beta_floor <= 0.0 or h_target <= 0.0:
            raise ConfigError("beta_floor and h_target must be positive")
        # H grows with slope >= beta_floor^2, so this horizon reaches h_target
        t_upper = h_target / beta_floor**2 + 1e-9
        grid = np.linspace(0.0, t_upper, MIN_QUAD_POINTS)
        h_tab = self._cumtrapz(grid, _tabulate(beta, grid)**2)
        if h_tab[-1] < h_target:
            raise ConfigError("internal horizon solve failed to reach target")

        self.G0 = float(G0)
        self.alpha = alpha
        self.beta = beta
        self.beta_floor = float(beta_floor)
        self.t_phys = float(np.interp(h_target, h_tab, grid))

        self._grid = np.linspace(0.0, self.t_phys, MIN_QUAD_POINTS)
        beta_vals = _tabulate(beta, self._grid)
        if np.any(np.abs(beta_vals) < self.beta_floor * (1.0 - 1e-12)):
            raise ConfigError("certified beta_floor violated on the quadrature grid")
        alpha_vals = _tabulate(alpha, self._grid)
        if np.any(~np.isfinite(alpha_vals)) or np.any(~np.isfinite(beta_vals)):
            raise ConfigError("alpha/beta must be finite on [0, T_phys]")
        self._h_tab = self._cumtrapz(self._grid, beta_vals**2)
        # the table is built twice, to find T_phys and then on [0, T_phys],
        # and the two trapezoid rules differ, so the kept table can end
        # short of h_target.  Raising the last node only steepens the last
        # cell of H, so the certified bounds of H^{-1} and delta still hold
        if self._h_tab[-1] < h_target:
            self._h_tab[-1] = h_target
        self._dhat_tab = self.G0 + self._cumtrapz(self._grid, alpha_vals)
        self.beta_sup = float(np.abs(beta_vals).max())
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
        if not np.all((-1e-12 <= ta) & (ta <= self.t_phys * (1.0 + 1e-12))):
            raise DomainError(f"clock argument outside [0, {self.t_phys}]")
        res = np.interp(np.clip(ta, 0.0, self.t_phys), self._grid, self._h_tab)
        return float(res) if np.ndim(t) == 0 else res

    def clock_H_inv(self, x) -> np.ndarray | float:
        """Inverse clock by interpolation of the strictly increasing clock
        table (slope >= beta_floor^2); Lipschitz <= 1/beta_floor^2."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(xa >= -1e-12):
            raise DomainError("clock inverse argument must be non-negative")
        if np.any(xa > self.h_max * (1.0 + 1e-12)):
            raise HorizonError(f"horizon too short: H(T_phys) = {self.h_max!r} "
                               f"< {float(xa.max())!r}")
        res = np.interp(xa, self._h_tab, self._grid)
        return float(res[0]) if np.ndim(x) == 0 else res

    # -- drift ---------------------------------------------------------------

    def delta_hat(self, t) -> np.ndarray | float:
        """delta_hat(t) = G0 + int_0^t alpha."""
        ta = np.asarray(t, dtype=float)
        if not np.all((-1e-12 <= ta) & (ta <= self.t_phys * (1.0 + 1e-12))):
            raise DomainError(f"delta_hat argument outside [0, {self.t_phys}]")
        res = np.interp(np.clip(ta, 0.0, self.t_phys), self._grid, self._dhat_tab)
        return float(res) if np.ndim(t) == 0 else res

    def delta(self, x) -> np.ndarray | float:
        """Delayed drift delta(x) = delta_hat(H^{-1}(x))."""
        return self.delta_hat(self.clock_H_inv(x))

    def delayed_drift(self) -> DelayedDrift:
        """Package delta with its derivative bound."""
        return DelayedDrift(coeffs=self, deriv_sup=self._delta_deriv_sup)

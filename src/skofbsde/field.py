"""Backward grid solver for the Markovian decoupling field.

The field u(t, x1, x2) decouples the backward component from the forward pair
(X1, X2) with dX1 = dW and dX2 = Z^2 dt, where the control is identified with
the first spatial derivative, Z = du/dx1.  Ito calculus on Y = u(t, X1, X2)
with a driverless backward equation forces the quasilinear equation

    u_t + 1/2 u_{x1 x1} + chi(u_{x1})^2 u_{x2} = 0,
    u(1, x1, x2) = g(x1) - delta(x2),

where chi is a radial cutoff that must remain passive on valid solves.  This
PDE form is discretization plumbing: its validity is established against the
path-simulation oracle (backward residuals), not assumed.

Scheme: backward induction, implicit in the x1 diffusion (tridiagonal solve
per step), explicit in the x2 transport with one-sided differences in the
direction the state moves (X2 only increases), and a per-step fixed-point
loop over the gradient coupling.  The explicit part carries the step
restriction dt <= CFL_SAFETY * dx2 / L_g^2.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (ConfigError, ContractionError, CutoffActiveError,
                     DerivativeMismatchError, DomainError, NonLipschitzError)

__all__ = ["SolverConfig", "DecouplingField", "FieldDiagnostics", "BoundCheck",
           "terminal_layer", "solve_field", "derivative_fields", "eval_field",
           "field_diagnostics", "save_field", "load_field"]

CFL_SAFETY = 0.9
Z_BOUND_TOL = 1e-2          # tolerance on sup|u1| <= L_g
U2_BOUND_TOL = 1e-2         # tolerance on sup|u2| <= sup|delta'|
_FORMAT_TAG = "skofbsde-field"
_FORMAT_VERSION = 2
# peak memory of `skofbsde solve` above a process that only reads the
# config, in (nt+1) x nx1 x nx2 float64 arrays: 2.53 and 2.26 measured at
# 256x257x129 and 512x257x129 (u and u1; every check works one time layer
# at a time, and SciPy's import adds about 26 MB)
_SOLVE_PEAK_ARRAYS = 3


@dataclass(frozen=True)
class SolverConfig:
    """Grid and iteration parameters of the backward solve.

    ``nt`` counts time steps of the unit horizon (the time grid is
    ``np.linspace(0, 1, nt + 1)``); ``nx1`` and ``nx2`` count spatial nodes.  ``cutoff_H`` is the radius of the gradient
    cutoff and must lie strictly above the Lipschitz constant of g so the
    cutoff stays passive.  ``deriv_floor_eps`` is the lower clamp applied to
    u1 wherever it enters a denominator downstream.
    """

    nt: int = 256
    nx1: int = 257
    nx2: int = 129
    x1_lo: float = -6.0
    x1_hi: float = 6.0
    x2_hi: float = 1.05
    cutoff_H: float = 4.0
    fixpoint_tol: float = 1e-9
    fixpoint_max_iter: int = 200
    deriv_floor_eps: float = 1e-6

    @classmethod
    def defaults(cls, g_lipschitz: float, nt: int = 256, nx1: int = 257,
                 nx2: int = 129) -> "SolverConfig":
        """Spec defaults: x1 box [-6, 6] (Gaussian mass beyond < 1e-8),
        x2 box [0, 1.05 L_g^2] (forced by the X2 dynamics and the Z bound;
        the 5% margin is also the clock's horizon, ``H(T_phys) = x2_hi``),
        cutoff 4 max(L_g, 1)."""
        return cls(nt=nt, nx1=nx1, nx2=nx2, x1_lo=-6.0, x1_hi=6.0,
                   x2_hi=1.05 * g_lipschitz**2,
                   cutoff_H=4.0 * max(g_lipschitz, 1.0))

    def validate(self, g_lipschitz: float) -> None:
        if self.nt < 2 or self.nx1 < 2 or self.nx2 < 2:
            raise ConfigError("nt, nx1, nx2 must all be >= 2")
        if not self.x1_lo < self.x1_hi:
            raise ConfigError("x1_lo must be below x1_hi")
        if self.x2_hi < g_lipschitz**2 * (1.0 - 1e-12):
            raise ConfigError("x2_hi must cover L_g^2 (reachable set of X2)")
        if self.cutoff_H <= g_lipschitz:
            raise ConfigError("cutoff_H must exceed L_g for a passive cutoff")
        if self.fixpoint_tol <= 0.0 or self.fixpoint_max_iter < 1:
            raise ConfigError("invalid fixed-point parameters")
        if self.deriv_floor_eps <= 0.0:
            raise ConfigError("deriv_floor_eps must be positive")
        dt = 1.0 / self.nt
        dx2 = self.x2_hi / (self.nx2 - 1)
        if g_lipschitz > 0.0 and dt > CFL_SAFETY * dx2 / g_lipschitz**2 * (1.0 + 1e-12):
            nt_min = int(np.ceil(g_lipschitz**2 / (CFL_SAFETY * dx2)))
            raise ConfigError(
                f"time step violates the transport restriction "
                f"dt <= {CFL_SAFETY} * dx2 / L_g^2; use nt >= {nt_min}")
        need = _SOLVE_PEAK_ARRAYS * (self.nt + 1) * self.nx1 * self.nx2 * 8
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise ConfigError(
                f"solver grid needs about {need / 2**30:.3g} GiB of memory "
                f"at peak, more than the {have / 2**30:.3g} GiB of physical "
                f"memory; reduce nt, nx1 or nx2")


@dataclass
class BoundCheck:
    name: str
    measured: float
    bound: float
    tolerance: float
    passed: bool


@dataclass
class FieldDiagnostics:
    z_sup: float
    u2_sup: float
    min_u1_interior: float
    time_lip_u1: float
    L_ux: float
    d2x1_sup: float
    deriv_mismatch: float | None = None
    checks: list[BoundCheck] = dc_field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in
             ("z_sup", "u2_sup", "min_u1_interior", "time_lip_u1", "L_ux",
              "d2x1_sup", "deriv_mismatch")}
        d["checks"] = [vars(c) for c in self.checks]
        d["all_passed"] = self.all_passed
        return d


@dataclass
class DecouplingField:
    """Solved field ``u`` with its finite-difference x1 derivative ``u1``
    (the control Z, set by :func:`solve_field` and :func:`load_field`) and
    certified-bound metadata.

    The x2 derivative is not stored: the path side never reads it, and its
    two readers, the coupled check and the diagnostics, form it one time
    layer at a time.  The checks only read the field; the coupled check of
    :func:`derivative_fields` records its worst mismatch in
    ``deriv_mismatch``.
    """

    t_grid: np.ndarray
    x1_grid: np.ndarray
    x2_grid: np.ndarray
    u: np.ndarray
    u1: np.ndarray
    g_lipschitz: float
    delta_deriv_sup: float
    cutoff_H: float
    deriv_floor_eps: float
    deriv_mismatch: float | None = None


# ----------------------------------------------------------------------------
# difference operators
# ----------------------------------------------------------------------------

def _d2_up(w: np.ndarray, dx2: float) -> np.ndarray:
    """d/dx2 one-sided towards larger x2 (where information comes from in the
    backward sweep); the top row falls back to a difference from below."""
    out = np.empty_like(w)
    out[:, :-1] = (w[:, 1:] - w[:, :-1]) / dx2
    out[:, -1] = (w[:, -1] - w[:, -2]) / dx2
    return out


def _banded_matrix(nx1: int, a: float) -> np.ndarray:
    """I - (dt/2) D11 with zero-curvature boundary rows (u is asymptotically
    affine in x1 because g is Lipschitz)."""
    ab = np.zeros((3, nx1))
    ab[1, :] = 1.0 + 2.0 * a
    ab[1, 0] = ab[1, -1] = 1.0
    ab[0, 2:] = -a      # superdiagonal, none for boundary row 0
    ab[2, :-2] = -a     # subdiagonal, none for boundary row nx1-1
    return ab


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded``.  SciPy is imported on the first call,
    so the commands that never solve do not load it."""
    from scipy.linalg import solve_banded as scipy_solve_banded
    return scipy_solve_banded(l_and_u, ab, b)


# ----------------------------------------------------------------------------
# solver
# ----------------------------------------------------------------------------

def terminal_layer(g, delta, x1_grid, x2_grid) -> np.ndarray:
    """The terminal data u(1, x1, x2) = g(x1) - delta(x2) on the grid, the
    layer ``u[nt]`` of every field solved for ``g`` and ``delta``."""
    return np.subtract.outer(np.asarray(g(x1_grid)), np.asarray(delta(x2_grid)))


def solve_field(g, delta, cfg: SolverConfig) -> DecouplingField:
    """Backward induction for the decoupling field.

    ``g`` is a vectorized callable with attributes ``lipschitz`` (finite) and
    optionally ``non_lipschitz``; ``delta`` is a vectorized callable with
    attribute ``deriv_sup``.  Raises :class:`NonLipschitzError` for step-like
    transforms, :class:`ContractionError` when the per-step fixed point does
    not converge and :class:`CutoffActiveError` when the gradient cutoff
    binds.
    """
    L_g = getattr(g, "lipschitz", None)
    if L_g is None or not np.isfinite(L_g):
        raise NonLipschitzError("g has no finite Lipschitz constant")
    if getattr(g, "non_lipschitz", False):
        raise NonLipschitzError("g flagged non-Lipschitz (step quantile or tail blowup)")
    cfg.validate(L_g)

    nt, nx1, nx2 = cfg.nt, cfg.nx1, cfg.nx2
    t_grid = np.linspace(0.0, 1.0, nt + 1)
    x1 = np.linspace(cfg.x1_lo, cfg.x1_hi, nx1)
    x2 = np.linspace(0.0, cfg.x2_hi, nx2)
    dt = 1.0 / nt
    dx1 = x1[1] - x1[0]
    dx2 = x2[1] - x2[0]

    u = np.empty((nt + 1, nx1, nx2))
    u[nt] = terminal_layer(g, delta, x1, x2)

    ab = _banded_matrix(nx1, dt / (2.0 * dx1**2))

    for n in range(nt - 1, -1, -1):
        unext = u[n + 1]
        v2 = _d2_up(unext, dx2)
        w = unext
        residuals = []
        for _ in range(cfg.fixpoint_max_iter):
            z = _gradient_into(np.empty_like(w), w, dx1, axis=0)
            zc = np.clip(z, -cfg.cutoff_H, cfg.cutoff_H)
            rhs = unext + dt * (zc * zc) * v2
            unew = solve_banded((1, 1), ab, rhs)
            change = float(np.abs(unew - w).max())
            residuals.append(change)
            w = unew
            if change < cfg.fixpoint_tol:
                break
        else:
            raise ContractionError(
                f"contraction failure at t = {t_grid[n]:.6g} (nt = {nt}): "
                f"residual {residuals[-1]:.3e} after {cfg.fixpoint_max_iter} "
                f"iterations; a smaller time step helps, raise solver.nt",
                residuals=residuals)
        if np.abs(z).max() >= cfg.cutoff_H:
            raise CutoffActiveError(
                f"cutoff not passive at t = {t_grid[n]:.6g}: "
                f"max |z| = {np.abs(z).max():.6g} >= {cfg.cutoff_H:.6g}")
        u[n] = w

    u1 = _gradient_into(np.empty_like(u), u, dx1, axis=1)
    f = DecouplingField(
        t_grid=t_grid, x1_grid=x1, x2_grid=x2, u=u, u1=u1,
        g_lipschitz=float(L_g),
        delta_deriv_sup=float(getattr(delta, "deriv_sup", np.nan)),
        cutoff_H=cfg.cutoff_H, deriv_floor_eps=cfg.deriv_floor_eps)
    # max |u1| without building |u1|
    if max(u1.max(), -u1.min()) >= cfg.cutoff_H:
        raise CutoffActiveError("cutoff not passive: sup |u1| reached the cutoff radius")
    return f


def _gradient_into(out: np.ndarray, w: np.ndarray, dx: float,
                   axis: int) -> np.ndarray:
    """``out[...] = np.gradient(w, dx, axis=axis)``, bitwise, written through
    slices of ``out`` with no temporary: central differences inside,
    one-sided at both ends.  Returns ``out``."""
    def at(s):
        key = [slice(None)] * w.ndim
        key[axis] = s
        return tuple(key)

    inner = out[at(slice(1, -1))]
    np.subtract(w[at(slice(2, None))], w[at(slice(None, -2))], out=inner)
    np.divide(inner, 2.0 * dx, out=inner)
    for edge, hi, lo in ((0, 1, 0), (-1, -1, -2)):
        end = out[at(edge)]
        np.subtract(w[at(hi)], w[at(lo)], out=end)
        np.divide(end, dx, out=end)
    return out


def derivative_fields(f: DecouplingField, method: str = "finite_difference",
                      g=None, delta=None) -> DecouplingField:
    """Check the field's derivatives against the coupled linear system, or
    refill ``u1`` by finite differences.  Returns ``f``.

    ``coupled_system`` needs the terminal-derivative callables ``g`` and
    ``delta``.  It solves the linear backward equations satisfied by the
    derivative fields,

        v_t + 1/2 v_{x1 x1} + u1^2 v_{x2} + 2 u1 u2 v_{x1} = 0,

    with terminal data g'(x1) for the x1 derivative ``v1`` and -delta'(x2)
    for the x2 derivative ``v2``, in one loop from n = nt down to 0.  Each
    pass advances ``(v1, v2)`` with the coefficients of layer n + 1, frozen
    from the field's ``u1`` and the finite-difference x2 derivative ``u2``
    of ``u`` kept from the previous pass; it then forms the ``u2`` layer of
    n once, in a second layer buffer, and compares ``v1`` with ``u1[n]`` and
    ``v2`` with that layer.  The worst mismatch goes to ``f.deriv_mismatch``;
    no array of ``f`` is written and no field-sized array is made.  A
    mismatch above the fixed tolerance 10 (dt + dx1^2 + dx2), ten times the
    scheme's discretization error scale, raises
    :class:`DerivativeMismatchError` at the first (t, x1, x2) index, in C
    order, of the worst value.
    ``finite_difference`` drops ``f.u1`` and recomputes it from ``u`` with
    no temporaries: two field arrays unless the caller holds the old ``u1``.
    """
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    if method == "finite_difference":
        f.u1 = None
        f.u1 = _gradient_into(np.empty_like(f.u), f.u, dx1, axis=1)
        return f
    if method != "coupled_system":
        raise ConfigError(f"unknown derivative method {method!r}")
    if g is None or delta is None:
        raise ConfigError("coupled_system needs g and delta with .derivative")

    nt = f.t_grid.size - 1
    nx1, nx2 = f.x1_grid.size, f.x2_grid.size
    dt = f.t_grid[1] - f.t_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    ab = _banded_matrix(nx1, dt / (2.0 * dx1**2))
    mismatch_tol = 10.0 * (dt + dx1**2 + dx2)

    v1, v2, u2, u2_next, dv = np.empty((5, nx1, nx2))
    v1[...] = np.asarray(g.derivative(f.x1_grid))[:, None]
    v2[...] = -np.asarray(delta.derivative(f.x2_grid))[None, :]
    # compare away from one-sided stencils and the top transport row; per
    # derivative keep the worst value and its flat C-order index in the
    # (t, x1, x2) inner block.  Layers arrive from t = T down, so a later
    # layer wins a tie (smaller t index) and the first NaN in C order wins
    inner = (slice(1, -1), slice(None, -1))
    diff = np.empty((nx1 - 2, nx2 - 1))
    worst_of = [(-np.inf, 0), (-np.inf, 0)]
    for n in range(nt, -1, -1):
        if n < nt:
            zc = np.clip(f.u1[n + 1], -f.cutoff_H, f.cutoff_H)
            a_coef = zc * zc
            b_coef = 2.0 * f.u1[n + 1] * u2_next
            v1, v2 = [solve_banded((1, 1), ab, vn + dt * (
                          a_coef * _d2_up(vn, dx2)
                          + b_coef * _gradient_into(dv, vn, dx1, axis=0)))
                      for vn in (v1, v2)]
        _gradient_into(u2, f.u[n], dx2, axis=1)
        for k, (v, u_fd) in enumerate(((v1, f.u1[n]), (v2, u2))):
            np.subtract(v[inner], u_fd[inner], out=diff)
            np.abs(diff, out=diff)
            i = int(diff.argmax())
            m = diff.flat[i]
            if np.isnan(m) or m >= worst_of[k][0]:
                worst_of[k] = (m, n * diff.size + i)
        u2, u2_next = u2_next, u2
    (m1, i1), (m2, i2) = worst_of
    m1, m2 = float(m1), float(m2)
    worst = max(m1, m2)
    if worst > mismatch_tol:
        flat = i1 if m1 >= m2 else i2
        loc = np.unravel_index(flat, (f.t_grid.size,) + diff.shape)
        raise DerivativeMismatchError(
            f"derivative methods disagree by {worst:.3e} > {mismatch_tol:.3e} "
            f"at (t, x1, x2) index {loc}",
            location=loc, discrepancy=worst)
    f.deriv_mismatch = worst
    return f


# ----------------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------------

def eval_field(f: DecouplingField, t, x1, x2,
               which: str | tuple[str, ...] = "u"):
    """Trilinear interpolation.

    At a grid node each component returns the stored value up to rounding,
    not always bitwise: a cell weight ``(q - q_lo) / dq`` that should be 0 or
    1 can come out one ulp off.

    t must lie in [0, 1].  x1 queries outside the box extrapolate linearly
    for ``u`` (the field is asymptotically affine) and clamp for the
    derivative fields (their certified bounds must not be amplified).  x2
    clamps on both sides.  ``which`` names one component (``"u"`` or
    ``"u1"``) or is a tuple of names; a tuple returns a tuple of results
    read off one shared stencil.  Any other name, ``"u2"`` included (the
    field stores no x2 derivative), raises :class:`DomainError`.
    """
    single = isinstance(which, str)
    comps = {"u": f.u, "u1": f.u1}
    names = (which,) if single else which
    try:
        arrs = [comps[name] for name in names]
    except (KeyError, TypeError):
        raise DomainError(f"unknown field component {which!r}") from None

    x1q = np.asarray(x1, dtype=float)
    x2q = np.asarray(x2, dtype=float)
    nt1, nx1, nx2 = f.u.shape
    dt = float(f.t_grid[1] - f.t_grid[0])
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]

    # cell index and weight of each coordinate at that coordinate's own
    # shape; a scalar time stays a Python float
    if np.ndim(t) == 0:
        tq = float(t)
        if not -1e-12 <= tq <= 1.0 + 1e-12:
            raise DomainError("time query outside [0, 1]")
        it = min(max(int(tq / dt), 0), nt1 - 2)
        wt = min(max((tq - float(f.t_grid[it])) / dt, 0.0), 1.0)
    else:
        tq = np.asarray(t, dtype=float)
        if not np.all((-1e-12 <= tq) & (tq <= 1.0 + 1e-12)):
            raise DomainError("time query outside [0, 1]")
        it = np.minimum(np.maximum(0, (tq / dt).astype(int)), nt1 - 2)
        wt = np.minimum(np.maximum(0.0, (tq - f.t_grid[it]) / dt), 1.0)
    scalar = np.ndim(tq) == 0 and x1q.ndim == 0 and x2q.ndim == 0
    i1 = np.minimum(np.maximum(0, ((x1q - f.x1_grid[0]) / dx1).astype(int)),
                    nx1 - 2)
    w1 = (x1q - f.x1_grid[i1]) / dx1
    i2 = np.minimum(np.maximum(0, (x2q / dx2).astype(int)), nx2 - 2)
    w2 = np.minimum(np.maximum(0.0, (x2q - f.x2_grid[i2]) / dx2), 1.0)
    # u extrapolates in x1 on the raw weight, u1 clamps to the box edge
    w1_clip = (np.minimum(np.maximum(0.0, w1), 1.0)
               if any(name != "u" for name in names) else None)

    # flat indices of the 8 corners, row 4*ot + 2*o2 + o1 for offset
    # (ot, o1, o2): x1 pairs are adjacent rows, x2 pairs rows two apart
    base = (it * nx1 + i1) * nx2 + i2
    s0 = nx1 * nx2
    offsets = np.array([0, nx2, 1, nx2 + 1, s0, s0 + nx2, s0 + 1, s0 + nx2 + 1])
    idx = np.add.outer(offsets, base)
    a2, at = 1 - w2, 1 - wt

    out = []
    for name, arr in zip(names, arrs):
        w = w1 if name == "u" else w1_clip
        v = np.take(arr.reshape(-1), idx)
        c = v[0::2] * (1 - w) + v[1::2] * w
        d = c[0::2] * a2 + c[1::2] * w2
        res = d[0] * at + d[1] * wt
        out.append(float(res) if scalar else res)
    return out[0] if single else tuple(out)


# ----------------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------------

def field_diagnostics(f: DecouplingField, g=None, delta=None) -> FieldDiagnostics:
    """Measure the certified bounds on the solved field; the field is only
    read, one time layer at a time, so no field-sized array is made.  The
    x2 derivative of each layer is formed with the stencil of ``u1``.

    Failures are reported in the ``checks`` list, never raised.
    ``deriv_mismatch`` is copied from the field, so run the coupled check
    first to have it reported.
    """
    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]

    # per-layer extrema, reduced at the end; max and min are exact and
    # propagate a NaN, so the results equal the whole-array reductions
    nt1 = f.u.shape[0]
    u2 = np.empty(f.u.shape[1:])
    stats = np.empty((7, nt1))
    z_abs, u2_abs, u1_min, u1_step, ux1, ux2, ux1x1 = stats
    u1_min[-1] = np.inf     # u1 at T is not interior
    u1_step[-1] = -np.inf
    for n in range(nt1):
        u, u1 = f.u[n], f.u1[n]
        z_abs[n] = np.abs(u1).max()
        u2_abs[n] = np.abs(_gradient_into(u2, u, dx2, axis=1)).max()
        if n + 1 < nt1:
            u1_min[n] = u1.min()
            u1_step[n] = np.abs(f.u1[n + 1] - u1).max()
        ux1[n] = np.abs(u[1:] - u[:-1]).max()
        ux2[n] = np.abs(u[:, 1:] - u[:, :-1]).max()
        ux1x1[n] = np.abs(u[2:] - 2.0 * u[1:-1] + u[:-2]).max()
    z_sup = float(z_abs.max())
    u2_sup = float(u2_abs.max())
    min_u1_interior = float(u1_min.min())
    time_lip_u1 = float(u1_step.max() / dt)
    L_ux = max(float(ux1.max() / dx1), float(ux2.max() / dx2))
    d2x1_sup = float(ux1x1.max() / dx1**2)

    L_g = f.g_lipschitz if g is None else float(g.lipschitz)
    d_sup = f.delta_deriv_sup if delta is None else float(delta.deriv_sup)

    checks = [
        BoundCheck("z_sup <= L_g + tol", z_sup, L_g, Z_BOUND_TOL,
                   z_sup <= L_g + Z_BOUND_TOL),
        BoundCheck("u2_sup <= sup|delta'| + tol", u2_sup, d_sup, U2_BOUND_TOL,
                   (not np.isfinite(d_sup)) or u2_sup <= d_sup + U2_BOUND_TOL),
        BoundCheck("min u1 (t < T) > 0", min_u1_interior, 0.0, 0.0,
                   min_u1_interior > 0.0),
        BoundCheck("cutoff passive: z_sup < cutoff_H", z_sup, f.cutoff_H, 0.0,
                   z_sup < f.cutoff_H),
    ]
    return FieldDiagnostics(z_sup=z_sup, u2_sup=u2_sup,
                            min_u1_interior=min_u1_interior,
                            time_lip_u1=time_lip_u1, L_ux=L_ux,
                            d2x1_sup=d2x1_sup, checks=checks,
                            deriv_mismatch=f.deriv_mismatch)


# ----------------------------------------------------------------------------
# export / import: CSV matrix of u, JSON sidecar with grids and metadata
# ----------------------------------------------------------------------------

_VALUES_PER_WRITE = 2**16    # values formatted per write of the CSV
# fields of fewer CSV rows are saved and loaded in one process
_SPLIT_MIN_ROWS = 4096


def sidecar_path(path: str) -> str:
    return path[: path.rfind(".")] + ".json" if "." in path.rsplit("/", 1)[-1] \
        else path + ".json"


def save_field(f: DecouplingField, path: str,
               diagnostics: FieldDiagnostics | None = None) -> None:
    """Write ``u`` as a text CSV matrix plus a JSON sidecar.

    The CSV holds ``u`` only: one row of nx2 comma-separated values per
    (t, x1) pair, t outer, x1 middle, so (nt + 1) * nx1 rows.  Floats are
    written with shortest round-trip precision, so save/load is exact.  The
    sidecar holds the format tag and version, the shape, the three grids as
    exact JSON lists, the bound metadata and ``diagnostics`` (``null`` when
    none are given).

    ``u1`` is not stored: :func:`load_field` recomputes it with the same
    finite-difference stencil as :func:`solve_field`.

    On two CPUs a large field is formatted in two halves by ``run_halves``:
    the upper rows go to a sibling temporary file in the child process and
    are then appended to ``path``; the temporary file is removed also when
    the save fails.  The bytes written do not depend on the split.
    """
    from .fbsde import run_halves       # fbsde imports this module
    nt1, nx1, nx2 = f.u.shape
    rows = f.u.reshape(nt1 * nx1, nx2)
    step = max(1, _VALUES_PER_WRITE // nx2)
    upper = f"{path}.{os.getpid()}.part"

    def write(lo: int, hi: int) -> None:
        with open(path if lo == 0 else upper, "w") as fh:
            for start in range(lo, hi, step):
                fh.write("".join(",".join(map(repr, row)) + "\n" for row in
                                 rows[start:min(start + step, hi)].tolist()))

    try:
        if len(run_halves(rows.shape[0], write, _SPLIT_MIN_ROWS)) == 2:
            with open(upper, "rb") as src, open(path, "ab") as dst:
                shutil.copyfileobj(src, dst, 1 << 20)
    finally:
        if os.path.exists(upper):
            os.remove(upper)
    meta = {
        "format": _FORMAT_TAG,
        "version": _FORMAT_VERSION,
        "shape": [nt1, nx1, nx2],
        "t_grid": f.t_grid.tolist(),
        "x1_grid": f.x1_grid.tolist(),
        "x2_grid": f.x2_grid.tolist(),
        "g_lipschitz": f.g_lipschitz,
        "delta_deriv_sup": f.delta_deriv_sup,
        "cutoff_H": f.cutoff_H,
        "deriv_floor_eps": f.deriv_floor_eps,
        "diagnostics": diagnostics.to_dict() if diagnostics else None,
    }
    with open(sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_sidecar(path: str) -> dict:
    side = sidecar_path(path)
    try:
        with open(side) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field sidecar {side}: {exc}") from None
    if not isinstance(meta, dict) or meta.get("format") != _FORMAT_TAG:
        raise ConfigError(f"not a {_FORMAT_TAG} sidecar: {side}")
    if meta.get("version") != _FORMAT_VERSION:
        raise ConfigError(
            f"{side} is field format version {meta.get('version')}, this "
            f"program reads version {_FORMAT_VERSION}; re-run skofbsde solve")
    return meta


def _read_rows(path: str, lo: int, hi: int | None) -> np.ndarray:
    """Rows [lo, hi) of the CSV at ``path`` (to its end when ``hi`` is
    ``None``), or fewer where it ends.

    Above row 0 the row before ``lo`` is parsed too and dropped, so that a
    column count that changes at ``lo`` is reported as a whole-file read
    reports it; the row numbers in a ``ValueError`` count from the top of
    the file.  An empty part is not warned about: the caller's shape check
    reports it.
    """
    skip = max(lo - 1, 0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            part = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip,
                              max_rows=None if hi is None else hi - skip)
    except ValueError as exc:
        raise ValueError(re.sub(r"at row (\d+)",
                                lambda m: f"at row {int(m[1]) + skip}",
                                str(exc))) from None
    return part[lo - skip:]


def load_field(path: str) -> DecouplingField:
    """Read a field written by :func:`save_field`; ``u1`` is recomputed with
    the finite-difference stencil.  A missing, malformed, mis-shaped or
    non-finite file raises :class:`ConfigError`, and so do grids that
    :func:`solve_field` does not make (and :func:`eval_field` assumes): each
    is ``np.linspace`` of its increasing end points, t from 0 to 1, x2 from 0.

    On two CPUs a large file is parsed in two halves by ``run_halves``, the
    upper one in the child process, and both are copied into one array.
    The checks and their messages do not depend on the split."""
    meta = _read_sidecar(path)
    try:
        grids = [np.array(meta[k], dtype=float)
                 for k in ("t_grid", "x1_grid", "x2_grid")]
        shape = tuple(int(n) for n in meta["shape"])
        scalars = {k: float(meta[k]) for k in ("g_lipschitz", "delta_deriv_sup",
                                              "cutoff_H", "deriv_floor_eps")}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed field sidecar for {path}: "
                          f"{exc!r}") from None
    if tuple(g.size for g in grids) != shape:
        raise ConfigError(f"field sidecar for {path}: grid sizes do not match "
                          f"shape {shape}")
    if not (all(g.ndim == 1 and g.size >= 2 and g[0] < g[-1]
                and np.array_equal(g, np.linspace(g[0], g[-1], g.size))
                for g in grids)
            and (grids[0][0], grids[0][-1], grids[2][0]) == (0.0, 1.0, 0.0)):
        raise ConfigError(f"field sidecar for {path}: grids must be uniform "
                          f"and increasing, with t from 0 to 1 and x2 from 0")
    from .fbsde import run_halves       # fbsde imports this module
    expected = (shape[0] * shape[1], shape[2])
    try:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            complete = fh.read(1) == b"\n"
        parts = run_halves(expected[0], lambda lo, hi: _read_rows(
            path, lo, hi if hi < expected[0] else None), _SPLIT_MIN_ROWS)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from None
    n_read = sum(p.shape[0] for p in parts)
    if (not complete or n_read != expected[0]
            or any(p.shape[1] != expected[1] for p in parts)):
        raise ConfigError(f"field file {path} is truncated or mis-shaped: "
                          f"{n_read} x {parts[0].shape[1]} values, expected "
                          f"{expected[0]} x {expected[1]}")
    if len(parts) == 1:
        u = parts.pop()
    else:
        # one array for the two halves: each is released once copied
        u = np.empty(expected)
        h = parts[0].shape[0]
        u[:h] = parts.pop(0)
        u[h:] = parts.pop()
    # min and max see every NaN and inf without a field-sized temporary
    if not (np.isfinite(u.min()) and np.isfinite(u.max())):
        raise ConfigError(f"field file {path} has a non-finite value")
    u = u.reshape(shape)
    u1 = _gradient_into(np.empty_like(u), u, grids[1][1] - grids[1][0], axis=1)
    return DecouplingField(t_grid=grids[0], x1_grid=grids[1], x2_grid=grids[2],
                           u=u, u1=u1, **scalars)

"""Backward grid solver for the Markovian decoupling field.

The field u(t, x1, x2) decouples the backward component from the forward pair
(X1, X2) with dX1 = dW and dX2 = Z^2 dt, where the control is identified with
the first spatial derivative, Z = du/dx1.  Ito calculus on Y = u(t, X1, X2)
with a driverless backward equation forces the quasilinear equation

    u_t + 1/2 u_{x1 x1} + chi(u_{x1})^2 u_{x2} = 0,
    u(T, x1, x2) = g(x1) - delta(x2),

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
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import solve_banded

from .errors import (ConfigError, ContractionError, CutoffActiveError,
                     DerivativeMismatchError, DomainError, NonLipschitzError)

__all__ = ["SolverConfig", "DecouplingField", "FieldDiagnostics", "BoundCheck",
           "solve_field", "derivative_fields", "eval_field",
           "field_diagnostics", "save_field", "load_field"]

CFL_SAFETY = 0.9
Z_BOUND_TOL = 1e-2          # tolerance on sup|u1| <= L_g
U2_BOUND_TOL = 1e-2         # tolerance on sup|u2| <= sup|delta'|
_FORMAT_TAG = "skofbsde-field"
_FORMAT_VERSION = 2


@dataclass(frozen=True)
class SolverConfig:
    """Grid and iteration parameters of the backward solve.

    ``nt`` counts time steps (the time grid has nt + 1 nodes); ``nx1`` and
    ``nx2`` count spatial nodes.  ``cutoff_H`` is the radius of the gradient
    cutoff and must lie strictly above the Lipschitz constant of g so the
    cutoff stays passive.  ``deriv_floor_eps`` is the lower clamp applied to
    u1 wherever it enters a denominator downstream.
    """

    T: float = 1.0
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
    def defaults(cls, g_lipschitz: float, T: float = 1.0, nt: int = 256,
                 nx1: int = 257, nx2: int = 129) -> "SolverConfig":
        """Spec defaults: x1 box +-6 sqrt(T) (Gaussian mass beyond < 1e-8),
        x2 box 1.05 L_g^2 T (forced by the X2 dynamics and the Z bound),
        cutoff 4 max(L_g, 1)."""
        half = 6.0 * np.sqrt(T)
        return cls(T=T, nt=nt, nx1=nx1, nx2=nx2,
                   x1_lo=-half, x1_hi=half,
                   x2_hi=1.05 * g_lipschitz**2 * T,
                   cutoff_H=4.0 * max(g_lipschitz, 1.0))

    def validate(self, g_lipschitz: float) -> None:
        if self.T <= 0.0:
            raise ConfigError("T must be positive")
        if self.nt < 2 or self.nx1 < 2 or self.nx2 < 2:
            raise ConfigError("nt, nx1, nx2 must all be >= 2")
        if not self.x1_lo < self.x1_hi:
            raise ConfigError("x1_lo must be below x1_hi")
        if self.x2_hi < g_lipschitz**2 * self.T * (1.0 - 1e-12):
            raise ConfigError("x2_hi must cover L_g^2 * T (reachable set of X2)")
        if self.cutoff_H <= g_lipschitz:
            raise ConfigError("cutoff_H must exceed L_g for a passive cutoff")
        if self.fixpoint_tol <= 0.0 or self.fixpoint_max_iter < 1:
            raise ConfigError("invalid fixed-point parameters")
        if self.deriv_floor_eps <= 0.0:
            raise ConfigError("deriv_floor_eps must be positive")
        dt = self.T / self.nt
        dx2 = self.x2_hi / (self.nx2 - 1)
        if g_lipschitz > 0.0 and dt > CFL_SAFETY * dx2 / g_lipschitz**2 * (1.0 + 1e-12):
            nt_min = int(np.ceil(self.T * g_lipschitz**2 / (CFL_SAFETY * dx2)))
            raise ConfigError(
                f"time step violates the transport restriction "
                f"dt <= {CFL_SAFETY} * dx2 / L_g^2; use nt >= {nt_min}")


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
    """Solved field with first derivatives and certified-bound metadata.

    Treated as immutable once returned by :func:`solve_field`; safe to share
    read-only across parallel workers.
    """

    t_grid: np.ndarray
    x1_grid: np.ndarray
    x2_grid: np.ndarray
    u: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    g_lipschitz: float
    delta_deriv_sup: float
    cutoff_H: float
    deriv_floor_eps: float
    diagnostics: FieldDiagnostics | None = None
    deriv_mismatch: float | None = None

    @property
    def T(self) -> float:
        return float(self.t_grid[-1])

    def eval(self, t, x1, x2, which: str | tuple[str, ...] = "u"):
        return eval_field(self, t, x1, x2, which)


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


# ----------------------------------------------------------------------------
# solver
# ----------------------------------------------------------------------------

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
    t_grid = np.linspace(0.0, cfg.T, nt + 1)
    x1 = np.linspace(cfg.x1_lo, cfg.x1_hi, nx1)
    x2 = np.linspace(0.0, cfg.x2_hi, nx2)
    dt = cfg.T / nt
    dx1 = x1[1] - x1[0]
    dx2 = x2[1] - x2[0]

    u = np.empty((nt + 1, nx1, nx2))
    u[nt] = np.asarray(g(x1))[:, None] - np.asarray(delta(x2))[None, :]

    ab = _banded_matrix(nx1, dt / (2.0 * dx1**2))

    for n in range(nt - 1, -1, -1):
        unext = u[n + 1]
        v2 = _d2_up(unext, dx2)
        w = unext
        residuals = []
        for _ in range(cfg.fixpoint_max_iter):
            z = np.gradient(w, dx1, axis=0)
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
                f"contraction failure at t = {t_grid[n]:.6g}: "
                f"residual {residuals[-1]:.3e} after {cfg.fixpoint_max_iter} iterations",
                residuals=residuals)
        if np.abs(z).max() >= cfg.cutoff_H:
            raise CutoffActiveError(
                f"cutoff not passive at t = {t_grid[n]:.6g}: "
                f"max |z| = {np.abs(z).max():.6g} >= {cfg.cutoff_H:.6g}")
        u[n] = w

    u1, u2 = _fd_derivatives(u, x1, x2)
    f = DecouplingField(
        t_grid=t_grid, x1_grid=x1, x2_grid=x2, u=u, u1=u1, u2=u2,
        g_lipschitz=float(L_g),
        delta_deriv_sup=float(getattr(delta, "deriv_sup", np.nan)),
        cutoff_H=cfg.cutoff_H, deriv_floor_eps=cfg.deriv_floor_eps)
    if np.abs(f.u1).max() >= cfg.cutoff_H:
        raise CutoffActiveError("cutoff not passive: sup |u1| reached the cutoff radius")
    return f


def _fd_derivatives(u: np.ndarray, x1_grid: np.ndarray, x2_grid: np.ndarray):
    """(u1, u2) of u: central differences inside, one-sided at the box
    edges.  This is the stencil ``solve`` keeps and ``load_field`` redoes."""
    return np.gradient(u, x1_grid[1] - x1_grid[0], x2_grid[1] - x2_grid[0],
                       axis=(1, 2))


def _coupled_system_derivatives(f: DecouplingField, g, delta):
    """Layer-by-layer solve of the linear backward equations satisfied by the
    derivative fields, with transport/advection coefficients frozen from the
    base solve:

        v_t + 1/2 v_{x1 x1} + u1^2 v_{x2} + 2 u1 u2 v_{x1} = 0,

    terminal data g'(x1) for the x1 derivative and -delta'(x2) for the x2
    derivative.
    """
    nt = f.t_grid.size - 1
    nx1, nx2 = f.x1_grid.size, f.x2_grid.size
    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    ab = _banded_matrix(nx1, dt / (2.0 * dx1**2))

    v1 = np.empty_like(f.u)
    v2f = np.empty_like(f.u)
    v1[nt] = np.broadcast_to(np.asarray(g.derivative(f.x1_grid))[:, None], (nx1, nx2))
    v2f[nt] = np.broadcast_to(-np.asarray(delta.derivative(f.x2_grid))[None, :], (nx1, nx2))

    for n in range(nt - 1, -1, -1):
        zc = np.clip(f.u1[n + 1], -f.cutoff_H, f.cutoff_H)
        a_coef = zc * zc
        b_coef = 2.0 * f.u1[n + 1] * f.u2[n + 1]
        for v in (v1, v2f):
            vn = v[n + 1]
            rhs = vn + dt * (a_coef * _d2_up(vn, dx2)
                             + b_coef * np.gradient(vn, dx1, axis=0))
            v[n] = solve_banded((1, 1), ab, rhs)
    return v1, v2f


def derivative_fields(f: DecouplingField, method: str = "finite_difference",
                      g=None, delta=None,
                      mismatch_tol: float | None = None) -> DecouplingField:
    """Fill u1, u2 either by finite differences or by the coupled linear
    system; the two must agree.

    ``coupled_system`` requires the terminal-derivative callables ``g`` and
    ``delta``.  The agreement tolerance defaults to 10x the grid tolerance
    dt + dx1^2 + dx2.  Returns the (mutated) field for convenience.
    """
    if method == "finite_difference":
        f.u1, f.u2 = _fd_derivatives(f.u, f.x1_grid, f.x2_grid)
        return f
    if method != "coupled_system":
        raise ConfigError(f"unknown derivative method {method!r}")
    if g is None or delta is None:
        raise ConfigError("coupled_system needs g and delta with .derivative")

    # the coupled system freezes its coefficients from the FD derivatives
    f.u1, f.u2 = u1_fd, u2_fd = _fd_derivatives(f.u, f.x1_grid, f.x2_grid)
    v1, v2 = _coupled_system_derivatives(f, g, delta)

    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    if mismatch_tol is None:
        mismatch_tol = 10.0 * (dt + dx1**2 + dx2)
    # compare away from one-sided stencils and the top transport row
    diff1 = np.abs(v1[:, 1:-1, :-1] - u1_fd[:, 1:-1, :-1])
    diff2 = np.abs(v2[:, 1:-1, :-1] - u2_fd[:, 1:-1, :-1])
    worst = max(float(diff1.max()), float(diff2.max()))
    if worst > mismatch_tol:
        which = diff1 if diff1.max() >= diff2.max() else diff2
        loc = np.unravel_index(int(which.argmax()), which.shape)
        raise DerivativeMismatchError(
            f"derivative methods disagree by {worst:.3e} > {mismatch_tol:.3e} "
            f"at (t, x1, x2) index {loc}",
            location=loc, discrepancy=worst)
    f.u1, f.u2 = v1, v2
    f.deriv_mismatch = worst
    if f.diagnostics is not None:
        f.diagnostics.deriv_mismatch = worst
    return f


# ----------------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------------

def eval_field(f: DecouplingField, t, x1, x2,
               which: str | tuple[str, ...] = "u"):
    """Trilinear interpolation, exact at nodes.

    t must lie in [0, T].  x1 queries outside the box extrapolate linearly
    for ``u`` (the field is asymptotically affine) and clamp for the
    derivative fields (their certified bounds must not be amplified).  x2
    clamps on both sides.  ``which`` names one component (``"u"``, ``"u1"``
    or ``"u2"``) or is a tuple of names; a tuple returns a tuple of results
    read off one shared stencil.
    """
    single = isinstance(which, str)
    comps = {"u": f.u, "u1": f.u1, "u2": f.u2}
    names = (which,) if single else which
    try:
        arrs = [comps[name] for name in names]
    except (KeyError, TypeError):
        raise DomainError(f"unknown field component {which!r}") from None

    T = f.T
    tq = np.asarray(t, dtype=float)
    x1q = np.asarray(x1, dtype=float)
    x2q = np.asarray(x2, dtype=float)
    if np.any(tq < -1e-12) or np.any(tq > T * (1.0 + 1e-12)):
        raise DomainError(f"time query outside [0, {T}]")
    scalar = tq.ndim == 0 and x1q.ndim == 0 and x2q.ndim == 0

    # cell index and weight of each coordinate at that coordinate's own shape
    nt1, nx1, nx2 = f.u.shape
    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    it = np.clip((tq / dt).astype(int), 0, nt1 - 2)
    wt = np.clip((tq - f.t_grid[it]) / dt, 0.0, 1.0)
    i1 = np.clip(((x1q - f.x1_grid[0]) / dx1).astype(int), 0, nx1 - 2)
    w1 = (x1q - f.x1_grid[i1]) / dx1
    i2 = np.clip((x2q / dx2).astype(int), 0, nx2 - 2)
    w2 = np.clip((x2q - f.x2_grid[i2]) / dx2, 0.0, 1.0)
    w1_clip = np.clip(w1, 0.0, 1.0)

    # flat indices of the 8 corners, row 4*ot + 2*o2 + o1 for offset
    # (ot, o1, o2): x1 pairs are adjacent rows, x2 pairs rows two apart
    base = (it * nx1 + i1) * nx2 + i2
    s0 = nx1 * nx2
    offsets = np.array([0, nx2, 1, nx2 + 1, s0, s0 + nx2, s0 + 1, s0 + nx2 + 1])
    idx = base + offsets.reshape((8,) + (1,) * np.ndim(base))
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
    """Measure the certified bounds on the solved field.

    Failures are reported in the ``checks`` list, never raised.
    """
    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]

    z_sup = float(np.abs(f.u1).max())
    u2_sup = float(np.abs(f.u2).max())
    min_u1_interior = float(f.u1[:-1].min())
    time_lip_u1 = float(np.abs(np.diff(f.u1, axis=0)).max() / dt)
    L_ux = max(float(np.abs(np.diff(f.u, axis=1)).max() / dx1),
               float(np.abs(np.diff(f.u, axis=2)).max() / dx2))
    d2x1_sup = float(np.abs(f.u[:, 2:, :] - 2.0 * f.u[:, 1:-1, :]
                            + f.u[:, :-2, :]).max() / dx1**2)

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
    diag = FieldDiagnostics(z_sup=z_sup, u2_sup=u2_sup,
                            min_u1_interior=min_u1_interior,
                            time_lip_u1=time_lip_u1, L_ux=L_ux,
                            d2x1_sup=d2x1_sup, checks=checks,
                            deriv_mismatch=f.deriv_mismatch)
    f.diagnostics = diag
    return diag


# ----------------------------------------------------------------------------
# export / import: CSV matrix of u, JSON sidecar with grids and metadata
# ----------------------------------------------------------------------------

_ROWS_PER_WRITE = 4096


def sidecar_path(path: str) -> str:
    return path[: path.rfind(".")] + ".json" if "." in path.rsplit("/", 1)[-1] \
        else path + ".json"


def save_field(f: DecouplingField, path: str) -> None:
    """Write ``u`` as a text CSV matrix plus a JSON sidecar.

    The CSV holds ``u`` only: one row of nx2 comma-separated values per
    (t, x1) pair, t outer, x1 middle, so (nt + 1) * nx1 rows.  Floats are
    written with shortest round-trip precision, so save/load is exact.  The
    sidecar holds the format tag and version, the shape, the three grids as
    exact JSON lists, the bound metadata and the diagnostics.

    ``u1`` and ``u2`` are not stored: :func:`load_field` recomputes them with
    the finite-difference stencil, which is what ``skofbsde solve`` keeps.
    A field carrying coupled-system derivatives reloads with FD ones.
    """
    nt1, nx1, nx2 = f.u.shape
    rows = f.u.reshape(nt1 * nx1, nx2)
    with open(path, "w") as fh:
        for start in range(0, rows.shape[0], _ROWS_PER_WRITE):
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in
                             rows[start:start + _ROWS_PER_WRITE].tolist()))
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
        "diagnostics": f.diagnostics.to_dict() if f.diagnostics else None,
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


def load_field(path: str) -> DecouplingField:
    """Read a field written by :func:`save_field`; ``u1`` and ``u2`` are
    recomputed with the finite-difference stencil.  A missing, malformed or
    mis-shaped file raises :class:`ConfigError`."""
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
    try:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            complete = fh.read(1) == b"\n"
        u = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from None
    expected = (shape[0] * shape[1], shape[2])
    if not complete or u.shape != expected:
        raise ConfigError(f"field file {path} is truncated or mis-shaped: "
                          f"{u.shape[0]} x {u.shape[1]} values, expected "
                          f"{expected[0]} x {expected[1]}")
    u = u.reshape(shape)
    u1, u2 = _fd_derivatives(u, grids[1], grids[2])
    f = DecouplingField(t_grid=grids[0], x1_grid=grids[1], x2_grid=grids[2],
                        u=u, u1=u1, u2=u2, **scalars)
    field_diagnostics(f)
    return f

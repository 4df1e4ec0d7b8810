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
import shutil
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
_FORMAT_VERSION = 3
# peak memory of `skofbsde solve` above a process that only reads the
# config, in (nt+1) x nx1 x nx2 float64 arrays: 1.53 and 1.26 measured at
# 256x257x129 and 512x257x129 (u alone; the solve and every check work one
# time layer at a time, and SciPy's import adds about 26 MB)
_SOLVE_PEAK_ARRAYS = 2
# fields of fewer values are cross-checked by the coupled system in one process
_SPLIT_MIN_VALUES = 2**20


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
        """Check the grid against L_g; the one place that refuses a g with
        no finite constant (:class:`NonLipschitzError`)."""
        if not np.isfinite(g_lipschitz):
            raise NonLipschitzError("g has no finite Lipschitz constant: "
                                    "the target law's quantile jumps")
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
    """Solved field ``u`` with its certified-bound metadata.

    No derivative of ``u`` is stored.  The control Z = u1, the x1
    derivative, is formed from ``u`` with the x1 stencil of
    :func:`solve_field` where it is read: the checks form it one time layer
    at a time, and :func:`eval_field` forms a two-wide slab around the
    query's cell and keeps it in ``_u1_memo`` until the cell changes.  The
    x2 derivative has two readers, the coupled check and the diagnostics,
    which form it one time layer at a time too.  The checks only read the
    field; the coupled check of :func:`derivative_fields` records its worst
    mismatch in ``deriv_mismatch``.

    ``u`` of a field solved in two halves (:func:`solve_field`) lives in a
    shared anonymous mapping, which every later fork shares too: a forked
    child must never write it.
    """

    t_grid: np.ndarray
    x1_grid: np.ndarray
    x2_grid: np.ndarray
    u: np.ndarray
    g_lipschitz: float
    delta_deriv_sup: float
    cutoff_H: float
    deriv_floor_eps: float
    deriv_mismatch: float | None = None
    # (axis, cell index, u1 slab) of the last eval_field lookup; not an
    # argument, so ``dataclasses.replace`` starts a copy without it
    _u1_memo: tuple | None = dc_field(default=None, init=False, repr=False,
                                      compare=False)


# ----------------------------------------------------------------------------
# difference operators
# ----------------------------------------------------------------------------

def _d2_up(w: np.ndarray, dx2: float, out: np.ndarray | None = None
           ) -> np.ndarray:
    """d/dx2 one-sided towards larger x2 (where information comes from in the
    backward sweep), into ``out`` when given.  With ``out`` one column
    narrower than ``w`` every column is a difference from above (a column
    range below the top); otherwise the top row falls back to a difference
    from below."""
    if out is None:
        out = np.empty_like(w)
    k = w.shape[1] - 1
    np.subtract(w[:, 1:], w[:, :-1], out=out[:, :k])
    if k < out.shape[1]:
        np.subtract(w[:, -1], w[:, -2], out=out[:, -1])
    return np.divide(out, dx2, out=out)


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

    ``g`` is a vectorized callable with attribute ``lipschitz``, which
    ``cfg.validate`` checks; ``delta`` is a vectorized callable with
    attribute ``deriv_sup``.  Raises :class:`ContractionError` when the
    per-step fixed point does not converge and :class:`CutoffActiveError`
    when the gradient cutoff binds.

    Within a time step the scheme is separable across x2 columns: the x1
    gradient, the clip, the update and the tridiagonal solve each read one
    column, and only the x2 difference reads column j + 1, of the finished
    layer n + 1.  On two CPUs a field of ``_SPLIT_MIN_VALUES`` values or
    more solves its upper half of columns in a forked process
    (``run_halves``), with ``u`` in a shared anonymous mapping that each
    half writes in its own columns.  Over a socket pair the halves exchange
    their largest change at each fixed-point iteration, so they stop
    together, and their largest |z| once each layer is written, so the
    lower half reads column h of a layer only after the upper half wrote
    it.  ``u``, the residuals and the error messages do not depend on the
    split.
    """
    cfg.validate(g.lipschitz)
    from .fbsde import run_halves       # fbsde imports this module

    nt, nx1, nx2 = cfg.nt, cfg.nx1, cfg.nx2
    t_grid = np.linspace(0.0, 1.0, nt + 1)
    x1 = np.linspace(cfg.x1_lo, cfg.x1_hi, nx1)
    x2 = np.linspace(0.0, cfg.x2_hi, nx2)
    dt = 1.0 / nt
    dx1 = x1[1] - x1[0]
    dx2 = x2[1] - x2[0]

    shape = (nt + 1, nx1, nx2)
    split = (nt + 1) * nx1 * nx2 >= _SPLIT_MIN_VALUES
    if split:
        import mmap
        import socket
        import struct
        # the forked half writes its columns into the same pages
        u = np.frombuffer(mmap.mmap(-1, 8 * (nt + 1) * nx1 * nx2)).reshape(shape)
        ends = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    else:
        u = np.empty(shape)
    u[nt] = terminal_layer(g, delta, x1, x2)
    ab = _banded_matrix(nx1, dt / (2.0 * dx1**2))

    def columns(lo: int, hi: int) -> float | None:
        """Solve the columns [lo, hi) of every layer below T into ``u``.
        Returns their sup |u1| over all layers, or None when the other half
        ended first."""
        peer = None
        if hi - lo < nx2:
            peer = ends[lo > 0]
            ends[lo == 0].close()

        def both(x: float) -> float:
            """The larger of ``x`` and the other half's, NaN first."""
            if peer is None:
                return x
            peer.send(struct.pack("d", x))
            got = peer.recv(8)
            if not got:
                raise EOFError
            y, = struct.unpack("d", got)
            return x if x != x or x >= y else y

        # work arrays of one layer's columns, reused by every iteration;
        # sup |u1| of the finished layers, tested against the cutoff at the end
        z, rhs, diff, v2 = np.empty((4, nx1, hi - lo))
        u1_sup = float(np.abs(_gradient_into(z, u[nt, :, lo:hi], dx1, axis=0)).max())
        try:
            for n in range(nt - 1, -1, -1):
                unext = u[n + 1, :, lo:hi]
                _d2_up(u[n + 1, :, lo:hi + 1], dx2, out=v2)
                w = unext
                residuals = []
                for _ in range(cfg.fixpoint_max_iter):
                    _gradient_into(z, w, dx1, axis=0)
                    # rhs = unext + dt * clip(z)^2 * v2
                    np.clip(z, -cfg.cutoff_H, cfg.cutoff_H, out=rhs)
                    np.multiply(rhs, rhs, out=rhs)
                    np.multiply(rhs, dt, out=rhs)
                    np.multiply(rhs, v2, out=rhs)
                    np.add(unext, rhs, out=rhs)
                    unew = solve_banded((1, 1), ab, rhs)
                    np.subtract(unew, w, out=diff)
                    change = both(float(np.abs(diff, out=diff).max()))
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
                u[n, :, lo:hi] = w
                # after the write: the lower half reads column h next
                z_max = both(float(np.abs(z, out=z).max()))
                if z_max >= cfg.cutoff_H:
                    raise CutoffActiveError(
                        f"cutoff not passive at t = {t_grid[n]:.6g}: "
                        f"max |z| = {z_max:.6g} >= {cfg.cutoff_H:.6g}")
                _gradient_into(z, w, dx1, axis=0)
                u1_sup = max(u1_sup, float(np.abs(z, out=z).max()))
        except (EOFError, ConnectionError):     # the other half ended
            return None
        return u1_sup

    if split:
        try:
            # 3 columns or more: the top one reads the one below it
            u1_sups = run_halves(nx2, columns, 3)
        finally:
            for end in ends:
                end.close()
    else:
        u1_sups = [columns(0, nx2)]
    if max(u1_sups) >= cfg.cutoff_H:
        raise CutoffActiveError("cutoff not passive: sup |u1| reached the cutoff radius")
    return DecouplingField(
        t_grid=t_grid, x1_grid=x1, x2_grid=x2, u=u,
        g_lipschitz=float(g.lipschitz),
        delta_deriv_sup=float(getattr(delta, "deriv_sup", np.nan)),
        cutoff_H=cfg.cutoff_H, deriv_floor_eps=cfg.deriv_floor_eps)


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
    """Check the field's derivatives against the coupled linear system.
    Returns ``f``.

    ``coupled_system`` needs the terminal-derivative callables ``g`` and
    ``delta``.  It solves the linear backward equations satisfied by the
    derivative fields,

        v_t + 1/2 v_{x1 x1} + u1^2 v_{x2} + 2 u1 u2 v_{x1} = 0,

    with terminal data g'(x1) for the x1 derivative ``v1`` and -delta'(x2)
    for the x2 derivative ``v2``, in one loop from n = nt down to 0.  Each
    pass advances ``(v1, v2)`` with the coefficients of layer n + 1, frozen
    from the finite-difference derivatives ``u1`` and ``u2`` of ``u`` kept
    from the previous pass; it then forms the ``u1`` and ``u2`` layers of n
    once each, and compares ``v1`` with the one and ``v2`` with the other.
    On two CPUs a field of ``_SPLIT_MIN_VALUES`` values or more runs the
    ``v2`` chain, with its own ``u1`` and ``u2`` layers, in a forked process
    (``run_halves``).  The worst mismatch goes to ``f.deriv_mismatch``; no
    array of ``f`` is written and no field-sized array is made.  A mismatch
    above the fixed tolerance 10 (dt + dx1^2 + dx2), ten times the scheme's
    discretization error scale, raises :class:`DerivativeMismatchError` at
    the first (t, x1, x2) index, in C order, of the worst value.
    ``finite_difference`` does nothing: the field stores no derivative to
    refill, since ``u1`` is formed from ``u`` where it is read.
    """
    if method == "finite_difference":
        return f
    if method != "coupled_system":
        raise ConfigError(f"unknown derivative method {method!r}")
    if g is None or delta is None:
        raise ConfigError("coupled_system needs g and delta with .derivative")

    from .fbsde import run_halves       # fbsde imports this module
    nt = f.t_grid.size - 1
    nx1, nx2 = f.x1_grid.size, f.x2_grid.size
    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    ab = _banded_matrix(nx1, dt / (2.0 * dx1**2))
    mismatch_tol = 10.0 * (dt + dx1**2 + dx2)
    v_terminal = np.empty((2, nx1, nx2))
    v_terminal[0] = np.asarray(g.derivative(f.x1_grid))[:, None]
    v_terminal[1] = -np.asarray(delta.derivative(f.x2_grid))[None, :]
    # compare away from one-sided stencils and the top transport row
    inner = (slice(1, -1), slice(None, -1))
    block = (nt + 1, nx1 - 2, nx2 - 1)

    def chains(lo: int, hi: int) -> list:
        """Per chain k in [lo, hi), v1 then v2, the worst mismatch and its
        flat C-order index in the (t, x1, x2) inner block.  Layers arrive
        from t = T down, so a later layer wins a tie (smaller t index) and
        the first NaN in C order wins."""
        vs = list(v_terminal[lo:hi])
        u1, u1_next, u2, u2_next, dv = np.empty((5, nx1, nx2))
        diff = np.empty(block[1:])
        worst_of = [(-np.inf, 0)] * (hi - lo)
        for n in range(nt, -1, -1):
            if n < nt:
                zc = np.clip(u1_next, -f.cutoff_H, f.cutoff_H)
                a_coef = zc * zc
                b_coef = 2.0 * u1_next * u2_next
                vs = [solve_banded((1, 1), ab, vn + dt * (
                          a_coef * _d2_up(vn, dx2)
                          + b_coef * _gradient_into(dv, vn, dx1, axis=0)))
                      for vn in vs]
            _gradient_into(u1, f.u[n], dx1, axis=0)
            _gradient_into(u2, f.u[n], dx2, axis=1)
            for j, (v, u_fd) in enumerate(zip(vs, (u1, u2)[lo:hi])):
                np.subtract(v[inner], u_fd[inner], out=diff)
                np.abs(diff, out=diff)
                i = int(diff.argmax())
                m = diff.flat[i]
                if np.isnan(m) or m >= worst_of[j][0]:
                    worst_of[j] = (m, n * diff.size + i)
            u1, u1_next = u1_next, u1
            u2, u2_next = u2_next, u2
        return worst_of

    halves = (run_halves(2, chains, 2) if f.u.size >= _SPLIT_MIN_VALUES
              else [chains(0, 2)])
    (m1, i1), (m2, i2) = [w for half in halves for w in half]
    m1, m2 = float(m1), float(m2)
    worst = max(m1, m2)
    if worst > mismatch_tol:
        flat = i1 if m1 >= m2 else i2
        loc = np.unravel_index(flat, block)
        raise DerivativeMismatchError(
            f"derivative methods disagree by {worst:.3e} > {mismatch_tol:.3e} "
            f"at (t, x1, x2) index {loc}",
            location=loc, discrepancy=worst)
    f.deriv_mismatch = worst
    return f


# ----------------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------------

def _corner_index(strides: tuple, base) -> np.ndarray:
    """Flat indices of the 8 corners of the cells at flat index ``base`` in a
    C-contiguous buffer with (t, x1, x2) element ``strides``, row
    4*ot + 2*o2 + o1 for offset (ot, o1, o2): x1 pairs are adjacent rows,
    x2 pairs rows two apart."""
    st, s1, s2 = strides
    offsets = np.array([0, s1, s2, s1 + s2, st, st + s1, st + s2, st + s1 + s2])
    return np.add.outer(offsets, base)


def _u1_slab(f: DecouplingField, axis: int, i: int) -> np.ndarray:
    """u1, formed from ``u`` with the x1 stencil, on the two time layers
    from index ``i`` (``axis`` 0; shape (2, nx1, nx2)) or on the two x2
    columns from index ``i`` (``axis`` 2; x2 first, shape (2, nt + 1, nx1),
    so that each column is contiguous).

    The slab is kept on ``f`` until another is asked for, and its buffer is
    reused along the same axis: a step of one cell forward keeps the shared
    layer or column and forms only the new one."""
    memo = f._u1_memo
    if memo is not None and memo[:2] == (axis, i):
        return memo[2]
    w = f.u[i:i + 2] if axis == 0 else np.moveaxis(f.u[:, :, i:i + 2], 2, 0)
    x1_axis = 1 if axis == 0 else 2
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    if memo is None or memo[0] != axis:
        slab = _gradient_into(np.empty(w.shape), w, dx1, axis=x1_axis)
    elif memo[1] == i - 1:
        slab = memo[2]
        slab[0] = slab[1]
        _gradient_into(slab[1], w[1], dx1, axis=x1_axis - 1)
    else:
        slab = _gradient_into(memo[2], w, dx1, axis=x1_axis)
    f._u1_memo = (axis, i, slab)
    return slab


def _u1_corners(f: DecouplingField, idx: np.ndarray, i1) -> np.ndarray:
    """u1 at the corners ``idx`` of :func:`_corner_index` in ``u``, from
    the values of ``u`` at the x1 nodes i1 - 1 to i1 + 2, bitwise the x1
    stencil: central inside, one-sided at the box edges."""
    nx1, nx2 = f.u.shape[1:]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    flat = f.u.reshape(-1)
    lo, hi = np.maximum(i1 - 1, 0), np.minimum(i1 + 2, nx1 - 1)
    at_i1, at_next = np.take(flat, idx[0::2]), np.take(flat, idx[1::2])
    out = np.empty(idx.shape)
    # the step (hi - lo) dx1 is 2 dx1 inside and dx1 at an edge, exactly
    out[0::2] = ((at_next - np.take(flat, idx[0::2] + (lo - i1) * nx2))
                 / ((i1 + 1 - lo) * dx1))
    out[1::2] = ((np.take(flat, idx[1::2] + (hi - i1 - 1) * nx2) - at_i1)
                 / ((hi - i1) * dx1))
    return out


def eval_field(f: DecouplingField, t, x1, x2,
               which: str | tuple[str, ...] = "u"):
    """Trilinear interpolation.

    At a grid node ``u`` returns the stored value and ``u1`` the value of
    the x1 stencil of :func:`solve_field`, up to rounding, not always
    bitwise: a cell weight ``(q - q_lo) / dq`` that should be 0 or 1 can
    come out one ulp off.

    t must lie in [0, 1].  x1 queries outside the box extrapolate linearly
    for ``u`` (the field is asymptotically affine) and clamp for the
    derivative fields (their certified bounds must not be amplified).  x2
    clamps on both sides.  ``which`` names one component (``"u"`` or
    ``"u1"``) or is a tuple of names; a tuple returns a tuple of results
    read off one shared stencil.  Any other name, ``"u2"`` included (the
    field stores no x2 derivative), raises :class:`DomainError`.

    The ``u1`` corner values are formed from ``u``.  A query with a scalar
    ``t`` (an Euler sweep) reads them from ``u1`` on the two time layers of
    its cell, and one with an array ``t`` and a scalar ``x2`` (the strong
    rule) from ``u1`` on the two x2 columns of its cell; the slab is kept on
    the field until a query's cell changes.  Any other query forms them
    from the neighbouring values of ``u``.
    """
    single = isinstance(which, str)
    names = (which,) if single else which
    try:
        known = {"u", "u1"}.issuperset(names)
    except TypeError:
        known = False
    if not known:
        raise DomainError(f"unknown field component {which!r}")

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
               if "u1" in names else None)

    corners = {}
    strides = (nx1 * nx2, nx2, 1)
    if np.ndim(tq) == 0:
        # an Euler sweep: u and u1 on the two time layers of the cell, read
        # with one index.  A time slab costs one stencil layer per cell where
        # _u1_corners costs four gathers of u per step: on the default grid
        # (x86-64, one CPU, medians of 9) sweeps of 4096 x 1024 and 1024 x
        # 4096 paths x steps took 1.15 and 1.16 s of CPU with the slab, 1.30
        # and 1.44 s with _u1_corners
        idx = _corner_index(strides, i1 * nx2 + i2)
        if "u" in names:
            corners["u"] = np.take(f.u[it:it + 2].reshape(-1), idx)
        if "u1" in names:
            corners["u1"] = np.take(_u1_slab(f, 0, it).reshape(-1), idx)
    else:
        if "u" in names or x2q.ndim > 0:
            idx = _corner_index(strides, (it * nx1 + i1) * nx2 + i2)
        if "u" in names:
            corners["u"] = np.take(f.u.reshape(-1), idx)
        if "u1" in names and x2q.ndim == 0:
            # the strong rule: u1 on the two x2 columns of the cell
            corners["u1"] = np.take(_u1_slab(f, 2, int(i2)).reshape(-1),
                                    _corner_index((nx1, 1, nt1 * nx1),
                                                  it * nx1 + i1))
        elif "u1" in names:
            corners["u1"] = _u1_corners(f, idx, i1)
    a2, at = 1 - w2, 1 - wt

    out = []
    for name in names:
        w = w1 if name == "u" else w1_clip
        v = corners[name]
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
    x1 and x2 derivatives of each layer are formed once, with the x1
    stencil along each axis.  On two CPUs a field of ``_SPLIT_MIN_VALUES``
    values or more takes the extrema of its upper half of time layers in a
    forked process (``run_halves``); max and min are exact, so the results
    do not depend on the split.

    Failures are reported in the ``checks`` list, never raised.
    ``deriv_mismatch`` is copied from the field, so run the coupled check
    first to have it reported.
    """
    from .fbsde import run_halves       # fbsde imports this module
    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    nt1 = f.u.shape[0]

    def extrema(lo: int, hi: int) -> np.ndarray:
        """Seven rows of extrema, one column per layer of [lo, hi); the u1
        step of the last layer reads layer hi.  Max and min propagate a NaN,
        so their reductions equal the whole-array ones."""
        u1, u1_next, u2 = np.empty((3,) + f.u.shape[1:])
        _gradient_into(u1, f.u[lo], dx1, axis=0)
        stats = np.empty((7, hi - lo))
        z_abs, u2_abs, u1_min, u1_step, ux1, ux2, ux1x1 = stats
        for i, n in enumerate(range(lo, hi)):
            u = f.u[n]
            z_abs[i] = np.abs(u1).max()
            u2_abs[i] = np.abs(_gradient_into(u2, u, dx2, axis=1)).max()
            if n + 1 < nt1:
                _gradient_into(u1_next, f.u[n + 1], dx1, axis=0)
                u1_min[i] = u1.min()
                u1_step[i] = np.abs(u1_next - u1).max()
                u1, u1_next = u1_next, u1
            else:
                u1_min[i] = np.inf      # u1 at T is not interior
                u1_step[i] = -np.inf
            ux1[i] = np.abs(u[1:] - u[:-1]).max()
            ux2[i] = np.abs(u[:, 1:] - u[:, :-1]).max()
            ux1x1[i] = np.abs(u[2:] - 2.0 * u[1:-1] + u[:-2]).max()
        return stats

    halves = (run_halves(nt1, extrema, 2) if f.u.size >= _SPLIT_MIN_VALUES
              else [extrema(0, nt1)])
    z_abs, u2_abs, u1_min, u1_step, ux1, ux2, ux1x1 = np.concatenate(halves, 1)
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
# export / import: u as a binary .npy array with a JSON sidecar of grids and
# metadata; u also as a CSV text export, which is never read back
# ----------------------------------------------------------------------------

_VALUES_PER_WRITE = 2**16    # values formatted per write of the CSV
# fields of fewer CSV rows are exported in one process
_SPLIT_MIN_ROWS = 4096


def _sibling(path: str, ext: str) -> str:
    """``path`` with its extension, if it has one, replaced by ``ext``."""
    name = path.rsplit("/", 1)[-1]
    return (path[: path.rfind(".")] if "." in name else path) + ext


def sidecar_path(path: str) -> str:
    return _sibling(path, ".json")


def save_field(f: DecouplingField, path: str,
               diagnostics: FieldDiagnostics | None = None) -> None:
    """Write ``u`` to the ``.npy`` file of ``path``'s stem, a JSON sidecar
    of that stem and, as a text export, the CSV at ``path``.

    :func:`load_field` reads the ``.npy`` file: ``u`` written by
    ``np.lib.format.write_array`` with no copy, in bytes that depend only
    on ``u``.  The sidecar holds the format tag and version, the shape, the
    three grids as exact JSON lists, the bound metadata and ``diagnostics``
    (``null`` when none are given).  No derivative is stored: its readers
    form ``u1`` from ``u``.

    The CSV has one row of nx2 comma-separated values per (t, x1) pair, t
    outer, x1 middle, in shortest round-trip float formatting.  On two CPUs
    the upper rows of a large field are formatted by ``run_halves`` in the
    child process to a sibling temporary file, then appended to ``path``;
    the temporary file is removed also when the save fails.  The bytes
    written do not depend on the split.
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
    with open(_sibling(path, ".npy"), "wb") as fh:
        np.lib.format.write_array(fh, f.u, allow_pickle=False)
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


def _read_array(path: str, shape: tuple) -> np.ndarray:
    """The float64, C-ordered array of ``shape`` in the ``.npy`` file at
    ``path``, read with no pickle.  The header is checked before
    ``read_array`` sizes its buffer by it; ``ValueError`` says what is wrong."""
    fmt = np.lib.format
    with open(path, "rb") as fh:
        read_header = (fmt.read_array_header_1_0 if fmt.read_magic(fh) == (1, 0)
                       else fmt.read_array_header_2_0)
        got_shape, fortran_order, dtype = read_header(fh)
        if (got_shape, fortran_order, dtype) != (shape, False, np.dtype(float)):
            raise ValueError(
                f"{dtype} array of shape {got_shape}"
                f"{' in Fortran order' if fortran_order else ''}, expected "
                f"float64 of shape {shape} in C order")
        fh.seek(0)
        u = fmt.read_array(fh, allow_pickle=False)
        if fh.read(1):
            raise ValueError("bytes after the array")
    return u


def load_field(path: str) -> DecouplingField:
    """Read a field written by :func:`save_field`.  ``path`` names its CSV,
    sidecar or ``.npy`` file; the sidecar and the ``.npy`` array are found
    by the shared stem, and the CSV is not read.  A missing or malformed sidecar or array
    raises :class:`ConfigError`, and so do an array that is not float64,
    C-ordered, of the sidecar's shape and finite, and grids that
    :func:`solve_field` does not make (and :func:`eval_field` assumes): each
    is ``np.linspace`` of its increasing end points, t from 0 to 1, x2 from 0.
    """
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
    npy = _sibling(path, ".npy")
    try:
        u = _read_array(npy, shape)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field file {npy}: {exc}") from None
    # min and max see every NaN and inf without a field-sized temporary
    if not (np.isfinite(u.min()) and np.isfinite(u.max())):
        raise ConfigError(f"field file {npy} has a non-finite value")
    return DecouplingField(t_grid=grids[0], x1_grid=grids[1], x2_grid=grids[2],
                           u=u, **scalars)

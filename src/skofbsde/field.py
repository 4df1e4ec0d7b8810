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

``run_halves``, the package's two-process split, lives here beside three of
its four callers; ``fbsde`` imports it for ``map_blocks``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import os
import pickle
import shutil
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (ConfigError, ContractionError, CutoffActiveError,
                     DerivativeMismatchError, DomainError, NonLipschitzError)

__all__ = ["SolverConfig", "DecouplingField", "FieldDiagnostics", "BoundCheck",
           "terminal_layer", "solve_field", "derivative_fields", "eval_field",
           "field_diagnostics", "save_field", "load_field", "run_halves"]

CFL_SAFETY = 0.9
Z_BOUND_TOL = 1e-2          # tolerance on sup|u1| <= L_g
U2_BOUND_TOL = 1e-2         # tolerance on sup|u2| <= sup|delta'|
FIXPOINT_TOL = 1e-9         # a solve step's fixed point stops below this
FIXPOINT_MAX_ITER = 200     # and fails after this many iterations
_FORMAT_TAG = "skofbsde-field"
_FORMAT_VERSION = 5
# peak memory of `skofbsde solve` above a process that only reads the
# config, in (nt+1) x nx1 x nx2 float64 arrays: 1.14 and 1.07 measured at
# 256x257x129 and 512x257x129 (u alone; the solve and every check work one
# time layer at a time, and SciPy's LAPACK module adds about 2.4 MB)
_SOLVE_PEAK_ARRAYS = 2
# fields of fewer values are cross-checked by the coupled system in one process
_SPLIT_MIN_VALUES = 2**20


@dataclass(frozen=True)
class SolverConfig:
    """The grid of the backward solve.

    ``nt`` counts time steps of the unit horizon (the time grid is
    ``np.linspace(0, 1, nt + 1)``); ``nx1`` and ``nx2`` count spatial nodes
    of the box [x1_lo, x1_hi] x [0, x2_hi].  The other constants are those
    of the stages that read them: :func:`_cutoff`, ``FIXPOINT_TOL`` and
    ``FIXPOINT_MAX_ITER`` here, and ``embed.DERIV_FLOOR_EPS``.
    """

    nt: int = 256
    nx1: int = 257
    nx2: int = 129
    x1_lo: float = -6.0             # Gaussian mass beyond [-6, 6] < 1e-8
    x1_hi: float = 6.0
    x2_hi: float = 1.05

    @classmethod
    def defaults(cls, g_lipschitz: float, **keys) -> "SolverConfig":
        """The field defaults, with the x2 box [0, 1.05 L_g^2] set by L_g
        (forced by the X2 dynamics and the Z bound; the 5% margin is also
        the clock's horizon, ``H(T_phys) = x2_hi``).  ``keys`` override any
        field."""
        return cls(**{"x2_hi": 1.05 * g_lipschitz**2, **keys})

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
        dt = 1.0 / self.nt
        dx2 = self.x2_hi / (self.nx2 - 1)
        if g_lipschitz > 0.0 and dt > CFL_SAFETY * dx2 / g_lipschitz**2 * (1.0 + 1e-12):
            nt_min = int(np.ceil(g_lipschitz**2 / (CFL_SAFETY * dx2)))
            raise ConfigError(
                f"time step violates the transport restriction "
                f"dt <= {CFL_SAFETY} * dx2 / L_g^2; use nt >= {nt_min}")
        _check_memory(
            _SOLVE_PEAK_ARRAYS * (self.nt + 1) * self.nx1 * self.nx2 * 8,
            "solver grid", "reduce nt, nx1 or nx2")


def _check_memory(need: int, what: str, remedy: str) -> None:
    """Refuse, with a :class:`ConfigError`, a run whose estimated peak of
    ``need`` bytes is above the machine's physical memory.  ``need`` is an
    exact integer of any size: the message divides it as a decimal, which
    cannot overflow."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        from decimal import Decimal
        raise ConfigError(
            f"{what} needs about {Decimal(need) / 2**30:.3g} GiB of memory "
            f"at peak, more than the {have / 2**30:.3g} GiB of physical "
            f"memory; {remedy}")


def run_halves(n: int, fn, minimum: int) -> list:
    """``[fn(0, h), fn(h, n)]`` with h = n // 2, the second half computed in
    one forked process, when this process may run on two CPUs and ``n`` is
    at least ``minimum``; ``[fn(0, n)]`` otherwise.

    The child sends its result back as a pickle and always ends with
    ``os._exit``: it never returns into the caller's stack.  An exception of
    the child is raised again here, with its type and message and the
    child's traceback as a note.  The child is always reaped; it is killed
    first when this process's half raises.  A fork copies only the calling
    thread: the package starts no threads, and OpenBLAS stops its own
    worker threads before a fork.
    """
    if n < max(minimum, 2) or len(os.sched_getaffinity(0)) < 2:
        return [fn(0, n)]
    h = n // 2
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                try:
                    result = True, fn(h, n)
                except BaseException as exc:
                    result = False, _portable(exc)
                pickle.dump(result, out, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        with open(r, "rb") as src:
            first = fn(0, h)
            try:
                ok, second = pickle.load(src)
            except (EOFError, pickle.UnpicklingError):
                ok, second = False, RuntimeError(
                    f"the process computing items [{h}, {n}) ended "
                    f"without a result")
    except BaseException:
        from signal import SIGKILL
        os.kill(pid, SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if not ok:
        raise second
    return [first, second]


def _portable(exc: BaseException) -> BaseException:
    """``exc`` with the formatted traceback as a note, or a RuntimeError of
    the same text when ``exc`` does not survive a pickle round trip."""
    import traceback
    if hasattr(exc, "add_note"):                    # Python >= 3.11
        exc.add_note("".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__)).rstrip())
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


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
    """Solved field ``u`` with its two certified bounds, ``g_lipschitz``
    (L_g >= sup |u1|; it sets the Z clip and :func:`_cutoff`) and
    ``delta_deriv_sup`` (sup |delta'| >= sup |u2|).

    No derivative of ``u`` is stored.  The control Z = u1, the x1
    derivative, is formed from ``u`` with the x1 stencil of
    :func:`solve_field` where it is read: the checks form it one time layer
    at a time, :func:`eval_field` from the neighbours of each query's cell,
    and the two path loops (the Euler sweep and the strong rule) as a
    two-wide slab that each loop holds itself (:func:`_u1_slab`).  The
    field keeps no lookup state.  The x2 derivative has two readers, the
    coupled check and the diagnostics, which form it one time layer at a
    time too.  The checks only read the field; the coupled check of
    :func:`derivative_fields` records its worst mismatch in
    ``deriv_mismatch``.

    The three grids are always the ``np.linspace`` grids of :func:`_grids`,
    fixed by the shape of ``u`` and the box ends ``x1_lo``, ``x1_hi`` and
    ``x2_hi``; the evaluation helpers assume uniform spacing.

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
    deriv_mismatch: float | None = None


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


def _banded_matrix(nx1: int, a: float) -> tuple:
    """I - (dt/2) D11 with zero-curvature boundary rows (u is asymptotically
    affine in x1 because g is Lipschitz), as LAPACK ``gtsv``'s operands
    ``(dl, d, du)``: the sub-, main and superdiagonal."""
    d = np.full(nx1, 1.0 + 2.0 * a)
    d[0] = d[-1] = 1.0
    dl, du = np.full((2, nx1 - 1), -a)
    dl[-1] = du[0] = 0.0    # the boundary rows have no off-diagonal entry
    return dl, d, du


@functools.cache
def _gtsv():
    """LAPACK ``dgtsv``: the f2py wrapper that
    ``scipy.linalg.get_lapack_funcs(("gtsv",), ...)`` returns, loaded on the
    first solve from SciPy's compiled module ``scipy/linalg/_flapack``.

    The module is loaded from its file, not imported: after numpy,
    ``import scipy.linalg`` takes 0.2-0.3 s and adds 27 MB of RSS, this
    load 3-5 ms and 2.4 MB (2 vCPUs, x86-64, Python 3.11, SciPy 1.17).
    ``find_spec`` locates the package without running ``scipy/__init__``.
    The module is named ``_flapack``, as its init function requires, and is
    taken out of ``sys.modules`` again, so a later ``import scipy.linalg``
    initializes its own copy.  A missing SciPy, or a missing module file,
    raises ``ImportError`` (the loader's names the file)."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("SciPy is not installed: the field solve needs "
                          "its LAPACK module scipy/linalg/_flapack")
    path = os.path.join(spec.submodule_search_locations[0], "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    loader = importlib.machinery.ExtensionFileLoader("_flapack", path)
    module = loader.create_module(importlib.util.spec_from_loader(
        "_flapack", loader))
    # a single-phase extension module enters sys.modules as it is created
    if sys.modules.get("_flapack") is module:
        del sys.modules["_flapack"]
    loader.exec_module(module)
    return module.dgtsv


def solve_banded(diagonals, b):
    """LAPACK ``gtsv`` on its own operands ``diagonals = (dl, d, du)`` of
    :func:`_banded_matrix`: bitwise SciPy's ``solve_banded((1, 1), ab, b)``
    of the same diagonals, without its argument checks and batching (about
    50 us per call).  A right-hand side with an inf or a NaN raises
    ``ValueError``, as SciPy's check does."""
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    *_, x, info = _gtsv()(*diagonals, b, False, False, False, False)
    if info:
        raise np.linalg.LinAlgError(f"gtsv failed with info = {info}")
    return x


# ----------------------------------------------------------------------------
# solver
# ----------------------------------------------------------------------------

def _grids(shape: tuple, x1_lo: float, x1_hi: float, x2_hi: float) -> tuple:
    """The t, x1 and x2 grids of a field of ``shape``: ``np.linspace`` on
    [0, 1], [x1_lo, x1_hi] and [0, x2_hi].  Both :func:`solve_field` and
    :func:`load_field` build them here, so a loaded grid is bitwise the
    solved one (``linspace`` returns its two ends exactly)."""
    nt1, nx1, nx2 = shape
    return (np.linspace(0.0, 1.0, nt1), np.linspace(x1_lo, x1_hi, nx1),
            np.linspace(0.0, x2_hi, nx2))


def _cutoff(L_g: float) -> float:
    """Radius of the gradient cutoff, above the certified sup |u1| <= L_g."""
    return 4.0 * max(L_g, 1.0)


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
    when the gradient cutoff (:func:`_cutoff`) binds: max |z| of the x1
    stencil is tested once per layer, on the terminal layer before any
    solve and on each layer once written, with one message that names t.

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
    nt, nx1, nx2 = cfg.nt, cfg.nx1, cfg.nx2
    shape = (nt + 1, nx1, nx2)
    t_grid, x1, x2 = _grids(shape, cfg.x1_lo, cfg.x1_hi, cfg.x2_hi)
    dt = 1.0 / nt
    dx1 = x1[1] - x1[0]
    dx2 = x2[1] - x2[0]
    cutoff = _cutoff(g.lipschitz)

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
    diagonals = _banded_matrix(nx1, dt / (2.0 * dx1**2))

    def columns(lo: int, hi: int) -> None:
        """Solve the columns [lo, hi) of every layer below T into ``u``;
        return early when the other half ended first."""
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

        # work arrays of one layer's columns, reused by every iteration
        z, rhs, diff, v2 = np.empty((4, nx1, hi - lo))

        def passive(n: int) -> None:
            """Raise when max |z| of layer n, over both halves, binds."""
            _gradient_into(z, u[n, :, lo:hi], dx1, axis=0)
            z_max = both(float(np.abs(z, out=z).max()))
            if z_max >= cutoff:
                raise CutoffActiveError(
                    f"cutoff not passive at t = {t_grid[n]:.6g}: "
                    f"max |z| = {z_max:.6g} >= {cutoff:.6g}")

        try:
            passive(nt)
            for n in range(nt - 1, -1, -1):
                unext = u[n + 1, :, lo:hi]
                _d2_up(u[n + 1, :, lo:hi + 1], dx2, out=v2)
                w = unext
                residuals = []
                for _ in range(FIXPOINT_MAX_ITER):
                    _gradient_into(z, w, dx1, axis=0)
                    # rhs = unext + dt * clip(z)^2 * v2
                    np.clip(z, -cutoff, cutoff, out=rhs)
                    np.multiply(rhs, rhs, out=rhs)
                    np.multiply(rhs, dt, out=rhs)
                    np.multiply(rhs, v2, out=rhs)
                    np.add(unext, rhs, out=rhs)
                    unew = solve_banded(diagonals, rhs)
                    np.subtract(unew, w, out=diff)
                    change = both(float(np.abs(diff, out=diff).max()))
                    residuals.append(change)
                    w = unew
                    if change < FIXPOINT_TOL:
                        break
                else:
                    raise ContractionError(
                        f"contraction failure at t = {t_grid[n]:.6g} (nt = {nt}): "
                        f"residual {residuals[-1]:.3e} after {FIXPOINT_MAX_ITER} "
                        f"iterations; a smaller time step helps, raise solver.nt",
                        residuals=residuals)
                u[n, :, lo:hi] = w
                passive(n)
        except (EOFError, ConnectionError):     # the other half ended
            return

    if split:
        try:
            # 3 columns or more: the top one reads the one below it
            run_halves(nx2, columns, 3)
        finally:
            for end in ends:
                end.close()
    else:
        columns(0, nx2)
    return DecouplingField(t_grid, x1, x2, u, float(g.lipschitz),
                           float(delta.deriv_sup))


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

    nt = f.t_grid.size - 1
    nx1, nx2 = f.x1_grid.size, f.x2_grid.size
    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    diagonals = _banded_matrix(nx1, dt / (2.0 * dx1**2))
    mismatch_tol = 10.0 * (dt + dx1**2 + dx2)
    cutoff = _cutoff(f.g_lipschitz)
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
                zc = np.clip(u1_next, -cutoff, cutoff)
                a_coef = zc * zc
                b_coef = 2.0 * u1_next * u2_next
                vs = [solve_banded(diagonals, vn + dt * (
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


def _u1_slab(f: DecouplingField, axis: int, i: int, last=None) -> tuple:
    """``(i, slab)``: u1, formed from ``u`` with the x1 stencil, on the two
    time layers from index ``i`` (``axis`` 0; shape (2, nx1, nx2)) or on
    the two x2 columns from index ``i`` (``axis`` 2; x2 first, shape
    (2, nt + 1, nx1), so that each column is contiguous).

    ``last`` is the pair this function returned to the same caller before,
    along the same axis, or ``None``.  The same index returns ``last``;
    another writes the new slab into its buffer, and a step of one cell
    forward keeps the shared layer or column and forms only the new one.
    The caller holds the pair, so nothing is kept on ``f``: the Euler sweep
    of ``fbsde`` reads time slabs, the strong rule of ``embed`` x2 columns."""
    if last is not None and last[0] == i:
        return last
    w = f.u[i:i + 2] if axis == 0 else np.moveaxis(f.u[:, :, i:i + 2], 2, 0)
    x1_axis = 1 if axis == 0 else 2
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    if last is None:
        slab = _gradient_into(np.empty(w.shape), w, dx1, axis=x1_axis)
    elif last[0] == i - 1:
        slab = last[1]
        slab[0] = slab[1]
        _gradient_into(slab[1], w[1], dx1, axis=x1_axis - 1)
    else:
        slab = _gradient_into(last[1], w, dx1, axis=x1_axis)
    return i, slab


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


def _time_cell(f: DecouplingField, t):
    """Cell index and weight of time queries in [0, 1], of the shape of
    ``t``; raises :class:`DomainError` outside."""
    tq = np.asarray(t, dtype=float)
    if not np.all((-1e-12 <= tq) & (tq <= 1.0 + 1e-12)):
        raise DomainError("time query outside [0, 1]")
    dt = float(f.t_grid[1] - f.t_grid[0])
    it = np.minimum(np.maximum(0, (tq / dt).astype(int)), f.t_grid.size - 2)
    return it, np.minimum(np.maximum(0.0, (tq - f.t_grid[it]) / dt), 1.0)


def _x1_cell(f: DecouplingField, x1q: np.ndarray):
    """Cell index and raw weight of x1 queries.  Outside the box the weight
    leaves [0, 1]: ``u`` extrapolates linearly on it, and ``u1`` clamps it
    with :func:`_unit` (the certified bounds must not be amplified)."""
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    i1 = np.minimum(np.maximum(0, ((x1q - f.x1_grid[0]) / dx1).astype(int)),
                    f.x1_grid.size - 2)
    return i1, (x1q - f.x1_grid[i1]) / dx1


def _x2_cell(f: DecouplingField, x2q: np.ndarray):
    """Cell index and weight of x2 queries; x2 clamps on both sides."""
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    i2 = np.minimum(np.maximum(0, (x2q / dx2).astype(int)), f.x2_grid.size - 2)
    return i2, _unit((x2q - f.x2_grid[i2]) / dx2)


def _unit(w):
    """``w`` clamped to [0, 1]."""
    return np.minimum(np.maximum(0.0, w), 1.0)


def _lerp(v: np.ndarray, w1, w2, wt):
    """Trilinear interpolation of corner values ``v``, rows ordered as in
    :func:`_corner_index`, with the x1, x2 and time weights."""
    c = v[0::2] * (1 - w1) + v[1::2] * w1
    d = c[0::2] * (1 - w2) + c[1::2] * w2
    return d[0] * (1 - wt) + d[1] * wt


def eval_field(f: DecouplingField, t, x1, x2, which: str = "u"):
    """Trilinear interpolation.

    At a grid node ``u`` returns the stored value and ``u1`` the value of
    the x1 stencil of :func:`solve_field`, up to rounding, not always
    bitwise: a cell weight ``(q - q_lo) / dq`` that should be 0 or 1 can
    come out one ulp off.

    t must lie in [0, 1].  x1 queries outside the box extrapolate linearly
    for ``u`` (the field is asymptotically affine) and clamp for the
    derivative fields (their certified bounds must not be amplified).  x2
    clamps on both sides.  ``which`` names the one component returned,
    ``"u"`` or ``"u1"``; anything else, ``"u2"`` (the field stores no x2
    derivative) or a tuple of names included, raises :class:`DomainError`.

    The arguments broadcast against each other.  A scalar ``t`` and an
    array ``t`` of equal values (say an (m, 1) column of times against
    (m, n) points) give bitwise equal results.  The ``u1`` corner values
    are formed from the neighbouring values of ``u`` (:func:`_u1_corners`).
    """
    if which not in ("u", "u1"):
        raise DomainError(f"unknown field component {which!r}")

    x1q = np.asarray(x1, dtype=float)
    x2q = np.asarray(x2, dtype=float)
    nx1, nx2 = f.u.shape[1:]
    it, wt = _time_cell(f, t)
    scalar = np.ndim(t) == 0 and x1q.ndim == 0 and x2q.ndim == 0
    i1, w1 = _x1_cell(f, x1q)
    i2, w2 = _x2_cell(f, x2q)

    idx = _corner_index((nx1 * nx2, nx2, 1), (it * nx1 + i1) * nx2 + i2)
    if which == "u":
        res = _lerp(np.take(f.u.reshape(-1), idx), w1, w2, wt)
    else:
        res = _lerp(_u1_corners(f, idx, i1), _unit(w1), w2, wt)
    return float(res) if scalar else res


# ----------------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------------

def field_diagnostics(f: DecouplingField, g=None, delta=None) -> FieldDiagnostics:
    """Measure the certified bounds on the solved field; the field is only
    read, one time layer at a time, so no field-sized array is made.  The
    x1 and x2 derivatives of each layer are formed once, with the x1
    stencil along each axis.  Each bound is the extremum of the per-layer
    extrema; max and min propagate a NaN, so they equal the whole-array
    reductions.

    Failures are reported in the ``checks`` list, never raised; a
    sup |delta'| that is not finite fails the u2 check.  ``deriv_mismatch``
    is copied from the field, so run the coupled check first to have it
    reported.
    """
    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    nt1 = f.u.shape[0]
    u1, u1_next, u2 = np.empty((3,) + f.u.shape[1:])
    _gradient_into(u1, f.u[0], dx1, axis=0)
    z_abs, u2_abs, u1_min, u1_step, ux1, ux2, ux1x1 = np.empty((7, nt1))
    for n in range(nt1):
        u = f.u[n]
        z_abs[n] = np.abs(u1).max()
        u2_abs[n] = np.abs(_gradient_into(u2, u, dx2, axis=1)).max()
        if n + 1 < nt1:
            _gradient_into(u1_next, f.u[n + 1], dx1, axis=0)
            u1_min[n] = u1.min()
            u1_step[n] = np.abs(u1_next - u1).max()
            u1, u1_next = u1_next, u1
        else:
            u1_min[n] = np.inf      # u1 at T is not interior
            u1_step[n] = -np.inf
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
    cutoff = _cutoff(f.g_lipschitz)

    checks = [
        BoundCheck("z_sup <= L_g + tol", z_sup, L_g, Z_BOUND_TOL,
                   z_sup <= L_g + Z_BOUND_TOL),
        BoundCheck("u2_sup <= sup|delta'| + tol", u2_sup, d_sup, U2_BOUND_TOL,
                   d_sup < np.inf and u2_sup <= d_sup + U2_BOUND_TOL),
        BoundCheck("min u1 (t < T) > 0", min_u1_interior, 0.0, 0.0,
                   min_u1_interior > 0.0),
        BoundCheck("cutoff passive: z_sup < cutoff_H", z_sup, cutoff, 0.0,
                   z_sup < cutoff),
    ]
    return FieldDiagnostics(z_sup=z_sup, u2_sup=u2_sup,
                            min_u1_interior=min_u1_interior,
                            time_lip_u1=time_lip_u1, L_ux=L_ux,
                            d2x1_sup=d2x1_sup, checks=checks,
                            deriv_mismatch=f.deriv_mismatch)


# ----------------------------------------------------------------------------
# export / import: u as a binary .npy array with a JSON sidecar of its shape,
# box ends and metadata; u also as a CSV text export, which is never read back
# ----------------------------------------------------------------------------

# values formatted per write of the CSV.  Each call's temporaries are then
# 16 KiB arrays, and the heap they free is reused.  From 4096 values on,
# glibc gave the freed top of the heap back after each call and faulted it
# in again, about 300 pages a call at 8192.  Saving the default field in a
# fresh process took 1.4-1.5 s at 2048 values, 1.6-2.0 s at 4096, 1.8-2.1 s
# at 8192 and 1.7-2.4 s at 1024 (three runs each, two Xeon vCPUs).
_VALUES_PER_WRITE = 2048
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
    of that stem and, as a text export, the CSV at ``path``.  A ``path``
    that names the ``.npy`` file or the sidecar itself raises
    ``ValueError`` before anything is written.

    :func:`load_field` reads the ``.npy`` file: ``u`` written by
    ``np.lib.format.write_array`` with no copy, in bytes that depend only
    on ``u``.  The sidecar holds the format tag and version (5), the shape,
    the box ends ``x1_lo``, ``x1_hi`` and ``x2_hi`` that fix the three grids
    (:func:`_grids`), the certified bounds ``g_lipschitz`` and
    ``delta_deriv_sup`` and ``diagnostics`` (``null`` when none are given).
    No derivative is stored: its readers form ``u1`` from ``u``.

    The CSV has one row of nx2 comma-separated values per (t, x1) pair, t
    outer, x1 middle, each value exactly as ``repr`` writes it: the bytes
    of ``",".join(map(repr, row))`` for each row.
    ``_floattext.rows_text`` formats them from the bits of ``u`` in whole
    numpy arrays, for the whole rows of at most ``_VALUES_PER_WRITE`` values
    at a time.  On two CPUs the upper rows of a large field are formatted by
    ``run_halves`` in the child process to a sibling temporary file, then
    appended to ``path``; the temporary file is removed also when the save
    fails.  The bytes written do not depend on the split.
    """
    if path in (_sibling(path, ".npy"), sidecar_path(path)):
        raise ValueError(f"save_field: {path!r} names the .npy file or the "
                         f"sidecar, so the CSV would be overwritten")
    from ._floattext import rows_text
    nt1, nx1, nx2 = f.u.shape
    rows = f.u.reshape(nt1 * nx1, nx2)
    step = max(1, _VALUES_PER_WRITE // nx2)
    upper = f"{path}.{os.getpid()}.part"

    def write(lo: int, hi: int) -> None:
        with open(path if lo == 0 else upper, "wb") as fh:
            for start in range(lo, hi, step):
                fh.write(rows_text(rows[start:min(start + step, hi)]))

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
        "x1_lo": float(f.x1_grid[0]),
        "x1_hi": float(f.x1_grid[-1]),
        "x2_hi": float(f.x2_grid[-1]),
        "g_lipschitz": f.g_lipschitz,
        "delta_deriv_sup": f.delta_deriv_sup,
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
    by the shared stem, and the CSV is not read.  The grids are built by
    :func:`_grids` from the sidecar's shape and box ends, as the solve built
    them.  A missing or malformed sidecar or array raises
    :class:`ConfigError`, and so do a shape that is not three integers of
    at least 2, box ends that are not finite with ``x1_lo < x1_hi`` and
    ``x2_hi > 0``, bounds that are not finite with ``g_lipschitz > 0`` and
    ``delta_deriv_sup >= 0``, and an array that is not float64, C-ordered,
    of the sidecar's shape and finite.
    """
    meta = _read_sidecar(path)
    try:
        shape = tuple(meta["shape"])
        x1_lo, x1_hi, x2_hi, L_g, d_sup = (float(meta[k]) for k in (
            "x1_lo", "x1_hi", "x2_hi", "g_lipschitz", "delta_deriv_sup"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed field sidecar for {path}: "
                          f"{exc!r}") from None
    if not (len(shape) == 3 and all(type(n) is int and n >= 2 for n in shape)):
        raise ConfigError(f"field sidecar for {path}: shape {list(shape)} is "
                          f"not three integers of at least 2")
    if not (np.isfinite([x1_lo, x1_hi, x2_hi]).all() and x1_lo < x1_hi
            and x2_hi > 0.0):
        raise ConfigError(f"field sidecar for {path}: the box needs finite "
                          f"x1_lo < x1_hi and x2_hi > 0")
    if not (0.0 < L_g < np.inf and 0.0 <= d_sup < np.inf):
        raise ConfigError(f"field sidecar for {path}: the bounds need finite "
                          f"g_lipschitz > 0 and delta_deriv_sup >= 0")
    npy = _sibling(path, ".npy")
    try:
        u = _read_array(npy, shape)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field file {npy}: {exc}") from None
    # min and max see every NaN and inf without a field-sized temporary
    if not (np.isfinite(u.min()) and np.isfinite(u.max())):
        raise ConfigError(f"field file {npy} has a non-finite value")
    return DecouplingField(*_grids(shape, x1_lo, x1_hi, x2_hi), u, L_g, d_sup)

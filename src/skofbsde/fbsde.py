"""Euler simulation of the decoupled forward-backward system.

Paths follow X1 = x1 + W, dX2 = Z^2 dt with the control read off the solved
field, Z = u1(t, X1, X2), and Y = u(t, X1, X2).  The backward-equation defect
of simulated paths is the ground-truth oracle for the PDE solve: if the two
disagree, the paths win.

Randomness is reproducible bit-for-bit across platforms: each path owns a
64-bit seed (SplitMix64-derived from a base seed and the path index), feeding
a Philox 4x64 counter-based generator; uniforms are 53-bit integers mapped to
(0, 1) and normal increments come from the package's own inverse normal CDF.
The sweeps draw the increments in column chunks from the per-path streams
(``IncrementStreams``), so no whole (paths, steps) noise matrix is held, and
a path's increments do not depend on the chunk width.
By certified bound, |Z| <= L_g; evaluated controls are projected onto that
interval (raw magnitudes are recorded for the bound diagnostics).

Every path ensemble here and in the embeddings runs through ``map_blocks``:
on a machine with two CPUs, the upper half of a large ensemble runs in one
forked process (``run_halves``); each half runs its blocks of consecutive
path indices one after another, and the per-path results are copied into
whole-ensemble arrays in path order, so outputs depend neither on the block
size nor on the split.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .field import DecouplingField, eval_field
from .measure import phi_inv

__all__ = ["FbsdePath", "EnsembleResult", "MartingaleReport", "path_seed",
           "normal_increments", "IncrementStreams", "run_halves", "map_blocks",
           "simulate_block", "simulate_ensemble",
           "backward_residual", "martingale_check"]

_MASK64 = (1 << 64) - 1
_ENSEMBLE_BLOCK = 1024
# smaller ensembles stay in one process: half of a 256-path, 256-step
# ensemble takes about as long as a fork and reap, 4-6 ms at 220 MB RSS
_SPLIT_MIN_PATHS = 256
# columns per draw of IncrementStreams: a (1024, 256) chunk is 2 MiB
_NOISE_CHUNK = 256
N_CHECKPOINTS = 8


def path_seed(base_seed: int, index):
    """SplitMix64 finalizer of base_seed + (index + 1) * gamma: independent
    per-path keys from one base seed.  ``index`` may be an int (returns an
    int) or an array of indices (returns a uint64 array); uint64 array
    arithmetic wraps modulo 2^64 without overflow warnings."""
    idx = np.asarray(index)
    z = (np.uint64(int(base_seed) & _MASK64)
         + (np.atleast_1d(idx).astype(np.uint64) + np.uint64(1))
         * np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return int(z[0]) if idx.ndim == 0 else z


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


def map_blocks(n_paths: int, block: int, fn) -> tuple[np.ndarray, ...]:
    """Call ``fn(lo, hi)`` on consecutive blocks of path indices and copy the
    per-path arrays it returns (each with leading length hi - lo) into
    whole-ensemble arrays, in path order.

    ``run_halves`` may split the paths in two; each half runs in blocks of
    at most ``block`` paths, one after another.  The copy means
    ``fn`` may return views into its block's temporaries; they are released
    before the next block starts.
    """
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")

    def blocks(start: int, stop: int):
        out = None
        for lo in range(start, stop, block):
            hi = min(lo + block, stop)
            parts = [np.asarray(a) for a in fn(lo, hi)]
            if out is None:
                out = tuple(np.empty((stop - start,) + a.shape[1:],
                                     dtype=a.dtype) for a in parts)
            for whole, a in zip(out, parts):
                whole[lo - start:hi - start] = a
            del parts, a
        return out

    halves = run_halves(n_paths, blocks, _SPLIT_MIN_PATHS)
    return tuple(np.concatenate(arrays) for arrays in zip(*halves))


class IncrementStreams:
    """The N(0, dt) increments of a set of paths, drawn column chunk by
    column chunk from one Philox generator per path seed.

    Row ``i`` of the successive draws does not depend on the chunk widths,
    and its first ``n`` values are ``normal_increments(seeds[i], n, dt)``.
    ``column`` reads the increments step by step for a set of rows that may
    only shrink (paths that stop are never drawn again); it draws
    ``_NOISE_CHUNK`` columns at a time for the rows it is given at a chunk
    start.
    """

    def __init__(self, seeds, n_steps: int, dt: float):
        self.gens = [np.random.Philox(key=int(s)) for s in seeds]
        self.n_steps = n_steps
        self.scale = np.sqrt(dt)
        self._chunk = None
        self._row_of = np.arange(len(self.gens))

    def next(self, m: int, rows=None) -> np.ndarray:
        """The next ``m`` increments of each path in ``rows`` (default: all),
        shape (len(rows), m)."""
        gens = self.gens if rows is None else [self.gens[i] for i in rows]
        v = np.empty((len(gens), m), dtype=np.uint64)
        for row, gen in zip(v, gens):
            row[:] = gen.random_raw(m)
        # strictly interior uniforms (v + 1/2) / 2^53 from the top 53 bits of
        # each word: what Generator.integers(0, 2**53) draws from the same
        # words (Lemire's method with a power-of-two range), without its
        # fixed cost per call
        v >>= np.uint64(11)
        u = v.astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        z = phi_inv(u)
        z *= self.scale
        return z

    def column(self, k: int, rows=None) -> np.ndarray:
        """Increment ``k`` of the paths in ``rows`` (default: all); ``k``
        runs 0, 1, ... in order."""
        c = k % _NOISE_CHUNK
        if c == 0:
            self._chunk = self.next(min(_NOISE_CHUNK, self.n_steps - k), rows)
            if rows is not None:
                self._row_of[rows] = np.arange(len(rows))
        if rows is None:
            return self._chunk[:, c]
        return self._chunk[self._row_of[rows], c]


def normal_increments(seed: int, n_steps: int, dt: float) -> np.ndarray:
    """Seeded N(0, dt) increments, shape (n_steps,): the one-path
    ``IncrementStreams``."""
    return IncrementStreams([seed], n_steps, dt).next(n_steps)[0]


@dataclass
class FbsdePath:
    """One simulated trajectory on a uniform grid over the unit horizon."""

    t_grid: np.ndarray
    W: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    seed: int
    z_abs_max_raw: float


def _simulate_arrays(f: DecouplingField, seeds: np.ndarray, n_steps: int,
                     x1_0: float, x2_0: float, paths: bool = False):
    """Vectorized Euler sweep for a block of paths.

    Returns ``(t_grid, W, X2, Y, Z, z_abs_max_raw)``; ``X2`` and ``Y`` have
    shape (n_paths, n_steps + 1).  With ``paths`` set, ``W`` and ``Z`` are
    whole path arrays of that shape too; otherwise ``W`` is only the running
    column W_T, of shape (n_paths,), and ``Z`` is ``None``.  ``X1`` is not
    stored: it is ``x1_0 + W``, formed column by column for the field
    lookups.  W adds up the increments in step order, as ``np.cumsum`` does.
    """
    dt = 1.0 / n_steps
    n = seeds.size

    t_grid = np.linspace(0.0, 1.0, n_steps + 1)
    # one buffer for all path arrays: freed as a whole when the last view
    # goes, where separate arrays can be left fragmented in the heap
    X2, Y, *rest = np.empty((4 if paths else 2, n, n_steps + 1))
    W, Z = rest if paths else (None, None)
    noise = IncrementStreams(seeds, n_steps, dt)
    w = np.zeros(n)
    X2[:, 0] = x2_0
    L_g = f.g_lipschitz
    z_raw_max = np.zeros(n)

    for k in range(n_steps + 1):
        if paths:
            W[:, k] = w
        zk, Y[:, k] = eval_field(f, t_grid[k], x1_0 + w, X2[:, k],
                                 ("u1", "u"))
        np.maximum(z_raw_max, np.abs(zk), out=z_raw_max)
        zk = np.minimum(np.maximum(-L_g, zk), L_g)
        if paths:
            Z[:, k] = zk
        if k < n_steps:
            X2[:, k + 1] = X2[:, k] + zk * zk * dt
            w = w + noise.column(k)
    return t_grid, W if paths else w, X2, Y, Z, z_raw_max


def _paths(t_grid, W, X2, Y, Z, zmax, seeds, x1_0: float) -> list[FbsdePath]:
    """Whole paths from the arrays of ``_simulate_arrays(..., paths=True)``."""
    return [FbsdePath(t_grid=t_grid, W=W[i], X1=x1_0 + W[i], X2=X2[i],
                      Y=Y[i], Z=Z[i], seed=int(seeds[i]),
                      z_abs_max_raw=float(zmax[i]))
            for i in range(seeds.size)]


def simulate_block(f: DecouplingField, base_seed: int, indices,
                   n_steps: int, x1_0: float = 0.0,
                   x2_0: float = 0.0) -> list[FbsdePath]:
    """Simulate the paths with the given indices, each keyed by
    ``path_seed(base_seed, index)`` and independent of the other indices."""
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    seeds = path_seed(base_seed, np.asarray(indices, dtype=int))
    arrays = _simulate_arrays(f, seeds, n_steps, x1_0, x2_0, paths=True)
    return _paths(*arrays, seeds, x1_0)


@dataclass
class EnsembleResult:
    """Reduced statistics of an independent path ensemble (common start)."""

    n_paths: int
    n_steps: int
    y0: float
    t_checkpoints: np.ndarray          # (8,)
    Y_checkpoints: np.ndarray          # (n_paths, 8)
    sumZ2_checkpoints: np.ndarray      # (n_paths, 8) running int Z^2 dt
    qv_checkpoints: np.ndarray         # (n_paths, 8) running sum (dY)^2
    X1_T: np.ndarray
    X2_T: np.ndarray
    Y_T: np.ndarray
    z_abs_max_raw: np.ndarray
    seeds: np.ndarray


def simulate_ensemble(f: DecouplingField, n_paths: int, n_steps: int,
                      seed: int) -> EnsembleResult:
    """Embarrassingly parallel ensemble from the origin, simulated block by
    block through ``map_blocks`` and reduced to checkpoint and terminal
    statistics."""
    if n_steps % N_CHECKPOINTS:
        raise ConfigError(f"n_steps must be divisible by {N_CHECKPOINTS}")
    dt = 1.0 / n_steps
    ck = (np.arange(1, N_CHECKPOINTS + 1) * (n_steps // N_CHECKPOINTS))
    seeds = path_seed(seed, np.arange(n_paths))

    def run_block(lo: int, hi: int):
        _, W_T, X2, Y, _, zmax = _simulate_arrays(f, seeds[lo:hi], n_steps,
                                                  0.0, 0.0)
        qv = np.cumsum(np.diff(Y, axis=1) ** 2, axis=1)
        # from X2_0 = 0, X2_k is the running sum of Z^2 dt up to step k - 1
        return (Y[:, ck], X2[:, ck], qv[:, ck - 1], W_T, X2[:, -1],
                Y[:, -1], zmax)

    Y_ck, sz2_ck, qv_ck, X1_T, X2_T, Y_T, zmax = map_blocks(
        n_paths, _ENSEMBLE_BLOCK, run_block)
    return EnsembleResult(
        n_paths=n_paths, n_steps=n_steps,
        y0=float(eval_field(f, 0.0, 0.0, 0.0, "u")),
        t_checkpoints=ck * dt, Y_checkpoints=Y_ck, sumZ2_checkpoints=sz2_ck,
        qv_checkpoints=qv_ck, X1_T=X1_T, X2_T=X2_T, Y_T=Y_T,
        z_abs_max_raw=zmax, seeds=seeds)


def backward_residual(p: FbsdePath) -> float:
    """Discrete defect of the backward equation along one path:
    max_k |Y_k - (Y_T - sum_{j >= k} Z_j dW_j)|."""
    dW = np.diff(p.W)
    zdw = p.Z[:-1] * dW
    tail = zdw[::-1].cumsum()[::-1]          # sum_{j >= k} Z_j dW_j
    recon = p.Y[-1] - np.concatenate([tail, [0.0]])
    return float(np.abs(p.Y - recon).max())


@dataclass
class MartingaleReport:
    n_paths: int
    t_checkpoints: np.ndarray
    mean_Y: np.ndarray
    band: np.ndarray                   # 3 sigma / sqrt(N) per checkpoint
    y0: float
    mean_passed: np.ndarray
    qv_mean: np.ndarray                # mean sum (dY)^2 at checkpoints
    sumZ2_mean: np.ndarray             # mean int Z^2 at checkpoints
    qv_band: np.ndarray
    qv_passed: np.ndarray

    @property
    def all_passed(self) -> bool:
        return bool(self.mean_passed.all() and self.qv_passed.all())


def martingale_check(ensemble: EnsembleResult) -> MartingaleReport:
    """Martingale band test for Y at the checkpoints plus a comparison of the
    accumulated control energy against the realized quadratic variation.

    The quadratic-variation band adds a 2% relative allowance for the
    first-order Euler bias on top of the 3 sigma sampling band; it is a
    report, never an exception.
    """
    n = ensemble.n_paths
    mean_Y = ensemble.Y_checkpoints.mean(axis=0)
    band = 3.0 * ensemble.Y_checkpoints.std(axis=0) / np.sqrt(n)
    mean_passed = np.abs(mean_Y - ensemble.y0) <= band + 1e-12

    diff = ensemble.sumZ2_checkpoints - ensemble.qv_checkpoints
    qv_mean = ensemble.qv_checkpoints.mean(axis=0)
    sz_mean = ensemble.sumZ2_checkpoints.mean(axis=0)
    qv_band = (3.0 * diff.std(axis=0) / np.sqrt(n)
               + 0.02 * np.maximum(sz_mean, 1e-8) + 1e-6)
    qv_passed = np.abs(diff.mean(axis=0)) <= qv_band

    return MartingaleReport(
        n_paths=n, t_checkpoints=ensemble.t_checkpoints, mean_Y=mean_Y,
        band=band, y0=ensemble.y0, mean_passed=mean_passed,
        qv_mean=qv_mean, sumZ2_mean=sz_mean, qv_band=qv_band,
        qv_passed=qv_passed)

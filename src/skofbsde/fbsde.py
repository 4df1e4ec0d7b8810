"""Euler simulation of the decoupled forward-backward system.

Paths start at the origin and follow X1 = W, dX2 = Z^2 dt with the control
read off the solved field, Z = u1(t, X1, X2), and Y = u(t, X1, X2).  The
backward-equation defect of simulated paths is the ground-truth oracle for
the PDE solve: if the two disagree, the paths win.

Randomness is reproducible bit-for-bit across platforms: each path owns a
64-bit seed (SplitMix64-derived from a base seed and the path index), feeding
a Philox 4x64 counter-based generator; uniforms are 53-bit integers mapped to
(0, 1) and normal increments come from the package's own inverse normal CDF.
The sweeps draw the increments in column chunks from the per-path streams
(``IncrementStreams``), so no whole (paths, steps) noise matrix is held, and
a path's increments do not depend on the chunk width.
By certified bound, |Z| <= L_g; evaluated controls are projected onto that
interval (raw magnitudes are recorded for the bound diagnostics).

Of the three lookups of a step, only Z feeds back (into X2).  The sweep's
loop over steps therefore reads only u1 and updates X2; X1 and its x1 cells
are formed before the loop and Y = u is read after it, at the cells the u1
reads found, once per block of steps (``_STEP_BLOCK_BYTES`` per (steps,
paths) array).  Each sweep holds its own u1 slab of two time layers
(``field._u1_slab``); nothing is kept on the field, so a forked half and
a later sweep start with none.  The cells, weights and interpolation are
the helpers of ``eval_field``, so the outputs are bitwise those of two
calls per step, ``eval_field(f, t_k, X1_k, X2_k, "u1")`` and the same with
``"u"``.

Every path ensemble here and in the embeddings runs through ``map_blocks``:
on a machine with two CPUs, the upper half of a large ensemble runs in one
forked process (``field.run_halves``); each half runs its blocks of
consecutive path indices one after another, and the per-path results are
copied into whole-ensemble arrays in path order, so outputs depend neither
on the block size nor on the split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .field import (DecouplingField, _corner_index, _lerp, _time_cell,
                    _u1_slab, _unit, _x1_cell, _x2_cell, eval_field,
                    run_halves)
from .measure import phi_inv

__all__ = ["FbsdePath", "EnsembleResult", "MartingaleReport", "path_seed",
           "normal_increments", "IncrementStreams", "map_blocks",
           "simulate_block", "simulate_ensemble",
           "backward_residual", "martingale_check"]

_MASK64 = (1 << 64) - 1
_ENSEMBLE_BLOCK = 1024
# smaller ensembles stay in one process: half of a 256-path, 256-step
# ensemble takes about as long as a fork and reap, 4-6 ms at 220 MB RSS
_SPLIT_MIN_PATHS = 256
# columns per draw of IncrementStreams: a (1024, 256) chunk is 2 MiB
_NOISE_CHUNK = 256
# bytes of one (steps, paths) float array of an Euler sweep's block of steps:
# X1, its cells and weights, and Y, which is read a block at a time
_STEP_BLOCK_BYTES = 2**16
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
        # fixed cost per call.  The words are freed before phi_inv runs
        v >>= np.uint64(11)
        z = v.astype(np.float64)
        del v
        z += 0.5
        z *= 2.0**-53
        z = phi_inv(z)
        z *= self.scale
        return z

    def column(self, k: int, rows=None) -> np.ndarray:
        """Increment ``k`` of the paths in ``rows`` (default: all); ``k``
        runs 0, 1, ... in order."""
        c = k % _NOISE_CHUNK
        if c == 0:
            self._chunk = None          # freed before the next is drawn
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
    """One simulated trajectory on a uniform grid over the unit horizon.

    Paths start at the origin, so X1 = W: ``X1`` is ``W``'s array, not a
    copy, and writing into one writes into the other."""

    t_grid: np.ndarray
    W: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    seed: int
    z_abs_max_raw: float


def _simulate_arrays(f: DecouplingField, seeds: np.ndarray, n_steps: int,
                     paths: bool = False):
    """Vectorized Euler sweep for a block of paths from the origin.

    Returns ``(t_grid, W, X2, Y, Z, z_abs_max_raw)``; ``X2`` and ``Y`` have
    shape (n_paths, n_steps + 1).  With ``paths`` set, ``W`` and ``Z`` are
    whole path arrays of that shape too; otherwise ``W`` is only the running
    column W_T, of shape (n_paths,), and ``Z`` is ``None``.  ``X1`` is not
    stored: it is ``W``, copied a block of steps at a time for the field
    lookups.  W adds up the increments in step order, as ``np.cumsum`` does.

    The loop over steps reads u1 and updates X2; each block of
    ``_STEP_BLOCK_BYTES // (8 n_paths)`` steps forms X1 and its x1 cells
    before the loop and reads Y = u after it, at the cells the u1 reads
    found, with one gather of ``u`` (see the module docstring).
    """
    dt = 1.0 / n_steps
    n = seeds.size
    nx2 = f.u.shape[2]
    strides = (f.u.shape[1] * nx2, nx2, 1)

    t_grid = np.linspace(0.0, 1.0, n_steps + 1)
    # one buffer for all path arrays: freed as a whole when the last view
    # goes, where separate arrays can be left fragmented in the heap
    X2, Y, *rest = np.empty((4 if paths else 2, n, n_steps + 1))
    W, Z = rest if paths else (None, None)
    noise = IncrementStreams(seeds, n_steps, dt)
    w = np.zeros(n)
    x2 = np.zeros(n)
    X2[:, 0] = x2
    L_g = f.g_lipschitz
    z_raw_max = np.zeros(n)
    m = max(_STEP_BLOCK_BYTES // (8 * max(n, 1)), 1)
    slab = None                         # this sweep's (index, u1 time slab)

    for k0 in range(0, n_steps + 1, m):
        k1 = min(k0 + m, n_steps + 1)
        steps = range(k0, k1)
        x1 = np.empty((k1 - k0, n))
        for x1k, k in zip(x1, steps):
            if paths:
                W[:, k] = w
            x1k[:] = w
            if k < n_steps:
                w = w + noise.column(k)
        # per step: the flat index of each path's cell corner in u, the
        # time weight and the x1 and x2 weights (u1 clamps x1, u does not)
        cell, w1 = _x1_cell(f, x1)
        del x1
        cell *= nx2
        w1_unit, w2 = _unit(w1), np.empty_like(w1)
        it, wt = _time_cell(f, t_grid[k0:k1, None])
        for j, k in enumerate(steps):
            i2, w2[j] = _x2_cell(f, x2)
            cell[j] += i2
            slab = _u1_slab(f, 0, int(it[j, 0]), slab)
            zk = _lerp(np.take(slab[1].reshape(-1),
                               _corner_index(strides, cell[j])),
                       w1_unit[j], w2[j], wt[j, 0])
            cell[j] += it[j, 0] * strides[0]
            np.maximum(z_raw_max, np.abs(zk), out=z_raw_max)
            zk = np.minimum(np.maximum(-L_g, zk), L_g)
            if paths:
                Z[:, k] = zk
            if k < n_steps:
                x2 = x2 + zk * zk * dt
                X2[:, k + 1] = x2
        del w1_unit
        Y[:, k0:k1] = _lerp(
            np.take(f.u.reshape(-1), _corner_index(strides, cell)),
            w1, w2, wt).T
    return t_grid, W if paths else w, X2, Y, Z, z_raw_max


def _paths(t_grid, W, X2, Y, Z, zmax, seeds) -> list[FbsdePath]:
    """Whole paths from the arrays of ``_simulate_arrays(..., paths=True)``."""
    return [FbsdePath(t_grid=t_grid, W=W[i], X1=W[i], X2=X2[i],
                      Y=Y[i], Z=Z[i], seed=int(seeds[i]),
                      z_abs_max_raw=float(zmax[i]))
            for i in range(seeds.size)]


def simulate_block(f: DecouplingField, base_seed: int, indices,
                   n_steps: int) -> list[FbsdePath]:
    """Simulate the paths with the given indices, each keyed by
    ``path_seed(base_seed, index)`` and independent of the other indices."""
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    seeds = path_seed(base_seed, np.asarray(indices, dtype=int))
    return _paths(*_simulate_arrays(f, seeds, n_steps, paths=True), seeds)


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
        _, W_T, X2, Y, _, zmax = _simulate_arrays(f, seeds[lo:hi], n_steps)
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

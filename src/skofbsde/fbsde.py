"""Euler simulation of the decoupled forward-backward system.

Paths follow X1 = x1 + W, dX2 = Z^2 dt with the control read off the solved
field, Z = u1(t, X1, X2), and Y = u(t, X1, X2).  The backward-equation defect
of simulated paths is the ground-truth oracle for the PDE solve: if the two
disagree, the paths win.

Randomness is reproducible bit-for-bit across platforms: each path owns a
64-bit seed (SplitMix64-derived from a base seed and the path index), feeding
a Philox 4x64 counter-based generator; uniforms are 53-bit integers mapped to
(0, 1) and normal increments come from the package's own inverse normal CDF.
By certified bound, |Z| <= L_g; evaluated controls are projected onto that
interval (raw magnitudes are recorded for the bound diagnostics).

Every path ensemble here and in the embeddings runs through ``map_blocks``:
blocks of consecutive path indices are processed one after another and their
per-path results copied into whole-ensemble arrays in path order, so outputs
do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .field import DecouplingField, eval_field
from .measure import phi_inv

__all__ = ["FbsdePath", "EnsembleResult", "MartingaleReport", "path_seed",
           "normal_increments", "increment_block", "map_blocks",
           "simulate_path", "simulate_block", "simulate_ensemble",
           "backward_residual", "martingale_check"]

_MASK64 = (1 << 64) - 1
_ENSEMBLE_BLOCK = 1024
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

    The copy means ``fn`` may return views into its block's temporaries; they
    are released before the next block starts.
    """
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    out = None
    for lo in range(0, n_paths, block):
        hi = min(lo + block, n_paths)
        parts = [np.asarray(a) for a in fn(lo, hi)]
        if out is None:
            out = tuple(np.empty((n_paths,) + a.shape[1:], dtype=a.dtype)
                        for a in parts)
        for whole, a in zip(out, parts):
            whole[lo:hi] = a
        del parts
    return out


def _uniforms(seed: int, shape) -> np.ndarray:
    """Strictly interior uniforms (v + 1/2) / 2^53 from a Philox stream."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    v = gen.integers(0, 1 << 53, size=shape, dtype=np.uint64)
    return (v.astype(np.float64) + 0.5) * 2.0**-53


def normal_increments(seed: int, n_steps: int, dt: float) -> np.ndarray:
    """Seeded N(0, dt) increments, shape (n_steps,)."""
    return np.sqrt(dt) * np.asarray(phi_inv(_uniforms(seed, n_steps)))


def increment_block(seeds, n_steps: int, dt: float) -> np.ndarray:
    """One row of ``normal_increments`` per seed, shape (len(seeds), n_steps).

    Rows are written one at a time into the result, so the only temporaries
    are row-sized.
    """
    dW = np.empty((len(seeds), n_steps))
    for row, s in zip(dW, seeds):
        row[:] = normal_increments(int(s), n_steps, dt)
    return dW


@dataclass
class FbsdePath:
    """One simulated trajectory on a uniform grid over [0, T]."""

    t_grid: np.ndarray
    W: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    seed: int
    z_abs_max_raw: float
    z_clip: float | None


def _simulate_arrays(f: DecouplingField, seeds: np.ndarray, n_steps: int,
                     x1_0: float, x2_0: float, clip_z: bool,
                     keep_z: bool = False):
    """Vectorized Euler sweep for a block of paths.

    Returns ``(t_grid, W, X2, Y, Z, z_abs_max_raw)`` with path arrays of shape
    (n_paths, n_steps + 1).  ``X1`` is not stored: it is ``x1_0 + W``, formed
    column by column for the field lookups.  ``Z`` is kept only when
    ``keep_z`` is set and is ``None`` otherwise; each row of ``W`` is
    cumulated from its increments in place.
    """
    T = f.T
    dt = T / n_steps
    n = seeds.size

    t_grid = np.linspace(0.0, T, n_steps + 1)
    # one buffer for all path arrays: freed as a whole when the last view
    # goes, where separate arrays can be left fragmented in the heap
    W, X2, Y, *rest = np.empty((4 if keep_z else 3, n, n_steps + 1))
    Z = rest[0] if keep_z else None
    W[:, 0] = 0.0
    for row, s in zip(W, seeds):
        np.cumsum(normal_increments(int(s), n_steps, dt), out=row[1:])
    X2[:, 0] = x2_0
    clip = f.g_lipschitz if clip_z else None
    z_raw_max = np.zeros(n)

    for k in range(n_steps + 1):
        zk, Y[:, k] = eval_field(f, t_grid[k], x1_0 + W[:, k], X2[:, k],
                                 ("u1", "u"))
        np.maximum(z_raw_max, np.abs(zk), out=z_raw_max)
        if clip is not None:
            zk = np.minimum(np.maximum(-clip, zk), clip)
        if keep_z:
            Z[:, k] = zk
        if k < n_steps:
            X2[:, k + 1] = X2[:, k] + zk * zk * dt
    return t_grid, W, X2, Y, Z, z_raw_max


def _paths(t_grid, W, X2, Y, Z, zmax, seeds, x1_0: float,
           z_clip: float | None) -> list[FbsdePath]:
    """Whole paths from the arrays of ``_simulate_arrays(..., keep_z=True)``."""
    return [FbsdePath(t_grid=t_grid, W=W[i], X1=x1_0 + W[i], X2=X2[i],
                      Y=Y[i], Z=Z[i], seed=int(seeds[i]),
                      z_abs_max_raw=float(zmax[i]), z_clip=z_clip)
            for i in range(seeds.size)]


def simulate_path(f: DecouplingField, x1_0: float = 0.0, x2_0: float = 0.0,
                  n_steps: int = 4096, seed: int = 0,
                  clip_z: bool = True) -> FbsdePath:
    """Simulate one path; identical seed gives a bit-identical path."""
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    seeds = np.array([seed], dtype=np.uint64)
    arrays = _simulate_arrays(f, seeds, n_steps, x1_0, x2_0, clip_z,
                              keep_z=True)
    return _paths(*arrays, seeds, x1_0, f.g_lipschitz if clip_z else None)[0]


def simulate_block(f: DecouplingField, base_seed: int, indices,
                   n_steps: int, x1_0: float = 0.0, x2_0: float = 0.0,
                   clip_z: bool = True) -> list[FbsdePath]:
    """Simulate the paths with the given indices (seeds derived per path)."""
    seeds = path_seed(base_seed, np.asarray(indices, dtype=int))
    arrays = _simulate_arrays(f, seeds, n_steps, x1_0, x2_0, clip_z,
                              keep_z=True)
    return _paths(*arrays, seeds, x1_0, f.g_lipschitz if clip_z else None)


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
                      seed: int, x1_0: float = 0.0, x2_0: float = 0.0,
                      clip_z: bool = True) -> EnsembleResult:
    """Embarrassingly parallel ensemble, simulated block by block through
    ``map_blocks`` and reduced to checkpoint and terminal statistics."""
    if n_steps % N_CHECKPOINTS:
        raise ConfigError(f"n_steps must be divisible by {N_CHECKPOINTS}")
    dt = f.T / n_steps
    ck = (np.arange(1, N_CHECKPOINTS + 1) * (n_steps // N_CHECKPOINTS))
    seeds = path_seed(seed, np.arange(n_paths))

    def run_block(lo: int, hi: int):
        t_grid, W, X2, Y, Z, zmax = _simulate_arrays(
            f, seeds[lo:hi], n_steps, x1_0, x2_0, clip_z, keep_z=True)
        qv = np.cumsum(np.diff(Y, axis=1) ** 2, axis=1)
        sz2 = np.cumsum(Z[:, :-1] ** 2 * dt, axis=1)
        return (Y[:, ck], sz2[:, ck - 1], qv[:, ck - 1], x1_0 + W[:, -1],
                X2[:, -1], Y[:, -1], zmax)

    Y_ck, sz2_ck, qv_ck, X1_T, X2_T, Y_T, zmax = map_blocks(
        n_paths, _ENSEMBLE_BLOCK, run_block)
    return EnsembleResult(
        n_paths=n_paths, n_steps=n_steps,
        y0=float(eval_field(f, 0.0, x1_0, x2_0, "u")),
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

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "y0": self.y0,
            "t_checkpoints": self.t_checkpoints.tolist(),
            "mean_Y": self.mean_Y.tolist(),
            "band": self.band.tolist(),
            "mean_passed": self.mean_passed.tolist(),
            "qv_mean": self.qv_mean.tolist(),
            "sumZ2_mean": self.sumZ2_mean.tolist(),
            "qv_band": self.qv_band.tolist(),
            "qv_passed": self.qv_passed.tolist(),
            "all_passed": self.all_passed,
        }


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

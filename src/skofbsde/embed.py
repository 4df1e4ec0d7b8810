"""Weak and strong Skorokhod embeddings built on a solved decoupling field.

Weak construction (per simulated path): the random time is the inverse clock
of the accumulated control energy, tau = H^{-1}(int_0^1 Z^2 ds).  The scale
process sigma is the monotone inverse of t -> H^{-1}(X2_t) and the embedding
Brownian motion is reconstructed as B_r = int (1/beta_s) dY_{sigma_s} on a
uniform r-grid.  The defining identity

    Y_0 + delta_hat(tau) + int_0^tau beta dB = g(W_1)

is verified numerically per path.

Strong construction: the pair (sigma, Sigma) is integrated from

    d sigma_r = beta_r^2 / u1(sigma_r, Sigma_r, H(r))^2 dr,
    d Sigma_r = beta_r / u1(sigma_r, Sigma_r, H(r)) dB_r,

with u1 clamped into [DERIV_FLOOR_EPS, L_g] (positivity holds before the
terminal time but with no quantitative floor; L_g is the certified upper
bound).  A block integrates only its live paths.  A path stops at the
first crossing sigma_r >= 1, located by linear interpolation inside the
bracketing step, or at a localization guard: the end r_max of the r-grid
(guard "K1") or |Sigma| >= K2 (guard "K2"), both derived from the certified
bound by ``strong_limits`` and never binding in practice; one stop step
records either by path id and drops the path.  Applying the same functional
to fresh driving noise (the role of the original Brownian motion) produces
the strong stopping time and the stopped value
c + delta_hat(tau) + int beta dW.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coeffs import ProcessCoefficients
from .errors import ConfigError
from .fbsde import (FbsdePath, IncrementStreams, _simulate_arrays, map_blocks,
                    normal_increments, path_seed)
from .field import (DecouplingField, _check_memory, _corner_index, _lerp,
                    _time_cell, _u1_slab, _unit, _x1_cell, _x2_cell,
                    eval_field)

__all__ = ["WeakEmbedding", "EmbeddingResult", "weak_embed",
           "weak_embed_ensemble", "strong_embed_on_W", "coupled_round_trip",
           "strong_limits", "check_path_memory", "SIGMA_RATE_TOL"]

# step-size rule for the (sigma, Sigma) integration: L_g^2 dr / beta_floor^2
# must not exceed this
SIGMA_RATE_TOL = 1e-3
DERIV_FLOOR_EPS = 1e-6      # floor of u1 in the strong rule's beta / u1
# fraction of integration steps with the u1 floor clamp active that triggers
# a warning
CLAMP_WARN_FRACTION = 1e-3
_WEAK_B_STEPS = 512
_STRONG_SEED_SALT = 0xD1FF5EED0001
# paths per block of the three ensemble routines: per-call overhead against
# block memory.  A weak or round-trip block holds two (block, n_steps + 1)
# arrays (X2, Y); a strong block holds (block, 256) noise chunks.  One pass,
# 4096 steps, u resident, peak RSS in MB (s), two runs in one process;
# x86-64, one BLAS thread:
#   weak at 512 / 768 / 1024, many_paths field, 2048 paths, from 31 MB:
#   77 / 95-96 / 111-112 (2.6-3.8 / 2.5-3.6 / 3.1-3.3); default field, 1024
#   paths, from 95 MB: 141 / 157-158 / 176 (1.3-1.9 / 1.7-2.1 / 1.4-1.8).
#   Round trip, 500 paths, at 256 / 512: many_paths 62 / 80 (1.9-2.2 /
#   1.1-1.3), default 127 / 144 (1.6-2.9 / 1.3-1.6).  A smaller block saves
#   memory but costs time, so the sizes stay; the weak pass sets the peak of
#   `skofbsde embed`.
_WEAK_BLOCK = 1024
_STRONG_BLOCK = 2048
_ROUND_TRIP_BLOCK = 512
_DUMP_BLOCK = _WEAK_BLOCK // 2     # `--dump-paths` holds 4 path arrays, not 2
# rows per pass of the weak time change.  At 4096 steps its (rows,
# n_steps + 1) clock nodes take 1 MiB and its (rows, 513) r-grid, Y_at, dB
# and beta arrays 128 KiB each (4 MiB and 513 KiB at 128 rows).  On 512
# default-field paths the time change took 49-55 ms (medians of 7 runs) at
# 16 to 128 rows and 59 ms at 8.  32 rows rather than 128 lower the peak RSS
# of the library acceptance traffic from 167.5 to 162.3 MB; 16 lower it no
# further
_TIME_CHANGE_ROWS = 32


def strong_limits(g_lipschitz: float, coeffs: ProcessCoefficients,
                  n_steps: int | None = None):
    """``(tau_bound, r_max, K2, dr)`` of the strong pass.

    ``tau_bound`` is H^{-1}(L_g^2), the certified bound on every stopping
    time.  The localization guards are derived from it.  The r-grid ends
    at ``r_max = min(2 tau_bound, T_phys (1 - 1e-9))``, inside the clock
    table that ends at H(T_phys) = x2_hi; with the default box 1.05 L_g^2
    (and sup beta^2 < 20 beta_floor^2) the cap binds and still lies above
    tau_bound.  ``K2 = 10 sqrt(2 tau_bound) max(sup |beta|, 1)``, with
    sup |beta| read on the coefficients' quadrature grid.

    ``dr`` is ``None`` unless ``n_steps`` is given; then
    ``dr = r_max / n_steps``, and a :class:`ConfigError` is raised when
    ``dr L_g^2 / beta_floor^2`` exceeds ``SIGMA_RATE_TOL``.  The rule reads
    only L_g, the clock and the step count, so the command line checks it
    when it reads the configuration, before any work.
    """
    bound = float(coeffs.clock_H_inv(g_lipschitz ** 2))
    r_max = min(2.0 * bound, coeffs.t_phys * (1.0 - 1e-9))
    K2 = 10.0 * np.sqrt(max(2.0 * bound, 1e-12)) * max(coeffs.beta_sup, 1.0)
    dr = None
    if n_steps is not None:
        dr = r_max / n_steps
        if g_lipschitz > 0 and dr * g_lipschitz**2 / coeffs.beta_floor**2 > SIGMA_RATE_TOL:
            raise ConfigError(
                f"dr = {dr:.3e} too coarse for the time-change rate; "
                f"increase the embedding n_steps")
    return bound, r_max, K2, dr


def check_path_memory(n_paths: int, n_steps: int, embed_steps: int) -> None:
    """Refuse (:class:`ConfigError`) a path run of ``n_paths`` paths of
    ``n_steps`` Euler steps and a strong pass of ``embed_steps`` steps
    whose estimated peak memory is above the machine's physical memory.
    The command line checks it when it reads the configuration, before any
    work.

    The estimate counts float64 values, both processes of a split
    together: the weak blocks' X2 and Y, (block, n_steps + 1) each, and,
    rounded up, what the peak RSS of ``skofbsde embed`` grew by per strong
    step (7.0 values, 16 paths, 1e5 to 4e5 steps: the r-grid arrays) and
    per path (23.0, 2e5 to 4e5 paths: the per-path outputs) on
    configs/smoke_small.json.  The weak term also covers ``--dump-paths``,
    which runs in blocks of ``_DUMP_BLOCK`` paths."""
    values = (2 * min(n_paths, _WEAK_BLOCK) * (n_steps + 1)
              + 8 * embed_steps + 24 * n_paths)
    _check_memory(8 * values, "path run",
                  "reduce simulation n_paths or n_steps, or embedding n_steps")


def tau_bound(f: DecouplingField, coeffs: ProcessCoefficients) -> float:
    """Certified bound H^{-1}(L_g^2) on every stopping time."""
    return strong_limits(f.g_lipschitz, coeffs)[0]


@dataclass
class WeakEmbedding:
    tau_weak: float
    stopped_value: float
    r_grid: np.ndarray
    B: np.ndarray
    identity_residual: float
    sigma_inverse_defect: float


def _monotone_nodes(r_nodes: np.ndarray, t_grid: np.ndarray):
    """The clock nodes of one path where r strictly increases, with their
    times: the table of the inverse time change sigma."""
    keep = np.concatenate([[True], np.diff(r_nodes) > 0.0])
    if keep.all():
        return r_nodes, t_grid
    return r_nodes[keep], t_grid[keep]


def _weak_time_change(coeffs: ProcessCoefficients, t_grid: np.ndarray,
                      X2: np.ndarray, Y: np.ndarray, X1_T: np.ndarray, g,
                      paths: bool = False):
    """Weak time change of each row of a block of paths: ``X2`` and ``Y`` of
    shape (n, n_steps + 1) on ``t_grid``, ``X1_T`` of shape (n,).

    Returns per-row arrays ``(tau, stopped, residual, r_grid, B)``.  The
    r-grids ``np.linspace(0, tau, _WEAK_B_STEPS + 1)`` and the reconstructed
    Brownian motion ``B`` on them, shape (n, _WEAK_B_STEPS + 1), are
    returned only with ``paths`` set, and are ``None`` otherwise.

    Rows go ``_TIME_CHANGE_ROWS`` at a time: the inverse clock, the r-grids,
    ``beta``, ``delta_hat`` and ``g`` are evaluated once per sub-block, and
    only the two interpolations through sigma run row by row.
    """
    n = X2.shape[0]
    tau, stopped, residual = np.empty((3, n))
    r_grid = np.empty((n, _WEAK_B_STEPS + 1)) if paths else None
    B = np.empty((n, _WEAK_B_STEPS + 1)) if paths else None
    steps = np.arange(_WEAK_B_STEPS + 1.0)
    for lo in range(0, n, _TIME_CHANGE_ROWS):
        hi = min(lo + _TIME_CHANGE_ROWS, n)
        r_nodes = np.asarray(coeffs.clock_H_inv(X2[lo:hi]))
        tau_b = tau[lo:hi]
        tau_b[:] = r_nodes[:, -1]
        # each row is np.linspace(0, tau, _WEAK_B_STEPS + 1) bit for bit
        # (the step count is a power of two, so the last node is tau);
        # np.linspace with an array of stops switches every row to another
        # formula when one row's step is zero
        r_b = steps * (tau_b / _WEAK_B_STEPS)[:, None]
        Y_at = np.empty_like(r_b)
        for j in range(hi - lo):
            sigma = np.interp(r_b[j], *_monotone_nodes(r_nodes[j], t_grid))
            Y_at[j] = np.interp(sigma, t_grid, Y[lo + j])
        del r_nodes                 # before the next sub-block makes its own

        dB = np.diff(Y_at, axis=1)
        dB /= coeffs.beta(r_b[:, :-1])
        beta_mid = np.asarray(coeffs.beta(0.5 * (r_b[:, :-1] + r_b[:, 1:])))
        int_beta_dB = np.sum(beta_mid * dB, axis=1)

        Y0 = Y[lo:hi, 0]
        stopped[lo:hi] = Y0 + coeffs.delta_hat(tau_b) + int_beta_dB
        if g is not None:
            residual[lo:hi] = np.abs(stopped[lo:hi]
                                     - np.asarray(g(X1_T[lo:hi])))
        else:
            residual[lo:hi] = np.abs(int_beta_dB - (Y[lo:hi, -1] - Y0))
        if paths:
            r_grid[lo:hi] = r_b
            B[lo:hi, 0] = 0.0
            np.cumsum(dB, axis=1, out=B[lo:hi, 1:])
    return tau, stopped, residual, r_grid, B


def weak_embed(p: FbsdePath, coeffs: ProcessCoefficients,
               g=None) -> WeakEmbedding:
    """Time-change one simulated path into an embedding.

    When ``g`` is provided the identity residual compares the reconstructed
    stopped value against g(W_1); otherwise it measures the internal
    consistency of the reconstruction.
    """
    tau, stopped, residual, r_grid, B = _weak_time_change(
        coeffs, p.t_grid, p.X2[None], p.Y[None], p.X1[-1:], g, paths=True)
    # defect of the discrete inverse at the original path nodes
    r_nodes = np.asarray(coeffs.clock_H_inv(p.X2))
    sigma_nodes = np.interp(r_nodes, *_monotone_nodes(r_nodes, p.t_grid))
    return WeakEmbedding(
        tau_weak=float(tau[0]), stopped_value=float(stopped[0]),
        r_grid=r_grid[0], B=B[0], identity_residual=float(residual[0]),
        sigma_inverse_defect=float(np.abs(sigma_nodes - p.t_grid).max()))


def weak_embed_ensemble(f: DecouplingField, coeffs: ProcessCoefficients,
                        n_paths: int, n_steps: int, seed: int, g=None) -> dict:
    """Weak embedding of a whole seeded ensemble, the paths of
    ``simulate_block(f, seed, range(n_paths), n_steps)`` each passed through
    ``weak_embed``.

    Returns per-path arrays: ``seeds``, ``tau_weak``, ``stopped_value``,
    ``identity_residual``, ``z_abs_max_raw`` and ``X2_T``.
    """
    seeds = path_seed(seed, np.arange(n_paths))

    def run_block(lo: int, hi: int):
        t_grid, W_T, X2, Y, _, zmax = _simulate_arrays(f, seeds[lo:hi],
                                                       n_steps)
        tau, stopped, residual, _, _ = _weak_time_change(
            coeffs, t_grid, X2, Y, W_T, g)
        return seeds[lo:hi], tau, stopped, residual, zmax, X2[:, -1]

    keys = ("seeds", "tau_weak", "stopped_value", "identity_residual",
            "z_abs_max_raw", "X2_T")
    return dict(zip(keys, map_blocks(n_paths, _WEAK_BLOCK, run_block)))


# ----------------------------------------------------------------------------
# strong construction
# ----------------------------------------------------------------------------

def _integrate_strong(f: DecouplingField, coeffs: ProcessCoefficients,
                      dB: np.ndarray | IncrementStreams, dr: float,
                      r_max: float, K2: float):
    """Euler integration of the (sigma, Sigma) system for a block of n
    driving paths of M increments each, up to r = min(r_max, M dr).  ``dB``
    is an (n, M) array, or ``IncrementStreams`` of n paths and M steps.

    The state (ids, sigma, Sigma, int beta dB) holds the live paths only,
    and the noise is read for their ids.  ``stop`` writes the per-path
    results of a crossing (``guard`` 0), the end of the r-grid (1) or a K2
    breach (2) by id; stopped paths are then compacted away.  A guard stop
    is reported, never raised.  Per path, ``steps`` counts the steps it was
    live and ``clamp_hits`` those of them with the u1 floor clamp active."""
    if isinstance(dB, IncrementStreams):
        n, M, column = len(dB.gens), dB.n_steps, dB.column
    else:
        (n, M), column = dB.shape, lambda m, rows: dB[rows, m]
    m_max = min(M, int(np.ceil(r_max / dr)))
    r_left = np.arange(m_max) * dr
    beta_r = np.asarray(coeffs.beta(r_left))
    # u1 at step m is read on the two x2 columns of the cell of H(r_m), a
    # slab this pass holds, with the cell helpers of eval_field
    i2_r, w2_r = _x2_cell(f, np.asarray(coeffs.clock_H(r_left)))
    nt1, nx1 = f.u.shape[:2]
    strides = (nx1, 1, nt1 * nx1)
    slab = None

    L_g, floor = f.g_lipschitz, DERIV_FLOOR_EPS

    ids = np.arange(n)
    sigma, Sigma, ibw = np.zeros((3, n))
    tau, Sigma_tau, ibw_tau = np.empty((3, n))
    guard = np.zeros(n, dtype=np.int8)       # 0 none, 1 K1, 2 K2
    clamp_hits, steps = np.zeros((2, n), dtype=np.int64)

    def stop(done, r, S, I, code, m):
        # the live paths ids[done] stop at r with Sigma S and int beta dB I,
        # after m steps
        j = ids[done]
        tau[j], Sigma_tau[j], ibw_tau[j], guard[j], steps[j] = r, S, I, code, m

    for m in range(m_max):
        if ids.size == 0:
            break
        it, wt = _time_cell(f, np.clip(sigma, 0.0, 1.0))
        i1, w1 = _x1_cell(f, Sigma)
        slab = _u1_slab(f, 2, int(i2_r[m]), slab)
        u1 = _lerp(np.take(slab[1].reshape(-1),
                           _corner_index(strides, it * nx1 + i1)),
                   _unit(w1), w2_r[m], wt)
        clamp_hits[ids[u1 < floor]] += 1
        u1c = np.clip(u1, floor, L_g)

        b = beta_r[m]
        dBm = column(m, ids)
        dsig = dr * b * b / (u1c * u1c)
        dSig = (b / u1c) * dBm
        dW_contrib = b * dBm

        new_sigma = sigma + dsig
        crossed = new_sigma >= 1.0
        if crossed.any():
            theta = (1.0 - sigma[crossed]) / dsig[crossed]
            stop(crossed, r_left[m] + theta * dr,
                 Sigma[crossed] + theta * dSig[crossed],
                 ibw[crossed] + theta * dW_contrib[crossed], 0, m + 1)
        sigma = new_sigma
        Sigma += dSig
        ibw += dW_contrib
        breach = np.abs(Sigma) >= K2
        breach &= ~crossed
        if breach.any():
            stop(breach, r_left[m] + dr, Sigma[breach], ibw[breach], 2, m + 1)
        live = ~(breach | crossed)
        if not live.all():
            ids, sigma, Sigma, ibw = (a[live] for a in (ids, sigma, Sigma, ibw))

    stop(slice(None), m_max * dr, Sigma, ibw, 1, m_max)

    return {"tau": tau, "Sigma_tau": Sigma_tau, "int_beta_dB": ibw_tau,
            "guard": guard, "clamp_hits": clamp_hits, "steps": steps}


@dataclass
class EmbeddingResult:
    """Record of the strong pass: per-path stopping times and stopped values
    with the run-level constants.  ``strong_identity_mean`` is the mean of
    |stopped - g(Sigma_tau)|, set when ``g`` was given."""

    c: float
    tau_bound: float
    seeds: np.ndarray
    tau_strong: np.ndarray
    stopped_value: np.ndarray
    guard_counts: dict
    clamp_fraction: float
    dr: float
    strong_identity_mean: float | None = None

    def summary(self) -> dict:
        d = {
            "c": self.c,
            "tau_bound": self.tau_bound,
            "n_paths": int(self.seeds.size),
            "dr": self.dr,
            "guard_counts": dict(self.guard_counts),
            "clamp_fraction": self.clamp_fraction,
            "tau_strong_mean": float(np.nanmean(self.tau_strong)),
            "tau_strong_max": float(np.nanmax(self.tau_strong)),
        }
        if self.strong_identity_mean is not None:
            d["strong_identity_mean"] = self.strong_identity_mean
        return d


def strong_embed_on_W(f: DecouplingField, coeffs: ProcessCoefficients,
                      n_paths: int, n_steps: int, seed: int,
                      g=None) -> EmbeddingResult:
    """Draw fresh driving noise, run the stopping rule on each path, and
    collect the stopped values c + delta_hat(tau) + int_0^tau beta dW.

    When ``g`` is given, the per-path identity stopped = g(Sigma_tau) is
    measured and its mean absolute defect reported as
    ``strong_identity_mean``.  Warns when the u1 floor clamp was active on
    more than ``CLAMP_WARN_FRACTION`` of the integration steps of all paths.
    """
    bound, r_max, K2, dr = strong_limits(f.g_lipschitz, coeffs, n_steps)
    c = float(eval_field(f, 0.0, 0.0, 0.0, "u"))
    seeds = path_seed(seed ^ _STRONG_SEED_SALT, np.arange(n_paths))

    def run_block(lo: int, hi: int):
        res = _integrate_strong(f, coeffs,
                                IncrementStreams(seeds[lo:hi], n_steps, dr),
                                dr, r_max, K2)
        return (res["tau"], res["Sigma_tau"], res["int_beta_dB"],
                res["guard"], res["clamp_hits"], res["steps"])

    tau, Sigma_tau, ibw, guards, clamp_hits, steps = map_blocks(
        n_paths, _STRONG_BLOCK, run_block)
    stopped = c + np.asarray(coeffs.delta_hat(np.minimum(tau, coeffs.t_phys))) + ibw
    clamp_fraction = int(clamp_hits.sum()) / max(int(steps.sum()), 1)
    if clamp_fraction > CLAMP_WARN_FRACTION:
        warnings.warn(f"u1 floor clamp active on {clamp_fraction:.2%} of "
                      f"embedding steps; the positivity floor may be too "
                      f"coarse", RuntimeWarning, stacklevel=2)
    counts = {"K1": int(np.count_nonzero(guards == 1)),
              "K2": int(np.count_nonzero(guards == 2))}
    identity = None if g is None else float(
        np.mean(np.abs(stopped - np.asarray(g(Sigma_tau)))))
    return EmbeddingResult(c=c, tau_bound=bound, seeds=seeds,
                           tau_strong=tau, stopped_value=stopped,
                           guard_counts=counts,
                           clamp_fraction=clamp_fraction,
                           dr=dr, strong_identity_mean=identity)


def coupled_round_trip(f: DecouplingField, coeffs: ProcessCoefficients,
                       n_paths: int, n_steps: int, seed: int) -> dict:
    """Feed each path's reconstructed embedding noise back into the strong
    stopping rule and compare the two times path by path, on the r-grid
    with step H^{-1}(L_g^2) / 2048.

    Beyond the weak time the reconstructed noise is extended with fresh
    independent increments (the extension never matters unless the crossing
    is a few steps late).
    """
    bound, r_max, K2, _ = strong_limits(f.g_lipschitz, coeffs)
    dr = bound / 2048.0
    M = int(np.ceil(r_max / dr))

    r_u = np.arange(M + 1) * dr
    seeds = path_seed(seed, np.arange(n_paths))

    def run_block(lo: int, hi: int):
        t_grid, W_T, X2, Y, _, _ = _simulate_arrays(f, seeds[lo:hi], n_steps)
        tau_w, _, resid, r_grid, B = _weak_time_change(
            coeffs, t_grid, X2, Y, W_T, None, paths=True)
        del X2, Y                       # freed before the strong pass
        dB = np.empty((hi - lo, M))
        for j in range(hi - lo):
            dB[j] = np.diff(np.interp(r_u, r_grid[j], B[j]))
            n_inside = max(int(np.floor(tau_w[j] / dr)), 0)
            if n_inside < M:
                dB[j, n_inside:] = normal_increments(
                    path_seed(int(seeds[lo + j]) ^ _STRONG_SEED_SALT, 1),
                    M - n_inside, dr)
        tau_s = _integrate_strong(f, coeffs, dB, dr, r_max, K2)["tau"]
        return tau_w, tau_s, resid

    tau_w, tau_s, resid = map_blocks(n_paths, _ROUND_TRIP_BLOCK, run_block)
    diff = np.abs(tau_w - tau_s)
    return {"tau_weak": tau_w, "tau_strong": tau_s,
            "mean_abs_diff": float(diff.mean()),
            "max_abs_diff": float(diff.max()),
            "weak_identity_residual_max": float(resid.max()),
            "dr": dr}

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

with u1 clamped into [deriv_floor_eps, L_g] (positivity holds before the
terminal time but with no quantitative floor; L_g is the certified upper
bound).  The stopping time is the first crossing sigma_r >= 1, located by
linear interpolation inside the bracketing step.  Localization guards stop
the integration at r >= K1 or |Sigma| >= K2 and report which guard fired;
with the default guards they never bind.  Applying the same functional to
fresh driving noise (the role of the original Brownian motion) produces the
strong stopping time and the stopped value c + delta_hat(tau) + int beta dW.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .coeffs import ProcessCoefficients
from .errors import ConfigError, LocalizationError
from .fbsde import (FbsdePath, increment_block, map_blocks, normal_increments,
                    path_seed, simulate_block)
from .field import DecouplingField, eval_field

__all__ = ["WeakEmbedding", "StrongStop", "EmbeddingResult", "weak_embed",
           "weak_embed_ensemble", "strong_stopping_time", "strong_embed_on_W",
           "coupled_round_trip", "SIGMA_RATE_TOL"]

# step-size rule for the (sigma, Sigma) integration: L_g^2 dr / beta_floor^2
# must not exceed this
SIGMA_RATE_TOL = 1e-3
# fraction of integration steps with the u1 floor clamp active that triggers
# a warning
CLAMP_WARN_FRACTION = 1e-3
_WEAK_B_STEPS = 512
_STRONG_SEED_SALT = 0xD1FF5EED0001
# paths per block of the three ensemble routines; measured trade-offs between
# per-call overhead and block memory
_WEAK_BLOCK = 256
_STRONG_BLOCK = 2048
_ROUND_TRIP_BLOCK = 128


def _warn_if_clamped(fraction: float, where: str) -> None:
    if fraction > CLAMP_WARN_FRACTION:
        warnings.warn(f"u1 floor clamp active on {fraction:.2%} of {where} "
                      f"steps; the positivity floor may be too coarse",
                      RuntimeWarning, stacklevel=3)


def _require_unit_horizon(f: DecouplingField) -> None:
    if abs(f.T - 1.0) > 1e-12:
        raise ConfigError("embeddings assume the backward horizon T = 1")


def tau_bound(f: DecouplingField, coeffs: ProcessCoefficients) -> float:
    """Certified bound H^{-1}(L_g^2) on every stopping time."""
    return float(coeffs.clock_H_inv(f.g_lipschitz ** 2))


@dataclass
class WeakEmbedding:
    tau_weak: float
    stopped_value: float
    r_grid: np.ndarray
    B: np.ndarray
    identity_residual: float
    sigma_inverse_defect: float


def weak_embed(p: FbsdePath, coeffs: ProcessCoefficients, g=None,
               b_steps: int = _WEAK_B_STEPS) -> WeakEmbedding:
    """Time-change one simulated path into an embedding.

    When ``g`` is provided the identity residual compares the reconstructed
    stopped value against g(W_1); otherwise it measures the internal
    consistency of the reconstruction.
    """
    X2_T = float(p.X2[-1])
    tau = float(coeffs.clock_H_inv(X2_T))

    r_nodes = np.asarray(coeffs.clock_H_inv(p.X2))
    keep = np.concatenate([[True], np.diff(r_nodes) > 0.0])
    r_mono = r_nodes[keep]
    t_mono = p.t_grid[keep]

    r_grid = np.linspace(0.0, tau, b_steps + 1)
    sigma_vals = np.interp(r_grid, r_mono, t_mono)
    Y_at = np.interp(sigma_vals, p.t_grid, p.Y)

    dY = np.diff(Y_at)
    beta_left = np.asarray(coeffs.beta(r_grid[:-1]))
    dB = dY / beta_left
    B = np.concatenate([[0.0], np.cumsum(dB)])
    beta_mid = np.asarray(coeffs.beta(0.5 * (r_grid[:-1] + r_grid[1:])))
    int_beta_dB = float(np.sum(beta_mid * dB))

    stopped = float(p.Y[0] + coeffs.delta_hat(tau) + int_beta_dB)
    if g is not None:
        residual = abs(stopped - float(np.asarray(g(p.X1[-1]))))
    else:
        residual = abs(int_beta_dB - (p.Y[-1] - p.Y[0]))
    # defect of the discrete inverse at the original path nodes
    sigma_defect = float(np.abs(np.interp(r_nodes, r_mono, t_mono) - p.t_grid).max())
    return WeakEmbedding(tau_weak=tau, stopped_value=stopped, r_grid=r_grid,
                         B=B, identity_residual=residual,
                         sigma_inverse_defect=sigma_defect)


def weak_embed_ensemble(f: DecouplingField, coeffs: ProcessCoefficients,
                        n_paths: int, n_steps: int, seed: int, g=None) -> dict:
    """Weak embedding of a whole seeded ensemble.

    Returns per-path arrays: ``seeds``, ``tau_weak``, ``stopped_value``,
    ``identity_residual``, ``z_abs_max_raw`` and ``X2_T``.
    """
    def run_block(lo: int, hi: int):
        paths = simulate_block(f, seed, range(lo, hi), n_steps)
        embs = [weak_embed(p, coeffs, g=g) for p in paths]
        return (np.array([p.seed for p in paths], dtype=np.uint64),
                [we.tau_weak for we in embs],
                [we.stopped_value for we in embs],
                [we.identity_residual for we in embs],
                [p.z_abs_max_raw for p in paths],
                [p.X2[-1] for p in paths])

    keys = ("seeds", "tau_weak", "stopped_value", "identity_residual",
            "z_abs_max_raw", "X2_T")
    return dict(zip(keys, map_blocks(n_paths, _WEAK_BLOCK, run_block)))


# ----------------------------------------------------------------------------
# strong construction
# ----------------------------------------------------------------------------

@dataclass
class StrongStop:
    tau: float
    Sigma_tau: float
    guard: str                      # "none", "K1" or "K2"
    sigma_path: np.ndarray
    Sigma_path: np.ndarray
    clamp_fraction: float


def _default_guards(f: DecouplingField, coeffs: ProcessCoefficients):
    tb = tau_bound(f, coeffs)
    K1 = 2.0 * tb
    beta_sup = float(np.abs(coeffs.beta(np.linspace(0.0, coeffs.t_phys, 2049))).max())
    K2 = 10.0 * np.sqrt(max(K1, 1e-12)) * max(beta_sup, 1.0)
    return K1, K2


def _integrate_strong(f: DecouplingField, coeffs: ProcessCoefficients,
                      dB: np.ndarray, dr: float, K1: float, K2: float,
                      keep_paths: bool = False):
    """Euler integration of the (sigma, Sigma) system for a block of driving
    increments of shape (n, M).  Returns per-path crossing data."""
    n, M = dB.shape
    # the clock is tabulated on [0, T_phys]; the guard window is capped there
    r_lim = min(K1, coeffs.t_phys * (1.0 - 1e-9), M * dr)
    m_max = min(M, int(np.ceil(r_lim / dr)))
    r_left = np.arange(m_max) * dr
    beta_r = np.asarray(coeffs.beta(r_left))
    H_r = np.asarray(coeffs.clock_H(r_left))

    L_g = f.g_lipschitz
    floor = f.deriv_floor_eps
    T = f.T

    sigma = np.zeros(n)
    Sigma = np.zeros(n)
    ibw = np.zeros(n)
    active = np.ones(n, dtype=bool)
    tau = np.full(n, np.nan)
    Sigma_tau = np.full(n, np.nan)
    ibw_tau = np.zeros(n)
    guard = np.zeros(n, dtype=np.int8)       # 0 none, 1 K1, 2 K2
    clamp_hits = 0
    total_steps = 0
    paths = ([np.zeros(n)], [np.zeros(n)]) if keep_paths else None

    for m in range(m_max):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        u1 = eval_field(f, np.clip(sigma[idx], 0.0, T), Sigma[idx], H_r[m],
                        "u1")
        clamp_hits += int(np.count_nonzero(u1 < floor))
        total_steps += idx.size
        u1c = np.clip(u1, floor, L_g)

        b = beta_r[m]
        dsig = dr * b * b / (u1c * u1c)
        dSig = (b / u1c) * dB[idx, m]
        dW_contrib = b * dB[idx, m]

        new_sigma = sigma[idx] + dsig
        crossed = new_sigma >= 1.0
        if crossed.any():
            ci = idx[crossed]
            theta = (1.0 - sigma[ci]) / dsig[crossed]
            tau[ci] = r_left[m] + theta * dr
            Sigma_tau[ci] = Sigma[ci] + theta * dSig[crossed]
            ibw_tau[ci] = ibw[ci] + theta * dW_contrib[crossed]
            active[ci] = False
        live = ~crossed
        li = idx[live]
        sigma[li] = new_sigma[live]
        Sigma[li] += dSig[live]
        ibw[li] += dW_contrib[live]
        breach = np.abs(Sigma[li]) >= K2
        if breach.any():
            bi = li[breach]
            guard[bi] = 2
            tau[bi] = r_left[m] + dr
            Sigma_tau[bi] = Sigma[bi]
            ibw_tau[bi] = ibw[bi]
            active[bi] = False
        if keep_paths:
            paths[0].append(sigma.copy())
            paths[1].append(Sigma.copy())

    if active.any():
        ai = np.nonzero(active)[0]
        guard[ai] = 1
        tau[ai] = m_max * dr
        Sigma_tau[ai] = Sigma[ai]
        ibw_tau[ai] = ibw[ai]

    out = {"tau": tau, "Sigma_tau": Sigma_tau, "int_beta_dB": ibw_tau,
           "guard": guard, "clamp_hits": clamp_hits,
           "total_steps": total_steps}
    if keep_paths:
        out["sigma_path"] = np.stack(paths[0], axis=1)
        out["Sigma_path"] = np.stack(paths[1], axis=1)
    return out


def strong_stopping_time(f: DecouplingField, coeffs: ProcessCoefficients,
                         dB: np.ndarray, dr: float,
                         r_max: float | None = None,
                         K1: float | None = None,
                         K2: float | None = None) -> StrongStop:
    """Integrate one driving path to its stopping time.

    ``dB`` holds Brownian increments on the r-grid with step ``dr``.  Raises
    :class:`LocalizationError` when the K2 guard fires before the crossing
    (enlarge K2) and warns through the returned record when the clamp was
    active on more than 0.1% of the steps.
    """
    _require_unit_horizon(f)
    dK1, dK2 = _default_guards(f, coeffs)
    K1 = dK1 if K1 is None else K1
    K2 = dK2 if K2 is None else K2
    if r_max is not None:
        K1 = min(K1, r_max)
    res = _integrate_strong(f, coeffs, np.asarray(dB, dtype=float)[None, :],
                            dr, K1, K2, keep_paths=True)
    if res["guard"][0] == 2:
        raise LocalizationError(
            "localization breach: |Sigma| reached K2 before the time change "
            "finished; enlarge K2")
    clamp_fraction = res["clamp_hits"] / max(res["total_steps"], 1)
    _warn_if_clamped(clamp_fraction, "stopping-time")
    return StrongStop(tau=float(res["tau"][0]),
                      Sigma_tau=float(res["Sigma_tau"][0]),
                      guard={0: "none", 1: "K1", 2: "K2"}[int(res["guard"][0])],
                      sigma_path=res["sigma_path"][0],
                      Sigma_path=res["Sigma_path"][0],
                      clamp_fraction=clamp_fraction)


@dataclass
class EmbeddingResult:
    """Per-path embedding summary plus run-level constants."""

    c: float
    tau_bound: float
    seeds: np.ndarray
    tau_strong: np.ndarray
    stopped_value: np.ndarray
    tau_weak: np.ndarray | None = None
    guard_counts: dict = dc_field(default_factory=dict)
    clamp_fraction: float = 0.0
    weak_identity_residual_max: float | None = None
    dr: float = float("nan")
    extras: dict = dc_field(default_factory=dict)

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
        if self.tau_weak is not None:
            d["tau_weak_mean"] = float(np.mean(self.tau_weak))
            d["tau_weak_max"] = float(np.max(self.tau_weak))
            d["tau_weak_ci_halfwidth"] = float(
                3.0 * np.std(self.tau_weak) / np.sqrt(self.tau_weak.size))
        if self.weak_identity_residual_max is not None:
            d["weak_identity_residual_max"] = self.weak_identity_residual_max
        d.update(self.extras)
        return d


def strong_embed_on_W(f: DecouplingField, coeffs: ProcessCoefficients,
                      n_paths: int, n_steps: int, seed: int,
                      g=None, K1: float | None = None,
                      K2: float | None = None) -> EmbeddingResult:
    """Draw fresh driving noise, run the stopping rule on each path, and
    collect the stopped values c + delta_hat(tau) + int_0^tau beta dW.

    When ``g`` is given, the per-path identity stopped = g(Sigma_tau) is
    measured and reported under ``extras["strong_identity_mean"]``.
    """
    _require_unit_horizon(f)
    dK1, dK2 = _default_guards(f, coeffs)
    K1 = dK1 if K1 is None else K1
    K2 = dK2 if K2 is None else K2
    r_max = min(K1, coeffs.t_phys * (1.0 - 1e-9))
    dr = r_max / n_steps
    if f.g_lipschitz > 0 and dr * f.g_lipschitz**2 / coeffs.beta_floor**2 > SIGMA_RATE_TOL:
        raise ConfigError(
            f"dr = {dr:.3e} too coarse for the time-change rate; "
            f"increase the embedding n_steps")

    c = float(eval_field(f, 0.0, 0.0, 0.0, "u"))
    seeds = path_seed(seed ^ _STRONG_SEED_SALT, np.arange(n_paths))
    clamp = [0, 0]                      # clamp hits, integration steps

    def run_block(lo: int, hi: int):
        res = _integrate_strong(f, coeffs,
                                increment_block(seeds[lo:hi], n_steps, dr),
                                dr, K1, K2)
        clamp[0] += res["clamp_hits"]
        clamp[1] += res["total_steps"]
        return res["tau"], res["Sigma_tau"], res["int_beta_dB"], res["guard"]

    tau, Sigma_tau, ibw, guards = map_blocks(n_paths, _STRONG_BLOCK, run_block)
    stopped = c + np.asarray(coeffs.delta_hat(np.minimum(tau, coeffs.t_phys))) + ibw
    clamp_fraction = clamp[0] / max(clamp[1], 1)
    _warn_if_clamped(clamp_fraction, "embedding")
    counts = {"K1": int(np.count_nonzero(guards == 1)),
              "K2": int(np.count_nonzero(guards == 2))}
    extras = {}
    if g is not None:
        extras["strong_identity_mean"] = float(
            np.mean(np.abs(stopped - np.asarray(g(Sigma_tau)))))
    return EmbeddingResult(c=c, tau_bound=tau_bound(f, coeffs), seeds=seeds,
                           tau_strong=tau, stopped_value=stopped,
                           guard_counts=counts,
                           clamp_fraction=clamp_fraction,
                           dr=dr, extras=extras)


def coupled_round_trip(f: DecouplingField, coeffs: ProcessCoefficients,
                       n_paths: int, n_steps: int, seed: int,
                       dr: float | None = None) -> dict:
    """Feed each path's reconstructed embedding noise back into the strong
    stopping rule and compare the two times path by path.

    Beyond the weak time the reconstructed noise is extended with fresh
    independent increments (the extension never matters unless the crossing
    is a few steps late).
    """
    _require_unit_horizon(f)
    tb = tau_bound(f, coeffs)
    if dr is None:
        dr = tb / 2048.0
    K1, K2 = _default_guards(f, coeffs)
    r_max = min(K1, coeffs.t_phys * (1.0 - 1e-9))
    M = int(np.ceil(r_max / dr))

    r_u = np.arange(M + 1) * dr

    def run_block(lo: int, hi: int):
        paths = simulate_block(f, seed, range(lo, hi), n_steps)
        tau_w = np.empty(hi - lo)
        resid = np.empty(hi - lo)
        dB = np.empty((hi - lo, M))
        for j, p in enumerate(paths):
            we = weak_embed(p, coeffs)
            tau_w[j] = we.tau_weak
            resid[j] = we.identity_residual
            dB[j] = np.diff(np.interp(r_u, we.r_grid, we.B))
            n_inside = max(int(np.floor(we.tau_weak / dr)), 0)
            if n_inside < M:
                dB[j, n_inside:] = normal_increments(
                    path_seed(p.seed ^ _STRONG_SEED_SALT, 1), M - n_inside, dr)
        # free the block's paths before the strong pass
        del paths, p
        tau_s = _integrate_strong(f, coeffs, dB, dr, K1, K2)["tau"]
        return tau_w, tau_s, resid

    tau_w, tau_s, resid = map_blocks(n_paths, _ROUND_TRIP_BLOCK, run_block)
    diff = np.abs(tau_w - tau_s)
    return {"tau_weak": tau_w, "tau_strong": tau_s,
            "mean_abs_diff": float(diff.mean()),
            "max_abs_diff": float(diff.max()),
            "weak_identity_residual_max": float(resid.max()),
            "dr": dr}

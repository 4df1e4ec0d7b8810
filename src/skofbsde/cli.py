"""Batch front door: strict JSON configuration, pipeline orchestration,
artifact export.

Subcommands
-----------
solve   : solve the decoupling field, write field CSV + diagnostics JSON.
embed   : simulate paths, run weak and strong embeddings, write the per-path
          CSV (seed, tau_weak, tau_strong, stopped_value) and the law report.
verify  : recompute the law report from a results CSV.
all     : solve + embed + verify in one run.

Exit codes: 0 success, 1 malformed configuration, 2 bound-check or law
failure, 3 solver failure, 4 horizon/guard failure.

The configuration is versioned (``"spec_version": 1``) and parsed strictly:
unknown keys anywhere are rejected so misspelled options cannot silently
fall back to defaults.  Given the same configuration and seed, all outputs
are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import coeffs as coeffs_mod
from . import embed as embed_mod
from . import fbsde as fbsde_mod
from . import field as field_mod
from . import measure as measure_mod
from . import verify as verify_mod
from .errors import (ConfigError, ContractionError, CutoffActiveError,
                     HorizonError, LocalizationError, NonLipschitzError,
                     SkofbsdeError)

_REQUIRED = object()


def _take(d: dict, key: str, default=_REQUIRED, kind=None):
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    v = d[key]
    # bool is a subclass of int, but true/false is never a number here
    if kind is not None and (not isinstance(v, kind) or isinstance(v, bool)):
        raise ConfigError(f"config key {key!r} has wrong type "
                          f"({type(v).__name__})")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"config key {key!r} must be a finite number")
    return v


def _reject_extras(d: dict, allowed: set[str], ctx: str) -> None:
    extras = set(d) - allowed
    if extras:
        raise ConfigError(f"unknown config keys in {ctx}: {sorted(extras)}")


def _load_column_csv(path: str, ncols: int) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, not by loadtxt's UserWarning
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from None
    if data.size == 0:
        raise ConfigError(f"CSV {path} has no data")
    if data.shape[1] != ncols:
        raise ConfigError(f"CSV {path} must have {ncols} column(s)")
    return data


def build_measure(spec: dict) -> measure_mod.TargetMeasure:
    # DomainError (a ValueError) from the law's own checks, ValueError or
    # TypeError from list entries that are not numbers
    try:
        return _build_measure(spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid measure: {exc}") from None


def _build_measure(spec: dict) -> measure_mod.TargetMeasure:
    kind = _take(spec, "kind", kind=str)
    if kind == "normal":
        _reject_extras(spec, {"kind", "mu", "sigma"}, "measure")
        return measure_mod.TargetMeasure.normal(
            _take(spec, "mu", 0.0, (int, float)),
            _take(spec, "sigma", 1.0, (int, float)))
    if kind == "uniform":
        _reject_extras(spec, {"kind", "lo", "hi"}, "measure")
        return measure_mod.TargetMeasure.uniform(
            _take(spec, "lo", 0.0, (int, float)),
            _take(spec, "hi", 1.0, (int, float)))
    if kind == "piecewise_cdf":
        _reject_extras(spec, {"kind", "xs", "Fs"}, "measure")
        return measure_mod.TargetMeasure.piecewise_cdf(
            _take(spec, "xs", kind=list), _take(spec, "Fs", kind=list))
    if kind == "empirical":
        _reject_extras(spec, {"kind", "csv", "samples"}, "measure")
        if "csv" in spec:
            samples = _load_column_csv(spec["csv"], 1)[:, 0]
        else:
            samples = np.asarray(_take(spec, "samples", kind=list), dtype=float)
        return measure_mod.TargetMeasure.empirical(samples)
    raise ConfigError(f"unknown measure kind {kind!r}")


def _build_time_function(spec: dict, name: str) -> coeffs_mod.TimeFunction:
    kind = _take(spec, "kind", kind=str)
    if kind == "const":
        _reject_extras(spec, {"kind", "value"}, name)
        return coeffs_mod.TimeFunction.const(_take(spec, "value", kind=(int, float)))
    if kind == "table":
        _reject_extras(spec, {"kind", "csv"}, name)
        tab = _load_column_csv(_take(spec, "csv", kind=str), 2)
        return coeffs_mod.TimeFunction.table(tab[:, 0], tab[:, 1])
    if kind == "expr":
        _reject_extras(spec, {"kind", "expr"}, name)
        return coeffs_mod.TimeFunction.expression(_take(spec, "expr", kind=str))
    raise ConfigError(f"unknown time-function kind {kind!r} in {name}")


def build_coefficients(spec: dict, g_lipschitz: float,
                       solver_T: float) -> coeffs_mod.ProcessCoefficients:
    _reject_extras(spec, {"G0", "alpha", "beta", "beta_floor", "T_phys"},
                   "coefficients")
    alpha = _build_time_function(_take(spec, "alpha", kind=dict), "alpha")
    beta = _build_time_function(_take(spec, "beta", kind=dict), "beta")
    t_phys = _take(spec, "T_phys", None, (int, float))
    # horizon default: H(T_phys) = 1.05 L_g^2, enough for the embedding bound
    # and for the solver's x2 box
    h_target = None if t_phys is not None else \
        1.05 * g_lipschitz**2 * max(solver_T, 1.0)
    return coeffs_mod.ProcessCoefficients(
        G0=_take(spec, "G0", 0.0, (int, float)),
        alpha=alpha, beta=beta,
        beta_floor=_take(spec, "beta_floor", kind=(int, float)),
        t_phys=t_phys, h_target=h_target)


_SOLVER_KEYS = {"T", "nt", "nx1", "nx2", "x1_lo", "x1_hi", "x2_hi",
                "cutoff_H", "fixpoint_tol", "fixpoint_max_iter",
                "deriv_floor_eps"}


def build_solver_config(spec: dict, g_lipschitz: float) -> field_mod.SolverConfig:
    _reject_extras(spec, _SOLVER_KEYS, "solver")
    base = field_mod.SolverConfig.defaults(
        g_lipschitz,
        T=_take(spec, "T", 1.0, (int, float)),
        nt=_take(spec, "nt", 256, int),
        nx1=_take(spec, "nx1", 257, int),
        nx2=_take(spec, "nx2", 129, int))
    overrides = {k: _take(spec, k, kind=int if k == "fixpoint_max_iter"
                          else (int, float))
                 for k in spec if k in _SOLVER_KEYS - {"T", "nt", "nx1", "nx2"}}
    cfg = field_mod.SolverConfig(**{**vars(base), **overrides}) if overrides else base
    cfg.validate(g_lipschitz)
    return cfg


class RunConfig:
    """Validated run configuration (strict schema, version 1)."""

    TOP_KEYS = {"spec_version", "measure", "coefficients", "solver",
                "simulation", "embedding", "output_dir"}

    def __init__(self, raw: dict, base_dir: str = "."):
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        _reject_extras(raw, self.TOP_KEYS, "top level")
        if _take(raw, "spec_version", kind=int) != 1:
            raise ConfigError("unsupported spec_version (expected 1)")

        self.measure = build_measure(dict(_take(raw, "measure", kind=dict)))
        self.g = measure_mod.make_g(self.measure)

        solver_spec = dict(_take(raw, "solver", {}, dict))
        self.solver = build_solver_config(solver_spec, self.g.lipschitz)
        self.coefficients = build_coefficients(
            dict(_take(raw, "coefficients", kind=dict)),
            self.g.lipschitz, self.solver.T)
        self.delta = self.coefficients.delayed_drift()

        sim = dict(_take(raw, "simulation", {}, dict))
        _reject_extras(sim, {"n_paths", "n_steps", "seed"}, "simulation")
        self.n_paths = _take(sim, "n_paths", 10_000, int)
        self.n_steps = _take(sim, "n_steps", 4096, int)
        self.seed = _take(sim, "seed", 0, int)
        self.check_simulation()

        emb = dict(_take(raw, "embedding", {}, dict))
        _reject_extras(emb, {"n_steps", "K1", "K2"}, "embedding")
        self.embed_steps = _take(emb, "n_steps", 4096, int)
        self.K1 = _take(emb, "K1", None, (int, float))
        self.K2 = _take(emb, "K2", None, (int, float))
        if self.embed_steps < 1:
            raise ConfigError("embedding n_steps out of range")

        out = _take(raw, "output_dir", "out", str)
        self.output_dir = out if os.path.isabs(out) else \
            os.path.join(base_dir, out)

    def check_simulation(self) -> None:
        """Range rule for the simulation keys, also applied to the CLI
        ``--paths``/``--seed`` overrides."""
        if self.n_paths < 1 or self.n_steps < 1 or self.seed < 0:
            raise ConfigError("simulation parameters out of range "
                              "(need n_paths >= 1, n_steps >= 1, seed >= 0)")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls(raw, base_dir=os.path.dirname(os.path.abspath(path)))


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def _field_path(out_dir: str) -> str:
    return os.path.join(out_dir, "field.csv")


def cmd_solve(cfg: RunConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    f = field_mod.solve_field(cfg.g, cfg.delta, cfg.solver)
    # dual-route derivative check, then keep the finite-difference fields
    field_mod.derivative_fields(f, "coupled_system", g=cfg.g, delta=cfg.delta)
    field_mod.derivative_fields(f, "finite_difference")
    diag = field_mod.field_diagnostics(f, cfg.g, cfg.delta)
    field_mod.save_field(f, _field_path(cfg.output_dir))
    print(json.dumps(diag.to_dict(), indent=2, sort_keys=True))
    print(f"field written to {_field_path(cfg.output_dir)}")
    return 0 if diag.all_passed else 2


def _weak_pass(cfg: RunConfig, f):
    weak = embed_mod.weak_embed_ensemble(
        f, cfg.coefficients, cfg.n_paths, cfg.n_steps, cfg.seed, g=cfg.g)
    return (weak["seeds"], weak["tau_weak"], weak["stopped_value"],
            weak["identity_residual"])


def _dump_paths(cfg: RunConfig, f, count: int) -> None:
    pdir = os.path.join(cfg.output_dir, "paths")
    os.makedirs(pdir, exist_ok=True)
    for p in fbsde_mod.simulate_block(f, cfg.seed, range(count), cfg.n_steps):
        out = os.path.join(pdir, f"path_{p.seed:020d}.csv")
        with open(out, "w") as fh:
            fh.write("t,W,X1,X2,Y,Z\n")
            for row in zip(p.t_grid, p.W, p.X1, p.X2, p.Y, p.Z):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_embed(cfg: RunConfig, field_path: str, dump_paths: int = 0) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    f = field_mod.load_field(field_path)
    if abs(f.g_lipschitz - cfg.g.lipschitz) > 1e-9 or abs(f.T - cfg.solver.T) > 1e-12:
        raise ConfigError("field file is not compatible with this configuration")

    seeds, tau_w, stopped_w, resid = _weak_pass(cfg, f)
    strong = embed_mod.strong_embed_on_W(
        f, cfg.coefficients, cfg.n_paths, cfg.embed_steps, cfg.seed,
        g=cfg.g, K1=cfg.K1, K2=cfg.K2)
    result = embed_mod.EmbeddingResult(
        c=strong.c, tau_bound=strong.tau_bound, seeds=seeds,
        tau_strong=strong.tau_strong, stopped_value=strong.stopped_value,
        tau_weak=tau_w, guard_counts=strong.guard_counts,
        clamp_fraction=strong.clamp_fraction,
        weak_identity_residual_max=float(resid.max()), dr=strong.dr,
        extras=strong.extras)

    csv_path = os.path.join(cfg.output_dir, "embedding.csv")
    with open(csv_path, "w") as fh:
        fh.write("seed,tau_weak,tau_strong,stopped_value\n")
        for i in range(cfg.n_paths):
            fh.write(f"{int(seeds[i])},{float(tau_w[i])!r},"
                     f"{float(strong.tau_strong[i])!r},"
                     f"{float(strong.stopped_value[i])!r}\n")

    report = verify_mod.law_report(strong.stopped_value, cfg.measure)
    weak_report = verify_mod.law_report(stopped_w, cfg.measure)
    summary = result.summary()
    summary["law_strong"] = json.loads(report.to_json())
    summary["law_weak"] = json.loads(weak_report.to_json())
    law_path = os.path.join(cfg.output_dir, "law_report.json")
    with open(law_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    verify_mod.histogram_csv(strong.stopped_value,
                             os.path.join(cfg.output_dir, "stopped_hist.csv"))
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"results written to {csv_path} and {law_path}")

    if dump_paths > 0:
        _dump_paths(cfg, f, min(dump_paths, cfg.n_paths))
    if result.guard_counts.get("K1", 0) or result.guard_counts.get("K2", 0):
        print("localization guards fired", file=sys.stderr)
        return 4
    return 0


def cmd_verify(cfg: RunConfig, results_path: str) -> int:
    try:
        data = np.loadtxt(results_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read results CSV: {exc}") from None
    if data.shape[1] != 4:
        raise ConfigError("results CSV must have 4 columns "
                          "(seed, tau_weak, tau_strong, stopped_value)")
    report = verify_mod.law_report(data[:, 3], cfg.measure)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, "verify_report.json")
    print(report.to_json(out), end="")
    return 0 if report.ks_passed else 2


# ----------------------------------------------------------------------------
# argument parsing / entry point
# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skofbsde",
        description="Skorokhod embedding via FBSDE decoupling fields")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "embed", "verify", "all"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="override output directory")
        if name in ("embed", "all"):
            p.add_argument("--paths", type=int, default=None,
                           help="override simulation n_paths")
            p.add_argument("--seed", type=int, default=None,
                           help="override simulation seed")
            p.add_argument("--dump-paths", type=int, default=0,
                           help="dump the first K simulated paths as CSV")
        if name == "embed":
            p.add_argument("--field", required=True,
                           help="field.csv from solve (field.json beside it)")
        if name == "verify":
            p.add_argument("--results", required=True, help="embedding CSV")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if args.out is not None:
            cfg.output_dir = args.out
        if getattr(args, "paths", None) is not None:
            cfg.n_paths = args.paths
        if getattr(args, "seed", None) is not None:
            cfg.seed = args.seed
        cfg.check_simulation()

        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "embed":
            return cmd_embed(cfg, args.field, dump_paths=args.dump_paths)
        if args.command == "verify":
            return cmd_verify(cfg, args.results)
        rc = cmd_solve(cfg)
        if rc != 0:
            return rc
        rc = cmd_embed(cfg, _field_path(cfg.output_dir),
                       dump_paths=args.dump_paths)
        if rc != 0:
            return rc
        return cmd_verify(cfg, os.path.join(cfg.output_dir, "embedding.csv"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (HorizonError, LocalizationError) as exc:
        print(f"horizon/guard error: {exc}", file=sys.stderr)
        return 4
    except (ContractionError, CutoffActiveError, NonLipschitzError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except SkofbsdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

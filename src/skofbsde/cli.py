"""Batch front door: strict JSON configuration, pipeline orchestration,
artifact export.

Subcommands
-----------
solve   : solve the decoupling field; write field.npy, field.json, field.csv.
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
import functools
import json
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
                     DiracMeasureError, HorizonError, NonLipschitzError,
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
    # NaN, an infinity or an integer beyond the float range (Python
    # compares an int with a float exactly)
    if isinstance(v, (int, float)) and not abs(v) <= sys.float_info.max:
        raise ConfigError(f"config key {key!r} must be a finite number")
    return v


def _reject_extras(d: dict, allowed: set[str], ctx: str) -> None:
    extras = set(d) - allowed
    if extras:
        raise ConfigError(f"unknown config keys in {ctx}: {sorted(extras)}")


def _load_column_csv(path: str, ncols: int, header: bool = False) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, not by loadtxt's UserWarning
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2,
                              skiprows=int(header))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from None
    if data.size == 0:
        raise ConfigError(f"CSV {path} has no data")
    if data.shape[1] != ncols:
        raise ConfigError(f"CSV {path} must have {ncols} column(s)")
    if not np.isfinite(data).all():
        raise ConfigError(f"CSV {path} has a non-finite value")
    return data


def _take_path(d: dict, key: str, base_dir: str, default=_REQUIRED) -> str:
    """A path key of the config, relative to the config file's directory
    ``base_dir``; an absolute path is kept as it is."""
    return os.path.join(base_dir, _take(d, key, default, str))


def build_transform(spec: dict, base_dir: str) -> measure_mod.QuantileTransform:
    # DomainError (a ValueError) from the law's own checks, ValueError or
    # TypeError from list entries that are not numbers, OverflowError from
    # list entries beyond the float range, DiracMeasureError from a
    # point-mass law
    try:
        return measure_mod.make_g(_build_measure(spec, base_dir))
    except (ValueError, TypeError, OverflowError, DiracMeasureError) as exc:
        raise ConfigError(f"invalid measure: {exc}") from None


def _build_measure(spec: dict, base_dir: str) -> measure_mod.TargetMeasure:
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
        if {"csv", "samples"} <= spec.keys():
            raise ConfigError("an empirical measure takes 'csv' or "
                              "'samples', not both")
        if "csv" in spec:
            samples = _load_column_csv(_take_path(spec, "csv", base_dir), 1)[:, 0]
        else:
            samples = np.asarray(_take(spec, "samples", kind=list), dtype=float)
        return measure_mod.TargetMeasure.empirical(samples)
    raise ConfigError(f"unknown measure kind {kind!r}")


def _build_time_function(spec: dict, name: str,
                         base_dir: str) -> coeffs_mod.TimeFunction:
    kind = _take(spec, "kind", kind=str)
    if kind == "const":
        _reject_extras(spec, {"kind", "value"}, name)
        return coeffs_mod.TimeFunction.const(_take(spec, "value", kind=(int, float)))
    if kind == "table":
        _reject_extras(spec, {"kind", "csv"}, name)
        tab = _load_column_csv(_take_path(spec, "csv", base_dir), 2)
        return coeffs_mod.TimeFunction.table(tab[:, 0], tab[:, 1])
    if kind == "expr":
        _reject_extras(spec, {"kind", "expr"}, name)
        return coeffs_mod.TimeFunction.expression(_take(spec, "expr", kind=str))
    raise ConfigError(f"unknown time-function kind {kind!r} in {name}")


# the solver section's keys, SolverConfig's fields, each with its kind
_SOLVER_KINDS = {
    name: int if fld.type == "int" else (int, float)
    for name, fld in field_mod.SolverConfig.__dataclass_fields__.items()}


class RunConfig:
    """Validated run configuration (strict schema, version 1).

    ``solver``, ``coefficients`` and ``delta`` are built and checked on
    first read, the rest on construction: ``verify`` never builds them.
    Relative paths in the config (``output_dir`` and each ``csv``) are taken
    from ``base_dir``, the config file's directory.
    """

    TOP_KEYS = {"spec_version", "measure", "coefficients", "solver",
                "simulation", "embedding", "output_dir"}

    def __init__(self, raw: dict, base_dir: str = "."):
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        _reject_extras(raw, self.TOP_KEYS, "top level")
        if _take(raw, "spec_version", kind=int) != 1:
            raise ConfigError("unsupported spec_version (expected 1)")

        self._base_dir = base_dir
        self.g = build_transform(dict(_take(raw, "measure", kind=dict)),
                                 base_dir)
        self.measure = self.g.measure

        self._solver_spec = dict(_take(raw, "solver", {}, dict))
        self._coefficients_spec = dict(_take(raw, "coefficients", kind=dict))

        sim = dict(_take(raw, "simulation", {}, dict))
        _reject_extras(sim, {"n_paths", "n_steps", "seed"}, "simulation")
        self.n_paths = _take(sim, "n_paths", 10_000, int)
        self.n_steps = _take(sim, "n_steps", 4096, int)
        self.seed = _take(sim, "seed", 0, int)
        self.check_simulation()

        emb = dict(_take(raw, "embedding", {}, dict))
        # the localization guards are derived by embed.strong_limits
        _reject_extras(emb, {"n_steps"}, "embedding")
        self.embed_steps = _take(emb, "n_steps", 4096, int)
        if self.embed_steps < 1:
            raise ConfigError("embedding n_steps out of range")

        self.output_dir = _take_path(raw, "output_dir", base_dir, "out")

    @functools.cached_property
    def solver(self) -> field_mod.SolverConfig:
        spec, L_g = self._solver_spec, self.g.lipschitz
        _reject_extras(spec, _SOLVER_KINDS.keys(), "solver")
        cfg = field_mod.SolverConfig.defaults(
            L_g, **{k: _take(spec, k, kind=_SOLVER_KINDS[k]) for k in spec})
        cfg.validate(L_g)
        return cfg

    @functools.cached_property
    def coefficients(self) -> coeffs_mod.ProcessCoefficients:
        spec = self._coefficients_spec
        _reject_extras(spec, {"G0", "alpha", "beta", "beta_floor"}, "coefficients")
        alpha = _build_time_function(_take(spec, "alpha", kind=dict), "alpha",
                                     self._base_dir)
        beta = _build_time_function(_take(spec, "beta", kind=dict), "beta",
                                    self._base_dir)
        # the clock reaches the solver's x2 box, which covers L_g^2
        return coeffs_mod.ProcessCoefficients(
            G0=_take(spec, "G0", 0.0, (int, float)),
            alpha=alpha, beta=beta,
            beta_floor=_take(spec, "beta_floor", kind=(int, float)),
            h_target=self.solver.x2_hi)

    @functools.cached_property
    def delta(self):
        return self.coefficients.delayed_drift()

    def check_simulation(self) -> None:
        """Range rule for the simulation keys, also applied to the CLI
        ``--paths``/``--seed`` overrides.  A path's key takes the seed
        modulo 2^64, so a larger seed would silently rerun a smaller one."""
        if (self.n_paths < 1 or self.n_steps < 1
                or not 0 <= self.seed < 2**64):
            raise ConfigError("simulation parameters out of range (need "
                              "n_paths >= 1, n_steps >= 1, 0 <= seed < 2^64)")

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
    f = field_mod.solve_field(cfg.g, cfg.delta, cfg.solver)
    # the coupled-system check only sets f.deriv_mismatch, which the
    # diagnostics report
    field_mod.derivative_fields(f, "coupled_system", g=cfg.g, delta=cfg.delta)
    diag = field_mod.field_diagnostics(f, cfg.g, cfg.delta)
    os.makedirs(cfg.output_dir, exist_ok=True)
    field_mod.save_field(f, _field_path(cfg.output_dir), diag)
    print(json.dumps(diag.to_dict(), indent=2, sort_keys=True))
    print(f"field written to {_field_path(cfg.output_dir)}")
    return 0 if diag.all_passed else 2


def _dump_paths(cfg: RunConfig, f, count: int) -> None:
    from ._floattext import rows_text     # loaded only when paths are dumped
    pdir = os.path.join(cfg.output_dir, "paths")
    os.makedirs(pdir, exist_ok=True)
    block = embed_mod._DUMP_BLOCK       # each path is keyed by its index
    for lo in range(0, count, block):
        for p in fbsde_mod.simulate_block(
                f, cfg.seed, range(lo, min(lo + block, count)), cfg.n_steps):
            out = os.path.join(pdir, f"path_{p.seed:020d}.csv")
            with open(out, "wb") as fh:
                fh.write(b"t,W,X1,X2,Y,Z\n")
                fh.write(rows_text(np.column_stack(
                    (p.t_grid, p.W, p.X1, p.X2, p.Y, p.Z))))


def cmd_embed(cfg: RunConfig, field_path: str, dump_paths: int = 0) -> int:
    delta = cfg.delta     # the configuration is checked before the field
    s = cfg.solver
    f = field_mod.load_field(field_path)
    # a field solved for this configuration has its grid, exactly (so its x2
    # grid lies within this clock), and, bitwise, the terminal layer that
    # solve_field builds and this law's L_g
    if (f.u.shape != (s.nt + 1, s.nx1, s.nx2)
            or (f.x1_grid[0], f.x1_grid[-1], f.x2_grid[-1])
            != (s.x1_lo, s.x1_hi, s.x2_hi)
            or f.g_lipschitz != cfg.g.lipschitz
            or not np.array_equal(f.u[-1], field_mod.terminal_layer(
                cfg.g, delta, f.x1_grid, f.x2_grid))):
        raise ConfigError("field file is not compatible with this configuration")
    os.makedirs(cfg.output_dir, exist_ok=True)

    weak = embed_mod.weak_embed_ensemble(
        f, cfg.coefficients, cfg.n_paths, cfg.n_steps, cfg.seed, g=cfg.g)
    seeds, tau_w = weak["seeds"], weak["tau_weak"]
    strong = embed_mod.strong_embed_on_W(
        f, cfg.coefficients, cfg.n_paths, cfg.embed_steps, cfg.seed, g=cfg.g)

    csv_path = os.path.join(cfg.output_dir, "embedding.csv")
    with open(csv_path, "w") as fh:
        fh.write("seed,tau_weak,tau_strong,stopped_value\n")
        for i in range(cfg.n_paths):
            fh.write(f"{int(seeds[i])},{float(tau_w[i])!r},"
                     f"{float(strong.tau_strong[i])!r},"
                     f"{float(strong.stopped_value[i])!r}\n")

    summary = strong.summary()
    summary.update(
        tau_weak_mean=float(np.mean(tau_w)),
        tau_weak_max=float(np.max(tau_w)),
        tau_weak_ci_halfwidth=float(3.0 * np.std(tau_w) / np.sqrt(tau_w.size)),
        weak_identity_residual_max=float(weak["identity_residual"].max()),
        law_strong=verify_mod.law_report(strong.stopped_value,
                                         cfg.measure).to_dict(),
        law_weak=verify_mod.law_report(weak["stopped_value"],
                                       cfg.measure).to_dict())
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
    if strong.guard_counts["K1"] or strong.guard_counts["K2"]:
        print("localization guards fired", file=sys.stderr)
        return 4
    return 0


def cmd_verify(cfg: RunConfig, results_path: str) -> int:
    # columns seed, tau_weak, tau_strong, stopped_value under a header row
    data = _load_column_csv(results_path, 4, header=True)
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
                           help="field.csv, .json or .npy from solve; u is "
                                "read from field.npy beside field.json")
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
        if getattr(args, "dump_paths", 0) < 0:
            raise ConfigError("--dump-paths must be >= 0")
        if args.command != "verify":
            # the strong pass's step rule and the path run's memory refuse
            # a run before any work
            embed_mod.strong_limits(cfg.g.lipschitz, cfg.coefficients,
                                    cfg.embed_steps)
            embed_mod.check_path_memory(cfg.n_paths, cfg.n_steps,
                                        cfg.embed_steps)

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
    except HorizonError as exc:
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

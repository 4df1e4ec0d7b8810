"""skofbsde benchmark: three workloads, checked outputs, end-to-end metrics
untraced and a per-module breakdown traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (``src/skofbsde`` and ``configs``
present); the program runs from ``src`` through ``PYTHONPATH``, nothing is
installed.  Workloads (see ``WORKLOADS``):

* ``default_grid``  - CLI ``solve``, ``embed --paths 1024``, ``verify`` on the
  shipped ``configs/uniform_lineardrift.json`` at its default 257x257x129 grid.
* ``many_paths``    - the same CLI chain on ``perfbench/configs/many_paths.json``
  (uniform target, expression beta, 64x65x33 grid, 2048 paths x 4096 steps).
* ``verification``  - the library API on ``uniform_lineardrift``: field solve,
  derivative cross-check, diagnostics, ensemble + martingale check, backward
  residuals, coupled round trip and the Cole-Hopf oracle.

A run repeats whole passes of its workload until ``--seconds`` have elapsed
(at least one pass) and reports medians.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` each pass is run untraced and then
traced (``perfbench/child.py`` wraps the skofbsde modules) and it prints the
per-layer metrics.  Every process is pinned to one thread
(``SKOFBSDE_THREADS=1`` and one BLAS thread).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Scratch files live in ``.bench_work/`` under the checkout; spans of traced
runs are kept in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = {
    "default_grid": {"kind": "cli", "config": "configs/uniform_lineardrift.json",
                     "paths": 1024},
    "many_paths": {"kind": "cli", "config": "perfbench/configs/many_paths.json",
                   "paths": 2048},
    "verification": {"kind": "library",
                     "config": "configs/uniform_lineardrift.json",
                     "steps": 4096, "ensemble": 4096, "ensemble_steps": 1024,
                     "round_trip": 500, "subset": 256},
}
# smoke-sized variants for perfbench/selftest.py: smoke_small grid, few paths
SMOKE = {
    "default_grid": {"config": "configs/smoke_small.json", "paths": 200},
    "many_paths": {"paths": 256, "n_steps": 512},
    "verification": {"config": "configs/smoke_small.json", "steps": 512,
                     "ensemble": 256, "ensemble_steps": 512, "round_trip": 128,
                     "subset": 32},
}
SETUP_REPS = 3

# acceptance thresholds (tests/test_acceptance.py), never loosened here
WEAK_TAU_TOL = 1e-6
Z_BOUND_TOL = 1e-2
ORACLE_ERR_MAX = 2e-3
ROUND_TRIP_MEAN_MAX = 1e-2
ROUND_TRIP_MAX_MAX = 5e-2
KS_RECOMPUTE_TOL = 1e-12
# Martingale band in standard errors of each checkpoint mean.  The program's
# martingale_check uses 3, which a correct field misses by chance on about
# 0.5% of seeds (eight correlated checkpoints), whatever the ensemble size.
# 4.5 standard errors of the 4096-path ensemble is still narrower in absolute
# terms than 3 of a 1024-path one, and a correct field misses it on a few
# seeds in 100000.
MARTINGALE_SE = 4.5

MODULES = ("cli", "measure", "coeffs", "field", "fbsde", "embed", "verify",
           "bench")
# counts that must repeat exactly between traced passes of one seed
EXACT_COUNTS = ("field.banded_solves", "field.eval_points",
                "measure.phi_inv_points", "coeffs.clock_H_inv_points",
                "field.artifact_bytes", "embed.strong_u1_points")
QUALITY = ("verify.ks_weak", "verify.ks_strong", "verify.w1_weak",
           "verify.w1_strong", "embed.strong_identity_mean", "embed.round_trip_diff",
           "fbsde.backward_resid_max", "verify.oracle_err")


class Ops:
    """Operations attempted and failed, by check name."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()

    def check(self, name: str, ok: bool) -> None:
        self.attempted[name] += 1
        if not ok:
            self.failed[name] += 1

    def paths(self, name: str, oks) -> None:
        oks = list(oks)
        self.attempted[name] += len(oks)
        self.failed[name] += oks.count(False)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), SKOFBSDE_THREADS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_proc(argv: list[str], log_path: str) -> dict:
    """Run one child to completion; wall time and peak RSS via wait4."""
    with open(log_path, "w") as log:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "start": start, "end": end,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "log": log_path}


def py_argv(trace_file: str | None, mode: str, args: list[str]) -> list[str]:
    if trace_file is None and mode == "cli":
        return [sys.executable, "-m", "skofbsde.cli", *args]
    tr = [] if trace_file is None else ["--trace", trace_file]
    return [sys.executable, CHILD, *tr, mode, *args]


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


class Ledger:
    """Digests of earlier runs in this checkout, keyed by source hash, so
    two same-seed runs of the same code must give byte-identical files."""

    def __init__(self, code_hash: str):
        self.path = os.path.join(WORK, "ledger.json")
        self.code = code_hash
        try:
            with open(self.path) as fh:
                self.data = json.load(fh)
        except FileNotFoundError:
            self.data = {}

    def compare(self, ops: Ops, check: str, key: str, digest: str) -> None:
        key = f"{self.code}:{key}"
        if key in self.data:
            ops.check(check, self.data[key] == digest)
        else:
            self.data[key] = digest

    def save(self) -> None:
        with open(self.path + ".tmp", "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(self.path + ".tmp", self.path)


def code_hash(spec: dict) -> str:
    """Hash of the sources, the config file and the workload parameters."""
    h = hashlib.sha256(json.dumps(spec, sort_keys=True).encode())
    src = os.path.join(ROOT, "src", "skofbsde")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    with open(spec["config"], "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


# -- workload passes ------------------------------------------------------------

def workload_spec(name: str, smoke: bool, wdir: str) -> dict:
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(SMOKE[name])
    spec["config"] = os.path.join(ROOT, spec["config"])
    if "n_steps" in spec:
        # smoke many_paths: same config, shorter paths
        with open(spec["config"]) as fh:
            raw = json.load(fh)
        raw["simulation"]["n_steps"] = raw["embedding"]["n_steps"] = spec["n_steps"]
        spec["config"] = os.path.join(wdir, "config.json")
        with open(spec["config"], "w") as fh:
            json.dump(raw, fh, indent=1)
    return spec


def cli_pass(spec, seed, out, trace_dir):
    """solve -> embed -> verify as separate processes; stops at a failure."""
    cfg = spec["config"]
    steps = [
        ["solve", "--config", cfg, "--out", out],
        ["embed", "--config", cfg, "--field", os.path.join(out, "field.csv"),
         "--paths", str(spec["paths"]), "--seed", str(seed), "--out", out],
        ["verify", "--config", cfg, "--results",
         os.path.join(out, "embedding.csv"), "--out", out],
    ]
    procs = []
    for step in steps:
        tf = None if trace_dir is None else os.path.join(trace_dir, f"{step[0]}.json")
        p = run_proc(py_argv(tf, "cli", step),
                     os.path.join(out, f"{step[0]}.log"))
        p.update(step=step[0], trace=tf)
        procs.append(p)
        if p["rc"] != 0:
            break
    return procs


def library_pass(spec, seed, out, trace_dir):
    tf = None if trace_dir is None else os.path.join(trace_dir, "verification.json")
    args = ["--config", spec["config"], "--seed", str(seed),
            "--steps", str(spec["steps"]), "--ensemble", str(spec["ensemble"]),
            "--ensemble-steps", str(spec["ensemble_steps"]),
            "--round-trip", str(spec["round_trip"]),
            "--subset", str(spec["subset"]),
            "--out", os.path.join(out, "result.json")]
    p = run_proc(py_argv(tf, "verification", args),
                 os.path.join(out, "verification.log"))
    p.update(step="verification", trace=tf)
    return [p]


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def ks_uniform(values, lo: float, hi: float) -> float:
    """Kolmogorov-Smirnov distance to uniform[lo, hi], as verify.ks_statistic."""
    s = sorted(values)
    n = len(s)
    F = [min(max((x - lo) / (hi - lo), 0.0), 1.0) for x in s]
    d_plus = max((i + 1) / n - F[i] for i in range(n))
    d_minus = max(F[i] - i / n for i in range(n))
    return max(d_plus, d_minus, 0.0)


def check_cli(spec, seed, out, procs, ops, ledger, key) -> dict:
    """Checks of one CLI pass; returns the quality values it read."""
    for step in ("solve", "embed", "verify"):
        ran = [p for p in procs if p["step"] == step]
        ops.check(f"step:{step}", bool(ran) and ran[0]["rc"] == 0)
    n = spec["paths"]
    if any(p["rc"] != 0 for p in procs):
        ops.paths("path", [False] * n)
        return {}
    field_meta = read_json(os.path.join(out, "field.json"))
    diag = field_meta["diagnostics"]
    ops.check("field_diagnostics", diag["all_passed"]
              and diag["deriv_mismatch"] is not None)
    law = read_json(os.path.join(out, "law_report.json"))
    ops.check("ks_strong", law["law_strong"]["ks_passed"])
    ops.check("ks_weak", law["law_weak"]["ks_passed"])
    ops.check("guards", law["guard_counts"] == {"K1": 0, "K2": 0})

    rows = []
    with open(os.path.join(out, "embedding.csv")) as fh:
        header = fh.readline().strip()
        for line in fh:
            rows.append([float(v) for v in line.split(",")])
    bound, dr = law["tau_bound"], law["dr"]
    ops.paths("path", [finite(tw, ts, sv) and tw <= bound + WEAK_TAU_TOL
                       and ts <= bound + dr for _, tw, ts, sv in rows[:n]]
              + [False] * (n - len(rows)))

    measure = read_json(spec["config"])["measure"]
    rep = read_json(os.path.join(out, "verify_report.json"))
    ks = ks_uniform([r[3] for r in rows], measure["lo"], measure["hi"])
    ops.check("verify_report", header == "seed,tau_weak,tau_strong,stopped_value"
              and len(rows) == n and rep["ks_passed"]
              and rep["ks"] == law["law_strong"]["ks"]
              and abs(ks - rep["ks"]) <= KS_RECOMPUTE_TOL)

    for art in ("field.csv", "field.json"):
        ledger.compare(ops, "deterministic", f"{key}:{art}",
                       sha256(os.path.join(out, art)))
    for art in ("embedding.csv", "law_report.json", "stopped_hist.csv",
                "verify_report.json"):
        ledger.compare(ops, "deterministic", f"{key}:{seed}:{art}",
                       sha256(os.path.join(out, art)))
    return {
        "deriv_mismatch": diag["deriv_mismatch"],
        "verify.ks_weak": law["law_weak"]["ks"],
        "verify.ks_strong": law["law_strong"]["ks"],
        "verify.w1_weak": law["law_weak"]["w1"],
        "verify.w1_strong": law["law_strong"]["w1"],
        "weak_identity_resid_max": law["weak_identity_residual_max"],
        "embed.strong_identity_mean": law["strong_identity_mean"],
    }


def check_library(spec, seed, out, procs, ops, ledger, key) -> dict:
    ops.check("step:verification", procs[0]["rc"] == 0)
    if procs[0]["rc"] != 0:
        ops.paths("path", [False] * (spec["ensemble"] + spec["subset"]
                                     + spec["round_trip"]))
        return {}
    path = os.path.join(out, "result.json")
    r = read_json(path)
    ops.check("field_diagnostics", r["diagnostics_passed"])
    ops.check("deriv_check", r["deriv_mismatch"] is not None)
    # the program's band is 3 standard errors; see MARTINGALE_SE
    y0, mean_Y, band = (r["martingale_y0"], r["martingale_mean_Y"],
                        r["martingale_band"])
    ops.check("martingale", len(mean_Y) == 8 and finite(y0, *mean_Y, *band)
              and all(abs(m - y0) <= MARTINGALE_SE / 3.0 * b + 1e-12
                      for m, b in zip(mean_Y, band)))
    ops.check("oracle", r["oracle_err"] <= ORACLE_ERR_MAX)
    ops.check("round_trip", r["round_trip_mean_abs_diff"] <= ROUND_TRIP_MEAN_MAX
              and r["round_trip_max_abs_diff"] <= ROUND_TRIP_MAX_MAX)
    ops.check("result_sizes", [len(r["ensemble_Y_T"]), len(r["backward_residual"]),
                               len(r["round_trip_tau_strong"])]
              == [spec["ensemble"], spec["subset"], spec["round_trip"]])
    z_max = r["g_lipschitz"] + Z_BOUND_TOL
    bound, dr = r["tau_bound"], r["round_trip_dr"]
    ops.paths("path", [finite(z, y) and z <= z_max for z, y in
                       zip(r["ensemble_z_abs_max_raw"], r["ensemble_Y_T"])])
    ops.paths("path", [finite(b, v, i) for b, v, i in
                       zip(r["backward_residual"], r["weak_stopped_value"],
                           r["weak_identity_residual"])])
    ops.paths("path", [finite(tw, ts) and tw <= bound + WEAK_TAU_TOL
                       and ts <= bound + dr for tw, ts in
                       zip(r["round_trip_tau_weak"], r["round_trip_tau_strong"])])
    ledger.compare(ops, "deterministic", f"{key}:{seed}:result.json", sha256(path))
    return {
        "deriv_mismatch": r["deriv_mismatch"],
        "weak_identity_resid_max": max(r["weak_identity_residual"]),
        "embed.round_trip_diff": r["round_trip_mean_abs_diff"],
        "fbsde.backward_resid_max": max(r["backward_residual"]),
        "verify.oracle_err": r["oracle_err"],
        "martingale_z_max": max(3.0 * abs(m - y0) / b for m, b in zip(mean_Y, band)
                                if b > 0),
        "martingale_3se_passed": r["martingale_mean_passed"],
    }


def run_pass(spec, seed, wdir, ops, ledger, key, trace_dir=None) -> dict:
    out = os.path.join(wdir, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    kind = spec["kind"]
    procs = (cli_pass if kind == "cli" else library_pass)(spec, seed, out, trace_dir)
    check = check_cli if kind == "cli" else check_library
    quality = check(spec, seed, out, procs, ops, ledger, key)
    shutil.rmtree(out, ignore_errors=True)    # field.csv is half a gigabyte
    return {"total_s": (procs[-1]["end"] - procs[0]["start"]) / 1e9,
            "rss_mb": max(p["rss_mb"] for p in procs), "procs": procs,
            "quality": quality}


def setup_probes(spec, wdir, ops, trace_dir=None) -> list[dict]:
    """Fresh interpreter to a validated RunConfig, once to warm the caches
    and then SETUP_REPS times."""
    procs = []
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    for i in range(SETUP_REPS + 1):
        tf = None if trace_dir is None or i == 0 else \
            os.path.join(trace_dir, f"setup{i}.json")
        p = run_proc(py_argv(tf, "setup", ["--config", spec["config"]]),
                     os.path.join(wdir, "setup.log"))
        ops.check("setup", p["rc"] == 0)
        p.update(trace=tf)
        if i:
            procs.append(p)
    return procs


# -- traces -------------------------------------------------------------------

def load_spans(procs, pass_id: str, workload: str) -> tuple[list, Counter, dict]:
    """Merge the children's spans under one harness span per process and one
    per pass: rows [workload, pass, id, parent, name, start_ns, end_ns]."""
    rows = [[workload, pass_id, 0, None, "bench.pass", procs[0]["start"],
             procs[-1]["end"]]]
    counts, values = Counter(), {}
    for p in procs:
        proc_id = len(rows)
        rows.append([workload, pass_id, proc_id, 0, "bench.proc", p["start"],
                     p["end"]])
        if p.get("trace") is None or not os.path.exists(p["trace"]):
            continue
        t = read_json(p["trace"])
        base = len(rows)
        for sid, parent, sname, start, end in t["spans"]:
            rows.append([workload, pass_id, base + sid,
                         proc_id if parent is None else base + parent,
                         sname, start, end])
        counts.update(t["counts"])
        for k, v in t["values"].items():
            values[k] = max(values.get(k, v), v)
    return rows, counts, values


def span_stats(rows):
    """Total duration and call count per span name, self time per module and
    the number of banded solves made by the field solve itself."""
    dur, calls, self_s = defaultdict(float), Counter(), defaultdict(float)
    by_id = {r[2]: r for r in rows}
    child = defaultdict(float)
    for r in rows:
        if r[3] is not None:
            child[r[3]] += (r[6] - r[5]) / 1e9
    banded = 0
    for r in rows:
        d = (r[6] - r[5]) / 1e9
        dur[r[4]] += d
        calls[r[4]] += 1
        self_s[r[4].split(".")[0]] += d - child[r[2]]
        if r[4] == "field.solve_banded" and by_id[r[3]][4] == "field.solve":
            banded += 1
    return dur, calls, self_s, banded


def layer_metrics(traced: dict, untraced_total: float, setup_rows: list) -> dict:
    rows, counts, values = traced["spans"]
    dur, calls, self_s, banded = span_stats(rows)
    setup = [span_stats(r)[0] for r in setup_rows]

    def setup_med(span):
        return statistics.median(d[span] for d in setup)

    c = dict(counts)
    save_s, load_s = dur["field.save"], dur["field.load"]
    nbytes = c.get("field.artifact_bytes", 0)
    eval_calls, eval_points = calls["field.eval_field"], c.get("field.eval_points", 0)
    m = {
        "cli.solve_s": dur["cli.solve"], "cli.embed_s": dur["cli.embed"],
        "cli.verify_s": dur["cli.verify"],
        "cli.import_s": setup_med("cli.import"),
        "cli.config_s": setup_med("cli.config"),
        "measure.make_g_s": setup_med("measure.make_g"),
        "coeffs.build_s": setup_med("coeffs.build"),
        "field.save_s": save_s, "field.load_s": load_s,
        "field.artifact_bytes": nbytes,
        "field.save_MBps": nbytes / save_s / 1e6 if save_s else 0.0,
        "field.load_MBps": nbytes / load_s / 1e6 if load_s else 0.0,
        "field.solve_s": dur["field.solve"], "field.banded_solves": banded,
        "field.deriv_check_s": dur["field.deriv_check"],
        "field.diagnostics_s": dur["field.diagnostics"],
        "field.eval_calls": eval_calls, "field.eval_points": eval_points,
        "field.eval_points_per_call": eval_points / eval_calls if eval_calls else 0.0,
        "field.eval_s": dur["field.eval_field"],
        # computed, not measured: 8 trilinear corners of 8 bytes per point
        "field.eval_bytes_gathered": 64 * eval_points,
        "fbsde.paths": c.get("fbsde.paths", 0),
        "fbsde.path_steps": c.get("fbsde.path_steps", 0),
        "fbsde.simulate_s": dur["fbsde.simulate"],
        "fbsde.normal_increments_calls": calls["fbsde.normal_increments"],
        "fbsde.normal_increments_s": dur["fbsde.normal_increments"],
        "measure.phi_inv_points": c.get("measure.phi_inv_points", 0),
        "measure.phi_inv_s": dur["measure.phi_inv"],
        "coeffs.clock_H_inv_calls": calls["coeffs.clock_H_inv"],
        "coeffs.clock_H_inv_points": c.get("coeffs.clock_H_inv_points", 0),
        "coeffs.clock_H_inv_s": dur["coeffs.clock_H_inv"],
        "coeffs.timefn_calls": calls["coeffs.timefn"],
        "coeffs.timefn_s": dur["coeffs.timefn"],
        "embed.weak_s": dur["embed.weak"],
        "embed.weak_embed_calls": calls["embed.weak_embed"],
        "embed.strong_s": dur["embed.strong"],
        "embed.strong_u1_points": c.get("embed.strong_u1_points", 0),
        "embed.round_trip_s": dur["embed.round_trip"],
        "embed.guard_hits": c.get("embed.guard_hits", 0),
        "embed.clamp_fraction": values.get("embed.clamp_fraction", 0.0),
        "verify.law_report_s": dur["verify.law_report"],
        "verify.oracle_validate_s": dur["verify.oracle_validate"],
        "trace.total_s": traced["total_s"],
        "trace.overhead_s": traced["total_s"] - untraced_total,
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_s[mod]
    for q in QUALITY:
        m[q] = traced["quality"].get(q, 0.0)
    return m


def exact_counts(m: dict) -> dict:
    return {k: m[k] for k in EXACT_COUNTS}


# -- entry point --------------------------------------------------------------

def load_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    wdir = os.path.join(WORK, name + ("-smoke" if smoke else ""))
    os.makedirs(wdir, exist_ok=True)
    spec = workload_spec(name, smoke, wdir)
    key = f"{name}{'-smoke' if smoke else ''}"
    ledger = Ledger(code_hash(spec))
    ops = Ops()
    trace_root = os.path.join(WORK, "traces", f"{key}-seed{seed}")
    shutil.rmtree(trace_root, ignore_errors=True)

    setup = setup_probes(spec, wdir, ops,
                         os.path.join(trace_root, "setup") if trace else None)
    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        k = len(passes)
        plain = run_pass(spec, seed, wdir, ops, ledger, key)
        entry = {"plain": plain}
        if trace:
            tdir = os.path.join(trace_root, f"pass{k}")
            traced = run_pass(spec, seed, wdir, ops, ledger, key, tdir)
            traced["spans"] = load_spans(traced["procs"], f"pass{k}", key)
            entry["traced"] = traced
        passes.append(entry)

    quality = passes[-1]["plain"]["quality"]
    if not trace:
        metrics = {
            "total_s": statistics.median(p["plain"]["total_s"] for p in passes),
            "setup_s": statistics.median((p["end"] - p["start"]) / 1e9 for p in setup),
            "peak_rss_mb": max(p["plain"]["rss_mb"] for p in passes),
            "ok_frac": 1.0 - sum(ops.failed.values()) / sum(ops.attempted.values()),
            "deriv_mismatch": quality.get("deriv_mismatch", 0.0),
            "weak_identity_resid_max": quality.get("weak_identity_resid_max", 0.0),
        }
    else:
        setup_rows = [load_spans([p], f"setup{i}", key)[0] for i, p in enumerate(setup)]
        layers = [layer_metrics(p["traced"], p["plain"]["total_s"], setup_rows)
                  for p in passes]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["embed.clamp_fraction"] = max(m["embed.clamp_fraction"] for m in layers)
        # exact counts: equal across this run's traced passes and across runs
        for m in layers[1:]:
            ops.check("counts_repeat", exact_counts(m) == exact_counts(layers[0]))
        ledger.compare(ops, "counts_repeat", f"{key}:{seed}:counts",
                       json.dumps(exact_counts(layers[0]), sort_keys=True))
        with open(os.path.join(trace_root, "spans.json"), "w") as fh:
            json.dump({"columns": ["workload", "pass", "id", "parent", "name",
                                   "start_ns", "end_ns"],
                       "spans": [r for p in passes for r in p["traced"]["spans"][0]]
                       + [r for rows in setup_rows for r in rows]},
                      fh, separators=(",", ":"))
    ledger.save()

    attempted, failed = sum(ops.attempted.values()), sum(ops.failed.values())
    for k, p in enumerate(passes):
        for mode, res in p.items():
            steps = ", ".join(f"{q['step']} {(q['end'] - q['start']) / 1e9:.3f} s"
                              f" ({q['cpu_s']:.3f} s CPU)" for q in res["procs"])
            print(f"pass {k} {mode}: {steps}; peak RSS {res['rss_mb']:.1f} MB")
    for check in sorted(ops.attempted):
        print(f"check {check}: {ops.attempted[check] - ops.failed[check]}"
              f"/{ops.attempted[check]} passed")
    for k, v in quality.items():
        print(f"quality {k} = {v!r}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smoke-sized variant (used by perfbench/selftest.py)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    missing = [p for p in ("src/skofbsde/cli.py", "configs/uniform_lineardrift.json",
                           "BENCHMARK.json")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not a skofbsde checkout (missing {', '.join(missing)}); run "
              f"from the repository root", file=sys.stderr)
        return 2
    units = load_units()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.smoke)
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

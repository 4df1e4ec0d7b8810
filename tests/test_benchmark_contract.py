import json
import math
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_tracer_installs_on_the_package():
    # perfbench/tracer.py wraps public names of every skofbsde module and
    # fails on a missing one; run it in a child process so its in-place
    # patching stays there, with -B so nothing is written under perfbench/
    code = ("import sys; sys.path.insert(0, 'perfbench'); import tracer; "
            "tracer.install(tracer.Tracer())")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_verification_child_runs_and_traces(tmp_path):
    # the library-API workload of the benchmark, traced, on the small grid:
    # its finite-difference refill and coupled check run on this package
    trace, out = tmp_path / "trace.json", tmp_path / "verification.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/child.py", "--trace", str(trace),
         "verification", "--config", "configs/smoke_small.json",
         "--seed", "3", "--steps", "128", "--ensemble", "64",
         "--ensemble-steps", "128", "--round-trip", "8", "--subset", "4",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert math.isfinite(result["deriv_mismatch"])
    assert result["diagnostics_passed"] is True
    values = json.loads(trace.read_text())["values"]
    assert values["field.deriv_mismatch"] == result["deriv_mismatch"]


def test_cli_artifacts_carry_the_keys_the_benchmark_reads(tmp_path):
    # perfbench/run.py check_cli reads these keys of the `all` artifacts
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "skofbsde.cli", "all",
         "--config", "configs/smoke_small.json", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    diag = json.loads((out / "field.json").read_text())["diagnostics"]
    assert isinstance(diag["all_passed"], bool)
    assert isinstance(diag["deriv_mismatch"], float)
    law = json.loads((out / "law_report.json").read_text())
    for block in ("law_strong", "law_weak"):
        assert isinstance(law[block]["ks"], float)
        assert isinstance(law[block]["ks_passed"], bool)
        assert isinstance(law[block]["w1"], float)
    assert law["guard_counts"] == {"K1": 0, "K2": 0}
    for key in ("tau_bound", "dr", "weak_identity_residual_max",
                "strong_identity_mean"):
        assert isinstance(law[key], float), key
    rep = json.loads((out / "verify_report.json").read_text())
    assert isinstance(rep["ks"], float)
    assert isinstance(rep["ks_passed"], bool)


def test_traced_exact_counts_repeat(tmp_path):
    # perfbench/run.py's counts_repeat check: the EXACT_COUNTS of two traced
    # `embed` runs on one field with one seed are equal, computed by the
    # benchmark's own span and count code
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cfg, out = "configs/smoke_small.json", tmp_path / "out"

    def run(*argv):
        proc = subprocess.run([sys.executable, "-B", *argv], cwd=ROOT,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    run("-m", "skofbsde.cli", "solve", "--config", cfg, "--out", str(out))
    counts = []
    for k in range(2):
        trace = tmp_path / f"embed{k}.json"
        run("perfbench/child.py", "--trace", str(trace), "cli", "embed",
            "--config", cfg, "--field", str(out / "field.csv"), "--seed", "5",
            "--out", str(tmp_path / f"embed{k}"))
        code = (
            "import json, sys; sys.path.insert(0, 'perfbench'); import run; "
            f"p = {{'start': 0, 'end': 0, 'trace': {str(trace)!r}}}; "
            "spans = run.load_spans([p], 'pass', 'w'); "
            "traced = {'spans': spans, 'total_s': 0.0, 'quality': {}}; "
            "m = run.layer_metrics(traced, 0.0, [spans[0]]); "
            "print(json.dumps(run.exact_counts(m), sort_keys=True))")
        counts.append(json.loads(run("-c", code)))
    assert counts[0] == counts[1]
    assert counts[0]["field.eval_points"] > 0
    assert counts[0]["measure.phi_inv_points"] > 0

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

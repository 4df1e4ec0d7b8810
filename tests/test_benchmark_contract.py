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

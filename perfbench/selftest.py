"""Self-test of the benchmark on its smoke-sized variant (smoke_small grid,
a few hundred paths); run from the repository root:

    python3 perfbench/selftest.py

It shows that
1. every metric named in BENCHMARK.json is printed with its unit, for every
   workload, untraced and traced;
2. another seed changes the stopped values but not field.csv, and the same
   seed reproduces every CLI artifact byte for byte;
3. the exact counts repeat between two traced runs of one seed;
4. outside a checkout (only BENCHMARK.json and perfbench/) the benchmark
   exits non-zero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

ARTIFACTS = ("field.csv", "field.json", "embedding.csv", "law_report.json",
             "stopped_hist.csv", "verify_report.json")
failures = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench_run(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"], cwd=bench.ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def metrics_printed(declared: dict) -> None:
    for workload in bench.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = bench_run(workload, 5, trace)
            want = {m["name"]: m["unit"] for m in declared[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()} if res else {}
            numbers = res is not None and all(
                isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            report(rc == 0 and got == want and numbers and res["correct"],
                   f"{workload} --trace {trace}: all {len(want)} {group} metrics "
                   f"with units, correct={res and res['correct']}")
            if trace:
                counts = {k: res["metrics"][k]["value"] for k in bench.EXACT_COUNTS}
                rc2, res2 = bench_run(workload, 5, 1)
                counts2 = {k: res2["metrics"][k]["value"] for k in bench.EXACT_COUNTS}
                report(counts == counts2 and res2["correct"],
                       f"{workload}: exact counts repeat across two traced runs "
                       f"{counts}")


def seeds_and_bytes() -> None:
    wdir = os.path.join(bench.WORK, "selftest")
    shutil.rmtree(wdir, ignore_errors=True)
    spec = bench.workload_spec("default_grid", True, wdir)
    outs = {}
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        outs[tag] = os.path.join(wdir, tag)
        os.makedirs(outs[tag])
        procs = bench.cli_pass(spec, seed, outs[tag], None)
        report(all(p["rc"] == 0 for p in procs), f"CLI chain, seed {seed}")

    def read(tag, name):
        with open(os.path.join(outs[tag], name), "rb") as fh:
            return fh.read()

    same = [n for n in ARTIFACTS if read("a", n) == read("b", n)]
    report(len(same) == len(ARTIFACTS),
           f"same seed: byte-identical {same}")
    report(read("a", "field.csv") == read("c", "field.csv"),
           "another seed: field.csv unchanged")

    def stopped(tag):
        rows = read(tag, "embedding.csv").decode().splitlines()[1:]
        return [r.split(",")[3] for r in rows]
    a, c = stopped("a"), stopped("c")
    report(len(a) == len(c) and all(x != y for x, y in zip(a, c)),
           "another seed: every stopped value changes")
    shutil.rmtree(wdir, ignore_errors=True)


def outside_checkout() -> None:
    bare = os.path.join(bench.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many_paths",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    report(proc.returncode != 0 and not proc.stdout.strip(),
           f"outside a checkout: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    metrics_printed(declared)
    seeds_and_bytes()
    outside_checkout()
    print(f"{'FAILED' if failures else 'OK'}: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

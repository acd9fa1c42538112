"""Self-test of the benchmark: every workload at a tiny size, in a few seconds.

    python3 perfbench/selftest.py

Run from the root of an ordsub checkout.  It runs run.py --tiny (n = 3
inputs, one verify suite, one search predicate; the traced run scans its
suites at n = 2) on every workload with --trace 0 and --trace 1, and asserts
that each result names exactly the metrics BENCHMARK.json lists, with their
units, and that no check failed.  It also asserts that the reference checks
reject doctored output, and that the benchmark refuses to run without the
ordsub source.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
import refcheck as ref  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE.relative_to(ROOT) / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics(spec: dict) -> None:
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, wl["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{wl['name']} trace {trace}: metrics differ: {set(got) ^ set(want)}"
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
            print(f"ok  {wl['name']:<14} trace {trace}  {result['attempted']} checked", flush=True)


def cli_output(argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "ordsub", *argv], cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def check_rejections() -> None:
    """Each check must fail on an output that is wrong in meaning."""
    obj = {"ground_set": ["a", "b", "c"], "values_dense": [2, 0, 3, 1, 1, 3, 0, 2]}
    path = ROOT / ".perfbench" / "selftest-input.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(obj))
    try:
        f = ref.Function(obj)
        status, text = cli_output(["classify", "--json", "--witness", str(path)])
        assert ref.check_classify(f, text, status) == []
        report = json.loads(text)
        flipped = copy.deepcopy(report)
        flipped["results"]["Q4"] = not flipped["results"]["Q4"]
        moved = copy.deepcopy(report)
        w = next(iter(moved["results"]["witnesses"].values()))
        w["X"], w["Y"] = w["Y"], w["X"]
        for bad in (flipped, moved):
            assert ref.check_classify(f, json.dumps(bad), 0), "a doctored classify report passed"
        assert ref.check_classify(f, text, 1), "a wrong exit code passed"

        status, text = cli_output(["hierarchy", "--json", str(path)])
        assert ref.check_hierarchy(f, text, status) == []
        report = json.loads(text)
        report["results"]["chain"]["families"][1].append("a,b,c")
        assert ref.check_hierarchy(f, json.dumps(report), status), "a doctored family passed"

        status, text = cli_output(["verify", "--json", "--suite", "remark5", "--n", "2"])
        assert ref.check_verify("remark5", 2, text, status) == []
        report = json.loads(text)
        report["results"]["hypothesis_count"] += 1
        assert ref.check_verify("remark5", 2, json.dumps(report), status), "a wrong suite count passed"
    finally:
        path.unlink()
    print("ok  doctored outputs are rejected")


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "modular-n10", 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without src/ordsub")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_rejections()
    check_refuses_without_source()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

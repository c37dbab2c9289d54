"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
asserts that each run prints the run facts and a result line in which every
metric named in BENCHMARK.json appears with its unit, every output matched
its reference (no failed unit) and at least one unit was attempted. It also
runs the benchmark in a directory that holds only BENCHMARK.json and the
benchmark's own files, where it must fail without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 2  # measured time of each run
FACT_KEYS = {"nproc", "blas", "numpy", "scipy", "python", "use_numba", "git_commit", "seed"}


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", str(SECONDS), "--trace", str(trace)]
    res = run(cmd, ROOT)
    problems = []
    if res.returncode != 0:
        return [f"exit code {res.returncode}: {res.stderr.strip()[-800:]}"]
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    facts = json.loads(lines[-2]).get("facts", {})
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}: fail_ratio must be 0")
    missing_facts = FACT_KEYS - set(facts)
    if missing_facts:
        problems.append(f"missing run facts {sorted(missing_facts)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} reads {got}, unit should be {m['unit']}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_bare_directory(spec):
    """Without the package's sources the benchmark must fail, printing no result."""
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        res = run(spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", "0"], bare)
    if res.returncode == 0 or '"correct"' in res.stdout:
        return [f"bare directory: exit code {res.returncode}, stdout {res.stdout[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, w["name"], trace)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {w['name']} trace={trace}")
            for prob in problems:
                print(f"    {prob}")
            failures += bool(problems)
    problems = check_bare_directory(spec)
    print(f"{'ok' if not problems else 'FAIL'} bare directory")
    for prob in problems:
        print(f"    {prob}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Mutation sweep of the backward closures: does every gradient that a
closure hands to `tensor._accum` have a tier-1 test that fails when it is
wrong?

    python tests/mutate_closures.py [-k SUBSTRING]

For each `_accum(` call site in the package, one at a time, tier-1 runs in a
child process in which that site's gradient is scaled by 1 + 1e-3. The
tests marked `kernel_bits` (the digests of three toy training steps) are
deselected: they fail on any change at all, so they cannot tell a wrong
gradient from a new summation order. Each site is reported with the first
test that failed, or as SURVIVED. The script exits 1 if any site survived.
`-k` keeps the sites whose "file:line" contains SUBSTRING.

It is not a tier-1 test (pytest collects only test_*.py). The same file is
the pytest plugin of the child processes, which read their site from the
environment.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "dualtoken")
SITE_VAR = "DUALTOKEN_MUTATE_SITE"
FACTOR = 1.0 + 1e-3


def sites():
    """(file name, line) of every `_accum(` call in the package's source."""
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            for line_no, line in enumerate(fh, 1):
                if re.search(r"\b_accum\(", line) and not line.lstrip().startswith("def "):
                    found.append((name, line_no))
    return found


def pytest_configure(config):
    """In a child process: scale the gradient of the site named in the
    environment, wherever `_accum` is called from it."""
    site = os.environ.get(SITE_VAR)
    if not site:
        return
    name, line_no = site.rsplit(":", 1)
    target = (os.path.join(PACKAGE, name), int(line_no))
    from dualtoken import tensor as T
    accum = T._accum

    def mutated(t, g, owned):
        # the nearest frame in the package is the call site (a test may
        # wrap `_accum` in a function of its own)
        frame = sys._getframe(1)
        while frame is not None and not frame.f_code.co_filename.startswith(PACKAGE):
            frame = frame.f_back
        if frame is not None and (frame.f_code.co_filename, frame.f_lineno) == target:
            return accum(t, g * FACTOR, True)
        return accum(t, g, owned)

    T._accum = mutated


def run_site(name, line_no):
    """The first test that failed with the site's gradient scaled, or None."""
    env = dict(os.environ, **{SITE_VAR: f"{name}:{line_no}"})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "mutate_closures",
           "-p", "no:cacheprovider", "--continue-on-collection-errors", "-rf"]
    cmd += ["-m", "not kernel_bits"]
    res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    for line in res.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ")[0]
    if res.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {res.returncode} at {name}:{line_no}:\n"
                           f"{res.stdout[-2000:]}{res.stderr[-2000:]}")
    return None


def main(argv):
    keep = argv[argv.index("-k") + 1] if "-k" in argv else ""
    survived = []
    chosen = [s for s in sites() if keep in f"{s[0]}:{s[1]}"]
    print(f"{len(chosen)} sites")
    for name, line_no in chosen:
        failed = run_site(name, line_no)
        print(f"{name}:{line_no}  {failed or 'SURVIVED'}", flush=True)
        if failed is None:
            survived.append(f"{name}:{line_no}")
    if survived:
        print(f"not killed: {', '.join(survived)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

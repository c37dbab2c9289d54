"""Regenerate references.json and references_infer224.npz: the reference
outputs of every workload's units for each input variant.

    python3 perfbench/make_references.py

Run it only on a commit whose outputs are known to be right; the stored files
were made on the commit that introduced the benchmark. It takes a few minutes.
"""

import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main():
    refs = {"variants": workloads.VARIANTS}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for name, cls in workloads.WORKLOADS.items():
            refs[name] = {}
            for v in range(workloads.VARIANTS):
                wl = cls(v, None, scratch)
                wl.setup()
                units = []
                for i in range(wl.cycle):
                    wl.before_unit(i)
                    units.append(wl.summary(wl.run_unit(i)))
                refs[name][str(v)] = units
                print(f"{name} variant {v} done", file=sys.stderr, flush=True)
    workloads.save_references(refs)


if __name__ == "__main__":
    main()

"""The package runs on numpy alone: importing it, a float32 forward, a
training step and a CLI command load no scipy module."""

import os
import subprocess
import sys

import dualtoken

# the directory that holds the package this process imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(dualtoken.__file__))

SCRIPT = """
import sys
import numpy as np
import dualtoken
from dualtoken import cli, data, model, train
from dualtoken.tensor import Tensor

m = model.build_model("toy", seed=0)
image = Tensor(np.random.default_rng(0).standard_normal((32, 32, 3)).astype(np.float32))
logits, attention = m.forward(image)
assert logits.dtype == np.float32 and attention
state = train.TrainState(model=m, optimizer="adamw", lr=1e-3)
train.train_step(state, data.gen_synthetic(seed=0, n=4), micro_batch=2)
assert cli.main(["count", "--preset", "toy"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_scipy_module_is_loaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"

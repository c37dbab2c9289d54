"""The four benchmark workloads.

Each workload is a closed loop of units: an image (`infer224`), an optimizer
step (`train224`, `train_toy`) or a full acceptance pass (`verify`). A unit
starts when the previous one has finished. `setup` builds everything a unit
needs; `before_unit` does untimed bookkeeping; `run_unit` is the timed call;
`summary` reduces its output to what the stored references hold.

Inputs come from the seed: seed % VARIANTS picks one of the input variants
whose reference outputs were generated on the seed commit with
`make_references.py`. The variant seeds the model weights, the images and
the datasets.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from dualtoken import analysis, checks, data, model as model_mod, train
from dualtoken.tensor import Tensor

VARIANTS = 16

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(_HERE, "references.json")
# infer224's full logit vectors, as a (variant, image, class) float32 array
LOGITS = os.path.join(_HERE, "references_infer224.npz")

LOGIT_RTOL = 1e-4   # of the logit vector's norm, for each logit
LOSS_RTOL = 1e-4
ATTN_RTOL = 1e-4
ACC_ATOL = 0.02     # argmax of an almost untrained model may flip on ties


def load_references():
    """Reference outputs: workload -> variant (as a string) -> one per unit."""
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    logits = np.load(LOGITS)["logits"]
    refs["infer224"] = {str(v): list(z) for v, z in enumerate(logits)}
    return refs


def save_references(refs):
    refs = dict(refs)
    logits = refs.pop("infer224")
    np.savez_compressed(LOGITS, logits=np.array(
        [logits[str(v)] for v in range(VARIANTS)], dtype=np.float32))
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


def mac_check(m):
    """The instrumented MAC total of one forward pass must equal the analytic
    count_flops total; a mismatch is a failure, not a warning."""
    want = analysis.count_flops(m.cfg).total_macs
    got = analysis.instrumented_macs(m)
    if got != want:
        raise AssertionError(
            f"{m.cfg.name}: instrumented MACs {got} != count_flops {want}")
    return want


def _close(a, b, rtol, scale=None):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    tol = rtol * (np.abs(b) if scale is None else scale)
    return bool(np.all(np.abs(a - b) <= tol))


class Workload:
    name = ""
    images_per_unit = 1
    cycle = 1            # units per reference cycle

    def __init__(self, seed, refs, scratch):
        self.seed = seed
        self.variant = seed % VARIANTS
        self.refs = None if refs is None else refs[self.name][str(self.variant)]
        self.scratch = scratch
        self.models = []  # every model built, for the MAC checks
        # called between the phases of a long unit; the runner probes the
        # machine's speed there
        self.mark = lambda: None

    def setup(self):
        raise NotImplementedError

    def before_unit(self, i):
        pass

    def run_unit(self, i):
        raise NotImplementedError

    def summary(self, out):
        return out

    def matches(self, got, want):
        raise NotImplementedError

    def image_seconds(self, out, seconds):
        """The part of a unit's `seconds` spent putting images through the model."""
        return seconds

    def check(self, i, out):
        """True when the unit's output matches the stored reference."""
        return self.matches(self.summary(out), self.refs[i % self.cycle])


class Infer224(Workload):
    """dualtoken_s forward at 224x224, no tape, no activations kept."""
    name = "infer224"
    cycle = 4

    def setup(self):
        v = self.variant
        self.model = model_mod.build_model("dualtoken_s", seed=v)
        self.models = [self.model]
        rng = np.random.default_rng(1000 + v)
        self.images = [Tensor(rng.standard_normal((224, 224, 3)).astype(np.float32))
                       for _ in range(self.cycle)]
        mac_check(self.model)

    def run_unit(self, i):
        logits, _ = self.model.forward(self.images[i % self.cycle], want_activations=False)
        return logits.data

    def matches(self, got, want):
        # every logit on its own, so an error confined to one class shows
        return _close(got, want, LOGIT_RTOL, scale=np.linalg.norm(want))


class _Training(Workload):
    """Episodes of `cycle` AdamW steps from the same initial weights, so each
    step's loss has a stored reference. The reset between episodes is
    untimed."""
    preset = ""
    micro_batch = 1

    def _build(self, dataset):
        self.state = None
        self.model = model_mod.build_model(self.preset, seed=self.variant)
        self.models = [self.model]
        self.dataset = dataset
        self.initial = [(p, p.data.copy()) for _, p in self.model.named_params()]
        mac_check(self.model)
        for i in range(2):  # warm-up, then back to the initial weights
            self.before_unit(i)
            self.run_unit(i)
        self.state = None

    def before_unit(self, i):
        if i % self.cycle == 0 or self.state is None:
            for p, init in self.initial:
                p.data[...] = init
            self.state = train.TrainState(model=self.model, optimizer="adamw", lr=1e-3)
            # AdamW would create the zero moments on the first step; creating
            # them here keeps that allocation out of the timed step
            self.state.moments = {n: (np.zeros_like(p.data), np.zeros_like(p.data))
                                  for n, p in self.model.named_params()}

    def run_unit(self, i):
        return train.train_step(self.state, self.dataset, micro_batch=self.micro_batch)

    def summary(self, loss):
        return float(loss)

    def matches(self, got, want):
        return _close(got, want, LOSS_RTOL)


class Train224(_Training):
    """One dualtoken_t_mix training step at 224x224, micro-batch 1."""
    name = "train224"
    preset = "dualtoken_t_mix"
    cycle = 4

    def setup(self):
        self._build(data.gen_synthetic(seed=self.variant, n=self.cycle, side=224))


class TrainToy(_Training):
    """One toy training step at 32x32, micro-batch 8, on 800 synthetic images
    that make a round trip through the dataset container."""
    name = "train_toy"
    preset = "toy"
    micro_batch = 8
    images_per_unit = 8
    cycle = 16

    def setup(self):
        ds = data.gen_synthetic(seed=self.variant, n=800)
        path = os.path.join(self.scratch, "dataset.dtvt")
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path, classes=ds.classes, seed=ds.seed)
        os.remove(path)
        if not (np.array_equal(loaded.images, ds.images)
                and np.array_equal(loaded.labels, ds.labels)):
            raise AssertionError("dataset container round trip changed the data")
        self._build(loaded)


class Verify(Workload):
    """One pass of the acceptance path: the three gradcheck suites, analytic
    against instrumented MACs for two published presets, a dualtoken_s
    checkpoint round trip, a toy train-state round trip, evaluation on 200
    toy images, and an attention map exported as CSV and PGM."""
    name = "verify"
    eval_images = 200
    images_per_unit = eval_images

    def setup(self):
        v = self.variant
        build = model_mod.build_model
        self.tmix = build("dualtoken_t_mix", seed=v)
        self.small = build("dualtoken_s", seed=v)
        self.small_copy = build("dualtoken_s", seed=v + 1)
        self.eval_ds = data.gen_synthetic(seed=v, n=self.eval_images)
        toy = build("toy", seed=v)
        self.models = [toy, self.tmix, self.small]
        mac_check(toy)
        self.state = train.TrainState(model=toy, optimizer="adamw", lr=1e-3)
        for _ in range(2):
            train.train_step(self.state, self.eval_ds, micro_batch=8)
        rng = np.random.default_rng(2000 + v)
        self.image = rng.standard_normal((32, 32, 3)).astype(np.float32)

    def image_seconds(self, out, seconds):
        # a pass is not an image stream: its image rate is the evaluation's
        return out["eval_s"]

    def before_unit(self, i):
        # the checkpoint must really be read: clear the model it is loaded into
        for _, p in self.small_copy.named_params():
            p.data[...] = 0.0

    def run_unit(self, i):
        out = {"verdicts": []}
        for suite in (checks.gradcheck_primitives, checks.gradcheck_blocks,
                      checks.gradcheck_model):
            out["verdicts"] += [[name, bool(r.passed), int(r.checked)] for name, r in suite()]
            self.mark()
        out["macs"] = {m.cfg.name: [analysis.count_flops(m.cfg).total_macs,
                                    analysis.instrumented_macs(m, seed=self.variant)]
                       for m in (self.tmix, self.small)}
        self.mark()

        path = os.path.join(self.scratch, "checkpoint.dtvt")
        model_mod.save_checkpoint(self.small, path)
        model_mod.load_checkpoint(self.small_copy, path)
        path = os.path.join(self.scratch, "state.dtvt")
        train.save_state(self.state, path)
        out["loaded_state"] = train.load_state(path, "toy", seed=self.variant)
        self.mark()

        t0 = time.perf_counter()
        out["accuracy"] = train.evaluate(self.state.model, self.eval_ds)
        out["eval_s"] = time.perf_counter() - t0
        self.mark()

        out["map"] = analysis.extract_attention_map(
            self.state.model, self.image, query="mean").mean_map()
        for fmt in ("csv", "pgm"):
            analysis.export_heatmap(out["map"], os.path.join(self.scratch, f"map.{fmt}"), fmt=fmt)
        return out

    def summary(self, out):
        """The pass's verdicts and values; the round trips are compared here,
        outside the timed pass."""
        def same_params(a, b):
            return all(np.array_equal(p.data, q.data) for (_, p), (_, q) in
                       zip(a.named_params(), b.named_params()))

        st, loaded = self.state, out["loaded_state"]
        state_ok = (loaded.step == st.step and loaded.loss_history == st.loss_history
                    and same_params(st.model, loaded.model)
                    and all(np.array_equal(st.moments[n][k], loaded.moments[n][k])
                            for n in st.moments for k in (0, 1)))
        with open(os.path.join(self.scratch, "map.pgm")) as fh:
            pgm_ok = fh.readline().strip() == "P2"
        csv = analysis.read_heatmap_csv(os.path.join(self.scratch, "map.csv"))
        return {"verdicts": out["verdicts"], "macs": out["macs"],
                "accuracy": out["accuracy"],
                "attention": [float(x) for x in out["map"].reshape(-1)],
                "round_trips": [same_params(self.small, self.small_copy), state_ok,
                                pgm_ok and _close(csv, out["map"], 1e-10)]}

    def matches(self, got, want):
        return (got["verdicts"] == want["verdicts"]
                and all(a == b == want["macs"][k][0] for k, (a, b) in got["macs"].items())
                and got["macs"].keys() == want["macs"].keys()
                and abs(got["accuracy"] - want["accuracy"]) <= ACC_ATOL
                and _close(got["attention"], want["attention"], ATTN_RTOL)
                and all(got["round_trips"]))


WORKLOADS = {w.name: w for w in (Infer224, Train224, TrainToy, Verify)}

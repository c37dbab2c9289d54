"""A batch through the model against the same images one at a time."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtoken import tensor as T
from dualtoken.checks import cast_model
from dualtoken.model import build_model, preset
from dualtoken.tensor import GradTape, Tensor
from dualtoken.train import cross_entropy

# normwise bounds on a batch's logits and gradients against per-image runs.
# Over 6,000 random cases from the space `_batched_cases` draws from, the
# worst float32 gradient errors were 1.6e-4 (an image's) and 8.0e-5 (a
# parameter's, head.lin2.bias; 2,000 of the cases); in float64, 2.1e-13 and
# 1.4e-13
_BOUNDS = {np.float64: {"logits": 1e-12, "grads": 1e-12},
           np.float32: {"logits": 1e-5, "grads": 1e-3}}
# a parameter's gradient error is taken relative to its own norm, or to this
# share of the norm of all parameter gradients together where that is
# larger. The rounding error of a sum follows the size of its terms, not of
# the result: a bias gradient sums hundreds of terms that largely cancel
# (stem.conv0.bias erred by 3.3e-12 of its own norm, 4e-6 of the whole, in
# float64), and a gradient that is zero in exact arithmetic (each
# k_proj.bias, and the query and key projections of an attention over one
# key) is rounding noise
_FLOOR = 1e-3


def _losses_and_gradients(model, images, labels):
    """The logits of `images` (one image, or a batch) and the gradients of
    their summed cross-entropy: the images' and each parameter's."""
    for _, p in model.named_params():
        p.zero_grad()
    x = Tensor(images.copy(), requires_grad=True)
    tape = GradTape()
    with tape:
        logits, _ = model.forward(x, want_activations=False)
        loss = T.sum(cross_entropy(logits, labels))
    T.backward(tape, loss)
    return logits.data, x.grad, {n: p.grad for n, p in model.named_params()}


def _relative(got, want, floor=0.0):
    scale = max(np.linalg.norm(want), floor)
    err = np.linalg.norm(got.astype(np.float64) - want)
    return err / scale if scale else err


@st.composite
def _batched_cases(draw):
    """A valid toy-sized config, a batch size of 1 to 4 and a seed."""
    base = preset(draw(st.sampled_from(["toy", "toy_grad"])))
    local_kind = draw(st.sampled_from(["conv_encoder", "window_msa"]))
    cfg = replace(base,
                  local_kind=local_kind,
                  # the stage maps are 4 and 2 wide
                  window=draw(st.sampled_from([1, 2])) if local_kind == "window_msa" else 7,
                  ds_kind=draw(st.sampled_from(["step_wise", "one_step"])),
                  global_mode=draw(st.sampled_from(
                      ["position_aware_sum", "normal_msa", "position_aware_msa"])),
                  num_global_tokens=draw(st.integers(1, 4)),
                  mlp_kind=draw(st.sampled_from(["normal", "mix"])),
                  bidim=draw(st.booleans()),
                  token_grid=draw(st.integers(1, 3)))
    return cfg, draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 16))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(case=_batched_cases())
def test_a_batch_matches_its_images_run_one_at_a_time(case):
    cfg, n, seed = case
    rng = np.random.default_rng(seed)
    side = cfg.input_resolution
    images = rng.standard_normal((n, side, side, 3))
    labels = rng.integers(0, cfg.num_classes, n)
    for dtype, bound in _BOUNDS.items():
        model = cast_model(build_model(cfg, seed=seed), dtype)
        logits, image_grad, grads = _losses_and_gradients(model, images.astype(dtype), labels)
        assert logits.dtype == dtype and logits.shape == (n, cfg.num_classes)
        # the reference: each image on its own, parameter gradients summed
        # in float64
        want_logits, want_images, want = [], [], {}
        for image, label in zip(images.astype(dtype), labels):
            z, g, per_image = _losses_and_gradients(model, image, label)
            want_logits.append(z)
            want_images.append(g)
            for name, grad in per_image.items():
                want[name] = want.get(name, 0.0) + grad.astype(np.float64)
        assert _relative(logits, np.stack(want_logits)) <= bound["logits"]
        for got, ref in zip(image_grad, want_images):
            assert _relative(got, ref) <= bound["grads"]
        floor = _FLOOR * np.sqrt(sum(np.linalg.norm(g) ** 2 for g in want.values()))
        assert grads.keys() == want.keys()
        for name, ref in want.items():
            assert grads[name].dtype == dtype, name
            assert _relative(grads[name], ref, floor) <= bound["grads"], (name, np.dtype(dtype))

"""Full model assembly: shapes, determinism, serialization, and gradient
coverage."""

import hashlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dualtoken import tensor as T
from dualtoken.checks import _tiny_block, cast_model
from dualtoken.data import gen_synthetic, load_dataset, save_dataset
from dualtoken.container import CheckpointError, Reader, write_tensors
from dualtoken.model import (PRESET_NAMES, ModelConfig, StageConfig, build_model,
                             load_checkpoint, preset, save_checkpoint)
from dualtoken.tensor import GradTape, Tensor
from dualtoken.train import cross_entropy, load_state, save_state, train_toy

from test_acceptance import criterion_7_variants


def read_tensors(path):
    """Every tensor of the DTVT file at `path`, in its stored dtype."""
    with Reader(path) as reader:
        return {name: reader.read(name, reader.dtypes[name]) for name in reader.shapes}


def random_image(side, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((side, side, 3)).astype(np.float32))


def test_stride_ladder_and_grid_sides():
    model = build_model("toy", seed=1)
    logits, attention = model.forward(random_image(32))
    assert logits.shape == (8,)
    assert np.isfinite(logits.data).all()
    assert list(attention) == ["stage1.block0", "stage2.block0", "stage3.block0"]
    # one attention row per image token: map sides follow the 1/8, 1/16,
    # 1/32 ladder; one column per global token on the 2x2 grid
    shapes = [a.shape for a in attention.values()]
    assert shapes == [((32 // 8) ** 2, 4), ((32 // 16) ** 2, 4), ((32 // 32) ** 2, 4)]
    quiet, none = model.forward(random_image(32), want_activations=False)
    assert none == {} and (quiet.data == logits.data).all()


def test_global_tokens_propagate_and_change_the_output():
    model = build_model("toy", seed=2)
    img = random_image(32, seed=3)
    base, _ = model.forward(img, want_activations=False)
    model.g_init.data = model.g_init.data + 0.5
    bumped, _ = model.forward(img, want_activations=False)
    assert not np.allclose(base.data, bumped.data)


def test_forward_is_deterministic_and_build_is_seeded():
    a = build_model("toy", seed=7)
    b = build_model("toy", seed=7)
    img = random_image(32, seed=4)
    za, _ = a.forward(img, want_activations=False)
    zb, _ = b.forward(img, want_activations=False)
    assert (za.data == zb.data).all()
    c = build_model("toy", seed=8)
    zc, _ = c.forward(img, want_activations=False)
    assert not (za.data == zc.data).all()


def test_off_grid_resolution_uses_the_interpolation_fallback(bilinear_calls):
    cfg = preset("toy")
    cfg.input_resolution = 64
    cfg.token_grid = 3   # stage maps 8/4/2 never pool exactly to 3x3
    model = build_model(cfg, seed=5)
    logits, _ = model.forward(random_image(64, seed=6))
    assert np.isfinite(logits.data).all()
    assert bilinear_calls
    # with grid 2 the same 8/4/2 ladder pools exactly, no interpolation
    bilinear_calls.clear()
    on_grid = preset("toy")
    on_grid.input_resolution = 64
    build_model(on_grid, seed=5).forward(random_image(64, seed=6))
    assert bilinear_calls == []


def test_input_validation():
    model = build_model("toy_grad", seed=1)
    with pytest.raises(ValueError):
        model.forward(Tensor(np.zeros((32, 16, 3), np.float32)))
    with pytest.raises(ValueError):
        model.forward(Tensor(np.zeros((20, 20, 3), np.float32)))
    # the ops take Tensors only, so an array is refused at the entrance
    with pytest.raises(ValueError, match="Tensor"):
        model.forward(np.zeros((32, 32, 3), np.float32))


def test_every_parameter_receives_gradient():
    # at 64^2 the last stage keeps 2x2 distinct tokens; a 1x1 stage-3 map
    # would make the aggregation softmax uniform and starve its Q/K grads
    cfg = preset("toy_grad")
    cfg.input_resolution = 64
    model = build_model(cfg, seed=9)
    img = random_image(64, seed=10)
    img.requires_grad = True
    tape = GradTape()
    with tape:
        logits, _ = model.forward(img, want_activations=False)
        loss = cross_entropy(logits, 1)
    T.backward(tape, loss)
    missing = [n for n, p in model.named_params()
               if p.grad is None or not np.any(p.grad)]
    assert missing == []
    assert img.grad is not None and np.any(img.grad)


def test_toy_tape_length_stays_within_budget():
    # per-op dispatch bounds the toy step, so the record count is pinned
    model = build_model("toy", seed=1)
    tape = GradTape()
    with tape:
        logits, _ = model.forward(random_image(32), want_activations=False)
        cross_entropy(logits, 3)
    assert len(tape) <= 374


def _toy_step_tape(model, label=3):
    tape = GradTape()
    with tape:
        logits, _ = model.forward(random_image(32, seed=4), want_activations=False)
        loss = cross_entropy(logits, label)
    return tape, loss


def test_backward_consumes_the_tape_and_keeps_only_leaf_gradients():
    model = build_model("toy", seed=1)
    tape, loss = _toy_step_tape(model)
    outputs = [out for out, _ in tape._records]
    T.backward(tape, loss)
    assert len(tape) == 0
    assert all(out.grad is None for out in outputs)

    # the oracle: the same step replayed in full, nothing released
    oracle = build_model("toy", seed=1)
    oracle_tape, oracle_loss = _toy_step_tape(oracle)
    oracle_loss.grad = np.ones_like(oracle_loss.data)
    for out, fn in reversed(oracle_tape._records):
        if out.grad is not None:
            fn(out.grad)
    for (name, p), (_, q) in zip(model.named_params(), oracle.named_params()):
        assert (p.grad is None) == (q.grad is None), name
        if p.grad is not None:
            assert p.grad.dtype == q.grad.dtype and (p.grad == q.grad).all(), name


def _gradients(cfg, label=1):
    """The gradients of one backward pass for the image and every parameter
    of a model built from `cfg` (seed 0), in f32."""
    model = build_model(cfg, seed=0)
    image = random_image(model.cfg.input_resolution, seed=6)
    image.requires_grad = True
    tape = GradTape()
    with tape:
        logits, _ = model.forward(image, want_activations=False)
        loss = cross_entropy(logits, label)
    T.backward(tape, loss)
    return [("image", image.grad)] + [(n, p.grad) for n, p in model.named_params()]


@pytest.mark.parametrize("cfg", [preset("toy")] + criterion_7_variants()
                         + [preset("dualtoken_t_mix")], ids=lambda cfg: cfg.name)
def test_handing_gradients_over_matches_copying_them(monkeypatch, cfg):
    # a gradient handed over while another tensor still writes to it would
    # differ from the same pass with every first gradient copied
    handed = _gradients(cfg)
    accum = T._accum
    monkeypatch.setattr(T, "_accum", lambda t, g, owned: accum(t, g, False))
    copied = _gradients(cfg)
    assert [n for n, _ in handed] == [n for n, _ in copied]
    for (name, a), (_, b) in zip(handed, copied):
        assert a is not None and b is not None, name
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_a_toy_backward_copies_only_shared_arrays_slices_and_transposes(monkeypatch):
    model = build_model("toy", seed=0)
    tape, loss = _toy_step_tape(model)
    op = [None]

    def named(fn):
        def run(g):
            op[0] = fn.__qualname__.split(".")[0]
            fn(g)
        return run

    tape._records = [(out, named(fn)) for out, fn in tape._records]
    copies = {}
    accum = T._accum

    def counting(t, g, owned):
        first = t.grad is None
        accum(t, g, owned)
        # a gradient reduced to t's shape is a new array, not a copy
        if first and g.shape == t.data.shape and t.grad is not g:
            copies[op[0]] = copies.get(op[0], 0) + 1

    monkeypatch.setattr(T, "_accum", counting)
    T.backward(tape, loss)
    # add's second input where the first keeps g, concat's slices, the
    # transposed keys of attention, and the interior of two padded convs
    assert copies == {"add": 16, "concat": 28, "transpose": 8, "conv2d": 2}


def test_backward_peak_memory_stays_near_the_forward_peak():
    # numpy reports its buffers to tracemalloc; the saved arrays and the
    # gradients of intermediate tensors die during backward, so the pass
    # adds little to what the forward already holds
    model = build_model("toy", seed=1)
    tracemalloc.start()
    try:
        tape, loss = _toy_step_tape(model)
        forward_peak = tracemalloc.get_traced_memory()[1]
        T.backward(tape, loss)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step_peak <= 1.25 * forward_peak


# sha256 over the name, dtype, shape and bytes of every `named_params()`
# entry at seed 0: a layer that draws its parameters in another order, or
# draws one more, changes them
_INITIAL_DIGESTS = {
    "dualtoken_t": "4d0dd061922f73e97f78a573c119c66418bb0d74e29d21ab32a02937eca37aa2",
    "dualtoken_t_mix": "1182a2cebac857ddb6a73f61a0beef5b7cbceb1d19d34fb1d236f13abd22005f",
    "dualtoken_s": "976f6b24cb41283b5767aa510cba0a85d7eb49eaa45ebf243811f4058068d2cb",
    "dualtoken_s_mix": "d8b0cf003ed091e32013d317efe6066334cd54f0d08c80af2d13e769e7570b3c",
    "toy": "c8af1ce5ae0604668ac20e1167b0839512720e694bda61f1cf6ffcff094ca4e2",
    "toy_grad": "5accd8e6984b502eb84a30be829fe751427d352d64f0dfdd32f0025018102102",
    "block": "fa8649b43bf13b50b509d5ac84e7559ec9e1604c896d23abeeddd7b48fc669ae",
    "block.step_wise_8": "e546babe158b1ca1cb05d2f804b30d8e397bcc66ada1f0ef93268ab0864878a5",
    "block.mix": "fa8649b43bf13b50b509d5ac84e7559ec9e1604c896d23abeeddd7b48fc669ae",
    "block.window_msa": "e8cc1001f6c1f0a9055e5b28e9b960dd6724f0b530bf5464953c65040546d858",
    "block.one_step": "fa8649b43bf13b50b509d5ac84e7559ec9e1604c896d23abeeddd7b48fc669ae",
    "block.normal_msa": "451eb041b297769be02e6743fb8231cdec526e60773b88c79683b49dd38aad7e",
    "block.position_aware_msa": "451eb041b297769be02e6743fb8231cdec526e60773b88c79683b49dd38aad7e",
    "block.no_bidim": "7b5d30a11c882090b639145c2dca4f5b1220a1145d794117f681ea87efddea4a",
}

# the ablation variants `checks.gradcheck_blocks` builds, and the block
# without bi-dimensional attention
_BLOCK_VARIANTS = {
    "block": {},
    "block.step_wise_8": dict(resolution=8),
    "block.mix": dict(mlp_kind="mix"),
    "block.window_msa": dict(local_kind="window_msa", resolution=14, window=7),
    "block.one_step": dict(ds_kind="one_step", resolution=8),
    "block.normal_msa": dict(global_mode="normal_msa"),
    "block.position_aware_msa": dict(global_mode="position_aware_msa"),
    "block.no_bidim": dict(bidim=False),
}


def _digest(named_params):
    h = hashlib.sha256()
    for name, p in named_params:
        h.update(f"{name} {p.data.dtype.str} {p.data.shape}\n".encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def test_initial_weights_match_the_pinned_digests():
    got = {name: _digest(build_model(name, seed=0).named_params())
           for name in PRESET_NAMES}
    for name, overrides in _BLOCK_VARIANTS.items():
        _, block = _tiny_block(np.random.default_rng(0), **overrides)
        got[name] = _digest(block.named_params())
    assert got == _INITIAL_DIGESTS


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    model = build_model("toy_grad", seed=11)
    path = tmp_path / "model.dtvt"
    save_checkpoint(model, path)
    other = build_model("toy_grad", seed=99)
    load_checkpoint(other, path)
    for (na, pa), (nb, pb) in zip(model.named_params(), other.named_params()):
        assert na == nb
        assert (pa.data == pb.data).all()
    img = random_image(32, seed=12)
    za, _ = model.forward(img, want_activations=False)
    zb, _ = other.forward(img, want_activations=False)
    assert (za.data == zb.data).all()


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.dtvt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        read_tensors(path)
    model = build_model("toy_grad", seed=1)
    good = tmp_path / "good.dtvt"
    save_checkpoint(model, good)
    truncated = tmp_path / "trunc.dtvt"
    truncated.write_bytes(good.read_bytes()[:-40])
    with pytest.raises(CheckpointError):
        read_tensors(truncated)


def test_checkpoint_shape_mismatch_names_the_tensor(tmp_path):
    model = build_model("toy_grad", seed=1)
    path = tmp_path / "model.dtvt"
    named = {n: p.data for n, p in model.named_params()}
    named["head.lin2.bias"] = np.zeros(17, np.float32)
    write_tensors(path, named)
    with pytest.raises(CheckpointError, match="head.lin2.bias"):
        load_checkpoint(build_model("toy_grad", seed=2), path)


def test_checkpoint_supports_float64(tmp_path):
    path = tmp_path / "f64.dtvt"
    arr = np.random.default_rng(0).standard_normal((3, 4))
    write_tensors(path, {"a": arr})
    back = read_tensors(path)["a"]
    assert back.dtype == np.float64
    assert (back == arr).all()


@pytest.mark.parametrize("dtype", [np.float16, np.int64])
def test_refused_write_leaves_the_existing_file_byte_identical(tmp_path, dtype):
    path = tmp_path / "model.dtvt"
    save_checkpoint(build_model("toy", seed=0), path)
    before = path.read_bytes()
    named = {"fine": np.zeros(3, np.float32), "odd": np.zeros(3, dtype)}
    with pytest.raises(ValueError, match=f"odd has dtype {np.dtype(dtype)}"):
        write_tensors(path, named)
    assert path.read_bytes() == before


def _two_tensor_blob(tmp_path):
    path = tmp_path / "pair.dtvt"
    rng = np.random.default_rng(0)
    write_tensors(path, {"a": rng.standard_normal((2, 3)).astype(np.float32),
                         "b": rng.standard_normal(2)})
    return path, path.read_bytes()


def test_checkpoint_duplicate_names_are_refused(tmp_path):
    path, blob = _two_tensor_blob(tmp_path)
    # both names are one byte long, so renaming "b" to "a" keeps the layout
    path.write_bytes(blob.replace(b"\x01\x00b", b"\x01\x00a"))
    with pytest.raises(CheckpointError, match="duplicate"):
        read_tensors(path)


def test_checkpoint_trailing_bytes_are_refused(tmp_path):
    path, blob = _two_tensor_blob(tmp_path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        read_tensors(path)


def test_checkpoint_bad_utf8_name_is_refused(tmp_path):
    path, blob = _two_tensor_blob(tmp_path)
    path.write_bytes(blob.replace(b"\x01\x00b", b"\x01\x00\xff"))
    with pytest.raises(CheckpointError, match="UTF-8"):
        read_tensors(path)


def test_checkpoint_dims_overflowing_int64_are_refused(tmp_path):
    # 2**32 * 2**32 wraps to 0 in int64; exact arithmetic must refuse it
    path = tmp_path / "huge.dtvt"
    path.write_bytes(b"DTVT" + struct.pack("<II", 1, 1) + struct.pack("<H", 1)
                     + b"a" + struct.pack("<BB", 0, 2)
                     + struct.pack("<QQ", 2 ** 32, 2 ** 32))
    with pytest.raises(CheckpointError, match="truncated"):
        read_tensors(path)


def test_checkpoint_header_claiming_2_40_elements_is_refused_before_allocating(tmp_path):
    path = tmp_path / "liar.dtvt"
    blob = (b"DTVT" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"a"
            + struct.pack("<BB", 0, 1) + struct.pack("<Q", 2 ** 40))
    path.write_bytes(blob + b"\x00" * (100 - len(blob)))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated"):
            read_tensors(path)
        for load in _EVERY_LOADER.values():
            with pytest.raises(CheckpointError, match="truncated"):
                load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_checkpoint_loads_in_place_and_casts_to_the_model_dtype(tmp_path):
    path = tmp_path / "f64.dtvt"
    source = cast_model(build_model("toy_grad", seed=3), np.float64)
    save_checkpoint(source, path)
    model = build_model("toy_grad", seed=4)
    buffers = [p.data for _, p in model.named_params()]
    load_checkpoint(model, path)
    for (name, p), buf, (_, q) in zip(model.named_params(), buffers, source.named_params()):
        assert p.data is buf, name
        assert p.data.dtype == np.float32
        assert (p.data == q.data.astype(np.float32)).all(), name


def test_checkpoint_value_beyond_the_model_dtype_is_refused_before_any_write(tmp_path):
    path = tmp_path / "f64.dtvt"
    source = cast_model(build_model("toy_grad", seed=3), np.float64)
    # the last parameter, so every other one would be written before it
    source.head_lin2.bias.data[0] = 1e300
    save_checkpoint(source, path)
    model = build_model("toy_grad", seed=4)
    before = {name: p.data.copy() for name, p in model.named_params()}
    with pytest.raises(CheckpointError, match="head.lin2.bias"):
        load_checkpoint(model, path)
    # the same without the suite's warning filter, where a bare cast stores inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(CheckpointError, match="head.lin2.bias"):
            load_checkpoint(model, path)
    for name, p in model.named_params():
        assert (p.data == before[name]).all(), name


def test_write_tensors_stores_little_endian_from_any_layout(tmp_path):
    rng = np.random.default_rng(5)
    native = rng.standard_normal((4, 6)).astype(np.float32)
    plain, other = tmp_path / "plain.dtvt", tmp_path / "other.dtvt"
    write_tensors(plain, {"a": native, "b": native.astype(np.float64)})
    # big-endian and strided copies of the same values write the same bytes
    write_tensors(other, {"a": native.astype(">f4")[:, ::1].T.copy().T,
                          "b": native.astype(">f8")})
    assert plain.read_bytes() == other.read_bytes()
    assert plain.read_bytes()[-8:] == struct.pack("<d", float(native[-1, -1]))
    back = read_tensors(other)
    assert back["a"].dtype == np.float32 and (back["a"] == native).all()


def _damage(blob, truncate, where):
    """`blob` cut short, or with one bit flipped, at the position `where`
    (taken modulo the length, so a negative one counts from the end)."""
    if truncate:
        return blob[:where % len(blob)]
    bit = where % (8 * len(blob))
    blob = bytearray(blob)
    blob[bit // 8] ^= 1 << (bit % 8)
    return bytes(blob)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(truncate=st.booleans(), where=st.integers(0, 2 ** 20))
def test_refused_checkpoint_leaves_every_parameter_unchanged(tmp_path, truncate, where):
    path = tmp_path / "damaged.dtvt"
    save_checkpoint(build_model("toy_grad", seed=6), path)
    path.write_bytes(_damage(path.read_bytes(), truncate, where))
    model = build_model("toy_grad", seed=7)
    before = {name: p.data.copy() for name, p in model.named_params()}
    try:
        load_checkpoint(model, path)
    except CheckpointError:
        assert all((p.data == before[name]).all() for name, p in model.named_params())
    else:
        # only a flipped payload bit loads, and it changes the loaded values
        assert not truncate


def test_checkpoint_empty_tensor_with_impossible_dims_is_refused(tmp_path):
    path = tmp_path / "empty.dtvt"
    write_tensors(path, {"a": np.zeros((0, 3), np.float32)})
    # one flipped bit: no data to read, but a dim numpy cannot represent
    path.write_bytes(path.read_bytes().replace(struct.pack("<QQ", 0, 3),
                                               struct.pack("<QQ", 0, 3 | 1 << 63)))
    with pytest.raises(CheckpointError, match="bad shape"):
        read_tensors(path)


_names = st.text(max_size=6)
_tensor = st.tuples(st.sampled_from([np.float32, np.float64]),
                    st.lists(st.integers(0, 3), max_size=3))


@st.composite
def _damaged(draw):
    """A valid two-tensor container and one truncation or single-bit flip."""
    names = draw(st.lists(_names, min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    named = {name: rng.standard_normal(shape).astype(dtype)
             for name, (dtype, shape) in zip(names, draw(st.tuples(_tensor, _tensor)))}
    return named, draw(st.booleans()), draw(st.integers(0, 2 ** 20))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_damaged())
def test_damaged_container_reads_or_raises_checkpoint_error(tmp_path, case):
    named, truncate, where = case
    path = tmp_path / "fuzz.dtvt"
    write_tensors(path, named)
    blob = path.read_bytes()
    back = read_tensors(path)
    assert list(back) == list(named)
    assert all((back[n] == a).all() and back[n].dtype == a.dtype
               for n, a in named.items())
    path.write_bytes(_damage(blob, truncate, where))
    try:
        read_tensors(path)
    except CheckpointError:
        pass


@pytest.fixture(scope="module")
def healthy_blobs(tmp_path_factory):
    """The bytes of a `toy_grad` training state after one AdamW step, of its
    model's checkpoint, and of a small dataset."""
    out = tmp_path_factory.mktemp("healthy")
    state = train_toy(preset("toy_grad"), gen_synthetic(seed=0, n=4, classes=4),
                      steps=1, lr=1e-3)
    save_state(state, out / "state.dtvt")
    save_checkpoint(state.model, out / "checkpoint.dtvt")
    save_dataset(gen_synthetic(seed=0, n=4, classes=4, side=8), out / "data.dtvt")
    return {kind: (out / f"{kind}.dtvt").read_bytes()
            for kind in ("state", "checkpoint", "data")}


_LOADERS = {"state": lambda path: load_state(path, preset("toy_grad")),
            "data": load_dataset}
_EVERY_LOADER = {
    "checkpoint": lambda path: load_checkpoint(build_model("toy_grad", seed=1), path),
    **_LOADERS}


# a negative `where` counts from the end, where the state keeps `meta.*`
@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(truncate=st.booleans(), where=st.integers(-2 ** 20, 2 ** 20))
# in the state: the top exponent bit of meta.step, which turns 1.0 into inf
@example(truncate=False, where=-298)
def test_damaged_state_or_dataset_loads_or_raises_checkpoint_error(
        tmp_path, healthy_blobs, kind, truncate, where):
    path = tmp_path / "fuzz.dtvt"
    path.write_bytes(_damage(healthy_blobs[kind], truncate, where))
    try:
        _LOADERS[kind](path)
    except CheckpointError:
        pass


def _grow_last_tensor(path, count):
    """Give the last tensor of the DTVT file at `path`, a 1-d one of one
    float32, `count` zero elements. The file grows sparsely: the zeros are
    not written."""
    blob = path.read_bytes()
    path.write_bytes(blob[:-12] + struct.pack("<Q", count))
    with open(path, "r+b") as fh:
        fh.truncate(len(blob) - 4 + 4 * count)


@pytest.mark.parametrize("kind, name", [
    ("checkpoint", "junk"), ("checkpoint", "stem.conv0.weight"),
    ("state", "junk"), ("state", "param.stem.conv0.weight"),
    ("data", "junk"), ("data", "images")])
def test_every_loader_refuses_a_25m_element_tensor_from_the_headers(
        tmp_path, healthy_blobs, kind, name):
    # an unexpected tensor, or an expected one misshapen, holding 95 MiB
    path = tmp_path / f"{kind}.dtvt"
    path.write_bytes(healthy_blobs[kind])
    named = read_tensors(path)
    named.pop(name, None)
    named[name] = np.zeros(1, np.float32)  # last, so that it can grow
    write_tensors(path, named)
    _grow_last_tensor(path, 25 * 10 ** 6)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=name):
            _EVERY_LOADER[kind](path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_config_json_round_trip_is_exact():
    cfg = preset("dualtoken_s_mix")
    again = ModelConfig.from_json(cfg.to_json())
    assert again.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        ModelConfig.from_dict({"stages": [], "flux_capacitor": 1})
    with pytest.raises(ValueError, match="unknown"):
        StageConfig.from_dict({"blocks": 1, "channels": 8, "heads": 2,
                               "depth": 3})


def test_config_structural_validation():
    stage = {"blocks": 1, "channels": 8, "heads": 2, "dw_kernel": 3}
    with pytest.raises(ValueError):
        ModelConfig(stages=[stage, stage])            # needs 3 stages
    with pytest.raises(ValueError):
        ModelConfig(stages=[stage, stage, stage], input_resolution=100)
    with pytest.raises(ValueError):
        ModelConfig(stages=[stage, stage,
                            {"blocks": 1, "channels": 9, "heads": 2}])

    toy = preset("toy").to_dict()
    ModelConfig.from_dict(toy)
    for field, value in [("alpha", "x"), ("alpha", True), ("alpha", float("nan")),
                         ("token_grid", "7"), ("ffn_ratio", 0), ("window", 2.0),
                         ("num_global_tokens", -1), ("num_classes", 0),
                         ("head_hidden", -1), ("mlp_kind", "bogus"),
                         ("local_kind", "conv"), ("ds_kind", None),
                         ("global_mode", "sum"), ("bidim", "no"), ("bidim", 1)]:
        with pytest.raises(ValueError, match=field):
            ModelConfig.from_dict(dict(toy, **{field: value}))
    no_kernel = dict(toy, stages=[dict(toy["stages"][0], dw_kernel=None),
                                  *toy["stages"][1:]])
    with pytest.raises(ValueError, match="dw_kernel"):
        ModelConfig.from_dict(no_kernel)


def test_a_config_changed_in_place_is_refused_at_build():
    changes = [(dict(alpha=1.5), "alpha"),
               (dict(local_kind="window_msa", window=3), "divisible by the window"),
               (dict(local_kind="conv"), "local_kind")]
    for change, message in changes:
        cfg = preset("toy")
        for key, value in change.items():
            setattr(cfg, key, value)
        with pytest.raises(ValueError, match=message):
            build_model(cfg)
    cfg = preset("toy")
    cfg.stages[1].heads = 3
    with pytest.raises(ValueError, match="not divisible by heads 3"):
        build_model(cfg)


def test_preset_names_and_unknown_preset():
    for name in ("dualtoken_t", "dualtoken_t_mix", "dualtoken_s",
                 "dualtoken_s_mix", "toy", "toy_grad"):
        assert preset(name).name == name
    with pytest.raises(ValueError):
        preset("dualtoken_xl")


def test_stage3_has_no_local_branch_or_downsampler():
    model = build_model("toy", seed=1)
    names = [n for n, _ in model.named_params()]
    assert not any(n.startswith("stage3.block0.conv_encoder") for n in names)
    assert not any(n.startswith("stage3.block0.downsample") for n in names)
    assert any(n.startswith("stage1.block0.conv_encoder") for n in names)

"""Synthetic image classification data for desk-scale training runs.

Each class places an oriented stripe texture at a class-specific grid
position (plus background noise), so telling classes apart needs both the
local-texture and the global-position pathway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import CheckpointError, Reader, write_tensors
from .model import check_positive_int


@dataclass
class SyntheticDataset:
    """Labelled images, checked when made: at least one n x S x S x 3 image
    and one integer label in [0, classes) per image."""

    images: np.ndarray   # n x S x S x 3, float32
    labels: np.ndarray   # n, int64 in [0, classes)
    classes: int
    seed: int

    def __post_init__(self):
        check_positive_int("classes", self.classes)
        shape = np.shape(self.images)
        if len(shape) != 4 or min(shape) < 1 or shape[1] != shape[2] or shape[3] != 3:
            raise ValueError(f"images must be n x S x S x 3 with n, S >= 1, got {shape}")
        labels = self.labels
        if not (isinstance(labels, np.ndarray) and labels.shape == shape[:1]
                and np.issubdtype(labels.dtype, np.integer)):
            raise ValueError(f"labels must be an integer array of shape {shape[:1]}")
        if labels.min() < 0 or labels.max() >= self.classes:
            raise ValueError(f"labels must lie in [0, {self.classes})")

    def __len__(self):
        return len(self.labels)


def gen_synthetic(seed=42, n=800, classes=8, side=32):
    """Deterministic dataset; labels are assigned round-robin (i % classes)."""
    check_positive_int("n", n)
    check_positive_int("side", side)
    if side % 8 != 0:
        raise ValueError(f"side {side} must be divisible by 8")
    check_positive_int("classes", classes)
    if classes < 2:
        raise ValueError("need at least 2 classes")
    patch = max(side // 4, 4)
    rng = np.random.default_rng(seed)
    cells = side // patch
    images = np.zeros((n, side, side, 3), dtype=np.float32)
    labels = (np.arange(n) % classes).astype(np.int64)
    yy, xx = np.mgrid[0:patch, 0:patch].astype(np.float64)
    for i in range(n):
        k = labels[i]
        img = rng.normal(0.0, 0.15, size=(side, side, 3))  # background noise
        # class-specific cell position and stripe orientation
        ci, cj = divmod(int(k) % (cells * cells), cells)
        theta = np.pi * k / classes
        stripes = np.sin(2.0 * np.pi * (np.cos(theta) * xx + np.sin(theta) * yy) / 4.0)
        r0, c0 = ci * patch, cj * patch
        channel = int(k) % 3
        img[r0:r0 + patch, c0:c0 + patch, channel] += stripes
        img[r0:r0 + patch, c0:c0 + patch, (channel + 1) % 3] += 0.5 * stripes
        images[i] = img.astype(np.float32)
    return SyntheticDataset(images=images, labels=labels, classes=classes, seed=seed)


# save_dataset stores labels as float32, which holds every whole number up
# to 2**24 exactly
_MAX_LABEL = 2 ** 24


def save_dataset(ds, path):
    """Write `ds` as DTVT; a label float32 cannot hold raises `ValueError` first."""
    if ds.labels.max() >= _MAX_LABEL:
        raise ValueError(f"labels must lie below {_MAX_LABEL}, got {ds.labels.max()}")
    write_tensors(path, {"images": ds.images,
                         "labels": ds.labels.astype(np.float32)})


def load_dataset(path, classes=None, seed=0):
    """Read a dataset written by `save_dataset`.

    The container must hold exactly `images`, n x S x S x 3 with n, S >= 1
    and values that fit float32, and `labels` of shape (n,), whole numbers
    in [0, classes); `classes` defaults to the largest label plus one.
    Anything else raises `CheckpointError`."""
    with Reader(path) as reader:
        reader.expect({"images": (None, None, None, 3), "labels": (None,)})
        shape = reader.shapes["images"]
        n, side = shape[:2]
        if n < 1 or side < 1 or shape[2] != side:
            raise CheckpointError(
                f"{path}: images must be n x S x S x 3 with n, S >= 1, got {shape}")
        if reader.shapes["labels"] != (n,):
            raise CheckpointError(f"{path}: labels have shape {reader.shapes['labels']}, "
                                  f"expected ({n},) for {n} images")
        images = reader.read("images", np.float32)
        labels = reader.read("labels", np.float64)
    top = _MAX_LABEL if classes is None else classes
    if not (np.isfinite(labels).all() and (labels == np.floor(labels)).all()
            and labels.min() >= 0 and labels.max() < top):
        raise CheckpointError(f"{path}: labels must be whole numbers in [0, {top})")
    labels = labels.astype(np.int64)
    if classes is None:
        classes = int(labels.max()) + 1
    return SyntheticDataset(images=images, labels=labels, classes=classes, seed=seed)

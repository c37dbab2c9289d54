"""Synthetic image classification data for desk-scale training runs.

Each class places an oriented stripe texture at a class-specific grid
position (plus background noise), so telling classes apart needs both the
local-texture and the global-position pathway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block import check_positive_int
from .model import read_tensors, write_tensors


@dataclass
class SyntheticDataset:
    images: np.ndarray   # n x S x S x 3, float32
    labels: np.ndarray   # n, int64 in [0, classes)
    classes: int
    seed: int

    def __len__(self):
        return len(self.labels)


def gen_synthetic(seed=42, n=800, classes=8, side=32, patch=None, noise=0.15):
    """Deterministic dataset; labels are assigned round-robin (i % classes)."""
    check_positive_int("n", n)
    if side % 8 != 0:
        raise ValueError(f"side {side} must be divisible by 8")
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if patch is None:
        patch = max(side // 4, 4)
    rng = np.random.default_rng(seed)
    cells = side // patch
    images = np.zeros((n, side, side, 3), dtype=np.float32)
    labels = (np.arange(n) % classes).astype(np.int64)
    yy, xx = np.mgrid[0:patch, 0:patch].astype(np.float64)
    for i in range(n):
        k = labels[i]
        img = rng.normal(0.0, noise, size=(side, side, 3))
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


def save_dataset(ds, path):
    write_tensors(path, {"images": ds.images,
                         "labels": ds.labels.astype(np.float32)})


def load_dataset(path, classes=None, seed=0):
    tensors = read_tensors(path)
    images = tensors["images"].astype(np.float32)
    labels = tensors["labels"].astype(np.int64)
    if classes is None:
        classes = int(labels.max()) + 1
    return SyntheticDataset(images=images, labels=labels, classes=classes, seed=seed)

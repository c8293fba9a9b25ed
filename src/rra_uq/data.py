"""Datasets: synthetic generators, IDX image files, normalization, corruption.

Generators are pure functions of (arguments, seed).  Corruptions implement a
five-level severity ladder per kind; the level only rescales the parameters
of the kind's noise draw, so `corrupt` at one seed perturbs gaussian severity
5 with the same unit normals as severity 1, scaled up.  An experiment's
corruption grid does not share them: `experiments.corrupted_eval_sets`
seeds each (kind, severity) cell from its grid index, so every cell draws
its own noise.  Labels are never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataFormatError, ParameterError
from .rng import RngStream
from .serialize import ArrayLayout, read_array, write_array

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# big-endian IDX: the magic, the count (then rows and cols) as u32, then bytes
IDX_IMAGES = ArrayLayout("IDX images", IDX_IMAGES_MAGIC.to_bytes(4, "big"), ">4sIII", "u1")
IDX_LABELS = ArrayLayout("IDX labels", IDX_LABELS_MAGIC.to_bytes(4, "big"), ">4sI", "u1")


@dataclass
class Dataset:
    features: np.ndarray  # (n, ...) float64
    labels: np.ndarray    # (n,) int64
    name: str
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.features.shape[0] != self.labels.shape[0]:
            raise ContractError(
                f"features ({self.features.shape[0]} rows) and labels "
                f"({self.labels.shape}) do not align")
        if self.n_classes < 2:
            raise ParameterError(f"need at least 2 classes, got {self.n_classes}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ContractError(
                f"labels outside [0, {self.n_classes}): "
                f"range [{self.labels.min()}, {self.labels.max()}]")

    def __len__(self):
        return self.features.shape[0]

    @property
    def feature_shape(self):
        return self.features.shape[1:]


# The generators' argument rules; a refusal calls the argument `name`.

def check_size(n: int, name: str, even: bool = False) -> None:
    if n < 2 or (even and n % 2):
        raise ParameterError(f"{name} must be {'even and ' if even else ''}>= 2, got {n}")


def check_scale(value: float, name: str) -> None:
    if value < 0.0:
        raise ParameterError(f"{name} must be non-negative, got {value}")


def check_centers(points, name: str = "centers") -> np.ndarray:
    """`points` as a (k, d) float array: k >= 2 points of one dimension d >= 1."""
    try:
        centers = np.asarray(points, dtype=np.float64)
    except ValueError:  # points of different dimensions
        centers = np.empty(0)
    if centers.ndim != 2 or len(centers) < 2 or centers.shape[1] < 1:
        raise ParameterError(f"{name} must be 2 or more points of one dimension, got {points!r}")
    return centers


def gen_two_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circles, n/2 points each, optional Gaussian jitter.

    Zero noise reproduces the exact template: class 0 on the upper unit arc
    (cos t, sin t), class 1 on (1 - cos t, 0.5 - sin t), t in [0, pi].
    """
    check_size(n, "two-moons size", even=True)
    check_scale(noise, "noise")
    half = n // 2
    t = np.linspace(0.0, math.pi, half)
    arc0 = np.stack([np.cos(t), np.sin(t)], axis=1)
    arc1 = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
    features = np.concatenate([arc0, arc1])
    if noise > 0.0:
        features = features + RngStream(seed).normal(0.0, noise, features.shape)
    labels = np.repeat(np.arange(2, dtype=np.int64), half)
    return Dataset(features, labels, "two_moons", 2)


def gen_blobs(n: int, centers, sigma: float, seed: int) -> Dataset:
    """Isotropic Gaussian blobs with round-robin class assignment.

    Per-class counts differ by at most 1.  Duplicate centers are accepted
    (the classes become statistically indistinguishable) and flagged in the
    dataset name.
    """
    centers = check_centers(centers)
    check_scale(sigma, "sigma")
    check_size(n, "blobs size")
    k = centers.shape[0]
    labels = (np.arange(n) % k).astype(np.int64)
    features = centers[labels] + RngStream(seed).normal(0.0, sigma, (n, centers.shape[1]))
    name = f"blobs{k}"
    if len({tuple(c) for c in centers}) < k:
        name += "+dup"
    return Dataset(features, labels, name, k)


def load_idx(images_path, labels_path, n_classes: int | None = None) -> Dataset:
    """Load big-endian IDX image/label files into a (n, 1, h, w) dataset.

    Pixels scale to [0, 1] as byte/255.  Label values must stay below
    n_classes when given (default: max label + 1, at least 2).
    """
    pixels = read_array(images_path, IDX_IMAGES)
    labels = read_array(labels_path, IDX_LABELS)
    if len(labels) != len(pixels):
        raise DataFormatError(f"label count {len(labels)} in {labels_path} does not match "
                              f"image count {len(pixels)} in {images_path}")
    labels = labels.astype(np.int64)
    if n_classes is None:
        n_classes = max(int(labels.max()) + 1, 2) if labels.size else 2
    elif labels.size and labels.max() >= n_classes:
        raise ParameterError(
            f"label {int(labels.max())} out of range for {n_classes} classes")
    name = str(images_path).rsplit("/", 1)[-1].split(".")[0]
    return Dataset(pixels[:, None].astype(np.float64) / 255.0, labels, name, n_classes)


def write_idx(ds: Dataset, images_path, labels_path) -> None:
    """Inverse of load_idx for [0, 1]-scaled byte images and byte labels (exact round-trip)."""
    if ds.features.ndim != 4 or ds.features.shape[1] != 1:
        raise ContractError(f"IDX export needs (n, 1, h, w) features, got {ds.features.shape}")
    pixels = np.rint(ds.features[:, 0] * 255.0)
    if np.any((pixels < 0) | (pixels > 255)):
        raise ContractError("features outside [0, 1] cannot round-trip as bytes")
    if np.any((ds.labels < 0) | (ds.labels > 255)):
        raise ContractError("labels outside 0..255 cannot round-trip as bytes")
    write_array(images_path, IDX_IMAGES, pixels)
    write_array(labels_path, IDX_LABELS, ds.labels)


@dataclass
class NormStats:
    mean: np.ndarray  # feature-shaped
    std: np.ndarray   # feature-shaped, strictly positive


def normalize(ds: Dataset, stats: NormStats | None = None):
    """Per-feature standardization; returns (dataset, stats).

    Without `stats` the moments come from `ds` itself (population std);
    pass the training-set stats to transform other splits consistently.
    Zero-variance features standardize to exactly 0 (std clamped to 1, mean
    pinned to the constant value).
    """
    x = ds.features
    if stats is None:
        flat_zero = (x.max(axis=0) - x.min(axis=0)) == 0.0
        mean = np.where(flat_zero, x[0] if len(ds) else 0.0, x.mean(axis=0))
        std = np.where(flat_zero, 1.0, x.std(axis=0))
        std = np.where(std == 0.0, 1.0, std)
        stats = NormStats(mean, std)
    elif stats.mean.shape != ds.feature_shape:
        raise ContractError(
            f"stats shape {stats.mean.shape} does not match features {ds.feature_shape}")
    out = Dataset((x - stats.mean) / stats.std, ds.labels.copy(), ds.name, ds.n_classes)
    return out, stats


CORRUPTION_KINDS = ("gaussian_noise", "shot_noise", "pixel_dropout", "rotation", "blur")

# severity 1..5 parameter ladders
_GAUSS_SIGMA = (0.04, 0.08, 0.12, 0.18, 0.26)      # sigma as fraction of value range
_SHOT_COUNTS = (500.0, 250.0, 100.0, 50.0, 25.0)   # simulated photon budget
_DROP_RATES = (0.02, 0.05, 0.10, 0.17, 0.25)       # fraction of elements zeroed
_ROT_DEGREES = (4.0, 8.0, 12.0, 18.0, 26.0)
_BLUR_RADII = (1, 1, 2, 2, 3)                      # box filter radius, images only

_KIND_STREAMS = {kind: i for i, kind in enumerate(CORRUPTION_KINDS)}


def severity_params(kind: str, severity: int):
    if kind not in CORRUPTION_KINDS:
        raise ParameterError(f"unknown corruption kind '{kind}'")
    if not 1 <= severity <= 5:
        raise ParameterError(f"severity must be 1..5, got {severity}")
    table = {"gaussian_noise": _GAUSS_SIGMA, "shot_noise": _SHOT_COUNTS,
             "pixel_dropout": _DROP_RATES, "rotation": _ROT_DEGREES,
             "blur": _BLUR_RADII}[kind]
    return table[severity - 1]


def _rotate_points(x: np.ndarray, degrees: float) -> np.ndarray:
    theta = math.radians(degrees)
    center = x.mean(axis=0)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    return (x - center) @ rot.T + center


def corruption_applies(kind: str, feature_shape) -> bool:
    """Whether `corrupt` defines `kind` for samples of `feature_shape`.

    blur needs (channels, h, w) images; rotation needs images or 2-d points.
    """
    image = len(feature_shape) == 3
    if kind == "blur":
        return image
    if kind == "rotation":
        return image or tuple(feature_shape) == (2,)
    return True


def _box_mean(x: np.ndarray, size: int, axis: int) -> np.ndarray:
    """Mean over a centred window of odd `size` along `axis`, edges repeated.

    The arithmetic of SciPy's ``uniform_filter1d(mode="nearest")``, so the
    bits agree with it: per line, a running sum of the first `size` padded
    values, then ``sum += entering - leaving``, and each output is
    ``sum / size``.
    """
    n, half = x.shape[axis], size // 2
    padded = np.take(x, np.clip(np.arange(-half, n + half), 0, n - 1), axis=axis)
    lines = np.moveaxis(padded, axis, 0)
    out = np.empty((n,) + lines.shape[1:])
    total = np.zeros(lines.shape[1:])
    for v in lines[:size]:
        total += v
    np.divide(total, size, out=out[0])
    for i in range(1, n):
        total += lines[i + size - 1] - lines[i - 1]
        np.divide(total, size, out=out[i])
    return np.moveaxis(out, 0, axis)


def _box_blur(x: np.ndarray, size: int) -> np.ndarray:
    """The (1, 1, size, size) box filter of (n, c, h, w) images: rows, then columns.

    Non-finite pixels spread NaN or inf through their windows without a
    warning, as in SciPy's filter.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return np.ascontiguousarray(_box_mean(_box_mean(x, size, 2), size, 3))


def _rotate_images(x: np.ndarray, degrees: float) -> np.ndarray:
    # inverse nearest-neighbour map about the image center, out-of-frame -> 0
    n, c, h, w = x.shape
    theta = math.radians(degrees)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    src_y = np.rint(cy + ys * math.cos(theta) + xs * math.sin(theta)).astype(np.int64)
    src_x = np.rint(cx - ys * math.sin(theta) + xs * math.cos(theta)).astype(np.int64)
    valid = (src_y >= 0) & (src_y < h) & (src_x >= 0) & (src_x < w)
    gathered = x[:, :, np.clip(src_y, 0, h - 1), np.clip(src_x, 0, w - 1)]
    return np.where(valid, gathered, 0.0)


def corrupt(ds: Dataset, kind: str, severity: int, seed: int) -> Dataset:
    """Apply one corruption at the given severity; labels pass through.

    Deterministic in (ds, kind, severity, seed).  A kind that
    `corruption_applies` refuses for the feature shape raises.
    """
    param = severity_params(kind, severity)
    if not corruption_applies(kind, ds.feature_shape):
        raise ParameterError(f"{kind} is undefined for feature shape {ds.feature_shape}")
    x = ds.features
    lo, hi = float(x.min()), float(x.max())
    value_range = (hi - lo) or 1.0
    stream = RngStream(seed, stream_id=_KIND_STREAMS[kind])

    if kind == "gaussian_noise":
        out = x + param * value_range * stream.normal(0.0, 1.0, x.shape)
    elif kind == "shot_noise":
        unit = np.clip((x - lo) / value_range, 0.0, 1.0)
        noisy = unit + np.sqrt(unit / param) * stream.normal(0.0, 1.0, x.shape)
        out = np.clip(noisy, 0.0, 1.0) * value_range + lo
    elif kind == "pixel_dropout":
        out = x * stream.bernoulli(1.0 - param, x.shape)
    elif kind == "rotation":
        out = _rotate_images(x, param) if x.ndim == 4 else _rotate_points(x, param)
    else:  # blur
        out = _box_blur(x, 2 * int(param) + 1)

    return Dataset(out, ds.labels.copy(), f"{ds.name}+{kind}@{severity}", ds.n_classes)


def take(ds: Dataset, indices) -> Dataset:
    indices = np.asarray(indices, dtype=np.int64)
    return Dataset(ds.features[indices], ds.labels[indices], ds.name, ds.n_classes)

"""Dataset container and ingestion: IDX image files, CSV point sets, and a
deterministic synthetic image-classification generator for desk-scale runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "FormatError",
    "load_idx_images",
    "load_idx_labels",
    "write_idx_images",
    "write_idx_labels",
    "load_idx_dataset",
    "load_csv_points",
    "load_csv_dataset",
    "make_image_dataset",
]

# CSV class labels must lie in 0..MAX_CLASSES-1: the label range sets the
# width of a network's output layer and the number of classes profiled
MAX_CLASSES = 1000

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class FormatError(ValueError):
    """Malformed input file."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer class labels in 0..n_classes-1."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("features must be a nonempty (N, d) matrix")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must be one id per row")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError("labels out of range")
        feats = feats.copy()
        labels = labels.copy()
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_indices(self, class_id: int) -> np.ndarray:
        return np.nonzero(self.labels == class_id)[0]

    def sample_class_indices(self, class_id: int, cap: int, seed: int) -> np.ndarray:
        """Sorted row indices of up to ``cap`` points of one class, drawn
        uniformly without replacement with the given seed.

        Input and layer profiles both select their points here, so for the
        same (cap, seed) they compare the same samples.
        """
        idx = self.class_indices(class_id)
        if len(idx) <= cap:
            return idx
        rng = np.random.default_rng(seed)
        return idx[np.sort(rng.choice(len(idx), size=cap, replace=False))]


# ---------------------------------------------------------------------------
# IDX files (big-endian magic + dims, u8 payload)
# ---------------------------------------------------------------------------


def _read_be32(f) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise FormatError("truncated IDX header")
    return struct.unpack(">i", data)[0]


def load_idx_images(path) -> np.ndarray:
    """(count, rows*cols) float64 matrix with pixels scaled to [0, 1]."""
    with open(path, "rb") as f:
        magic = _read_be32(f)
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x} in {path}")
        count, rows, cols = _read_be32(f), _read_be32(f), _read_be32(f)
        payload = f.read(count * rows * cols)
        if len(payload) != count * rows * cols:
            raise FormatError(f"truncated image payload in {path}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    return pixels.astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = _read_be32(f)
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x} in {path}")
        count = _read_be32(f)
        payload = f.read(count)
        if len(payload) != count:
            raise FormatError(f"truncated label payload in {path}")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def write_idx_images(path, images: np.ndarray, rows: int, cols: int):
    """Inverse of load_idx_images; expects values in [0, 1]."""
    arr = np.clip(np.asarray(images, dtype=np.float64), 0.0, 1.0)
    payload = np.round(arr * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, arr.shape[0], rows, cols))
        f.write(payload.tobytes())


def write_idx_labels(path, labels: np.ndarray):
    arr = np.asarray(labels, dtype=np.int64)
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, len(arr)))
        f.write(arr.astype(np.uint8).tobytes())


_IDX_NAMES = [
    ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
]


def load_idx_dataset(directory, split: str = "train") -> Dataset:
    """Load the conventional IDX file pair from a directory."""
    directory = Path(directory)
    images_name, labels_name = _IDX_NAMES[0] if split == "train" else _IDX_NAMES[1]
    images = load_idx_images(directory / images_name)
    labels = load_idx_labels(directory / labels_name)
    if len(images) != len(labels):
        raise FormatError("image/label counts differ")
    return Dataset(features=images, labels=labels, n_classes=int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# CSV point sets
# ---------------------------------------------------------------------------


def load_csv_points(path, label_col: int | None = None, class_limit: int | None = None):
    """Comma-separated float rows; returns (points, labels-or-None).

    Malformed rows raise FormatError naming the 1-based line number;
    ``label_col`` selects a column (negative indices allowed) holding class
    ids, removed from the coordinates.  A label outside 0..class_limit-1,
    or without ``class_limit`` outside int64, is malformed too.
    """
    points = []
    labels = []
    width = None
    low, high = (0, class_limit) if class_limit is not None else (-(2**63), 2**63)
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: non-numeric value") from None
            if width is None:
                width = len(row)
                if label_col is not None and not -width <= label_col < width:
                    raise FormatError(f"{path}: line {lineno}: no label column {label_col} in {width} columns")
            elif len(row) != width:
                raise FormatError(f"{path}: line {lineno}: expected {width} columns, got {len(row)}")
            if label_col is not None:
                label = row[label_col]
                if not label.is_integer():
                    raise FormatError(f"{path}: line {lineno}: label column is not an integer")
                if not low <= label < high:
                    raise FormatError(f"{path}: line {lineno}: label {label:.0f} is outside {low}..{high - 1}")
                labels.append(int(label))
                del row[label_col]
            points.append(row)
    if not points:
        raise FormatError(f"{path}: no data rows")
    return np.asarray(points, dtype=np.float64), (np.asarray(labels, dtype=np.int64) if label_col is not None else None)


def load_csv_dataset(path, label_col: int = -1) -> Dataset:
    """A labeled CSV (see ``load_csv_points``) whose labels are class ids
    below ``MAX_CLASSES``."""
    feats, labels = load_csv_points(path, label_col=label_col, class_limit=MAX_CLASSES)
    return Dataset(features=feats, labels=labels, n_classes=int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# synthetic image classes
# ---------------------------------------------------------------------------


def _smooth_field(rng: np.random.Generator, side: int, coarse: int) -> np.ndarray:
    """Low-frequency random field in [0, 1], bilinear-upsampled."""
    grid = rng.normal(size=(coarse, coarse))
    xs = np.linspace(0, coarse - 1, side)
    xi = np.clip(xs.astype(int), 0, coarse - 2)
    frac = xs - xi
    rows = grid[xi, :] * (1 - frac)[:, None] + grid[xi + 1, :] * frac[:, None]
    field = rows[:, xi] * (1 - frac)[None, :] + rows[:, xi + 1] * frac[None, :]
    field = field - field.min()
    peak = field.max()
    return field / peak if peak > 0 else field


def make_image_dataset(
    n_train: int,
    n_test: int,
    seed: int,
    classes: int = 10,
    side: int = 28,
    prototypes_per_class: int = 2,
    noise: float = 0.18,
    shared_weight: float = 0.55,
) -> tuple[Dataset, Dataset]:
    """Deterministic image-classification task with tunable difficulty.

    Each class mixes ``prototypes_per_class`` smooth prototype images; all
    prototypes share a common background component so classes overlap and
    narrow networks struggle while wide ones separate them.  Pixels are in
    [0, 1] and quantized to 8 bits so a round trip through IDX files is
    exact.
    """
    rng = np.random.default_rng(seed)
    shared = _smooth_field(rng, side, 5)
    protos = []
    for _ in range(classes):
        class_protos = []
        for _ in range(prototypes_per_class):
            own = _smooth_field(rng, side, 6)
            img = shared_weight * shared + (1.0 - shared_weight) * own
            class_protos.append(img.reshape(-1))
        protos.append(class_protos)

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, classes, size=count)
        feats = np.empty((count, side * side))
        for i, c in enumerate(labels):
            p = protos[c][rng.integers(0, prototypes_per_class)]
            scale = rng.uniform(0.8, 1.2)
            img = p * scale + rng.normal(scale=noise, size=p.shape)
            feats[i] = np.clip(img, 0.0, 1.0)
        # 8-bit quantization keeps IDX round trips bit-exact
        feats = np.round(feats * 255.0) / 255.0
        return feats, labels

    train_x, train_y = draw(n_train)
    test_x, test_y = draw(n_test)
    return (
        Dataset(features=train_x, labels=train_y, n_classes=classes),
        Dataset(features=test_x, labels=test_y, n_classes=classes),
    )

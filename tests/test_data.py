import struct
import tracemalloc

import numpy as np
import pytest

from bettinet import data


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = np.round(rng.uniform(size=(7, 16)) * 255) / 255
    labels = rng.integers(0, 4, size=7)
    data.write_idx_images(tmp_path / "imgs", images, 4, 4)
    data.write_idx_labels(tmp_path / "labs", labels)
    assert np.array_equal(data.load_idx_images(tmp_path / "imgs"), images)
    assert np.array_equal(data.load_idx_labels(tmp_path / "labs"), labels)


def test_idx_magic_mismatch(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 12)
    with pytest.raises(data.FormatError, match="magic"):
        data.load_idx_images(p)
    with pytest.raises(data.FormatError, match="magic"):
        data.load_idx_labels(p)


def test_idx_truncated_payload(tmp_path):
    p = tmp_path / "short"
    p.write_bytes(struct.pack(">iiii", data.IDX_IMAGE_MAGIC, 2, 2, 2) + b"\x00" * 3)
    with pytest.raises(data.FormatError, match="truncated"):
        data.load_idx_images(p)


def test_idx_dataset_pair(tmp_path):
    train, _ = data.make_image_dataset(30, 10, seed=1, side=4, classes=3)
    data.write_idx_images(tmp_path / "train-images-idx3-ubyte", train.features, 4, 4)
    data.write_idx_labels(tmp_path / "train-labels-idx1-ubyte", train.labels)
    ds = data.load_idx_dataset(tmp_path, split="train")
    assert np.array_equal(ds.features, train.features)
    assert np.array_equal(ds.labels, train.labels)


def test_csv_points_with_and_without_labels(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.5,1.5,0\n2.5,3.5,1\n")
    pts, labels = data.load_csv_points(p, label_col=-1)
    assert pts.tolist() == [[0.5, 1.5], [2.5, 3.5]]
    assert labels.tolist() == [0, 1]
    pts2, none = data.load_csv_points(p)
    assert pts2.shape == (2, 3)
    assert none is None


def test_csv_error_names_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(data.FormatError, match="line 2"):
        data.load_csv_points(p)
    q = tmp_path / "ragged.csv"
    q.write_text("1,2\n3\n")
    with pytest.raises(data.FormatError, match="line 2"):
        data.load_csv_points(q)


def test_csv_labels_are_class_ids_below_the_limit(tmp_path):
    top = data.MAX_CLASSES - 1
    p = tmp_path / "top.csv"
    p.write_text(f"0.5,0\n1.5,{top}\n")
    assert data.load_csv_dataset(p).n_classes == data.MAX_CLASSES
    for label in (data.MAX_CLASSES, -1, "1e30"):
        q = tmp_path / "over.csv"
        q.write_text(f"0.5,0\n\n1.5,{label}\n")
        with pytest.raises(data.FormatError, match=f"line 3: label .* is outside 0..{top}$"):
            data.load_csv_dataset(q)
    # without a class limit a label is any int64
    assert data.load_csv_points(p, label_col=-1)[1].tolist() == [0, top]
    q.write_text("0.5,-1\n1.5,1e30\n")
    with pytest.raises(data.FormatError, match="line 2: label .* is outside -9223372036854775808"):
        data.load_csv_points(q, label_col=-1)


def test_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(data.FormatError, match="no data"):
        data.load_csv_points(p)


def test_dataset_validation():
    with pytest.raises(ValueError):
        data.Dataset(features=np.zeros((2, 2)), labels=np.array([0, 5]), n_classes=2)
    with pytest.raises(ValueError):
        data.Dataset(features=np.full((1, 2), np.nan), labels=np.array([0]), n_classes=2)


def test_synthetic_dataset_deterministic_and_idx_exact(tmp_path):
    a_train, a_test = data.make_image_dataset(40, 20, seed=7, side=6, classes=4)
    b_train, _ = data.make_image_dataset(40, 20, seed=7, side=6, classes=4)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_train.labels, b_train.labels)
    assert a_train.features.min() >= 0 and a_train.features.max() <= 1
    # 8-bit quantization makes the IDX round trip lossless
    data.write_idx_images(tmp_path / "x", a_train.features, 6, 6)
    assert np.array_equal(data.load_idx_images(tmp_path / "x"), a_train.features)


def _write_idx_pixels(directory, pixels, labels):
    """An IDX train pair holding these 8-bit pixels, as square images."""
    side = int(np.sqrt(pixels.shape[1]))
    header = struct.pack(">iiii", data.IDX_IMAGE_MAGIC, len(pixels), side, side)
    (directory / "train-images-idx3-ubyte").write_bytes(header + pixels.tobytes())
    data.write_idx_labels(directory / "train-labels-idx1-ubyte", labels)


def test_loading_an_idx_set_holds_its_pixels_not_float_copies(tmp_path):
    rng = np.random.default_rng(11)
    pixels = rng.integers(0, 256, size=(20_000, 784), dtype=np.uint8)
    _write_idx_pixels(tmp_path, pixels, rng.integers(0, 10, size=20_000))
    del pixels
    tracemalloc.start()
    try:
        ds = data.load_idx_dataset(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == 20_000
    assert peak < 2 * 20_000 * 784


def _row_cases(tmp_path):
    """(data set, the float rows it stood for before image sets kept their
    pixels) for an IDX, a synthetic and a CSV set."""
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, size=(50, 36), dtype=np.uint8)
    _write_idx_pixels(tmp_path, pixels, rng.integers(0, 3, size=50))
    yield data.load_idx_dataset(tmp_path), pixels.astype(np.float64) / 255.0
    train, _ = data.make_image_dataset(50, 10, seed=3, side=6, classes=3)
    data.write_idx_images(tmp_path / "synthetic", train.features, 6, 6)
    raw = np.frombuffer((tmp_path / "synthetic").read_bytes()[16:], dtype=np.uint8)
    yield train, raw.reshape(50, 36).astype(np.float64) / 255.0
    points = rng.normal(size=(50, 4))
    csv = tmp_path / "points.csv"
    np.savetxt(csv, np.column_stack([points, rng.integers(0, 3, size=50)]), delimiter=",",
               fmt="%.17g")
    yield data.load_csv_dataset(csv), points


def test_rows_are_the_float_rows_bit_for_bit(tmp_path):
    idx = np.array([[4, 0, 49], [7, 7, 13]])
    for ds, expected in _row_cases(tmp_path):
        assert ds.features.tobytes() == expected.tobytes()
        assert ds.rows().tobytes() == expected.tobytes()
        assert ds.rows(idx).tobytes() == expected[idx].tobytes()
        buffer = np.full((2, 3, ds.dim), np.nan)
        assert ds.rows(idx, out=buffer) is buffer
        assert buffer.tobytes() == expected[idx].tobytes()
        assert ds.rows(slice(10, 20)).tobytes() == expected[10:20].tobytes()


def test_an_array_the_caller_can_write_is_copied():
    feats = np.zeros((4, 2))
    pixels = np.zeros((4, 2), dtype=np.uint8)
    labels = np.array([0, 1, 0, 1])
    by_features = data.Dataset(features=feats, labels=labels, n_classes=2)
    by_pixels = data.Dataset(pixels=pixels, labels=labels, n_classes=2)
    read_only_view = pixels[:]
    read_only_view.flags.writeable = False
    by_view = data.Dataset(pixels=read_only_view, labels=labels, n_classes=2)
    feats += 1.0
    pixels += 255
    labels[:] = 0
    for ds in (by_features, by_pixels, by_view):
        assert ds.features.max() == 0.0
        assert ds.labels.tolist() == [0, 1, 0, 1]
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0
    # memory nobody can write is kept as it is
    frozen = np.frombuffer(bytes(8), dtype=np.uint8).reshape(4, 2)
    assert np.shares_memory(data.Dataset(pixels=frozen, labels=labels, n_classes=2)._values, frozen)


def test_pixels_must_be_8_bit():
    with pytest.raises(ValueError, match="uint8"):
        data.Dataset(pixels=np.zeros((2, 2)), labels=np.array([0, 1]), n_classes=2)
    with pytest.raises(ValueError, match="either"):
        data.Dataset(labels=np.array([0, 1]), n_classes=2)

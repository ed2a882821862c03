import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bettinet
from bettinet import data
from bettinet.cli import main


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    td = tmp_path_factory.mktemp("idx")
    train, test = data.make_image_dataset(240, 90, seed=9, side=8, classes=4)
    data.write_idx_images(td / "train-images-idx3-ubyte", train.features, 8, 8)
    data.write_idx_labels(td / "train-labels-idx1-ubyte", train.labels)
    data.write_idx_images(td / "t10k-images-idx3-ubyte", test.features, 8, 8)
    data.write_idx_labels(td / "t10k-labels-idx1-ubyte", test.labels)
    return td


def test_bounds_command_rows(tmp_path, capsys):
    out = tmp_path / "b"
    rc = main(
        [
            "bounds",
            "--widths", "2,2,2",
            "--classes", "2",
            "--act", "relu",
            "--k", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    records = (out / "bounds.csv").read_text().splitlines()
    assert records[0].startswith("1,0,80,")
    assert records[1].startswith("2,0,8,")
    assert (out / "config.echo").read_text().startswith("command=bounds")


def test_bounds_command_poly_layer1(tmp_path):
    out = tmp_path / "b"
    rc = main(
        [
            "bounds",
            "--widths", "2,2,2",
            "--classes", "2",
            "--act", "poly",
            "--degree", "2",
            "--k", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = dict(
        (line.split(",")[0], int(line.split(",")[2]))
        for line in (out / "bounds.csv").read_text().splitlines()
    )
    assert rows["1"] == 6


def test_bounds_min_width_flag(tmp_path):
    out = tmp_path / "b"
    rc = main(
        [
            "bounds",
            "--widths", "4,2",
            "--classes", "2",
            "--act", "relu",
            "--k", "0",
            "--min-width-target", "8",
            "--free-layer", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "min width at layer 1 reaching 8: 2" in (out / "bounds.txt").read_text()


def test_bounds_missing_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--classes", "2", "--act", "relu"])
    assert exc.value.code == 2


def test_homology_command_two_points(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n1,0\n")
    out = tmp_path / "h"
    rc = main(["homology", "--points", str(pts), "--max-radius", "3", "--out", str(out)])
    assert rc == 0
    lines = (out / "barcode.txt").read_text().splitlines()
    assert "0,0,inf" in lines
    assert "0,0,1" in lines


def test_homology_command_square_9_digits(tmp_path):
    pts = tmp_path / "sq.csv"
    pts.write_text("0,0\n1,0\n1,1\n0,1\n")
    out = tmp_path / "h"
    rc = main(["homology", "--points", str(pts), "--max-radius", "2", "--out", str(out)])
    assert rc == 0
    assert "1,1,1.41421356" in (out / "barcode.txt").read_text()
    svg = (out / "barcode.svg").read_text()
    assert 'fill="red"' in svg and 'fill="blue"' in svg


def test_homology_malformed_and_empty_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\n1,zzz\n")
    assert main(["homology", "--points", str(bad), "--out", str(tmp_path / "o1")]) == 1
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["homology", "--points", str(empty), "--out", str(tmp_path / "o2")]) == 1


def test_homology_filtration_size_guard_exits_1(tmp_path, capsys, monkeypatch):
    from bettinet import homology

    pts = tmp_path / "sq.csv"
    pts.write_text("0,0\n1,0\n1,1\n0,1\n")
    # the filled square: 4 vertices, 6 edges, 4 triangles
    monkeypatch.setattr(homology, "FILTRATION_SIZE_GUARD", 13)
    out = tmp_path / "h"
    assert main(["homology", "--points", str(pts), "--max-radius", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "14 simplices" in err
    assert not (out / "barcode.txt").exists()


def test_train_twice_identical_checkpoints(idx_dir, tmp_path):
    args = [
        "train",
        "--data", str(idx_dir),
        "--widths", "6,6,6",
        "--epochs", "2",
        "--seed", "1",
    ]
    assert main(args + ["--out", str(tmp_path / "t1")]) == 0
    assert main(args + ["--out", str(tmp_path / "t2")]) == 0
    a = (tmp_path / "t1" / "checkpoint.json").read_bytes()
    b = (tmp_path / "t2" / "checkpoint.json").read_bytes()
    assert a == b


def test_train_bad_magic_is_format_error(tmp_path):
    ddir = tmp_path / "idx"
    ddir.mkdir()
    (ddir / "train-images-idx3-ubyte").write_bytes(b"\x00\x00\x00\x01" + b"\x00" * 12)
    (ddir / "train-labels-idx1-ubyte").write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x00")
    rc = main(
        ["train", "--data", str(ddir), "--widths", "4", "--epochs", "1", "--out", str(tmp_path / "t")]
    )
    assert rc == 1


def test_analyze_writes_profiles_for_all_classes(idx_dir, tmp_path, capsys):
    ck = tmp_path / "t" / "checkpoint.json"
    assert main(
        [
            "train",
            "--data", str(idx_dir),
            "--widths", "6,6,6",
            "--epochs", "2",
            "--seed", "3",
            "--out", str(tmp_path / "t"),
        ]
    ) == 0
    out = tmp_path / "a"
    rc = main(
        [
            "analyze",
            "--data", str(idx_dir),
            "--checkpoint", str(ck),
            "--layer", "3",
            "--cap", "30",
            "--out", str(out),
        ]
    )
    assert rc == 0
    warning = capsys.readouterr().err
    assert warning.count("\n") == 1
    assert "warning" in warning and "training split" in warning
    for c in range(4):
        assert (out / f"input_class_{c}.csv").exists()
        assert (out / f"layer3_class_{c}.csv").exists()
        assert (out / f"layer3_class_{c}.svg").exists()
    assert (out / "report.txt").exists()


def test_sweep_row_count(idx_dir, tmp_path):
    out = tmp_path / "s"
    rc = main(
        [
            "sweep",
            "--data", str(idx_dir),
            "--widths", "2,4,6",
            "--seeds", "1,2,3",
            "--epochs", "1",
            "--cap", "20",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 9


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "flag, value",
    [("--epochs", "0"), ("--epochs", "-1"), ("--batch-size", "0"), ("--batch-size", "-5"),
     ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-0.1")],
)
def test_training_commands_reject_bad_flags_as_usage_errors(
    idx_dir, tmp_path, capsys, command, flag, value
):
    out = tmp_path / "o"
    argv = [command, "--data", str(idx_dir), "--widths", "2", flag, value, "--out", str(out)]
    if command == "sweep":
        argv += ["--seeds", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: expected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("widths, seeds, missing", [("", "1", "width"), ("2", "", "seed")])
def test_sweep_with_no_width_or_no_seed_exits_1(idx_dir, tmp_path, capsys, widths, seeds, missing):
    out = tmp_path / "s"
    argv = ["sweep", "--data", str(idx_dir), "--widths", widths, "--seeds", seeds,
            "--epochs", "1", "--cap", "20", "--out", str(out)]
    assert main(argv) == 1
    assert f"need at least one {missing}" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_on_csv_warns_that_accuracy_uses_the_training_split(tmp_path, capsys):
    train, _ = data.make_image_dataset(60, 10, seed=2, side=4, classes=2)
    csv = tmp_path / "train.csv"
    np.savetxt(csv, np.column_stack([train.features, train.labels]), delimiter=",", fmt="%.17g")
    args = [
        "sweep",
        "--data", str(csv),
        "--widths", "2",
        "--seeds", "1",
        "--epochs", "1",
        "--cap", "10",
    ]
    assert main(args + ["--out", str(tmp_path / "implicit")]) == 0
    warning = capsys.readouterr().err
    assert warning.count("\n") == 1
    assert "warning" in warning and "training split" in warning
    assert main(args + ["--test-data", str(csv), "--out", str(tmp_path / "explicit")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("sweep.csv", "sweep.txt"):
        implicit = (tmp_path / "implicit" / name).read_bytes()
        assert implicit == (tmp_path / "explicit" / name).read_bytes()


def test_cover_command_trained_net(idx_dir, tmp_path):
    ck_dir = tmp_path / "t"
    assert main(
        [
            "train",
            "--data", str(idx_dir),
            "--widths", "6,5",
            "--epochs", "3",
            "--seed", "5",
            "--no-batch-norm",
            "--out", str(ck_dir),
        ]
    ) == 0
    out = tmp_path / "c"
    rc = main(
        [
            "cover",
            "--checkpoint", str(ck_dir / "checkpoint.json"),
            "--class-j", "0",
            "--alphas", "1",
            "--layer", "1",
            "--count", "10",
            "--box", "2.0",
            "--out", str(out),
        ]
    )
    assert rc == 0  # feasible or explicitly empty, both succeed
    text = (out / "cover.txt").read_text()
    assert "alphas=1" in text
    assert ("pass=" in text) or ("region empty" in text)


@pytest.mark.parametrize(
    "flag, value",
    [("--count", "0"), ("--count", "-1"), ("--box", "inf"), ("--box", "nan"), ("--box", "-1"),
     ("--box", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf")],
)
def test_cover_rejects_bad_sampling_flags_as_usage_errors(tmp_path, capsys, flag, value):
    out = tmp_path / "c"
    argv = ["cover", "--checkpoint", str(tmp_path / "ck.json"), "--class-j", "0", "--alphas", "1",
            "--layer", "1", flag, value, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: expected" in capsys.readouterr().err
    assert not out.exists()


def test_cover_degenerate_net_reports_rank_error(idx_dir, tmp_path):
    from bettinet import mlp

    net = mlp.build_network([3, 3, 3], mlp.relu_activation(), seed=0, batch_norm=False)
    net.output.weight[:] = np.ones((3, 3))
    ck = tmp_path / "ck.json"
    mlp.save_checkpoint(net, ck)
    out = tmp_path / "c"
    rc = main(
        [
            "cover",
            "--checkpoint", str(ck),
            "--class-j", "0",
            "--alphas", "1",
            "--layer", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "rank error at layer" in (out / "cover.txt").read_text()


def test_config_echo_contains_all_flags(idx_dir, tmp_path):
    out = tmp_path / "s"
    main(
        [
            "sweep",
            "--data", str(idx_dir),
            "--widths", "2",
            "--seeds", "1",
            "--epochs", "1",
            "--cap", "20",
            "--out", str(out),
        ]
    )
    echo = (out / "config.echo").read_text()
    for key in ("command=sweep", "widths=2", "seeds=1", "epochs=1", "lr=", "batch_size="):
        assert key in echo


def test_cli_import_and_homology_load_no_scipy(tmp_path):
    # numpy computes the distances, the persistence and the spanning tree;
    # scipy is loaded only by the commands that use it, on their first call
    pts = tmp_path / "sq.csv"
    pts.write_text("0,0\n1,0\n1,1\n0,1\n")
    train, _ = data.make_image_dataset(40, 10, seed=3, side=4, classes=2)
    labeled = tmp_path / "train.csv"
    np.savetxt(labeled, np.column_stack([train.features, train.labels]), delimiter=",", fmt="%.17g")
    src = str(Path(bettinet.__file__).resolve().parents[1])
    runs = [
        ["homology", "--points", str(pts), "--out", str(tmp_path / "h")],
        ["sweep", "--data", str(labeled), "--widths", "2", "--seeds", "1", "--epochs", "1",
         "--cap", "8", "--out", str(tmp_path / "s")],
    ]
    code = "\n".join([
        "import contextlib, io, sys",
        f"sys.path.insert(0, {src!r})",
        "import bettinet.cli",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        f"for argv in {runs!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = bettinet.cli.main(argv)",
        "    print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["[]", "0 []", "0 []"]
    assert (tmp_path / "h" / "barcode.txt").read_text().startswith("0,0,1\n")
    assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == 1

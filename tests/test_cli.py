import json
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

import bettinet
from bettinet import data, mlp
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


def test_homology_accepts_an_infinite_max_radius(tmp_path):
    # past the enclosing radius the complex is a cone, so the barcode is
    # the one the default cap gives
    pts = tmp_path / "sq.csv"
    pts.write_text("0,0\n1,0\n1,1\n0,1\n")
    for name, flags in (("inf", ["--max-radius", "inf"]), ("default", [])):
        assert main(["homology", "--points", str(pts), *flags, "--out", str(tmp_path / name)]) == 0
    barcode = (tmp_path / "inf" / "barcode.txt").read_text()
    assert barcode == (tmp_path / "default" / "barcode.txt").read_text()
    assert "max_radius=inf" in (tmp_path / "inf" / "config.echo").read_text().splitlines()


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
     ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-0.1"), ("--degree", "-1"), ("--degree", "0")],
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


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(idx_dir, tmp_path, capsys, command, jobs):
    out = tmp_path / "o"
    required = {
        "analyze": ["--checkpoint", str(tmp_path / "ck.json"), "--layer", "1"],
        "sweep": ["--widths", "2", "--seeds", "1"],
    }[command]
    argv = [command, "--data", str(idx_dir), *required, "--jobs", jobs, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --jobs: expected an integer >= 1" in capsys.readouterr().err
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


@pytest.fixture(scope="module")
def idx_checkpoint(tmp_path_factory):
    from bettinet import mlp

    net = mlp.build_network([64, 5, 4, 4], mlp.relu_activation(), seed=0, batch_norm=False)
    ck = tmp_path_factory.mktemp("ck") / "checkpoint.json"
    mlp.save_checkpoint(net, ck)
    return ck


@pytest.mark.parametrize("command", ["bounds", "homology", "train", "analyze", "sweep", "cover"])
def test_every_command_writes_config_echo(idx_dir, idx_checkpoint, tmp_path, command):
    pts = tmp_path / "sq.csv"
    pts.write_text("0,0\n1,0\n1,1\n0,1\n")
    flags = {
        "bounds": ["--widths", "2,2", "--classes", "2", "--act", "relu"],
        "homology": ["--points", str(pts)],
        "train": ["--data", str(idx_dir), "--widths", "3", "--epochs", "1"],
        "analyze": ["--data", str(idx_dir), "--checkpoint", str(idx_checkpoint), "--layer", "1",
                    "--cap", "10"],
        "sweep": ["--data", str(idx_dir), "--widths", "2", "--seeds", "1", "--epochs", "1",
                  "--cap", "10"],
        "cover": ["--checkpoint", str(idx_checkpoint), "--class-j", "0", "--alphas", "1",
                  "--layer", "1", "--count", "5"],
    }[command]
    out = tmp_path / "run"
    assert main([command, *flags, "--out", str(out)]) == 0
    echo = (out / "config.echo").read_text().splitlines()
    assert echo[0] == f"command={command}"
    assert f"out={out}" in echo
    assert not any(line.startswith(("func=", "command=")) for line in echo[1:])


def test_missing_test_data_exits_1_with_a_message(idx_dir, tmp_path, capsys):
    missing = tmp_path / "nowhere"
    argv = ["sweep", "--data", str(idx_dir), "--test-data", str(missing), "--widths", "2",
            "--seeds", "1", "--epochs", "1", "--out", str(tmp_path / "s")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: dataset path {missing} does not exist\n"


def test_cli_import_and_homology_load_no_scipy(tmp_path):
    # numpy computes the distances, the persistence, the spanning tree and
    # the cover solver's pivot columns, so no command loads scipy; and each
    # command imports only the bettinet layers it runs, so only the two that
    # profile classes load the process pool
    pts = tmp_path / "sq.csv"
    pts.write_text("0,0\n1,0\n1,1\n0,1\n")
    train, _ = data.make_image_dataset(40, 10, seed=3, side=4, classes=2)
    labeled = tmp_path / "train.csv"
    np.savetxt(labeled, np.column_stack([train.features, train.labels]), delimiter=",", fmt="%.17g")
    checkpoint = tmp_path / "relu.json"
    mlp.save_checkpoint(mlp.build_network([4, 3, 3, 3], mlp.relu_activation(), seed=5), checkpoint)
    labeled_checkpoint = tmp_path / "relu16.json"
    mlp.save_checkpoint(mlp.build_network([16, 3, 2], mlp.relu_activation(), seed=5),
                        labeled_checkpoint)
    base = {"bettinet", "bettinet.cli", "bettinet.data"}
    profiling = base | {"bettinet.advisor", "bettinet.homology", "bettinet.mlp"}
    runs = {
        "bounds": (["--widths", "2,2", "--classes", "2", "--act", "relu"],
                   base | {"bettinet.bounds"}),
        "homology": (["--points", str(pts)], base | {"bettinet.homology"}),
        "train": (["--data", str(labeled), "--widths", "2", "--epochs", "1"],
                  base | {"bettinet.mlp"}),
        "cover": (["--checkpoint", str(checkpoint), "--class-j", "0", "--alphas", "1,2",
                   "--layer", "1"], base | {"bettinet.mlp", "bettinet.semialgebraic"}),
        "analyze": (["--data", str(labeled), "--checkpoint", str(labeled_checkpoint),
                     "--layer", "1", "--cap", "8"], profiling),
        "sweep": (["--data", str(labeled), "--widths", "2", "--seeds", "1", "--epochs", "1",
                   "--cap", "8"], profiling),
    }
    src = str(Path(bettinet.__file__).resolve().parents[1])
    code = "\n".join([
        "import contextlib, io, json, sys",
        f"sys.path.insert(0, {src!r})",
        "import bettinet.cli",
        "imported = sorted(sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = bettinet.cli.main(sys.argv[1:])",
        "print(json.dumps([imported, code, sorted(sys.modules)]))",
    ])
    pool_modules = {"concurrent.futures", "multiprocessing"}
    for command, (flags, expected) in runs.items():
        argv = [command, *flags, "--out", str(tmp_path / command)]
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, check=True)
        imported, rc, loaded = json.loads(result.stdout)
        assert rc == 0, command
        for modules in (imported, loaded):
            assert [m for m in modules if m.split(".")[0] == "scipy"] == [], command
        assert {m for m in imported if m.split(".")[0] == "bettinet"} == base
        assert {m for m in loaded if m.split(".")[0] == "bettinet"} == expected, command
        assert pool_modules & set(loaded) == (pool_modules if command in ("analyze", "sweep")
                                              else set()), command
    assert (tmp_path / "homology" / "barcode.txt").read_text().startswith("0,0,1\n")
    assert len((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()) == 1
    assert (tmp_path / "cover" / "cover.txt").read_text().startswith("boundary cover report")


def test_analyze_echoes_the_default_cap_and_threshold(idx_dir, idx_checkpoint, tmp_path):
    out = tmp_path / "a"
    argv = ["analyze", "--data", str(idx_dir), "--checkpoint", str(idx_checkpoint), "--layer", "1",
            "--out", str(out)]
    assert main(argv) == 0
    echo = (out / "config.echo").read_text().splitlines()
    assert "cap=200" in echo
    assert "threshold=0.5" in echo


def test_sweep_without_test_data_parses_the_csv_once(tmp_path, capsys, monkeypatch):
    train, _ = data.make_image_dataset(80, 10, seed=4, side=4, classes=2)
    csv = tmp_path / "train.csv"
    np.savetxt(csv, np.column_stack([train.features, train.labels]), delimiter=",", fmt="%.17g")
    loaded = []
    load_csv_dataset = data.load_csv_dataset

    def counting(path, **kwargs):
        loaded.append(Path(path))
        return load_csv_dataset(path, **kwargs)

    monkeypatch.setattr(data, "load_csv_dataset", counting)
    args = ["sweep", "--data", str(csv), "--widths", "2", "--seeds", "1", "--epochs", "1",
            "--cap", "10"]
    assert main(args + ["--out", str(tmp_path / "implicit")]) == 0
    assert loaded == [csv]
    assert "training split" in capsys.readouterr().err
    # reusing the training set gives the sweep that parsing the file again gives
    assert main(args + ["--test-data", str(csv), "--out", str(tmp_path / "explicit")]) == 0
    assert loaded == [csv] * 3
    implicit = (tmp_path / "implicit" / "sweep.csv").read_bytes()
    assert implicit == (tmp_path / "explicit" / "sweep.csv").read_bytes()


def test_sweep_checks_the_classes_before_training(tmp_path, capsys, monkeypatch):
    from bettinet import advisor

    csv = tmp_path / "singletons.csv"
    csv.write_text("0,0,0\n1,1,1\n2,0,2\n")
    trained = []
    monkeypatch.setattr(advisor, "train_sgd_stack", lambda *args: trained.append(args))
    argv = ["sweep", "--data", str(csv), "--test-data", str(csv), "--widths", "2,4", "--seeds",
            "1", "--epochs", "1", "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert trained == []
    assert capsys.readouterr().err == "error: no class has two points to profile\n"


_BOUNDS = "bounds --widths 8,4,3 --classes 3 --act relu --min-width-target 10 --free-layer"
_COVER = "cover --checkpoint CHECKPOINT --alphas 1 --layer 1 --class-j"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (f"{_BOUNDS} 7", 1, "layer must be in 1..2, got 7"),
        (f"{_BOUNDS} -1", 1, "layer must be in 1..2, got -1"),
        (f"{_COVER} 9", 1, "class_j must be in 0..2, got 9"),
        (f"{_COVER} -1", 1, "class_j must be in 0..2, got -1"),
        ("train --data IDX --widths 0 --epochs 1", 1, "all widths must be >= 1"),
        ("sweep --data IDX --widths 0 --seeds 1 --epochs 1", 1, "all widths must be >= 1"),
        ("homology --points FOUR_COLUMNS --label-col 7", 1, "line 1: no label column 7 in 4 columns"),
        ("homology --points INF_LABEL --label-col 2", 1, "line 2: label column is not an integer"),
        ("analyze --data IDX --checkpoint CHECKPOINT --layer 1 --threshold nan", 2,
         "argument --threshold: expected a finite number >= 0"),
        ("analyze --data IDX --checkpoint FOUR_COLUMNS --layer 1", 1,
         "four.csv: not a JSON checkpoint: Extra data: line 1 column 2 (char 1)"),
        ("cover --checkpoint JSON_LIST --alphas 1 --layer 1 --class-j 0", 1,
         "list.json: not a version-1 checkpoint"),
        ("homology --points FOUR_COLUMNS --max-dim 3", 2,
         "argument --max-dim: expected 0, 1 or 2, got '3'"),
        ("homology --points FOUR_COLUMNS --max-dim -1", 2,
         "argument --max-dim: expected 0, 1 or 2, got '-1'"),
        ("homology --points FOUR_COLUMNS --max-radius 0", 2,
         "argument --max-radius: expected a number > 0, got '0'"),
        ("homology --points FOUR_COLUMNS --max-radius nan", 2,
         "argument --max-radius: expected a number > 0, got 'nan'"),
        ("sweep --data HUGE_LABEL --widths 2 --seeds 1 --epochs 1", 1,
         "huge.csv: line 2: label 1000000000000000000 is outside 0..999"),
        ("sweep --data SINGLETONS --test-data SINGLETONS --widths 2 --seeds 1 --epochs 1", 1,
         "no class has two points to profile"),
        ("analyze --data SINGLETONS --checkpoint CHECKPOINT --layer 1", 1,
         "no class has two points to profile"),
    ],
    ids=["free-layer-7", "free-layer--1", "class-j-9", "class-j--1", "train-widths-0",
         "sweep-widths-0", "label-col-7", "label-inf", "threshold-nan", "checkpoint-csv",
         "checkpoint-json-list", "max-dim-3", "max-dim--1", "max-radius-0", "max-radius-nan",
         "label-1e18", "sweep-singletons", "analyze-singletons"],
)
def test_bad_input_is_an_error_message_not_a_traceback(idx_dir, tmp_path, capsys, argv, code, message):
    files = {"IDX": idx_dir, "CHECKPOINT": tmp_path / "relu3.json",
             "FOUR_COLUMNS": tmp_path / "four.csv", "INF_LABEL": tmp_path / "inf.csv",
             "JSON_LIST": tmp_path / "list.json", "HUGE_LABEL": tmp_path / "huge.csv",
             "SINGLETONS": tmp_path / "singletons.csv"}
    mlp.save_checkpoint(mlp.build_network([4, 3, 3, 3], mlp.relu_activation(), seed=5), files["CHECKPOINT"])
    files["FOUR_COLUMNS"].write_text("0,0,0,0\n1,0,0,1\n")
    files["INF_LABEL"].write_text("0,0,1\n1,1,inf\n")
    files["JSON_LIST"].write_text("[1, 2]\n")
    files["HUGE_LABEL"].write_text("0,0,0\n1,1,1e18\n2,0,1\n")
    files["SINGLETONS"].write_text("0,0,0\n1,1,1\n2,0,2\n")
    argv = [str(files.get(token, token)) for token in argv.split()] + ["--out", str(tmp_path / "o")]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's usage error
        rc = exc.code
    except Exception:
        traceback.print_exc()  # what the console would show
        rc = None
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert rc == code
    assert err.startswith("error: " if code == 1 else "usage: ")
    assert message in err

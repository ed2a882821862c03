import json
import os
import struct
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


def test_train_and_sweep_with_a_polynomial_activation(idx_dir, tmp_path):
    common = ["--data", str(idx_dir), "--widths", "3", "--epochs", "1", "--act", "poly",
              "--degree", "3", "--lr", "0.01"]
    assert main(["train", *common, "--out", str(tmp_path / "t")]) == 0
    net = mlp.load_checkpoint(tmp_path / "t" / "checkpoint.json")
    assert (net.activation.kind, net.activation.coeffs) == ("poly", (0.0, 0.0, 0.0, 1.0))
    argv = ["sweep", *common, "--seeds", "1,2", "--cap", "10", "--out", str(tmp_path / "s")]
    assert main(argv) == 0
    assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == 2
    assert "act=poly" in (tmp_path / "s" / "config.echo").read_text().splitlines()


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "flag, value",
    [("--epochs", "0"), ("--epochs", "-1"), ("--batch-size", "0"), ("--batch-size", "-5"),
     ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-0.1"), ("--degree", "-1"), ("--degree", "0"),
     ("--widths", "4,-1")],
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


@pytest.mark.parametrize("command", ["sweep"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(idx_dir, tmp_path, capsys, command, jobs):
    out = tmp_path / "o"
    argv = [command, "--data", str(idx_dir), "--widths", "2", "--seeds", "1", "--jobs", jobs,
            "--out", str(out)]
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
     ("--box", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"), ("--seed", "-1")],
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
    # the cover solver's pivot columns, so no command loads scipy; each
    # command imports only the bettinet layers it runs; and every command
    # runs in one process, so none loads a process pool
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
        assert pool_modules & set(loaded) == set(), command
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


def test_analyze_warns_once_of_a_skipped_class(tmp_path):
    # in a fresh interpreter, as the console shows it: under pytest the
    # warnings would be recorded, not printed
    csv = tmp_path / "singleton.csv"
    csv.write_text("0,0,0\n1,0,0\n2,1,0\n0,1,1\n")
    checkpoint = tmp_path / "relu.json"
    mlp.save_checkpoint(mlp.build_network([2, 3, 2], mlp.relu_activation(), seed=1), checkpoint)
    src = str(Path(bettinet.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import bettinet.cli; sys.exit(bettinet.cli.main())"
    argv = ["analyze", "--data", str(csv), "--checkpoint", str(checkpoint), "--layer", "1",
            "--cap", "2", "--out", str(tmp_path / "a")]
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr.count("class 1 has 1 point(s); skipped") == 1
    assert (tmp_path / "a" / "input_class_0.csv").exists()
    assert not (tmp_path / "a" / "input_class_1.csv").exists()


@pytest.mark.parametrize("command", ["bounds", "analyze", "sweep"])
def test_console_prints_each_warning_as_one_line(tmp_path, command):
    # in a fresh interpreter, as the console shows it: the whole stderr is
    # one "warning: <message>" line per warning, without the source line
    csv = tmp_path / "singleton.csv"
    csv.write_text("0,0,0\n1,0,0\n2,1,0\n0,1,1\n")
    checkpoint = tmp_path / "relu.json"
    mlp.save_checkpoint(mlp.build_network([2, 3, 2], mlp.relu_activation(), seed=1), checkpoint)
    training_split = "accuracy is measured on the training split"
    skipped = "warning: class 1 has 1 point(s); skipped\n"
    argv, stderr = {
        "bounds": (["--widths", "2,8,8", "--classes", "2", "--act", "relu"],
                   "warning: bound formulas assume a non-increasing architecture; widths "
                   "(2, 8, 8, 2) violate it and the value is only heuristic\n"),
        "analyze": (["--data", str(csv), "--checkpoint", str(checkpoint), "--layer", "1",
                     "--cap", "2"],
                    f"{skipped}warning: analyze reads only --data; {training_split}\n"),
        "sweep": (["--data", str(csv), "--widths", "2,3", "--seeds", "1,2", "--epochs", "1",
                   "--cap", "2"],
                  f"warning: no --test-data and no test split in {csv}; {training_split}\n"
                  f"{skipped}"),
    }[command]
    src = str(Path(bettinet.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import bettinet.cli; sys.exit(bettinet.cli.main())"
    result = subprocess.run([sys.executable, "-c", code, command, *argv, "--out",
                             str(tmp_path / "o")], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == stderr


def test_analyze_fails_on_a_missing_layer_before_any_homology(
    idx_dir, idx_checkpoint, tmp_path, capsys, monkeypatch
):
    from bettinet import advisor

    calls = []
    real = advisor.pairwise_distances

    def counted(points):
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(advisor, "pairwise_distances", counted)
    argv = ["analyze", "--data", str(idx_dir), "--checkpoint", str(idx_checkpoint), "--layer",
            "4", "--out", str(tmp_path / "a")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: layer must be in 1..2, got 4\n"
    assert calls == []


_BROKEN_CHECKPOINTS = {
    "NO_ACTIVATION": lambda doc: doc.pop("activation"),
    "NO_MOMENTUM": lambda doc: doc["hidden"][0]["norm"].pop("momentum"),
    "STRING_EPS": lambda doc: doc["hidden"][0]["norm"].update(eps="small"),
    "STRING_WEIGHT": lambda doc: doc["hidden"][1]["weight"][0].__setitem__(1, "x"),
    "STRING_COEFFS": lambda doc: doc.update(activation={"kind": "poly", "coeffs": ["zero", "one"]}),
    # json writes the literal NaN, and Python's json reads it back
    "NAN_GAMMA": lambda doc: doc["hidden"][1]["norm"]["gamma"].__setitem__(0, float("nan")),
    "HUGE_BIAS": lambda doc: doc["output"]["bias"].__setitem__(2, 10**400),
}
_BOUNDS = "bounds --widths 8,4,3 --classes 3 --act relu --min-width-target 10 --free-layer"
_COVER = "cover --checkpoint CHECKPOINT --alphas 1 --layer 1 --class-j"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (f"{_BOUNDS} 7", 1, "layer must be in 1..2, got 7"),
        (f"{_BOUNDS} -1", 1, "layer must be in 1..2, got -1"),
        (f"{_COVER} 9", 1, "class_j must be in 0..2, got 9"),
        (f"{_COVER} -1", 1, "class_j must be in 0..2, got -1"),
        ("train --data IDX --widths 0 --epochs 1", 2,
         "argument --widths: expected comma-separated integers >= 1, got '0'"),
        ("sweep --data IDX --widths 0 --seeds 1 --epochs 1", 2,
         "argument --widths: expected comma-separated integers >= 1, got '0'"),
        ("bounds --widths 8,0,3 --classes 3 --act relu", 2,
         "argument --widths: expected comma-separated integers >= 1, got '8,0,3'"),
        ("train --data IDX --widths 2 --epochs 1 --seed -1", 2,
         "argument --seed: expected an integer >= 0, got '-1'"),
        ("analyze --data IDX --checkpoint CHECKPOINT --layer 1 --seed -1", 2,
         "argument --seed: expected an integer >= 0, got '-1'"),
        ("sweep --data IDX --widths 2 --seeds 1,-2 --epochs 1", 2,
         "argument --seeds: expected comma-separated integers >= 0, got '1,-2'"),
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
        ("analyze --data IDX --checkpoint CHECKPOINT --layer 0", 2,
         "argument --layer: expected an integer >= 1, got '0'"),
        ("analyze --data IDX --checkpoint IDX_CHECKPOINT --layer 4", 1,
         "layer must be in 1..2, got 4"),
        ("analyze --data IDX --checkpoint CHECKPOINT --layer 1 --cap 1", 2,
         "argument --cap: expected an integer >= 2, got '1'"),
        ("sweep --data IDX --widths 2 --seeds 1 --epochs 1 --cap 1", 2,
         "argument --cap: expected an integer >= 2, got '1'"),
        ("sweep --data IDX --widths 2 --seeds 1 --epochs 1 --layer 0", 2,
         "argument --layer: expected an integer in 1..3, got '0'"),
        ("sweep --data IDX --widths 2 --seeds 1 --epochs 1 --layer 4", 2,
         "argument --layer: expected an integer in 1..3, got '4'"),
        ("bounds --widths 8,4,3 --classes 3 --act relu --k -1", 2,
         "argument --k: expected an integer >= 0, got '-1'"),
        ("bounds --widths 8,4,3 --classes 1 --act relu", 2,
         "argument --classes: expected an integer >= 2, got '1'"),
        ("bounds --widths 8,4,3 --classes 3 --act poly --degree 0", 2,
         "argument --degree: expected an integer >= 1, got '0'"),
        ("bounds --widths 8,4,3 --classes 3 --act relu --min-width-target -1", 2,
         "argument --min-width-target: expected an integer >= 0, got '-1'"),
        ("bounds --widths 8,4,3 --classes 3 --act relu --min-width-target 1 --free-layer 3", 1,
         "layer must be in 1..2, got 3"),
        ("bounds --widths 3,2 --classes 2 --act relu --free-layer 7", 2,
         "argument --free-layer: needs --min-width-target"),
        ("bounds --widths 3 --classes 2 --act relu", 1, "a ReLU bound needs a hidden layer"),
        ("bounds --widths 3 --classes 2 --act relu --min-width-target 5", 1,
         "a ReLU bound needs a hidden layer"),
        ("train --data MISMATCHED_IDX --widths 2 --epochs 1", 1,
         "image/label counts differ: 3 images in "),
        ("train --data HUGE_IDX --widths 4 --epochs 1", 1,
         "train-images-idx3-ubyte: the header claims 4611686014132420609 bytes, the file holds 0"),
        ("train --data EMPTY_IDX --widths 4", 1,
         "train-images-idx3-ubyte: the header's image count is 0"),
        ("train --data EMPTY_WIDE_IDX --widths 4", 1,
         "train-images-idx3-ubyte: the header's image count is 0"),
        ("train --data NO_PIXELS_IDX --widths 4 --epochs 1", 1,
         "train-images-idx3-ubyte: the header's images are 0x0"),
        ("cover --checkpoint CHECKPOINT --alphas 1 --class-j 0 --layer 0", 2,
         "argument --layer: expected an integer >= 1, got '0'"),
        ("cover --checkpoint CHECKPOINT --alphas 1 --class-j 0 --layer 3", 1,
         "layer must be in 1..2, got 3"),
        (f"{_COVER} 0 --checkpoint NO_ACTIVATION", 1, "no_activation.json: missing field 'activation'"),
        (f"{_COVER} 0 --checkpoint NO_MOMENTUM", 1, "no_momentum.json: layer 1: missing field 'momentum'"),
        (f"{_COVER} 0 --checkpoint STRING_EPS", 1,
         "string_eps.json: layer 1: could not convert string to float: 'small'"),
        (f"{_COVER} 0 --checkpoint STRING_WEIGHT", 1,
         "string_weight.json: layer 2: could not convert string to float: 'x'"),
        ("analyze --data IDX --checkpoint STRING_COEFFS --layer 1", 1,
         "string_coeffs.json: could not convert string to float: 'zero'"),
        (f"{_COVER} 0 --checkpoint NAN_GAMMA", 1, "nan_gamma.json: layer 2: batch-norm gamma is not finite"),
        (f"{_COVER} 0 --checkpoint HUGE_BIAS", 1,
         "huge_bias.json: layer 3 (output): int too large to convert to float"),
        (f"{_COVER} 0 --checkpoint HUGE_INT", 1,
         "huge_int.json: not a JSON checkpoint: Exceeds the limit (4300 digits)"),
        (f"{_COVER} 0 --checkpoint DIR", 1, "Is a directory: '{DIR}'"),
        ("analyze --data IDX --checkpoint DIR --layer 1", 1, "Is a directory: '{DIR}'"),
        ("homology --points DIR", 1, "Is a directory: '{DIR}'"),
        ("analyze --data IDX --checkpoint CHECKPOINT --layer 1", 1,
         "{CHECKPOINT} takes inputs of width 4, but {IDX} has 64 features"),
        ("homology --points NOT_UTF8", 1, "{NOT_UTF8}: not UTF-8 text"),
        ("sweep --data NOT_UTF8 --widths 2 --seeds 1 --epochs 1", 1, "{NOT_UTF8}: not UTF-8 text"),
    ],
    ids=["free-layer-7", "free-layer--1", "class-j-9", "class-j--1", "train-widths-0",
         "sweep-widths-0", "bounds-widths-0", "train-seed--1", "analyze-seed--1",
         "sweep-seeds--1", "label-col-7", "label-inf", "threshold-nan", "checkpoint-csv",
         "checkpoint-json-list", "max-dim-3", "max-dim--1", "max-radius-0", "max-radius-nan",
         "label-1e18", "sweep-singletons", "analyze-singletons", "analyze-layer-0",
         "analyze-layer-4", "analyze-cap-1", "sweep-cap-1", "sweep-layer-0", "sweep-layer-4",
         "bounds-k--1", "bounds-classes-1", "bounds-degree-0", "bounds-target--1",
         "bounds-free-layer-3", "bounds-free-layer-without-target", "bounds-relu-no-hidden",
         "bounds-relu-no-hidden-target", "idx-counts-differ", "idx-header-too-large", "idx-no-images",
         "idx-no-images-wide", "idx-no-pixels", "cover-layer-0", "cover-layer-3",
         "checkpoint-no-activation", "checkpoint-no-momentum", "checkpoint-string-eps",
         "checkpoint-string-weight", "checkpoint-string-coeffs", "checkpoint-nan-gamma",
         "checkpoint-huge-bias", "checkpoint-huge-int", "cover-checkpoint-dir",
         "analyze-checkpoint-dir", "homology-points-dir", "analyze-width-mismatch",
         "homology-not-utf8", "sweep-not-utf8"],
)
def test_bad_input_is_an_error_message_not_a_traceback(idx_dir, idx_checkpoint, tmp_path, capsys,
                                                       argv, code, message):
    # a {NAME} in message stands for the path of file NAME
    files = {"IDX": idx_dir, "IDX_CHECKPOINT": idx_checkpoint, "CHECKPOINT": tmp_path / "relu3.json",
             "FOUR_COLUMNS": tmp_path / "four.csv", "INF_LABEL": tmp_path / "inf.csv",
             "JSON_LIST": tmp_path / "list.json", "HUGE_LABEL": tmp_path / "huge.csv",
             "SINGLETONS": tmp_path / "singletons.csv", "MISMATCHED_IDX": tmp_path / "mismatched",
             "HUGE_IDX": tmp_path / "huge", "EMPTY_IDX": tmp_path / "empty",
             "EMPTY_WIDE_IDX": tmp_path / "empty-wide", "NO_PIXELS_IDX": tmp_path / "no-pixels",
             "HUGE_INT": tmp_path / "huge_int.json", "DIR": tmp_path / "a-directory",
             "NOT_UTF8": tmp_path / "utf16.csv"}
    mlp.save_checkpoint(mlp.build_network([4, 3, 3, 3], mlp.relu_activation(), seed=5), files["CHECKPOINT"])
    for name, corrupt in _BROKEN_CHECKPOINTS.items():  # each an edited copy of CHECKPOINT
        doc = json.loads(files["CHECKPOINT"].read_text())
        corrupt(doc)
        files[name] = tmp_path / f"{name.lower()}.json"
        files[name].write_text(json.dumps(doc))
    files["FOUR_COLUMNS"].write_text("0,0,0,0\n1,0,0,1\n")
    files["INF_LABEL"].write_text("0,0,1\n1,1,inf\n")
    files["JSON_LIST"].write_text("[1, 2]\n")
    files["HUGE_INT"].write_text("[" + "9" * 5000 + "]\n")  # past Python's int-parsing limit
    files["HUGE_LABEL"].write_text("0,0,0\n1,1,1e18\n2,0,1\n")
    files["SINGLETONS"].write_text("0,0,0,0,0\n1,1,1,1,1\n2,0,0,0,2\n")  # CHECKPOINT's width
    files["DIR"].mkdir()
    files["NOT_UTF8"].write_bytes("0,0,0\n1,1,1\n".encode("utf-16"))  # begins with \xff\xfe
    files["MISMATCHED_IDX"].mkdir()
    data.write_idx_images(files["MISMATCHED_IDX"] / "train-images-idx3-ubyte", np.zeros((3, 4)), 2, 2)
    data.write_idx_labels(files["MISMATCHED_IDX"] / "train-labels-idx1-ubyte", [0, 1])
    files["HUGE_IDX"].mkdir()  # a header claiming (2^31 - 1)^2 one-pixel images
    (files["HUGE_IDX"] / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 2**31 - 1, 2**31 - 1, 1))
    for name, side in (("EMPTY_IDX", 28), ("EMPTY_WIDE_IDX", 2**32 - 1)):  # headers of no images
        files[name].mkdir()
        (files[name] / "train-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 0, side, side))
        data.write_idx_labels(files[name] / "train-labels-idx1-ubyte", [])
    files["NO_PIXELS_IDX"].mkdir()  # three images of 0x0 pixels
    data.write_idx_images(files["NO_PIXELS_IDX"] / "train-images-idx3-ubyte", np.zeros((3, 0)), 0, 0)
    data.write_idx_labels(files["NO_PIXELS_IDX"] / "train-labels-idx1-ubyte", [0, 1, 0])
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
    assert message.format(**files) in err


def test_readme_library_quick_start_runs():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env,
                            cwd=root)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        ("train --widths 4", 1,
         "error: NaN loss at epoch 0, batch starting 32; try a smaller learning rate\n"),
        ("sweep --widths 4 --seeds 1", 0, ""),
    ],
    ids=["train", "sweep"],
)
def test_a_diverging_run_prints_no_numpy_warnings(idx_dir, tmp_path, argv, code, stderr):
    # pytest records warnings instead of printing them, so the console is a
    # child process
    root = Path(__file__).resolve().parents[1]
    argv = argv.split() + ["--data", str(idx_dir), "--epochs", "1", "--lr", "1e300",
                           "--out", str(tmp_path / "o")]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-m", "bettinet.cli", *argv], capture_output=True,
                            text=True, env=env, cwd=tmp_path)
    assert (result.returncode, result.stderr) == (code, stderr)

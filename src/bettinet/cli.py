"""Command-line entry point.

Subcommands: ``bounds`` (layer bound tables), ``homology`` (barcode of a
CSV point cloud), ``train`` / ``analyze`` / ``sweep`` (training and
topology profiling of image or CSV datasets), ``cover`` (ReLU boundary
cover verification).

Every run writes a ``config.echo`` file (key=value, one per line) into its
output directory so results are reproducible from the echo alone.  All
randomness funnels through explicit ``--seed`` flags.

Exit codes: 0 on success (including mathematically empty results), 1 on
runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path


from . import advisor, bounds, data, homology, mlp, semialgebraic

__all__ = ["main", "build_parser"]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _checked(convert, ok, what: str):
    """An argparse type that converts the text and requires ``ok`` of the
    value, so a bad value is a usage error (exit code 2)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


def _write_config_echo(out_dir: Path, command: str, args: argparse.Namespace):
    lines = [f"command={command}"]
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    (out_dir / "config.echo").write_text("\n".join(lines) + "\n")


def _ensure_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(path_text: str, label_col: int) -> data.Dataset:
    path = Path(path_text)
    if not path.exists():
        raise FileNotFoundError(f"dataset path {path} does not exist")
    if path.is_dir():
        return data.load_idx_dataset(path, split="train")
    return data.load_csv_dataset(path, label_col=label_col)


def _warn_training_accuracy(reason: str):
    print(f"warning: {reason}; accuracy is measured on the training split", file=sys.stderr)


def _load_test_dataset(args) -> data.Dataset:
    if getattr(args, "test_data", None):
        path = Path(args.test_data)
        if path.is_dir():
            return data.load_idx_dataset(path, split="test")
        return data.load_csv_dataset(path, label_col=args.label_col)
    path = Path(args.data)
    if path.is_dir():
        try:
            return data.load_idx_dataset(path, split="test")
        except FileNotFoundError:
            pass
    _warn_training_accuracy(f"no --test-data and no test split in {path}")
    return _load_dataset(args.data, args.label_col)


def _activation_from_args(args) -> mlp.ActivationFn:
    if args.act == "relu":
        return mlp.relu_activation()
    coeffs = [0.0] * (args.degree + 1)
    coeffs[-1] = 1.0
    return mlp.poly_activation(coeffs)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    out = _ensure_out(args)
    _write_config_echo(out, "bounds", args)
    widths = tuple(args.widths) + (args.classes,)
    activation = bounds.Activation(args.act, args.degree)
    arch = bounds.ArchitectureSpec(widths=widths, activation=activation)
    report = bounds.layer_bound_profile(arch, args.k)
    text = report.to_text()
    if args.min_width_target is not None:
        layer = args.free_layer if args.free_layer is not None else 1
        width = bounds.min_width_for(arch, layer=layer, k=args.k, target=args.min_width_target)
        text += f"min width at layer {layer} reaching {args.min_width_target}: {width}\n"
    (out / "bounds.txt").write_text(text)
    (out / "bounds.csv").write_text("\n".join(report.records()) + "\n")
    sys.stdout.write(text)
    return 0


def cmd_homology(args) -> int:
    out = _ensure_out(args)
    _write_config_echo(out, "homology", args)
    points, _ = data.load_csv_points(args.points, label_col=args.label_col)
    dist = homology.pairwise_distances(points)
    barcode = homology.rips_persistence(dist, max_dim=args.max_dim, max_radius=args.max_radius)
    text = homology.barcode_to_text(barcode)
    (out / "barcode.txt").write_text(text)
    (out / "barcode.svg").write_text(homology.barcode_svg(barcode))
    sys.stdout.write(text)
    return 0


def cmd_train(args) -> int:
    out = _ensure_out(args)
    _write_config_echo(out, "train", args)
    dataset = _load_dataset(args.data, args.label_col)
    shape = [dataset.dim] + list(args.widths) + [dataset.n_classes]
    net = mlp.build_network(
        shape, _activation_from_args(args), seed=args.seed, batch_norm=not args.no_batch_norm
    )
    config = mlp.TrainConfig(
        epochs=args.epochs, lr=args.lr, batch_size=args.batch_size, seed=args.seed
    )
    log = mlp.train_sgd(net, dataset, config)
    mlp.save_checkpoint(net, out / "checkpoint.json")
    lines = [
        f"epoch {e}: loss {loss:.6f} acc {acc:.4f}"
        for e, (loss, acc) in enumerate(zip(log.epoch_losses, log.epoch_accuracies))
    ]
    (out / "train_log.txt").write_text("\n".join(lines) + "\n")
    print(f"final train accuracy {log.final_accuracy:.4f}; checkpoint at {out/'checkpoint.json'}")
    return 0


def _write_profile_files(out: Path, tag: str, profile: advisor.ClassProfile):
    for cid in profile.class_ids():
        curves = profile.curves[cid]
        rows = ["radius,b0,b1"] + [
            f"{r:.9g},{b0},{b1}" for r, b0, b1 in zip(curves.grid, curves.b0, curves.b1)
        ]
        (out / f"{tag}_class_{cid}.csv").write_text("\n".join(rows) + "\n")
        (out / f"{tag}_class_{cid}.svg").write_text(homology.barcode_svg(curves.barcode))


def cmd_analyze(args) -> int:
    out = _ensure_out(args)
    _write_config_echo(out, "analyze", args)
    dataset = _load_dataset(args.data, args.label_col)
    net = mlp.load_checkpoint(args.checkpoint)
    inp = advisor.input_profile(
        dataset, per_class_cap=args.cap, seed=args.seed, jobs=args.jobs
    )
    lay = advisor.layer_profile(
        net, dataset, layer=args.layer, per_class_cap=args.cap, seed=args.seed, jobs=args.jobs
    )
    _warn_training_accuracy("analyze reads only --data")
    acc = mlp.evaluate_accuracy(net, dataset)
    report = advisor.compare_profiles(inp, lay, threshold_fraction=args.threshold, accuracy=acc)
    _write_profile_files(out, "input", inp)
    _write_profile_files(out, f"layer{args.layer}", lay)
    (out / "report.txt").write_text(report.to_text())
    sys.stdout.write(report.to_text())
    return 0


def cmd_sweep(args) -> int:
    out = _ensure_out(args)
    _write_config_echo(out, "sweep", args)
    train_ds = _load_dataset(args.data, args.label_col)
    test_ds = _load_test_dataset(args)
    result = advisor.width_sweep(
        widths=args.widths,
        seeds=args.seeds,
        train_dataset=train_ds,
        test_dataset=test_ds,
        activation=_activation_from_args(args),
        epochs=args.epochs,
        lr=args.lr,
        batch_size=args.batch_size,
        layer=args.layer,
        per_class_cap=args.cap,
    )
    (out / "sweep.csv").write_text("\n".join(result.records()) + "\n")
    (out / "sweep.txt").write_text(result.to_text())
    sys.stdout.write(result.to_text())
    return 0


def cmd_cover(args) -> int:
    out = _ensure_out(args)
    _write_config_echo(out, "cover", args)
    net = mlp.load_checkpoint(args.checkpoint)
    report = semialgebraic.cover_report(
        net,
        layer=args.layer,
        class_j=args.class_j,
        alpha_sets=[args.alphas],
        count=args.count,
        box=args.box,
        seed=args.seed,
        tol=args.tol,
    )
    (out / "cover.txt").write_text(report)
    sys.stdout.write(report)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bettinet",
        description="Topological complexity of datasets and dense-network layers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form per-layer Betti bound table")
    p.add_argument("--widths", type=_parse_int_list, required=True, help="n_0,...,n_{l-1}")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--act", choices=["relu", "poly"], required=True)
    p.add_argument("--degree", type=int, default=2, help="polynomial activation degree")
    p.add_argument("--k", type=int, default=0, help="homology dimension")
    p.add_argument(
        "--min-width-target",
        type=int,
        default=None,
        help="also report the smallest width whose layer bound reaches this count",
    )
    p.add_argument("--free-layer", type=int, default=None, help="layer whose width is searched")
    p.add_argument("--out", default="bounds_out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("homology", help="barcode of a CSV point cloud")
    p.add_argument("--points", required=True)
    p.add_argument("--label-col", type=int, default=None, help="column to drop as labels")
    p.add_argument("--max-dim", type=int, default=1)
    p.add_argument("--max-radius", type=float, default=None)
    p.add_argument("--out", default="homology_out")
    p.set_defaults(func=cmd_homology)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="IDX directory or CSV file")
        p.add_argument("--label-col", type=int, default=-1, help="CSV label column")

    def add_training_flags(p):
        positive = _checked(int, lambda v: v >= 1, "an integer >= 1")
        p.add_argument("--epochs", type=positive, default=5)
        p.add_argument(
            "--lr", type=_checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0"),
            default=0.05,
        )
        p.add_argument("--batch-size", type=positive, default=32)

    p = sub.add_parser("train", help="train a dense classifier")
    add_data_flags(p)
    p.add_argument("--widths", type=_parse_int_list, required=True, help="hidden widths")
    add_training_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--act", choices=["relu", "poly"], default="relu")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--no-batch-norm", action="store_true")
    p.add_argument("--out", default="train_out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="input vs layer topology profiles")
    add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--cap", type=int, default=advisor.DEFAULT_CLASS_CAP)
    p.add_argument("--threshold", type=float, default=advisor.DEFAULT_THRESHOLD)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="analyze_out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="width sweep: accuracy and layer b0")
    add_data_flags(p)
    p.add_argument("--test-data", default=None)
    p.add_argument("--widths", type=_parse_int_list, required=True)
    p.add_argument("--seeds", type=_parse_int_list, required=True)
    add_training_flags(p)
    p.add_argument("--act", choices=["relu", "poly"], default="relu")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--layer", type=int, default=None)
    p.add_argument("--cap", type=int, default=advisor.DEFAULT_CLASS_CAP)
    p.add_argument(
        "--jobs", type=int, default=1, help="no effect: sweep computes only b0, serially"
    )
    p.add_argument("--out", default="sweep_out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cover", help="verify a ReLU decision-boundary cover piece")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--class-j", type=int, required=True)
    p.add_argument("--alphas", type=_parse_int_list, required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--count", type=_checked(int, lambda c: c >= 1, "an integer >= 1"), default=20)
    p.add_argument(
        "--box",
        type=_checked(float, lambda b: 0 < b < math.inf, "a finite number > 0"),
        default=1.0,
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--tol",
        type=_checked(float, lambda t: 0 <= t < math.inf, "a finite number >= 0"),
        default=1e-6,
    )
    p.add_argument("--out", default="cover_out")
    p.set_defaults(func=cmd_cover)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        FileNotFoundError,
        data.FormatError,
        mlp.TrainingDivergedError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

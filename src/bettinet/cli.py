"""Command-line entry point.

Subcommands: ``bounds`` (layer bound tables), ``homology`` (barcode of a
CSV point cloud), ``train`` / ``analyze`` / ``sweep`` (training and
topology profiling of image or CSV datasets), ``cover`` (ReLU boundary
cover verification).

Every run writes a ``config.echo`` file (key=value, one per line) into its
output directory, and all randomness funnels through explicit ``--seed``
flags, so the echo alone reproduces a run on the same machine.  Trained
weights also depend on the BLAS thread count, so ``train``, ``analyze`` and
``sweep`` results repeat only under the same BLAS threading.

Exit codes: 0 on success (including mathematically empty results), 1 on
runtime failure, 2 on usage errors.

Each command imports only the layers it runs, so a short ``homology`` or
``bounds`` run does not load the trainer or the cover solver.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import DEFAULT_CLASS_CAP, DEFAULT_THRESHOLD, SWEEP_HIDDEN_LAYERS, data

__all__ = ["main", "build_parser"]


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


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p != ""]


_parse_int_list = _checked(_int_list, lambda _: True, "comma-separated integers")


def _int_list_at_least(low: int):
    return _checked(
        _int_list, lambda values: all(v >= low for v in values), f"comma-separated integers >= {low}"
    )


def _int_at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


_positive_int = _int_at_least(1)
_finite_nonnegative = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")


def _write_config_echo(out_dir: Path, args: argparse.Namespace):
    lines = [f"command={args.command}"]
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    (out_dir / "config.echo").write_text("\n".join(lines) + "\n")


def _load_dataset(path_text: str, label_col: int, split: str = "train") -> data.Dataset:
    path = Path(path_text)
    if not path.exists():
        raise FileNotFoundError(f"dataset path {path} does not exist")
    if path.is_dir():
        return data.load_idx_dataset(path, split=split)
    return data.load_csv_dataset(path, label_col=label_col)


def _check_fits(dataset: data.Dataset, path, widths, net_name: str):
    """The data set read from ``path`` must fit a net of ``widths``, inputs
    first and classes last; a ValueError names the data and the net."""
    if dataset.dim != widths[0]:
        raise ValueError(f"{net_name} takes inputs of width {widths[0]}, but {path} has {dataset.dim} features")
    if dataset.labels.max() >= widths[-1]:
        raise ValueError(f"{net_name} has {widths[-1]} classes, but {path} has label {dataset.labels.max()}")


def _warn_training_accuracy(reason: str):
    print(f"warning: {reason}; accuracy is measured on the training split", file=sys.stderr)


def _load_test_dataset(args, train_ds: data.Dataset) -> data.Dataset:
    if args.test_data:
        return _load_dataset(args.test_data, args.label_col, split="test")
    path = Path(args.data)
    if path.is_dir():
        try:
            return data.load_idx_dataset(path, split="test")
        except FileNotFoundError:
            pass
    _warn_training_accuracy(f"no --test-data and no test split in {path}")
    return train_ds


def _activation_from_args(args):
    from . import mlp

    if args.act == "relu":
        return mlp.relu_activation()
    coeffs = [0.0] * (args.degree + 1)
    coeffs[-1] = 1.0
    return mlp.poly_activation(coeffs)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_bounds(args, out: Path) -> int:
    from . import bounds

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


def cmd_homology(args, out: Path) -> int:
    from . import homology

    points, _ = data.load_csv_points(args.points, label_col=args.label_col)
    dist = homology.pairwise_distances(points)
    barcode = homology.rips_persistence(dist, max_dim=args.max_dim, max_radius=args.max_radius)
    text = homology.barcode_to_text(barcode)
    (out / "barcode.txt").write_text(text)
    (out / "barcode.svg").write_text(homology.barcode_svg(barcode))
    sys.stdout.write(text)
    return 0


def cmd_train(args, out: Path) -> int:
    from . import mlp

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


def _write_profile_files(out: Path, tag: str, profile):
    from . import homology

    for cid in profile.class_ids():
        curves = profile.curves[cid]
        rows = ["radius,b0,b1"] + [
            f"{r:.9g},{b0},{b1}" for r, b0, b1 in zip(curves.grid, curves.b0, curves.b1)
        ]
        (out / f"{tag}_class_{cid}.csv").write_text("\n".join(rows) + "\n")
        (out / f"{tag}_class_{cid}.svg").write_text(homology.barcode_svg(curves.barcode))


def cmd_analyze(args, out: Path) -> int:
    from . import advisor, mlp

    dataset = _load_dataset(args.data, args.label_col)
    net = mlp.load_checkpoint(args.checkpoint)
    _check_fits(dataset, args.data, net.widths, args.checkpoint)
    sample = dict(per_class_cap=args.cap, seed=args.seed)
    # the layer first, so that a layer the net lacks fails before any homology
    lay = advisor.layer_profile(net, dataset, args.layer, **sample)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the layer profile warned of any skipped class
        inp = advisor.layer_profile(None, dataset, 0, **sample)
    _warn_training_accuracy("analyze reads only --data")
    acc = mlp.evaluate_accuracy(net, dataset)
    report = advisor.compare_profiles(inp, lay, threshold_fraction=args.threshold, accuracy=acc)
    _write_profile_files(out, "input", inp)
    _write_profile_files(out, f"layer{args.layer}", lay)
    (out / "report.txt").write_text(report.to_text())
    sys.stdout.write(report.to_text())
    return 0


def cmd_sweep(args, out: Path) -> int:
    from . import advisor

    train_ds = _load_dataset(args.data, args.label_col)
    test_ds = _load_test_dataset(args, train_ds)
    _check_fits(test_ds, args.test_data or args.data, (train_ds.dim, train_ds.n_classes),
                f"a net trained on {args.data}")
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


def cmd_cover(args, out: Path) -> int:
    from . import mlp, semialgebraic

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
    p.add_argument("--widths", type=_int_list_at_least(1), required=True, help="n_0,...,n_{l-1}")
    p.add_argument("--classes", type=_int_at_least(2), required=True)
    p.add_argument("--act", choices=["relu", "poly"], required=True)
    p.add_argument("--degree", type=_positive_int, default=2, help="polynomial activation degree")
    p.add_argument("--k", type=_int_at_least(0), default=0, help="homology dimension")
    p.add_argument(
        "--min-width-target",
        type=_int_at_least(0),
        default=None,
        help="also report the smallest width whose layer bound reaches this count",
    )
    p.add_argument("--free-layer", type=int, default=None, help="layer whose width is searched")

    p = sub.add_parser("homology", help="barcode of a CSV point cloud")
    p.add_argument("--points", required=True)
    p.add_argument("--label-col", type=int, default=None, help="column to drop as labels")
    p.add_argument("--max-dim", type=_checked(int, lambda d: d in (0, 1, 2), "0, 1 or 2"),
                   default=1)
    p.add_argument("--max-radius", type=_checked(float, lambda r: r > 0, "a number > 0"),
                   default=None)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="IDX directory or CSV file")
        p.add_argument("--label-col", type=int, default=-1, help="CSV label column")

    def add_training_flags(p):
        p.add_argument("--epochs", type=_positive_int, default=5)
        p.add_argument("--lr", type=_finite_nonnegative, default=0.05)
        p.add_argument("--batch-size", type=_positive_int, default=32)
        p.add_argument("--act", choices=["relu", "poly"], default="relu")
        p.add_argument("--degree", type=_positive_int, default=2)

    p = sub.add_parser("train", help="train a dense classifier")
    add_data_flags(p)
    p.add_argument("--widths", type=_int_list_at_least(1), required=True, help="hidden widths")
    add_training_flags(p)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--no-batch-norm", action="store_true")

    p = sub.add_parser("analyze", help="input vs layer topology profiles")
    add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--layer", type=_positive_int, required=True)
    p.add_argument("--cap", type=_int_at_least(2), default=DEFAULT_CLASS_CAP)
    p.add_argument("--threshold", type=_finite_nonnegative, default=DEFAULT_THRESHOLD)
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub.add_parser("sweep", help="width sweep: accuracy and layer b0")
    add_data_flags(p)
    p.add_argument("--test-data", default=None)
    p.add_argument("--widths", type=_int_list_at_least(1), required=True)
    p.add_argument("--seeds", type=_int_list_at_least(0), required=True)
    add_training_flags(p)
    p.add_argument("--layer", type=_checked(int, lambda v: 1 <= v <= SWEEP_HIDDEN_LAYERS,
                                            f"an integer in 1..{SWEEP_HIDDEN_LAYERS}"), default=None)
    p.add_argument("--cap", type=_int_at_least(2), default=DEFAULT_CLASS_CAP)
    p.add_argument(
        "--jobs", type=_positive_int, default=1, help="no effect: sweep computes only b0, serially"
    )

    p = sub.add_parser("cover", help="verify a ReLU decision-boundary cover piece")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--class-j", type=int, required=True)
    p.add_argument("--alphas", type=_parse_int_list, required=True)
    p.add_argument("--layer", type=_positive_int, required=True)
    p.add_argument("--count", type=_positive_int, default=20)
    p.add_argument(
        "--box",
        type=_checked(float, lambda b: 0 < b < math.inf, "a finite number > 0"),
        default=1.0,
    )
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--tol", type=_finite_nonnegative, default=1e-6)

    for name, p in sub.choices.items():
        p.add_argument("--out", default=f"{name}_out")
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def _user_errors():
    """The errors of bad input, a path that cannot be read or a diverging
    run: ``main`` prints them as one line and exits 1.  Evaluated only when
    an error reaches ``main``, so commands that never train do not load ``mlp``."""
    from .mlp import TrainingDivergedError

    return (ValueError, OSError, TrainingDivergedError)


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    """Parse ``argv``, make ``--out``, write its ``config.echo`` and run the
    command; returns the exit code.  A warning that is shown prints as one
    ``warning:`` line, like the ``error:`` lines; one that a caller records
    (``warnings.catch_warnings(record=True)``) stays a warning."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "free_layer", None) is not None and args.min_width_target is None:
        parser.error("argument --free-layer: needs --min-width-target")
    out = Path(args.out)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_config_echo(out, args)
        return args.func(args, out)
    except _user_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())

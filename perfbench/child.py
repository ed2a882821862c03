"""Child process of the benchmark.  ``run.py`` starts one per step so that
each measured process pays interpreter start, imports and input loading the
way a user of the CLI does.

    child.py gen WORKLOAD SEED DIR          write the seeded inputs
    child.py setup WORKLOAD POOL_JSON       import and load the first inputs, then stop
    child.py cli [--trace-dir T] [--capture F] -- ARGS...   run ``bettinet ARGS``
    child.py cover [--trace-dir T] ROUND_DIR OUT_JSON       one cover round
    child.py check WORKLOAD DIR             check the outputs listed in DIR/manifest.json
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _start_tracing(trace_dir):
    import spans

    return spans.install(trace_dir) if trace_dir else None


def _finish(rec, t_imported):
    if rec is not None:
        rec.flush({"pid": rec.pid, "t_start": T_START, "t_imported": t_imported,
                   "t_end": time.monotonic(), "dispatched": rec.dispatched,
                   "open_spans": len(rec.stack)})


def cmd_gen(args):
    import numpy
    import scipy

    import inputs

    pool = getattr(inputs, f"{args.workload}_inputs")(args.seed, Path(args.dir))
    Path(args.dir, "pool.json").write_text(json.dumps(pool))
    print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                      "python": sys.version.split()[0]}))


def cmd_setup(args):
    """Everything a run does before its first call into a computing layer."""
    from bettinet import cli, data  # noqa: F401  (the CLI imports every layer)

    first = json.loads(Path(args.pool).read_text())[0]
    if args.workload == "sweep":
        data.load_idx_dataset(first["data"], "train")
        data.load_idx_dataset(first["data"], "test")
    elif args.workload == "homology":
        data.load_csv_points(first["clouds"][0]["csv"])
    else:
        import cover

        cover.load_round(Path(first["round"]))
    print(time.monotonic())


def cmd_cli(args):
    from bettinet import cli, homology

    captured = []
    if args.capture:
        # record the pair counts of every barcode for the output check
        rips = homology.rips_persistence

        def capture(*a, **kw):
            bc = rips(*a, **kw)
            captured.append({"n_simplices": bc.n_simplices, "paired": bc.paired_count,
                             "essential": bc.essential_count})
            return bc

        homology.rips_persistence = capture
    rec = _start_tracing(args.trace_dir)
    if rec is not None:
        rec.new_op()
    t_imported = time.monotonic()
    code = cli.main(args.argv)
    _finish(rec, t_imported)
    if args.capture:
        Path(args.capture).write_text(json.dumps(captured))
    return code


def cmd_cover(args):
    import cover

    rec = _start_tracing(args.trace_dir)
    t_imported = time.monotonic()
    spec, nets = cover.load_round(Path(args.round_dir))
    result = cover.run_round(spec, nets)
    Path(args.out).write_text(json.dumps(result))
    _finish(rec, t_imported)


def cmd_check(args):
    import checks

    root = Path(args.dir)
    manifest = json.loads((root / "manifest.json").read_text())
    verdicts, digests = [], {}
    if args.workload == "sweep":
        seen = {}
        for it in manifest["iterations"]:
            text = Path(it["out"], "sweep.csv").read_text()
            key = it["data"]
            if key not in seen:
                seen[key] = (text, checks.check_sweep(Path(key), text, **manifest["sweep"]))
                if not digests:
                    digests["sweep.csv"] = checks.digest(text)
            first, v = seen[key]
            verdicts += v if text == first else ["sweep.csv differs between iterations"] * len(v)
    elif args.workload == "homology":
        seen = {}
        for it in manifest["iterations"]:
            for cloud in it["clouds"]:
                text = Path(cloud["out"], "barcode.txt").read_text()
                key = cloud["csv"]
                if key in seen:
                    verdicts.append(None if text == seen[key] else "barcode differs between runs")
                    continue
                seen[key] = text
                captured = json.loads(Path(cloud["capture"]).read_text())
                verdicts.append(checks.check_barcode(
                    Path(key), cloud["max_dim"], text, captured[0] if len(captured) == 1 else None))
                digests[Path(key).stem + ".barcode.txt"] = checks.digest(text)
    else:
        seen = {}
        for it in manifest["iterations"]:
            result = json.loads(Path(it["out"]).read_text())
            key = it["round"]
            if key not in seen:
                seen[key] = (result, checks.check_cover_round(Path(key), result))
                digests[Path(key).name] = checks.digest(result)
            first, v = seen[key]
            verdicts += v if result == first else ["cover output differs between runs"] * len(v)
    print(json.dumps({"verdicts": verdicts, "digests": digests}))


def main():
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("gen")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("dir")
    p = sub.add_parser("setup")
    p.add_argument("workload")
    p.add_argument("pool")
    p = sub.add_parser("cli")
    p.add_argument("--trace-dir")
    p.add_argument("--capture")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("cover")
    p.add_argument("--trace-dir")
    p.add_argument("round_dir")
    p.add_argument("out")
    p = sub.add_parser("check")
    p.add_argument("workload")
    p.add_argument("dir")
    args = parser.parse_args()
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return {"gen": cmd_gen, "setup": cmd_setup, "cli": cmd_cli, "cover": cmd_cover,
            "check": cmd_check}[args.mode](args) or 0


if __name__ == "__main__":
    sys.exit(main())

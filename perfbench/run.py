"""Benchmark of the bettinet CLI and library.

    python3 perfbench/run.py --workload {sweep,homology,cover} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/``.
Workloads (an operation is named in brackets):

* ``sweep`` [one (width, seed) row]: ``bettinet sweep`` on 2000/1000
  synthetic images, widths 4,16,64, seeds 1,2,3, cap 100, ``--jobs 2``;
  two data sets, one per iteration.
* ``homology`` [one cloud]: ``bettinet homology`` on three pairs of noisy
  tori, a 300-point one at ``--max-dim 1`` and an 80-point one at
  ``--max-dim 2``; one pair per iteration.
* ``cover`` [one boundary piece, symbolic net or bound query]: in-process
  ``cover_report``, ``compose_logit_polynomials``, ``layer_bound_profile``
  and ``min_width_for`` traffic.

Every workload has a small pool of seeded inputs.  A run goes once through
the pool and then on, round robin, until ``--seconds`` have passed.  An
iteration is one fresh process (one per cloud for ``homology``), timed from
spawn to exit.  Outputs are checked afterwards in a separate process.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median iteration
wall time), ``ops_per_s``, ``peak_rss_mb`` (largest resident set of any
measured process or pool worker), ``setup_s`` (median over five set-up
probes of the time from process start to the first call into a computing
layer) and ``ok_frac`` (one minus the failed fraction).  ``--trace 1`` goes
once through the pool with every layer's public functions wrapped in spans
(``spans.py``), then once more untraced, and prints the per-layer metrics
and the tracing overhead.

The line before the result holds the run context.  At the reference seed the
outputs must also match the digests in ``reference.json``.  Count metrics of
a traced run are kept in ``.perfbench/counts`` and must repeat exactly in
the next traced run of the same workload and seed.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (pure Python: the parent never imports numpy)

ROOT = Path.cwd()
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
# the criterion-09 sweep at half its class cap: one iteration takes seconds,
# not half a minute, so that a run's median spans several data sets
SWEEP = {"widths": [4, 16, 64], "seeds": [1, 2, 3], "epochs": 5, "lr": 0.05, "batch_size": 32,
         "cap": 100}
WORKLOADS = ("sweep", "homology", "cover")


class Bench:
    def __init__(self, workload, seed, run_dir):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.iterations = []  # manifest entries of every iteration run
        self.counter = 0

    def child(self, *argv):
        """Run one child process; returns its measurements."""
        name = f"p{self.counter}"
        self.counter += 1
        out_path = self.run_dir / "logs" / f"{name}.out"
        err_path = self.run_dir / "logs" / f"{name}.err"
        t_spawn = time.monotonic()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *map(str, argv)],
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        t_exit = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"child {argv[0]} exited {code}:\n{tail}", file=sys.stderr)
        return {"code": code, "wall_s": t_exit - t_spawn, "t_spawn": t_spawn, "t_exit": t_exit,
                "rss_mb": usage.ru_maxrss / 1024, "cpu_s": usage.ru_utime + usage.ru_stime,
                "stdout": out_path.read_text()}

    # -- inputs and set-up -------------------------------------------------

    def generate(self):
        data_dir = self.run_dir / f"{self.workload}-data"
        res = self.child("gen", self.workload, self.seed, data_dir)
        if res["code"] != 0:
            raise SystemExit("input generation failed")
        self.pool_json = data_dir / "pool.json"
        self.pool = json.loads(self.pool_json.read_text())
        return json.loads(res["stdout"].splitlines()[-1])

    def setup_s(self):
        times = []
        for _ in range(SETUP_PROBES):
            res = self.child("setup", self.workload, self.pool_json)
            if res["code"] != 0:
                raise SystemExit("set-up probe failed")
            times.append(float(res["stdout"].split()[-1]) - res["t_spawn"])
        return statistics.median(times)

    # -- one iteration -----------------------------------------------------

    def iterate(self, item, trace_dir=None):
        """Run one pool item; returns the measured processes."""
        n = len(self.iterations)
        out = self.run_dir / "out" / str(n)
        out.mkdir(parents=True)
        procs = []

        def run(mode, *argv, outputs):
            pre = []
            if trace_dir is not None:
                pre = ["--trace-dir", Path(trace_dir) / str(len(procs))]
                pre[1].mkdir(parents=True)
            res = self.child(mode, *pre, *argv)
            res["trace_dir"] = pre[1] if pre else None
            files = list(outputs.rglob("*")) if outputs.is_dir() else [outputs]
            res["out_bytes"] = len(res["stdout"]) + sum(
                f.stat().st_size for f in files if f.is_file())
            procs.append(res)

        if self.workload == "sweep":
            s = SWEEP
            run("cli", "--", "sweep", "--data", item["data"],
                "--widths", ",".join(map(str, s["widths"])),
                "--seeds", ",".join(map(str, s["seeds"])), "--epochs", s["epochs"],
                "--cap", s["cap"], "--jobs", 2, "--out", out, outputs=out)
            ops = len(s["widths"]) * len(s["seeds"])
            entry = {"data": item["data"], "out": str(out)}
        elif self.workload == "homology":
            clouds = []
            for cloud in item["clouds"]:
                name = Path(cloud["csv"]).stem
                capture = out / f"{name}.capture.json"
                run("cli", "--capture", capture, "--", "homology", "--points", cloud["csv"],
                    "--max-dim", cloud["max_dim"], "--out", out / name, outputs=out / name)
                clouds.append(dict(cloud, out=str(out / name), capture=str(capture)))
            ops = len(clouds)
            entry = {"clouds": clouds}
        else:
            round_dir = Path(item["round"])
            spec = json.loads((round_dir / "spec.json").read_text())
            result = out / "result.json"
            run("cover", round_dir, result, outputs=result)
            ops = (sum(len(q["alphas"]) for q in spec["cover"]) + len(spec["poly"])
                   + len(spec["bounds"]) + len(spec["widths"]))
            entry = {"round": str(round_dir), "out": str(result)}
        ok = all(p["code"] == 0 for p in procs)
        self.iterations.append(dict(entry, ops=ops, ok=ok))
        return procs

    # -- checks ------------------------------------------------------------

    def check(self):
        """Verdicts for every attempted operation, in order, plus digests."""
        checked = [it for it in self.iterations if it["ok"]]
        manifest = {"iterations": checked, "sweep": SWEEP}
        (self.run_dir / "manifest.json").write_text(json.dumps(manifest))
        res = self.child("check", self.workload, self.run_dir)
        if res["code"] != 0:
            return ["output check crashed"] * sum(it["ops"] for it in self.iterations), {}
        report = json.loads(res["stdout"].splitlines()[-1])
        verdicts = iter(report["verdicts"])
        out = []
        for it in self.iterations:
            if it["ok"]:
                out += [next(verdicts) for _ in range(it["ops"])]
            else:
                out += ["raised: process exited non-zero"] * it["ops"]
        return out, report["digests"]


def read_context(ctx, seed):
    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return dict(ctx, nproc=os.cpu_count(), cpus_allowed=len(os.sched_getaffinity(0)),
                cpu_max=cpu_max.read_text().strip() if cpu_max.is_file() else "unavailable",
                commit=commit, seed=seed)


def run(args):
    workload, seed = args.workload, args.seed
    run_dir = ROOT / ".perfbench" / f"{workload}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "logs").mkdir(parents=True)
    bench = Bench(workload, seed, run_dir)
    phases = {}
    t = time.monotonic()
    context = read_context(bench.generate(), seed)
    phases["generate"], t = time.monotonic() - t, time.monotonic()
    setup_s = bench.setup_s()
    phases["setup_probes"], t = time.monotonic() - t, time.monotonic()

    if args.trace:
        processes = []
        traced_wall = 0.0
        for k, item in enumerate(bench.pool):
            procs = bench.iterate(item, trace_dir=run_dir / "trace" / str(k))
            traced_wall += sum(p["wall_s"] for p in procs)
            processes += procs
        untraced_wall = 0.0
        for item in bench.pool:
            procs = bench.iterate(item)
            untraced_wall += sum(p["wall_s"] for p in procs)
        metrics = aggregate_trace(processes)
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
    else:
        walls, rss = [], []
        start = time.monotonic()
        i = 0
        while i < len(bench.pool) or time.monotonic() - start < args.seconds:
            procs = bench.iterate(bench.pool[i % len(bench.pool)])
            walls.append(sum(p["wall_s"] for p in procs))
            rss += [p["rss_mb"] for p in procs]
            i += 1

    phases["measure"], t = time.monotonic() - t, time.monotonic()
    verdicts, digests = bench.check()
    phases["check"] = time.monotonic() - t
    attempted = len(verdicts)
    failed = sum(v is not None for v in verdicts)
    wrong = [v for v in verdicts if v is not None and not v.startswith("raised:")]
    reasons = collections.Counter(
        v[:120] if v.startswith("raised:") else f"wrong output: {v[:120]}"
        for v in verdicts if v is not None)
    for v, n in reasons.most_common(20):
        print(f"{n} operation(s) failed, {v}", file=sys.stderr)
    correct = not wrong and check_reference(workload, seed, digests)

    if args.trace:
        correct = check_counts(workload, seed, metrics) and correct
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    else:
        measured = sum(walls)
        metrics = {
            "wall_s": statistics.median(walls),
            "ops_per_s": (attempted - failed) / measured,
            "peak_rss_mb": max(rss),
            "setup_s": setup_s,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
                 "ok_frac": "frac"}
    print(json.dumps({"context": dict(context, iterations=len(bench.iterations),
                                      phase_s=phases, digests=digests)}))
    shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def aggregate_trace(processes):
    gathered = []
    for p in processes:
        # each traced process has its own directory, shared only with its workers
        all_spans, metas = spans.read_spans(p["trace_dir"])
        gathered.append(dict(p, spans=all_spans, meta=metas[-1]))
    return spans.aggregate(gathered)


def check_reference(workload, seed, digests):
    ref = json.loads((HERE / "reference.json").read_text())
    if seed != ref["seed"]:
        return True
    want = ref[workload]
    bad = [name for name, value in want.items() if digests.get(name) != value]
    for name in bad:
        print(f"output {name} does not match the reference digest", file=sys.stderr)
    return not bad


def check_counts(workload, seed, metrics):
    """Count metrics must repeat exactly between traced runs of one seed."""
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    counts = {k: v for k, v in metrics.items() if units[k] in spans.COUNT_UNITS}
    path = ROOT / ".perfbench" / "counts" / f"{workload}-{seed}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return True
    before = json.loads(path.read_text())
    drift = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
    for k in drift:
        print(f"count {k} drifted: {before.get(k)} -> {counts.get(k)}", file=sys.stderr)
    return not drift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bettinet" / "cli.py").is_file():
        print("run from the root of a bettinet checkout: src/bettinet is missing",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

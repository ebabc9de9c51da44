"""fmapkit benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload match-2562 --seed 1 --seconds 20 --trace 0

The program is imported from ./src of the checkout and driven in-process
through its public entry point fmapkit.cli.main(argv): one client, a closed
loop (the next op starts when the previous one returns), no extra threads,
the BLAS pool at its default. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run (see bench/spans.py). Workloads and the reasons behind
them are in bench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# The program is imported from this checkout's src/ and nowhere else. The
# import is timed here, first thing in a fresh interpreter: that is the
# cost every fmapkit command pays (cli.import_s).
if not os.path.isfile(os.path.join(SRC, "fmapkit", "cli.py")):
    sys.exit(f"bench: {os.path.join(SRC, 'fmapkit')} not found; run from a full checkout")
sys.path.insert(0, SRC)
_t0 = time.perf_counter()
import fmapkit.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from fmapkit.mesh import graph_geodesics, load_correspondence, load_mesh  # noqa: E402
from spans import ROOT_SPAN, SPAN_NAMES, Tracer  # noqa: E402
from workloads import TINY_SUBDIVISIONS, WORKLOADS  # noqa: E402

RESULTS = Path(BENCH_DIR) / "results"
# Set-ups per run, each in a fresh process; setup_s and cli.import_s are
# their medians.
SETUP_REPEATS = 3
# An op's tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = Path(ROOT) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    Nearest rank: sorted index i is percentile 100 (i + 1) / n. With too few
    samples for any such percentile, the slowest op (p100) stands in.
    """
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    i = n - 1 - TAIL_BEYOND
    return s[i], 100.0 * (i + 1) / n


class Runner:
    """Runs one workload's ops against fmapkit.cli.main and records failures."""

    def __init__(self, workload, tracer=None):
        self.wl, self.tracer = workload, tracer
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op, trace_id=None, traced=False) -> bool:
        """Run every command of `op`; False (and a recorded failure) if one fails."""
        self.attempted += 1
        tracer = self.tracer if traced else None
        ctx = tracer.installed(trace_id) if tracer else contextlib.nullcontext()
        with ctx, contextlib.redirect_stdout(io.StringIO()):
            for argv in self.wl.commands(op):
                try:
                    if tracer is None:
                        code = cli.main(argv)
                    else:
                        with tracer.span(ROOT_SPAN):
                            code = cli.main(argv)
                except Exception:
                    code = traceback.format_exc()
                if code != 0:
                    self.failures.append(f"op {op.index}: {argv[0]} -> {code}")
                    return False
        return True


def read_outputs(wl, op) -> dict[str, bytes]:
    return {name: Path(op.path(name)).read_bytes() for name in wl.outputs}


def geodesic_errors(pred, gt, mesh):
    """Per-vertex error in percent of sqrt(area), as the eval protocol defines it.

    Computed independently of fmapkit.evaluate: geodesic rows are taken
    only for the ground-truth vertices the prediction misses.
    """
    d = np.zeros(len(gt))
    wrong = np.nonzero(pred != gt)[0]
    if wrong.size:
        uniq, inverse = np.unique(gt[wrong], return_inverse=True)
        d[wrong] = graph_geodesics(mesh, uniq)[inverse, pred[wrong]]
    return d / np.sqrt(mesh.total_area()) * 100.0


def check_eval_output(path, errors) -> str | None:
    """Compare an eval CSV with the recomputed errors; a message if they differ."""
    lines = Path(path).read_text().splitlines()
    values = np.array([float(line.split(",")[1]) for line in lines[1:-1]])
    mean = float(lines[-1].split("=")[1])
    if values.shape != errors.shape or not np.allclose(values, errors, rtol=1e-9, atol=0):
        return f"{path}: per-vertex errors differ from the recomputation"
    if abs(mean - errors.mean()) > 5e-7:
        return f"{path}: mean={mean} but the recomputation gives {errors.mean():.6f}"
    return None


def score(wl, ops) -> tuple[dict | None, list[str]]:
    """exact_frac and geo_err_mean over `ops` (None if none could be scored),
    plus the problems the eval cross-checks found."""
    exact, geo, problems = [], [], []
    for op in ops:
        pred = load_correspondence(op.path(wl.pred_file))
        if pred.shape != op.gt.shape:
            problems.append(f"op {op.index}: map has {pred.size} entries, expected {op.gt.size}")
            continue
        mesh = load_mesh(op.mesh_path)
        if pred.max() >= mesh.n_vertices:
            problems.append(f"op {op.index}: map indexes past {mesh.n_vertices} vertices")
            continue
        errors = geodesic_errors(pred, op.gt, mesh)
        exact.append(float(np.mean(pred == op.gt)))
        geo.append(float(errors.mean()))
        if wl.eval_file:
            msg = check_eval_output(op.path(wl.eval_file), errors)
            if msg:
                problems.append(msg)
    if not exact:
        return None, problems
    return {"exact_frac": statistics.fmean(exact), "geo_err_mean": statistics.fmean(geo)}, problems


def per_layer(tracer, traced_times, untraced_times, import_s) -> dict:
    per_op = tracer.per_op()
    ops = sorted(per_op)
    if not ops:
        raise RuntimeError("the traced run recorded no op")

    def mean_time(span):
        return statistics.fmean(per_op[o][span] for o in ops)

    def mean_count(name):
        return statistics.fmean(tracer.counts.get((o, name), 0.0) for o in ops)

    metrics = {}
    for span in SPAN_NAMES:
        name = "cli.self_s" if span == ROOT_SPAN else f"{span}_s"
        metrics[name] = (mean_time(span), "s")
    calls = mean_count("spectral.eigenbasis_calls")
    repeats = mean_count("spectral.eigenbasis_repeats")
    metrics.update({
        "spectral.eigenbasis_calls": (calls, "count"),
        "spectral.eigenbasis_repeat_frac": (repeats / calls if calls else 0.0, "fraction"),
        "refine.iters": (mean_count("refine.iters"), "count"),
        "fmap.softmap_bytes": (tracer.peaks["fmap.softmap_bytes"], "bytes_computed"),
        "fmap.convert_calls_per_op": (mean_count("fmap.convert_calls"), "count"),
        "fmap.nn_rows": (mean_count("fmap.nn_rows"), "count"),
        "mesh.geodesic_rows": (mean_count("mesh.geodesic_rows"), "count"),
        "mesh.geodesic_table_bytes": (tracer.peaks["mesh.geodesic_table_bytes"],
                                      "bytes_computed"),
        "trace_overhead_frac": (statistics.median(traced_times)
                                / statistics.median(untraced_times) - 1.0, "fraction"),
        "cli.import_s": (import_s, "s"),
    })
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="busy time the timed loop runs for")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="162-vertex meshes, for the smoke tests only")
    p.add_argument("--setup-only", action="store_true",
                   help="run one set-up, print its parts as JSON and exit "
                        "(the extra set-ups of a run use it)")
    return p.parse_args(argv)


def set_up(args, work: Path, tracer=None):
    """Make the inputs and run the untimed warm-up op in this process.

    Returns (workload, warm-up op, runner, warm-up passed, set-up parts in s).
    """
    size = {"subdivisions": TINY_SUBDIVISIONS} if args.tiny else {}
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](work, args.seed, **size)
    warm = wl.make_op(0)
    inputs_s = time.perf_counter() - t0
    runner = Runner(wl, tracer)
    t0 = time.perf_counter()
    # In a traced run the warm-up is traced without an op id: its spans are
    # dropped, but the Laplacians it solves count as already solved.
    ok = runner.run(warm, trace_id=None, traced=tracer is not None)
    parts = {"cli.import_s": IMPORT_S, "inputs_s": inputs_s,
             "warmup_s": time.perf_counter() - t0}
    return wl, warm, runner, ok, parts


def set_up_in_fresh_process(args) -> dict:
    """Run `set_up` in a new interpreter; returns {"parts": ..., "ok": ...}."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(argv + (["--tiny"] if args.tiny else []), cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.splitlines()[-1])


def run(args, stem: str, work: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail record)."""
    tracer = Tracer() if args.trace else None

    # --- set-up, SETUP_REPEATS times: import, inputs, one warm-up op. Each
    # needs a fresh process, since only the first op in a process pays the
    # first-call costs; the last one prepares this process for the loop.
    others = [set_up_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
    wl, warm, runner, warm_ok, parts = set_up(args, work, tracer)
    for other in others:
        runner.attempted += 1
        if not other["ok"]:
            runner.failures.append("warm-up op failed in a fresh set-up process")
    samples = [o["parts"] for o in others] + [parts]
    setup_s = statistics.median(sum(p.values()) for p in samples)
    setup_parts = {k: statistics.median(p[k] for p in samples) for k in parts}

    # --- timed closed loop; input generation between ops is not timed
    times, traced_times, untraced_times, scored = [], [], [], []
    busy, index = 0.0, 1
    while busy < args.seconds or (tracer and not (traced_times and untraced_times)):
        op = wl.make_op(index)
        traced = tracer is not None and index % 2 == 0
        t0 = time.perf_counter()
        ok = runner.run(op, trace_id=index, traced=traced)
        dt = time.perf_counter() - t0
        busy += dt
        if ok:
            times.append(dt)
            (traced_times if traced else untraced_times).append(dt)
            if len(scored) < wl.scored_ops:
                scored.append(op)
        if op not in scored:
            shutil.rmtree(op.dir)
        index += 1

    # --- correctness, outside the timed loop
    problems = []
    first = read_outputs(wl, warm) if warm_ok else {}
    if first and runner.run(warm):
        again = read_outputs(wl, warm)
        problems += [f"re-run of op 0 changed {name}" for name in wl.outputs
                     if again[name] != first[name]]
    quality, msgs = score(wl, scored)
    problems += msgs + runner.failures
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # In a traced run the end-to-end figures come from the untraced ops only.
    if tracer is not None:
        times = untraced_times
    if not times or quality is None:
        raise SystemExit("bench: no op succeeded or could be scored:\n" + "\n".join(problems))
    tail_s, tail_pct = tail(times)
    end_to_end = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "setup_s": (setup_s, "s"),
        "exact_frac": (quality["exact_frac"], "fraction"),
        "geo_err_mean": (quality["geo_err_mean"], "pct_sqrt_area"),
    }
    failed = len(runner.failures)
    detail = {
        "workload": args.workload,
        "env": environment(args.seed),
        "ops_timed": len(times),
        "op_tail_percentile": tail_pct,
        "fail_frac": failed / runner.attempted,
        "setup_parts_s": setup_parts,
        "op_times_s": times,
        "problems": problems,
        "end_to_end": end_to_end,
    }
    if tracer is not None:
        layers = per_layer(tracer, traced_times, untraced_times,
                           setup_parts["cli.import_s"])
        detail["per_layer"] = layers
        detail["span_total_s"] = sum(v for k, (v, u) in layers.items()
                                     if u == "s" and k != "cli.import_s")
        detail["untraced_op_p50_s"] = statistics.median(untraced_times)
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"spans_{stem}.json")
    metrics = detail["per_layer"] if tracer is not None else end_to_end
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def report(detail) -> None:
    """Human-readable summary: every metric by name, with its unit."""
    print(f"workload {detail['workload']}: {detail['ops_timed']} timed ops, "
          f"fail_frac {detail['fail_frac']:.4f} (failed / attempted)")
    for name, (value, unit) in detail["end_to_end"].items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{detail['op_tail_percentile']:.1f} of {detail['ops_timed']} ops)"
        elif name == "setup_s":
            note = "  (" + ", ".join(f"{k} {v:.4f}" for k, v in
                                     detail["setup_parts_s"].items()) + ")"
        print(f"  {name:<34} {value:12.6g} {unit}{note}")
    if "per_layer" in detail:
        print("per-layer (mean per traced op; bytes are computed, not measured):")
        for name, (value, unit) in detail["per_layer"].items():
            print(f"  {name:<34} {value:12.6g} {unit}")
        print(f"  spans account for {detail['span_total_s']:.6g} s per traced op; "
              f"untraced op_p50_s {detail['untraced_op_p50_s']:.6g} s")
    for msg in detail["problems"]:
        print(f"  PROBLEM: {msg}")
    print("env " + json.dumps(detail["env"], sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(cli.__file__).resolve().parent != Path(SRC, "fmapkit").resolve():
        sys.exit(f"bench: fmapkit imported from {cli.__file__}, not from {SRC}")
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_tiny' if args.tiny else ''}"
    work = Path(BENCH_DIR) / "work" / f"{stem}_{os.getpid()}"
    try:
        if args.setup_only:
            *_, ok, parts = set_up(args, work)
            print(json.dumps({"parts": parts, "ok": ok}))
            return 0
        result, detail = run(args, stem, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"BENCH_{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    report(detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

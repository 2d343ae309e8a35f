"""Run one tvtomo benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sweep-multires --seed 2 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from its
`src/` directory.  The BLAS is pinned to one thread before numpy loads.
Set-up is `import tvtomo` (timed in fresh interpreters) plus phantom,
noisy data, set-up assembly and a toy warm-up solve; each part runs
several times and its median counts; the timed body then repeats until
`--seconds` would be exceeded, at least once, and its median counts.
Every output is checked; a failed check makes the exit code 1.

`--trace 0` prints the end-to-end metrics (`setup_s`, `wall_s`).
`--trace 1` runs the body once untraced, then with a span around every
call into a tvtomo layer (see spans.py), and prints the per-layer metrics.
Results, and for a traced run the spans, are written under `--out`.
The last line of standard output is one JSON object.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORT_CODE = "import time; t = time.perf_counter(); import tvtomo; print(time.perf_counter() - t)"
CAP_WARNING = "inner CG hit the iteration cap"


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy puts every grid at n <= 16, for the benchmark's tests")
    p.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                   help="directory for result and span files")
    return p.parse_args(argv)


def import_seconds(src):
    """Median over fresh interpreters of the time `import tvtomo` takes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def load_reference(size, seed, workload):
    """Committed expected outputs for this size and seed, or None."""
    with open(HERE / "reference.json") as fh:
        return json.load(fh).get(size, {}).get(str(seed), {}).get(workload)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tvtomo" / "__init__.py").is_file():
        print(f"error: no tvtomo package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tvtomo as tv
    from spans import Tracer, layer_table, per_layer_metrics, self_times, write_spans
    from workloads import WORKLOADS, Outcome

    if Path(tv.__file__).resolve().parent != (src / "tvtomo").resolve():
        print(f"error: imported tvtomo from {tv.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = import_seconds(src)

    reference = load_reference(args.size, args.seed, args.workload)

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else None
    outcome = Outcome()
    with tempfile.TemporaryDirectory(dir=args.out) as tmp:
        workload = WORKLOADS[args.workload](tv, args.size, args.seed, Path(tmp))
        setup_times = []
        for rep in range(SETUP_REPEATS):
            with tracer.recording(f"setup-{rep}") if tracer else nullcontext():
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)

        walls, traced_walls, cap_hits = [], [], {}
        observed = None
        begin = time.perf_counter()
        while True:
            # a traced run times its first body untraced, for the overhead ratio
            run_id = f"body-{len(traced_walls)}" if tracer and walls else None
            failed_before = outcome.failed
            with tracer.recording(run_id) if run_id else nullcontext(), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                out = workload.body(outcome)
                wall = time.perf_counter() - start
            if run_id:
                traced_walls.append(wall)
                cap_hits[run_id] = sum(CAP_WARNING in str(w.message) for w in caught)
            else:
                walls.append(wall)
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            if observed is None and outcome.failed == failed_before:
                observed = workload.observed(out)
            workload.check(out, outcome, reference)
            if time.perf_counter() - begin + wall > args.seconds and (traced_walls or not tracer):
                break

    setup_s = import_s + statistics.median(setup_times)
    wall_s = statistics.median(walls)
    result = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "environment": environment(),
        "setup_s": setup_s, "setup_repeats_s": setup_times, "import_s": import_s,
        "body_s": walls, "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures, "observed": observed,
    }
    print(f"workload {args.workload} (size {args.size}, seed {args.seed}, trace {args.trace})")
    print("environment " + json.dumps(result["environment"]))
    print(f"setup_s {setup_s:.4f} s  (median of {SETUP_REPEATS} imports, {import_s:.4f} s, "
          f"+ median of {SETUP_REPEATS} set-ups)")
    print(f"wall_s {wall_s:.4f} s  (median of {len(walls)} untraced bodies)")
    print(f"fail_ratio {outcome.failed / outcome.attempted:.4g}  "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    for mode, times in getattr(workload, "assemble_s", {}).items():
        rays = getattr(workload, mode).num_rays
        print(f"{mode}_rays_per_s {rays / statistics.median(times):.1f} 1/s")

    if tracer:
        selfs = self_times(tracer.spans)
        body_runs = sorted(cap_hits)
        setup_runs = [f"setup-{rep}" for rep in range(SETUP_REPEATS)]
        layers = per_layer_metrics(tracer.spans, selfs, body_runs, setup_runs, cap_hits)
        layers["trace.overhead_ratio"] = _metric(
            statistics.median(traced_walls) / wall_s - 1.0, "ratio")
        layers["mem.peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        table = {layer: {k: v / len(body_runs) for k, v in row.items()}
                 for layer, row in layer_table(tracer.spans, selfs, set(body_runs)).items()}
        print(f"per-layer table, mean of {len(body_runs)} traced bodies "
              f"(trace.overhead_ratio {layers['trace.overhead_ratio']['value']:.4f}):")
        print(f"  {'layer':10s} {'total_s':>10s} {'self_s':>10s} {'calls':>8s}")
        for layer, row in sorted(table.items()):
            print(f"  {layer:10s} {row['total_s']:10.4f} {row['self_s']:10.4f} "
                  f"{row['calls']:8.0f}")
        for name, m in layers.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
        spans_path = args.out / f"{stem}-spans.jsonl"
        write_spans(spans_path, tracer.spans, selfs)
        result.update(layers=table, per_layer=layers, spans=str(spans_path))
        metrics = layers
    else:
        metrics = {"setup_s": _metric(setup_s, "s"), "wall_s": _metric(wall_s, "s")}
    result["metrics"] = metrics
    with open(args.out / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": outcome.failed == 0, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": metrics,
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

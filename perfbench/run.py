#!/usr/bin/env python3
"""Run one corneralg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Set-up builds the inputs from --seed, then whole rounds run until --seconds
of decisions have been timed. Every decision is checked against the
plain-numpy reference. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics under
--trace 0, the per-layer metrics of a traced run under --trace 1. The line
before it holds the machine fingerprint and the reference figures; the full
record goes to perfbench/results/.
"""

import os
import sys
import time

# BLAS is pinned to one thread before numpy loads, here and in every child
# (they inherit the environment): with its default threads one call varies
# by up to 3x on a 2-vCPU host.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("corpus", "structural", "cli")
WARMUP_ROUND = 999_999  # a round key no timed round reaches, so no input repeats
IMPORT_SAMPLES = 5


def process_age_s() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def child_env() -> dict:
    """The environment of every child: pinned BLAS, and src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ------------------------------------------------------------ fingerprint


def blas_threads_in_effect():
    """Ask the loaded OpenBLAS for its thread count; None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def yardstick_s() -> float:
    """A fixed numpy task (complex SVDs and products); median of five timings."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(100):
            np.linalg.svd(a)
            a @ a
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fingerprint() -> dict:
    import numpy as np
    import scipy

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "blas_threads": blas_threads_in_effect(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------ measuring


def median_import_s() -> float:
    """Median wall time of a fresh interpreter importing corneralg.cli."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import corneralg.cli"], env=child_env(),
                       check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def make_workload(name: str, seed: int, traced: bool, workdir: Path, seconds: int):
    import workloads

    if name == "corpus":
        return workloads.Corpus(seed)
    if name == "structural":
        return workloads.Structural(seed)
    w = workloads.Cli(seed, str(workdir), child_env(), in_process=traced)
    # a request takes at least ~0.3 s, so a round of seven at least ~2 s
    for rnd in range(seconds // 2 + 2):
        w.write_round(rnd)
    return w


def run(args, per_layer_spec) -> dict:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracer as tracing

    fp = fingerprint()
    stamp = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
             f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    workdir = RESULTS / f"work-{stamp}"
    workdir.mkdir(parents=True)
    try:
        w = make_workload(args.workload, args.seed, args.trace, workdir, args.seconds)
        warm = [w.run_case(c) for c in w.cases(WARMUP_ROUND)[:1]]
        tr = None
        if args.trace:
            tr = tracing.Tracer()
            tr.install()
        setup_s = process_age_s()
        fp["yardstick_start_s"] = yardstick_s()

        rounds = []  # (timed seconds, outcomes, layer values or None)
        timed = 0.0
        while timed < args.seconds:
            cases = w.cases(len(rounds))
            if tr is not None:
                tr.begin_round(len(rounds))
                tr.active = True
            outcomes = [w.run_case(c) for c in cases]
            layers = None
            if tr is not None:
                tr.active = False
                layers = tr.end_round()
            spent = sum(o.seconds for o in outcomes)
            timed += spent
            rounds.append((spent, outcomes, layers))
        fp["yardstick_end_s"] = yardstick_s()
        import_s = median_import_s() if tr is not None else None
        record = summarize(args, setup_s, rounds, warm, per_layer_spec, import_s)
        record["fingerprint"] = fp
        record["setup"] = w.setup_notes
        if tr is not None:
            tr.uninstall()
            record["reference"]["spans_written"] = tr.write_spans(
                str(RESULTS / f"{stamp}.spans.csv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["reference"]["process_s"] = process_age_s()
    with open(RESULTS / f"{stamp}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def summarize(args, setup_s, rounds, warm, per_layer_spec, import_s) -> dict:
    outcomes = [o for _, outs, _ in rounds for o in outs]
    failed = [o for o in outcomes if o.error is not None]
    problems = [o for o in outcomes + warm if o.error is None and o.problem is not None]
    warm_failed = [o for o in warm if o.error is not None]
    ok_times = [o.seconds for o in outcomes if o.error is None]
    round_s = [spent for spent, _, _ in rounds]
    pinned_s = [sum(o.seconds for o in outs if o.pinned) for _, outs, _ in rounds]
    reference = {
        "rounds": len(rounds),
        "decisions_per_round": len(rounds[0][1]),
        "round_s_median": statistics.median(round_s),
        "round_s_min": min(round_s),
        "round_s_max": max(round_s),
        "latency_samples": len(ok_times),
        "latency_p90_ms": 1e3 * percentile(ok_times, 90),
        "pinned_share_of_round": statistics.median(p / r for p, r in zip(pinned_s, round_s)),
        "median_ms_by_input": {
            label: 1e3 * statistics.median(o.seconds for o in outcomes if o.label == label)
            for label in dict.fromkeys(o.label for o in rounds[0][1])},
        "failures": sorted({f"{o.label}: {o.error}" for o in failed}),
        "problems": [f"{o.label}: {o.problem}" for o in problems][:20],
        "warmup_failures": [f"{o.label}: {o.error}" for o in warm_failed],
    }
    correct = not problems and not warm_failed
    if not args.trace:
        # decided and checked inputs per timed second, in the median round
        per_s = [sum(o.error is None for o in outs) / spent for spent, outs, _ in rounds]
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        values = {
            "decisions_per_s": statistics.median(per_s),
            "latency_p50_ms": 1e3 * percentile(ok_times, 50),
            "latency_p75_ms": 1e3 * percentile(ok_times, 75),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        }
        units = {"decisions_per_s": "1/s", "latency_p50_ms": "ms", "latency_p75_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        layers = [layers for _, _, layers in rounds]
        keys = sorted(set().union(*layers))
        values = {k: statistics.median(lay.get(k, 0.0) for lay in layers) for k in keys}
        values["cli.import_s"] = import_s
        # two totals reached by independent paths: corners counted from the
        # kernel's array sizes, and corners the returned CheckReports (plus
        # single corner_residual calls) say they tested
        mismatched = [i for i, lay in enumerate(layers)
                      if lay.get("checker.kernel.corners", 0.0)
                      != lay.get("checker.check.report_corners", 0.0)
                      + lay.get("checker.corner_residual.calls", 0.0)]
        reference["kernel_corner_identity_failed_rounds"] = mismatched
        reference["layers_per_round_median"] = values
        reference["traced_round_s_median"] = reference.pop("round_s_median")
        correct = correct and not mismatched
        units = dict(per_layer_spec)
    return {
        "reference": reference,
        "result": {
            "correct": bool(correct),
            "attempted": len(outcomes),
            "failed": len(failed),
            "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": u}
                        for k, u in units.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "corneralg" / "__init__.py").is_file():
        print(f"error: no corneralg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        per_layer_spec = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    record = run(args, per_layer_spec)
    print(json.dumps({"fingerprint": record["fingerprint"], "reference": record["reference"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

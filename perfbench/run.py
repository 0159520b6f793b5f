"""Run one taskmix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hc124-protocol --seed 0 \
        --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. Each run makes its inputs from ``--seed``, sets up several times,
then runs whole rounds of the workload until ``--seconds`` have passed, and
checks the last round's outputs. With ``--trace 0`` every program call is
timed from outside and the end-to-end metrics are reported. With
``--trace 1`` rounds with the program's public entry points wrapped
(tracing.py) run between two untraced rounds; the per-layer metrics come
from the traced rounds, the span file is written under ``perfbench/out/``,
and the median traced minus the median untraced round time is the tracing
overhead. The phase rates that only some workloads have (adaptation,
baselines, attention) are medians of the two untraced rounds.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full report (environment, sizes, every measured metric, every check).
"""

import os
import sys

# One BLAS thread, pinned before numpy loads: a per-process figure that does
# not depend on what else the machine runs, and never above nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-ups in two blocks, one before and one after the rounds, so setup_s is
# a median of many taken at two times of the run: each block at least
# SETUP_MIN_REPS and SETUP_MIN_S seconds' worth, at most SETUP_MAX_REPS
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 5, 3.0, 200

UNITS = {
    "setup_s": "s", "protocol_s": "s", "meta_rows_per_s": "rows/s",
    "adapt_rows_per_s": "rows/s", "baseline_rows_per_s": "rows/s",
    "attention_s": "s", "peak_rss_mb": "MB",
}
END_TO_END = ("setup_s", "protocol_s", "meta_rows_per_s", "peak_rss_mb")


def per_layer_units(name: str) -> str:
    for suffix, unit in (("gb_per_s", "GB/s"), ("gflop_per_s", "GFLOP/s"),
                         ("rows_per_s", "rows/s"), ("_ms", "ms"), ("_s", "s"),
                         ("bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        blas_name = blas_version = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "blas": blas_name,
            "blas_version": blas_version, "blas_threads": BLAS_THREADS,
            "numpy": np.__version__, "python": platform.python_version(),
            "seed": seed}


def run(args, workdir: Path) -> dict:
    from workloads import WORKLOADS, Phases
    import tracing

    wl = WORKLOADS[args.workload](args.seed, workdir, args.small)

    attempted = failed = 0
    setups: list[float] = []
    rounds: list[dict] = []
    digests: list[str] = []
    errors: list[str] = []
    out = None

    def one_round(tracer=None):
        nonlocal attempted, failed, out
        out = None
        gc.collect()
        ph = Phases()
        attempted += wl.ops_per_round
        try:
            if tracer is None:
                out = wl.round(ph)
            else:
                with tracer.span("bench.round") as root:
                    out = wl.round(ph)
        except Exception:
            failed += wl.ops_per_round - ph.done
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
            out = None
            return None
        rec = {"times": ph.times, "cpu": ph.cpu,
               "protocol_s": sum(ph.times.values()),
               **wl.round_metrics(ph.times, out)}
        if tracer is not None:
            rec["root"] = root
        setups.append(ph.times["setup"])
        digests.append(wl.digest(out))
        return rec

    def setup_block():
        nonlocal attempted, failed
        t0, reps = perf_counter(), 0
        while reps < SETUP_MAX_REPS and (
                reps < SETUP_MIN_REPS or perf_counter() - t0 < SETUP_MIN_S):
            ph = Phases()
            attempted += wl.setup_ops
            reps += 1
            try:
                wl.setup(ph)
                setups.append(ph.times["setup"])
            except Exception:
                failed += wl.setup_ops - ph.done
                errors.append(traceback.format_exc())
                print(errors[-1], file=sys.stderr)
                return

    tracer = None
    references: list[dict] = []
    if not args.trace:
        setup_block()
        t_start = perf_counter()
        while True:
            rec = one_round()
            if rec is not None:
                rounds.append(rec)
            if perf_counter() - t_start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_block()
    else:
        t_start = perf_counter()
        references.append(one_round())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            while True:
                rec = one_round(tracer)
                if rec is not None:
                    rounds.append(rec)
                if perf_counter() - t_start >= args.seconds:
                    break
        finally:
            tracer.uninstall()
        references.append(one_round())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_mb /= 1024.0
    references = [r for r in references if r is not None]

    results: dict = {}
    sizes: dict = {}
    if out is not None:
        results = wl.check(out)
        sizes = wl.sizes(out)
        if args.trace:
            same = len(references) == 2 and len(set(digests)) == 1
            results["trace_preserves_outputs"] = {
                "ok": same, "detail": f"{len(references)} untraced and "
                f"{len(rounds)} traced rounds give bit-identical parameters "
                "and outputs"}
        elif len(digests) > 1:
            same = len(set(digests)) == 1
            results["rounds_replay"] = {
                "ok": same, "detail": f"{len(digests)} rounds give "
                "bit-identical parameters and outputs"}
    correct = bool(results) and all(r["ok"] for r in results.values()) \
        and bool(rounds)

    measured: dict = {}
    layers: dict = {}
    detail: list = []
    if rounds:
        keys = [k for k in rounds[0] if k in UNITS]
        measured = {k: statistics.median(r[k] for r in rounds) for k in keys}
        measured["setup_s"] = statistics.median(setups)
        measured["peak_rss_mb"] = peak_rss_mb
    if args.trace and rounds:
        per_round = []
        for rec in rounds:
            layer, info = tracing.round_metrics(tracer.spans, rec["root"])
            per_round.append(layer)
            detail.append(info)
        cost = tracing.span_cost()
        for info in detail:
            info["span_cost_us"] = cost * 1e6
            info["computed_overhead_s"] = cost * info["spans"]
        layers = tracing.median_metrics(per_round)

        def untraced(key):
            return statistics.median(r.get(key, 0.0) for r in references) \
                if references else 0.0

        layers["train.adapt_rows_per_s"] = untraced("adapt_rows_per_s")
        layers["train.baseline_rows_per_s"] = untraced("baseline_rows_per_s")
        layers["metrics.attention_s"] = untraced("attention_s")
        layers["model.params"] = sizes.get("params", 0)
        layers["model.param_tensors"] = sizes.get("param_tensors", 0)
        layers["trace.overhead_s"] = (measured["protocol_s"]
                                      - untraced("protocol_s"))
        layers["trace.computed_overhead_s"] = statistics.median(
            info["computed_overhead_s"] for info in detail)
        span_file = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(span_file, {"workload": wl.name, "seed": args.seed,
                                 "rounds": [r["root"] for r in rounds],
                                 "time_unit": "s"})
    report = {
        "workload": wl.name,
        "trace": int(args.trace),
        "scale": "small" if args.small else "full",
        "environment": environment(args.seed),
        "inputs": wl.inputs,
        "sizes": sizes,
        "rounds": len(rounds),
        "setups": len(setups),
        "phase_s": [r["times"] for r in rounds],
        "phase_cpu_s": [r["cpu"] for r in rounds],
        "measured": {k: {"value": v, "unit": UNITS[k]}
                     for k, v in measured.items()},
        "checks": results,
        "errors": errors,
    }
    if args.trace:
        report["untraced_rounds"] = [{k: v for k, v in r.items()
                                      if k in UNITS or k == "times"}
                                     for r in references]
        report["traced_rounds"] = detail
        report["span_file"] = str(span_file.relative_to(ROOT)) if rounds else None
        metrics = {k: {"value": v, "unit": per_layer_units(k)}
                   for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": measured[k], "unit": UNITS[k]}
                   for k in END_TO_END if k in measured}
    print(json.dumps({"report": report}))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced input sizes, for the self-test")
    args = p.parse_args(argv)
    if not (SRC / "taskmix" / "__init__.py").is_file():
        print(f"error: no taskmix sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import taskmix
    if Path(taskmix.__file__).resolve().parent != SRC / "taskmix":
        print(f"error: imported taskmix from {taskmix.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Quick self-test of the benchmark at reduced input sizes.

    python3 perfbench/selftest.py

Runs every workload with ``--small`` untraced and traced, and checks that:
every metric named in BENCHMARK.json is printed with its unit; every
workload reports the phase metrics of the phases it runs; every output
check ran and passed; no operation failed; the traced steps' phase self
times add up to the step wall time within a few percent; the span file is
well formed; and a directory holding only BENCHMARK.json and the benchmark
makes run.py exit non-zero without a result. Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CHECKS = {
    "hc124-protocol": {"auc_matches_pairwise", "test_auc_above_null",
                       "meta_loss_matches_sum", "meta_lowers_val_loss",
                       "batches_masked", "adapt_only_helps",
                       "attention_diag_zero", "checkpoint_roundtrip"},
    "hc500-meta": {"auc_matches_pairwise", "meta_loss_matches_sum",
                   "meta_lowers_val_loss", "batches_masked",
                   "checkpoint_roundtrip"},
    "latent3-transfer": {"auc_matches_pairwise", "meta_loss_matches_sum",
                         "meta_lowers_train_loss", "batches_masked",
                         "attention_diag_zero", "planted_dependency",
                         "gradient_fd", "checkpoint_roundtrip"},
}
PHASE_METRICS = {
    "hc124-protocol": {"adapt_rows_per_s", "attention_s"},
    "hc500-meta": set(),
    "latent3-transfer": {"baseline_rows_per_s", "attention_s"},
}
STEP_COVERAGE_TOL = 0.05


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(cwd: Path, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_metrics(where: str, printed: dict, declared: list) -> None:
    for m in declared:
        got = printed.get(m["name"])
        if got is None:
            fail(f"{where}: metric {m['name']} not printed")
        if got.get("unit") != m["unit"]:
            fail(f"{where}: {m['name']} unit {got.get('unit')!r} != "
                 f"{m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)):
            fail(f"{where}: {m['name']} value is not a number")
    extra = set(printed) - {m["name"] for m in declared}
    if extra:
        fail(f"{where}: undeclared metrics {sorted(extra)}")


def check_spans(path: Path) -> int:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if "workload" not in header:
            fail(f"{path}: header lacks the workload")
        count = 0
        for line in fh:
            span = json.loads(line)
            if not (-1 <= span["parent"] < span["id"]
                    and span["start"] <= span["end"]):
                fail(f"{path}: malformed span {span}")
            count += 1
    return count


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if not set(names) <= set(CHECKS):
        fail(f"workloads {names} not all in the self-test {sorted(CHECKS)}")
    # every workload run.py knows
    for name in CHECKS:
        for trace in (0, 1):
            where = f"{name} trace={trace}"
            rc, lines, err = run(ROOT, "--workload", name, "--seed", "0",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--small")
            if rc != 0 or len(lines) < 2:
                fail(f"{where}: rc={rc}\n{err[-2000:]}")
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                fail(f"{where}: correct={result['correct']} "
                     f"attempted={result['attempted']} "
                     f"failed={result['failed']}\n{report['checks']}")
            expected = CHECKS[name] | {"trace_preserves_outputs"} \
                if trace else CHECKS[name]
            missing = expected - set(report["checks"])
            if missing:
                fail(f"{where}: checks did not run: {sorted(missing)}")
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            check_metrics(where, result["metrics"], declared)
            absent = PHASE_METRICS[name] - set(report["measured"])
            if absent:
                fail(f"{where}: phase metrics missing: {sorted(absent)}")
            for key in ("nproc", "cpu_model", "blas", "blas_version",
                        "blas_threads", "numpy", "python", "seed"):
                if key not in report["environment"]:
                    fail(f"{where}: environment lacks {key}")
            if trace:
                for info in report["traced_rounds"]:
                    cov = info["step_coverage"]
                    if cov is None or abs(1.0 - cov) > STEP_COVERAGE_TOL:
                        fail(f"{where}: step phases cover {cov} of the step "
                             f"wall time")
                spans = check_spans(ROOT / report["span_file"])
                print(f"ok  {where}: step coverage "
                      f"{[round(i['step_coverage'], 4) for i in report['traced_rounds']]}, "
                      f"{spans} spans")
            else:
                print(f"ok  {where}: {len(report['checks'])} checks, "
                      f"{report['rounds']} rounds")
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        rc, lines, _ = run(bare, "--workload", names[0], "--seed", "0",
                           "--seconds", "1", "--trace", "0")
        if rc == 0 or any(line.startswith('{"correct"') for line in lines):
            fail("run.py without the program's sources did not fail")
        print(f"ok  without sources: rc={rc}, no result")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point for spectralmae's pretrain and fine-tune throughput.

    python3 perfbench/run.py --workload pretrain-tiny --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ./src. Each
run starts separate workload processes (child.py) with BLAS pinned to
one thread, prints a human-readable report, writes the full result to
.bench_out/, and prints one JSON object as its last line: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from summary import step_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in the measured process and in this many set-up-only processes
# before it and after it, so that the reported median spans the whole run.
SETUP_RUNS_EACH_SIDE = 4
BLAS_THREADS = "1"

# name -> (unit, better) of every end-to-end metric the report prints
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_images_per_s": ("1/s", "higher"),
    "train_step_ms_p50": ("ms", "lower"),
    "train_step_ms_p75": ("ms", "lower"),
    "train_step_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "eval_images_per_s": ("1/s", "higher"),
    "final_loss": ("loss", "lower"),
    "val_accuracy": ("ratio", "higher"),
    "val_macro_map": ("ratio", "higher"),
    "val_mean_iou": ("ratio", "higher"),
    "val_f1": ("ratio", "higher"),
    "ops_failed_ratio": ("ratio", "lower"),
}
# The ones in BENCHMARK.json and the result line: steady from run to run on a
# host whose CPU speed shifts (see README.md, "Run-to-run spread").
GATED = ("setup_s", "train_step_ms_p75", "peak_rss_mb")
QUALITY = {"val_accuracy": ("classify", "accuracy"), "val_macro_map": ("multilabel", "macro_map"),
           "val_mean_iou": ("segment", "mean_iou"), "val_f1": ("change", "f1")}

# Per-layer metrics in the --trace 1 result line: the ones every workload exercises.
PER_LAYER = (
    [("tensor.graph_nodes_per_image", "count/image"), ("tensor.backward_self_ms", "ms/step")]
    + [(f"tensor.{op}.{kind}", unit)
       for op in ("matmul", "softmax_lastaxis", "gelu", "layer_norm", "gather_rows",
                  "add_rowvec", "reshape", "transpose", "scale", "other")
       for kind, unit in (("fwd_ms", "ms/step"), ("bwd_ms", "ms/step"),
                          ("calls_per_image", "count/image"))]
    + [("tokenizer.patchify_ms", "ms/step"), ("model.encode_ms", "ms/step"),
       ("model.encode_self_ms", "ms/step"), ("model.encoder_tokens_per_image", "count/image"),
       ("optim.step_ms", "ms/step"), ("optim.bytes_per_step", "B/step"),
       ("checkpoint.save_ms", "ms/call"), ("checkpoint.bytes_written", "B/call"),
       ("raster.read_ms", "ms"), ("raster.bytes_read", "B"), ("raster.normalize_ms", "ms"),
       ("manifest.load_ms", "ms"), ("synthetic.generate_ms", "ms"), ("cli.self_ms", "ms/call"),
       ("trace.coverage", "ratio"), ("trace.overhead_s", "s")]
)


class BenchError(Exception):
    pass


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts workload processes one at a time, within the run's deadline."""

    def __init__(self, workload: str, seed: int, seconds: float, work: str):
        self.workload, self.seed, self.work = workload, seed, work
        # room for the set-up processes, rounding to whole reps and the output
        # checks: 170 s for the 30 s runs of BENCHMARK.json
        self.deadline = time.monotonic() + 3 * seconds + 80
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                        MKL_NUM_THREADS=BLAS_THREADS)

    def spawn(self, mode: str, **extra) -> dict:
        self.count += 1
        tag = f"{self.count:02d}-{mode}"
        child_work = os.path.join(self.work, tag)
        os.makedirs(child_work)
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode,
                "src": os.path.join(ROOT, "src"), "work": child_work,
                "fixture": os.path.join(self.work, "fixture.spck"),
                "result": os.path.join(self.work, f"{tag}.json"), **extra}
        spec_path = os.path.join(self.work, f"{tag}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process passed the run deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        with open(spec["result"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        shutil.rmtree(child_work)
        result["spawned"] = spawned
        return result


def setup_seconds(result: dict) -> float:
    if not result["loops"]:
        raise BenchError(f"no optimizer was built: {result['failed_commands']}")
    return (result["loops"][0]["start"] - result["spawned"]) / 1e9


def tally(results: list[dict]) -> tuple[int, int, list[dict]]:
    """(attempted, failed, checks): optimizer steps, eval samples and output checks."""
    attempted = failed = 0
    checks = []
    for res in results:
        attempted += sum(len(loop["steps"]) for loop in res["loops"])
        attempted += sum(ev["samples"] for rep in res["reps"] for ev in rep["evals"])
        attempted += len(res["failed_commands"])
        failed += len(res["failed_commands"])
        checks += res["checks"]
    attempted += len(checks)
    failed += sum(not c["ok"] for c in checks)
    return attempted, failed, checks


def end_to_end(setups: list[float], main: dict) -> tuple[dict, dict]:
    """All end-to-end metrics that apply to this workload, plus their details."""
    steps = main["steps"]
    if not steps:
        raise BenchError(f"no optimizer step was measured: {main['failed_commands']}")
    intervals = [(end - start) / 1e6 for start, end, _, _ in steps]
    stats = step_stats(intervals, [samples for _, _, samples, _ in steps])
    metrics = {"setup_s": statistics.median(setups),
               "train_images_per_s": stats["images_per_s"],
               "train_step_ms_p50": stats["p50_ms"],
               "train_step_ms_p75": stats["p75_ms"],
               "train_step_ms_tail": stats["tail"]["value"],
               "peak_rss_mb": main["peak_rss_mb"]}
    evals = [ev for rep in main["reps"] for ev in rep["evals"]]
    if evals:
        metrics["eval_images_per_s"] = (sum(ev["samples"] for ev in evals)
                                        / (sum(ev["ns"] for ev in evals) / 1e9))
    quality = main["quality"]
    if "final_loss" in quality:
        metrics["final_loss"] = quality["final_loss"]
    for name, (task, key) in QUALITY.items():
        if task in quality:
            metrics[name] = quality[task][key]
    details = {"setup_samples_s": setups, "steps": stats["steps"],
               "samples": stats["samples"], "tail": stats["tail"], "reps": len(main["reps"]),
               "step_ms": intervals}
    return metrics, details


def machine(child: dict) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "python": child["python"], "numpy": child["numpy"],
            "blas": child["blas"], "threads_in_workload": child["threads"],
            "blas_threads_env": BLAS_THREADS, "commit": git_commit()}


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"{wl.name}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    try:
        runner = Runner(wl.name, args.seed, args.seconds, work)
        if wl.kind == "downstream":
            runner.spawn("prepare")
        doc = {"workload": wl.name, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace}
        if not args.trace:
            before = [setup_seconds(runner.spawn("setup")) for _ in range(SETUP_RUNS_EACH_SIDE)]
            main = runner.spawn("measure", seconds=args.seconds)
            after = [setup_seconds(runner.spawn("setup")) for _ in range(SETUP_RUNS_EACH_SIDE)]
            setups = before + [setup_seconds(main)] + after
            attempted, failed, checks = tally([main])
            metrics, details = end_to_end(setups, main)
            metrics["ops_failed_ratio"] = failed / attempted
            doc.update(machine=machine(main), metrics=metrics, details=details,
                       outputs=main.get("outputs", {}))
            line = {name: metrics[name] for name in GATED}
            units = {name: END_TO_END[name][0] for name in GATED}
        else:
            traced = runner.spawn("measure", seconds=args.seconds, trace=True,
                                  spans_out=os.path.join(ROOT, ".bench_out",
                                                         f"spans-{wl.name}.npz"))
            attempted, failed, checks = tally([traced])
            layers = traced["layers"]
            doc.update(machine=machine(traced), layers=layers,
                       details={"reps": len(traced["reps"])})
            line = {name: layers[name] for name, _ in PER_LAYER}
            units = dict(PER_LAYER)
        doc.update(attempted=attempted, failed=failed, checks=checks)
        doc["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                         "metrics": {name: {"value": value, "unit": units[name]}
                                     for name, value in line.items()}}
        return doc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(doc: dict) -> None:
    m = doc["machine"]
    print(f"workload {doc['workload']}  seed {doc['seed']}  seconds {doc['seconds']}  "
          f"trace {doc['trace']}")
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']['name']} {m['blas']['version']} "
          f"threads_in_workload={m['threads_in_workload']} commit={m['commit'][:12]}")
    if "metrics" in doc:
        tail = doc["details"]["tail"]
        for name, value in doc["metrics"].items():
            unit, better = END_TO_END[name]
            note = ""
            if name == "train_step_ms_tail":
                note = (f"p{tail['percentile']:g}, {tail['beyond']} of n={tail['n']} beyond"
                        + ("" if tail["resolved"] else ", unresolved: fewer than 10 beyond p75"))
            elif name == "setup_s":
                note = f"median of {len(doc['details']['setup_samples_s'])} processes"
            print(f"  {name:<22} {value:>14.6g} {unit:<6} {better:<7} {note}")
    else:
        for name, value in sorted(doc["layers"].items()):
            print(f"  {name:<36} {value:>14.6g}")
    for c in doc["checks"]:
        if not c["ok"]:
            print(f"  FAILED check {c['name']}: {c['detail']}")
    print(f"  checks: {sum(c['ok'] for c in doc['checks'])}/{len(doc['checks'])} passed; "
          f"operations failed {doc['failed']} of {doc['attempted']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spectralmae", "__init__.py")):
        print(f"error: no spectralmae sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        doc = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print_report(doc)
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: spectralmae's own CLI in a closed training loop.

run.py starts this file with BLAS pinned to one thread and spectralmae
on PYTHONPATH, passing a JSON spec path. Modes:

- prepare: write the fixture checkpoint downstream fine-tuning reads.
- setup:   synthesize inputs and start the first command, then stop when
           its optimizer is built (the end of set-up).
- measure: set up, then repeat the workload's commands until `seconds`
           have passed, and check the outputs.

Untraced, the process hooks two points only: a timestamp when an
optimizer is built (a training loop starts) and one when an optimizer
step completes. With `trace` on, spans.py also wraps every layer during
set-up and every even rep. Odd reps run untraced, so the tracing
overhead is measured under the same host conditions, and every rep must
produce the same bytes as rep 0. The result is written as JSON to the
spec's `result` path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time


class SetupDone(Exception):
    """Raised from the optimizer hook to end a setup-only process."""


class Hooks:
    """Loop-start and step-completion timestamps, one record per training loop."""

    def __init__(self, stop_at_loop_start: bool):
        self.stop = stop_at_loop_start
        self.loops: list[dict] = []

    def install(self, optim) -> None:
        init, step = optim.AdamW.__init__, optim.AdamW.step
        self._originals = (optim, init, step)
        hooks = self

        def hooked_init(opt, params, *args, **kwargs):
            init(opt, params, *args, **kwargs)
            start = time.monotonic_ns()
            hooks.loops.append({"start": start, "steps": [],
                                "param_bytes": sum(p.data.nbytes for p in params)})
            if hooks.stop:
                raise SetupDone

        def hooked_step(opt, *args, **kwargs):
            step(opt, *args, **kwargs)
            hooks.loops[-1]["steps"].append(time.monotonic_ns())

        optim.AdamW.__init__ = hooked_init
        optim.AdamW.step = hooked_step

    def uninstall(self) -> None:
        optim, init, step = self._originals
        optim.AdamW.__init__ = init
        optim.AdamW.step = step


class Tracing:
    """Switches span recording on or off between reps, keeping the hooks outermost

    so that an optimizer step's span ends before the step's timestamp.
    """

    def __init__(self, hooks: Hooks, optim):
        import spans

        self.spans, self.hooks, self.optim = spans, hooks, optim
        self.recorder = spans.Recorder()
        self.patches = None

    def set(self, on: bool) -> None:
        if on == (self.patches is not None):
            return
        self.hooks.uninstall()
        if on:
            self.patches = self.spans.install(self.recorder)
        else:
            self.spans.uninstall(self.patches)
            self.patches = None
        self.hooks.install(self.optim)


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_train_log(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def rep_outputs(commands) -> dict:
    """What a rep produced that must repeat exactly: digests and reported values."""
    out = {}
    for kind, task, _, out_dir in commands:
        if kind == "pretrain":
            out["train_log"] = sha256(os.path.join(out_dir, "train_log.jsonl"))
            out["checkpoint_final"] = sha256(os.path.join(out_dir, "checkpoint_final.spck"))
        else:
            report = read_json(os.path.join(out_dir, "metrics.json"))
            out[f"{kind}.{task}.values"] = json.dumps(report["values"], sort_keys=True)
            if kind == "finetune":
                out[f"finetune.{task}.checkpoint"] = sha256(
                    os.path.join(out_dir, "checkpoint_finetuned.spck"))
    return out


def roundtrip_identical(path: str, copy_path: str) -> bool:
    """save(load(file)) gives the file's exact bytes back."""
    from spectralmae.checkpoint import load_checkpoint, save_checkpoint

    save_checkpoint(load_checkpoint(path), copy_path)
    with open(path, "rb") as a, open(copy_path, "rb") as b:
        same = a.read() == b.read()
    os.remove(copy_path)
    return same


def output_checks(commands) -> tuple[list[dict], dict]:
    """Correctness checks on one rep's outputs, plus the quality it reports."""
    checks, quality = [], {}

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    for kind, task, _, out_dir in commands:
        if kind == "pretrain":
            log = read_train_log(os.path.join(out_dir, "train_log.jsonl"))
            losses = [rec[k] for rec in log for k in ("token", "spectral", "total")]
            check("losses_finite", all(math.isfinite(v) for v in losses))
            first, last = log[0]["total"], log[-1]["total"]
            check("last_epoch_loss_below_first", last < first, f"{first!r} -> {last!r}")
            quality["final_loss"] = last
            final = os.path.join(out_dir, "checkpoint_final.spck")
            check("checkpoint_final_roundtrip", roundtrip_identical(final, final + ".rt"))
        elif kind == "finetune":
            report = read_json(os.path.join(out_dir, "metrics.json"))
            vals = report["values"]
            check(f"{task}_metrics_finite", all(math.isfinite(v) for v in vals.values()),
                  json.dumps(vals))
            tuned = os.path.join(out_dir, "checkpoint_finetuned.spck")
            check(f"{task}_checkpoint_roundtrip", roundtrip_identical(tuned, tuned + ".rt"))
            quality[task] = vals
        else:
            ft_dir = out_dir.replace(f"ev-{task}", f"ft-{task}")
            ft = read_json(os.path.join(ft_dir, "metrics.json"))["values"]
            ev = read_json(os.path.join(out_dir, "metrics.json"))["values"]
            check(f"{task}_eval_reproduces_finetune",
                  json.dumps(ft, sort_keys=True) == json.dumps(ev, sort_keys=True))
    return checks, quality


def train_used(wl, commands) -> dict[str, int]:
    if wl.kind == "pretrain":
        return {"pretrain": wl.n_images}
    return {task: read_json(os.path.join(out_dir, "metrics.json"))["counts"]["train_used"]
            for kind, task, _, out_dir in commands if kind == "finetune"}


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def proc_threads() -> int:
    with open("/proc/self/status", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def run(spec: dict) -> dict:
    import numpy as np

    import spectralmae
    from spectralmae import cli, optim

    src_pkg = os.path.join(spec["src"], "spectralmae")
    if os.path.dirname(os.path.abspath(spectralmae.__file__)) != os.path.abspath(src_pkg):
        raise SystemExit(f"spectralmae imported from {spectralmae.__file__}, not {src_pkg}")
    from summary import measured_steps
    from workloads import (WORKLOADS, loop_plan, rep_commands, synthesize,
                           write_configs, write_fixture_checkpoint)

    wl = WORKLOADS[spec["workload"]]
    seed, work, mode = spec["seed"], spec["work"], spec["mode"]
    if mode == "prepare":
        write_fixture_checkpoint(wl, seed, spec["fixture"])
        return {}

    hooks = Hooks(stop_at_loop_start=(mode == "setup"))
    hooks.install(optim)
    tracing = Tracing(hooks, optim) if spec.get("trace") else None
    if tracing:
        tracing.set(True)  # set-up and rep 0 are traced, then every other rep

    manifests = synthesize(wl, seed, os.path.join(work, "data"))
    configs = write_configs(wl, seed, manifests, os.path.join(work, "configs"))
    result = {"failed_commands": [], "reps": [], "checks": []}
    try:
        rep0 = None
        while True:
            r = len(result["reps"])
            rep_dir = os.path.join(work, f"rep{r}")
            commands = rep_commands(wl, configs, spec.get("fixture"), rep_dir)
            traced = bool(tracing) and r % 2 == 0
            if tracing:
                tracing.set(traced)
            rep = {"start": time.monotonic_ns(), "evals": [], "loops_from": len(hooks.loops),
                   "traced": traced}
            for kind, task, argv, _ in commands:
                t0 = time.monotonic_ns()
                rc = cli.main(argv)
                t1 = time.monotonic_ns()
                if rc != 0:
                    result["failed_commands"].append({"rep": r, "argv": argv, "rc": rc})
                    break
                if kind == "eval":
                    rep["evals"].append({"task": task, "ns": t1 - t0})
            rep["end"] = time.monotonic_ns()
            result["reps"].append(rep)
            if result["failed_commands"]:
                break
            outputs = rep_outputs(commands)
            for ev in rep["evals"]:
                ev["samples"] = read_json(os.path.join(rep_dir, f"ev-{ev['task']}",
                                                       "metrics.json"))["counts"]["val"]
            rep["train_used"] = train_used(wl, commands)
            if rep0 is None:
                rep0 = (commands, outputs)
                result["outputs"] = outputs
            else:
                result["checks"].append({"name": f"rep{r}_identical_to_rep0",
                                         "ok": outputs == rep0[1],
                                         "detail": "traced" if traced else "untraced"})
                shutil.rmtree(rep_dir)
            # stop where the measured time lands nearest to `seconds`, in whole reps;
            # a traced run needs reps 1 (untraced) and 2 (traced) to compare
            elapsed = rep["end"] - hooks.loops[0]["start"] + (rep["end"] - rep["start"]) / 2
            if elapsed / 1e9 >= spec["seconds"] and (not tracing or r >= 2):
                break
    except SetupDone:
        pass
    if tracing:
        tracing.set(False)  # the output checks below are not part of the trace
    result["loops"] = hooks.loops
    if mode == "setup":
        return result

    checks, quality = output_checks(rep0[0]) if rep0 else ([], {})
    result["checks"] += checks
    result["quality"] = quality
    trained = [task for kind, task, _, _ in rep_commands(wl, configs, None, "")
               if kind in ("pretrain", "finetune")]
    mismatched = []
    for r, rep in enumerate(result["reps"]):
        loops = hooks.loops[rep["loops_from"]:rep["loops_from"] + len(trained)]
        for task, loop in zip(trained, loops):
            steps, samples = loop_plan(wl, task, rep.get("train_used", {}).get(task, 0))
            loop.update(rep=r, task=task, samples_per_step=samples)
            if len(loop["steps"]) != steps:
                mismatched.append(f"rep {r} {task}: {len(loop['steps'])} steps, plan {steps}")
    result["checks"].append({"name": "step_counts_match_plan", "ok": not mismatched,
                             "detail": "; ".join(mismatched)})
    result["steps"] = measured_steps(hooks.loops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["threads"] = proc_threads()
    result["numpy"] = np.__version__
    result["blas"] = blas_info(np)
    result["python"] = sys.version.split()[0]
    if tracing:
        traced_loops = [loop for loop in hooks.loops
                        if "rep" in loop and result["reps"][loop["rep"]]["traced"]]
        result["layers"] = tracing.spans.layer_report(
            tracing.recorder, measured_steps(traced_loops),
            setup_end=hooks.loops[0]["start"],
            total_steps=sum(len(loop["steps"]) for loop in traced_loops))
        walls = {True: [], False: []}
        for rep in result["reps"][1:]:
            walls[rep["traced"]].append((rep["end"] - rep["start"]) / 1e9)
        with_trace, without = (sum(walls[k]) / len(walls[k]) for k in (True, False))
        result["layers"]["trace.overhead_s"] = with_trace - without
        result["layers"]["trace.overhead_pct"] = 100.0 * (with_trace - without) / without
        tracing.recorder.save(spec["spans_out"])
    return result


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

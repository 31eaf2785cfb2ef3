"""Span recording for the traced run, and the per-layer arithmetic on spans.

The traced run wraps the public functions of each spectralmae module
from outside the package: `install` swaps every wrapped callable for a
timing wrapper in the defining module, in every spectralmae module that
imported it by name, and on the owning class for methods. A span is
(name, parent, start, end, value); `value` carries a count the layer
reports, such as bytes read or tokens encoded. Spans are kept in flat
arrays in memory and summarised when the run ends.

Tensor ops get two span names: `tensor.<op>.fwd` around the call and
`tensor.<op>.bwd` around the backward closure the op leaves on its
output tensor. An op called from inside another op (as `mse` calls
`sub`, `mul` and `mean_all`) records no span of its own; its closure is
charged to the outer op's backward, so composite ops report their whole
cost. Wrappers only read program state, so a traced run computes the
same bytes as an untraced one.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

# Tensor ops reported by name; every other public op is folded into "other".
NAMED_OPS = ("matmul", "softmax_lastaxis", "gelu", "layer_norm", "gather_rows",
             "add_rowvec", "reshape", "transpose", "scale", "mse")

# (module, attribute path, span name, how the span's value is taken)
LAYERS = (
    ("tokenizer", "patchify", "tokenizer.patchify", None),
    ("tokenizer", "build_mask", "tokenizer.build_mask", None),
    ("tokenizer", "make_targets", "tokenizer.make_targets", None),
    ("model", "SpectralCubeAutoencoder.encode", "model.encode", "encode_tokens"),
    ("model", "SpectralCubeAutoencoder.decode", "model.decode", "decode_tokens"),
    ("model", "SpectralCubeAutoencoder.forward_full", "model.forward_full", None),
    ("objective", "total_loss", "objective.total_loss", None),
    ("optim", "AdamW.step", "optim.step", None),
    ("training", "pretrain_stage", "training.loop", None),
    ("finetune", "finetune_classify", "finetune.loop", None),
    ("finetune", "finetune_multilabel", "finetune.loop", None),
    ("finetune", "segment", "finetune.loop", None),
    ("finetune", "change_detect", "finetune.loop", None),
    ("finetune", "eval_classify", "finetune.eval", "val_len"),
    ("finetune", "eval_multilabel", "finetune.eval", "val_len"),
    ("finetune", "eval_segment", "finetune.eval", "val_len"),
    ("finetune", "eval_change", "finetune.eval", "val_len"),
    ("checkpoint", "save_checkpoint", "checkpoint.save", "size_after"),
    ("checkpoint", "load_checkpoint", "checkpoint.load", "size_before"),
    ("checkpoint", "snapshot_model", "checkpoint.snapshot", None),
    ("checkpoint", "restore_model", "checkpoint.restore", None),
    ("checkpoint", "restore_into", "checkpoint.restore", None),
    ("heads", "ClassifierHead.forward", "heads.forward", None),
    ("heads", "SegmentationHead.forward", "heads.forward", None),
    ("heads", "ChangeHead.forward", "heads.forward", None),
    ("heads", "cross_entropy", "heads.loss", None),
    ("heads", "nll_from_log_probs", "heads.loss", None),
    ("heads", "multilabel_soft_margin", "heads.loss", None),
    ("metrics", "*", "metrics", None),
    ("raster", "read_raster", "raster.read", "size_before"),
    ("raster", "normalize_bands", "raster.normalize", None),
    ("manifest", "load_manifest", "manifest.load", None),
    ("synthetic", "generate_synthetic", "synthetic.generate", None),
    ("cli", "main", "cli.main", None),
)

BACKWARD = "tensor.backward"
GRAPH_WALK = "bench.graph_walk"  # benchmark overhead, never charged to a layer


class Recorder:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self, clock=time.monotonic_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack = [-1]

    def name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, value: int = 0) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.value.append(value)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def arrays(self) -> dict:
        return {"name_id": np.array(self.name_id, np.int32),
                "parent": np.array(self.parent, np.int64),
                "start": np.array(self.start, np.int64),
                "end": np.array(self.end, np.int64),
                "value": np.array(self.value, np.int64)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
    return dur - child_sum


def inside(start: np.ndarray, end: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of spans lying wholly within one of the sorted, disjoint [lo, hi] windows."""
    j = np.searchsorted(lo, start, side="right") - 1
    ok = j >= 0
    jj = np.where(ok, j, 0)
    return ok & (start >= lo[jj]) & (end <= hi[jj])


class _TracedClosure:
    __slots__ = ("inner", "nid", "rec")

    def __init__(self, inner, nid, rec):
        self.inner, self.nid, self.rec = inner, nid, rec

    def __call__(self, g):
        idx = self.rec.open(self.nid)
        try:
            self.inner(g)
        finally:
            self.rec.close(idx)


def _count_graph_nodes(root) -> int:
    """Op nodes backward() will visit: the same traversal, reading state only."""
    seen = {id(root)}
    stack = [root]
    ops = 0
    while stack:
        node = stack.pop()
        if node._backward is not None:
            ops += 1
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return ops


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _value_of(kind, args) -> int:
    if kind == "encode_tokens":
        return int(args[2].n_visible)
    if kind == "decode_tokens":
        return int(args[3].n_tokens)
    if kind == "val_len":
        return len(args[2])
    if kind in ("size_before", "size_after"):
        return _file_size(args[1] if kind == "size_after" else args[0])
    return 0


def _timed(rec: Recorder, nid: int, fn, kind):
    if kind is None:
        def wrapper(*args, **kwargs):
            idx = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
    else:
        def wrapper(*args, **kwargs):
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            rec.value[idx] = _value_of(kind, args)
            return result
    wrapper.__wrapped__ = fn
    return wrapper


class _OpState:
    __slots__ = ("bwd",)

    def __init__(self):
        self.bwd = None  # backward span id of the op currently running, if any


def _op_wrapper(rec: Recorder, state: _OpState, fn, fwd: int, bwd: int):
    def charge(out, nid):
        closure = getattr(out, "_backward", None)
        if closure is not None and not isinstance(closure, _TracedClosure):
            out._backward = _TracedClosure(closure, nid, rec)

    def wrapper(*args, **kwargs):
        if state.bwd is not None:
            out = fn(*args, **kwargs)
            charge(out, state.bwd)
            return out
        idx = rec.open(fwd)
        state.bwd = bwd
        try:
            out = fn(*args, **kwargs)
        finally:
            state.bwd = None
            rec.close(idx)
        charge(out, bwd)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def public_functions(mod) -> list[str]:
    """Names of the functions a module defines and does not mark private."""
    return [name for name, v in vars(mod).items()
            if callable(v) and not name.startswith("_") and not isinstance(v, type)
            and getattr(v, "__module__", None) == mod.__name__]


def _replace_everywhere(original, replacement, patches: list) -> None:
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("spectralmae") or mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                patches.append((mod, attr, original))
                setattr(mod, attr, replacement)


def install(rec: Recorder) -> list:
    """Wrap every layer and tensor op; returns the patches for `uninstall`."""
    import importlib

    patches: list = []
    tensor = importlib.import_module("spectralmae.tensor")
    state = _OpState()
    for op in public_functions(tensor):
        label = op if op in NAMED_OPS else "other"
        fn = getattr(tensor, op)
        _replace_everywhere(fn, _op_wrapper(rec, state, fn, rec.name(f"tensor.{label}.fwd"),
                                            rec.name(f"tensor.{label}.bwd")), patches)

    backward = tensor.Tensor.backward
    walk_id, bw_id = rec.name(GRAPH_WALK), rec.name(BACKWARD)

    def traced_backward(self):
        walk = rec.open(walk_id)
        try:
            nodes = _count_graph_nodes(self)
        finally:
            rec.close(walk)
        idx = rec.open(bw_id, nodes)
        try:
            backward(self)
        finally:
            rec.close(idx)

    patches.append((tensor.Tensor, "backward", backward))
    tensor.Tensor.backward = traced_backward

    for modname, path, span, kind in LAYERS:
        mod = importlib.import_module(f"spectralmae.{modname}")
        if path == "*":
            targets = [(mod, n) for n in public_functions(mod)]
        elif "." in path:
            cls, meth = path.split(".")
            targets = [(getattr(mod, cls), meth)]
        else:
            targets = [(mod, path)]
        for owner, attr in targets:
            fn = vars(owner)[attr]
            wrapped = _timed(rec, rec.name(span), fn, kind)
            if isinstance(owner, type):
                patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                _replace_everywhere(fn, wrapped, patches)
    return patches


def layer_report(rec: Recorder, steps: list, setup_end: int, total_steps: int) -> dict:
    """Per-layer metrics from the spans of one traced process.

    `steps` are the measured (start, end, samples, param_bytes) step
    windows. Unless a name says otherwise, a `_ms` metric is self time:
    per measured step for layers of the training step, in total before
    `setup_end` for set-up layers, per call for checkpoints and the CLI,
    and per validation sample for evaluation.
    """
    a = rec.arrays()
    nid, start, end, value = a["name_id"], a["start"], a["end"], a["value"]
    self_ns = self_times(a["parent"], start, end)
    dur = (end - start).astype(np.float64)
    lo = np.array([s[0] for s in steps], np.int64)
    hi = np.array([s[1] for s in steps], np.int64)
    in_step = inside(start, end, lo, hi)
    in_setup = end <= setup_end
    n_steps = len(steps)
    n_images = sum(s[2] for s in steps)
    ids = {name: i for i, name in enumerate(rec.names)}

    def sel(name, where=None):
        m = nid == ids.get(name, -1)
        return m if where is None else m & where

    def total_ms(name, where=None, of=self_ns):
        return float(of[sel(name, where)].sum()) * 1e-6

    def per_call(name, of):
        m = sel(name)
        return float(of[m].sum()) / max(1, int(m.sum()))

    out = {}
    for op in NAMED_OPS + ("other",):
        out[f"tensor.{op}.fwd_ms"] = total_ms(f"tensor.{op}.fwd", in_step) / n_steps
        out[f"tensor.{op}.bwd_ms"] = total_ms(f"tensor.{op}.bwd", in_step) / n_steps
        out[f"tensor.{op}.calls_per_image"] = int(sel(f"tensor.{op}.fwd", in_step).sum()) / n_images
    out["tensor.backward_self_ms"] = total_ms(BACKWARD, in_step) / n_steps
    out["tensor.graph_nodes_per_image"] = int(value[sel(BACKWARD, in_step)].sum()) / n_images
    for name in ("tokenizer.patchify", "tokenizer.build_mask", "tokenizer.make_targets",
                 "objective.total_loss", "heads.forward", "heads.loss", "optim.step"):
        out[f"{name}_ms"] = total_ms(name, in_step) / n_steps
    for name in ("model.encode", "model.decode", "model.forward_full"):
        out[f"{name}_ms"] = total_ms(name, in_step, of=dur) / n_steps
        out[f"{name}_self_ms"] = total_ms(name, in_step) / n_steps
    out["model.encoder_tokens_per_image"] = int(value[sel("model.encode", in_step)].sum()) / n_images
    out["model.decoder_tokens_per_image"] = int(value[sel("model.decode", in_step)].sum()) / n_images
    out["optim.bytes_per_step"] = 8 * sum(s[3] for s in steps) / n_steps
    out["training.loop_self_ms"] = total_ms("training.loop") / total_steps
    out["finetune.loop_self_ms"] = total_ms("finetune.loop") / total_steps
    out["checkpoint.save_ms"] = per_call("checkpoint.save", dur) * 1e-6
    out["checkpoint.bytes_written"] = per_call("checkpoint.save", value)
    out["checkpoint.load_ms"] = per_call("checkpoint.load", dur) * 1e-6
    out["checkpoint.bytes_read"] = per_call("checkpoint.load", value)
    val_samples = max(1, int(value[sel("finetune.eval")].sum()))
    out["finetune.eval_ms"] = total_ms("finetune.eval", of=dur) / val_samples
    out["metrics.ms"] = total_ms("metrics") / val_samples
    for name in ("raster.read", "raster.normalize", "manifest.load", "synthetic.generate"):
        out[f"{name}_ms"] = total_ms(name, in_setup)
    out["raster.bytes_read"] = int(value[sel("raster.read", in_setup)].sum())
    out["cli.self_ms"] = per_call("cli.main", self_ns) * 1e-6
    covered = in_step & (nid != ids[GRAPH_WALK])
    out["trace.coverage"] = float(self_ns[covered].sum()) / float((hi - lo).sum())
    out["trace.spans"] = len(start)
    return out


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)

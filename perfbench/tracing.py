"""Instrumentation applied to the depthfusion package from outside.

``Patcher`` replaces public functions of the package's modules with
wrappers and puts the originals back. ``Tracer`` records one span per
wrapped call (name, start, end, parent span, owner, phase) in memory and
turns the spans into per-layer self times. Nothing under ``src/`` is
edited: every hook is a module or class attribute swapped at run time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

MODULES = ("depthfusion", "depthfusion.tensor", "depthfusion.model",
           "depthfusion.losses", "depthfusion.geometry", "depthfusion.densify",
           "depthfusion.metrics", "depthfusion.data", "depthfusion.trainer",
           "depthfusion.experiments", "depthfusion.gradcheck", "depthfusion.cli")

# tensor op -> the kind its time is reported under
TENSOR_OPS = {
    "conv2d": "conv2d", "conv1x1": "conv2d",
    "bilinear_upsample2x": "upsample2x",
    "add": "pointwise", "sub": "pointwise", "mul": "pointwise",
    "div": "pointwise", "abs_": "pointwise", "add_elementwise": "pointwise",
    "sigmoid": "pointwise", "leaky_relu": "pointwise", "clamp": "pointwise",
    "sum_all": "pointwise", "mean_all": "pointwise", "tslice": "pointwise",
    "concat_channels": "pointwise", "maxpool2x": "pointwise",
}

# (module, attribute, span name); a class attribute is written "Class.method"
SPANS = (
    ("tensor", "backward", "tensor.backward"),
    ("model", "Model.predict_depth", "model.predict"),
    ("model", "Model.fuse_input", "model.predict"),
    ("model", "Model.forward", "model.predict"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "train_step", "trainer.train_step"),
    ("trainer", "batch_to_tensors", "trainer.batch_to_tensors"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("trainer", "validate", "trainer.validate"),
    ("data", "generate_dataset", "data.generate_dataset"),
    ("data", "generate_sample", "data.generate_sample"),
    ("data", "load_sample", "data.load_sample"),
    ("data", "augment", "data.augment"),
    ("geometry", "project_points", "geometry.project_points"),
    ("metrics", "compute_metrics", "metrics.compute_metrics"),
    ("metrics", "write_reports", "metrics.write_reports"),
    ("cli", "main", "cli.eval"),
    ("densify", "densify", "densify.solve"),
    ("densify", "build_weights", "densify.build_weights"),
)

# loss functions; ops created inside them are owned by the loss term
LOSS_SPANS = (
    ("loss_total", "losses.total"),
    ("loss_ssim", "losses.ssim"),
    ("ssim", "losses.ssim"),
    ("loss_edge", "losses.edge"),
    ("loss_pixel", "losses.pixel"),
    ("berhu", "losses.pixel"),
)

MODEL_LAYERS = (("fuse",)
                + tuple(f"enc{s}.{c}" for s in range(1, 5) for c in ("conv", "down"))
                + tuple(f"dec{s}.{c}" for s in range(4, 0, -1)
                        for c in ("conv1", "conv2"))
                + ("head",))

# (span or owner name, metric): self time per operation
SELF_PER_OP = (
    [(f"tensor.{k}.{d}", f"tensor.{k}.{d}_s")
     for k in ("conv2d", "upsample2x", "pointwise") for d in ("fwd", "bwd")]
    + [("tensor.backward", "tensor.backward.self_s"),
       ("model.predict", "model.predict_s")]
    + [(f"model.{layer}.{d}", f"model.{layer}.{d}_s")
       for layer in MODEL_LAYERS for d in ("fwd", "bwd")]
    + [(n, n + "_s") for n in (
        "model.save_checkpoint", "model.load_checkpoint", "losses.ssim.fwd",
        "losses.edge.fwd", "losses.pixel.fwd", "losses.bwd", "trainer.train_step",
        "trainer.batch_to_tensors", "trainer.adam_step", "trainer.validate",
        "data.load_sample", "data.augment", "metrics.compute_metrics",
        "metrics.write_reports", "densify.build_weights", "densify.solve",
        "cli.eval")])
# spans whose inclusive time per operation is reported as <name>.total_s
TOTAL_PER_OP = ("tensor.backward", "model.predict", "trainer.train_step")
# spans whose self time per set-up is reported as <name>_s
SELF_PER_SETUP = ("data.generate_sample", "geometry.project_points")

# per-layer metric -> unit, all lower-is-better. "/op": timed-phase total
# divided by operations; "/setup": set-up total divided by set-ups;
# "calc": computed from shapes, not measured
PER_LAYER = {m: "s/op" for _, m in SELF_PER_OP}
PER_LAYER.update({f"{n}.total_s": "s/op" for n in TOTAL_PER_OP})
PER_LAYER.update({f"{n}_s": "s/setup" for n in SELF_PER_SETUP})
PER_LAYER.update({
    "tensor.ops": "count/op", "tensor.conv2d.gflop": "GFLOP-calc/op",
    "tensor.im2col.mb": "MB-calc/op", "densify.iterations": "count/op",
    "densify.iteration_ms": "ms/iter", "densify.residual": "ratio",
    "trace.op_s_p50": "s"})


def program_module(short):
    return importlib.import_module(f"depthfusion.{short}")


class Patcher:
    """Swaps functions of the package for wrappers; ``restore`` undoes it.

    A function imported by name into other modules (``from .model import
    load_checkpoint``) is replaced in every module that holds it, so callers
    inside the package reach the wrapper too.
    """

    def __init__(self):
        self.modules = [importlib.import_module(m) for m in MODULES]
        self.saved = []

    def wrap(self, module, attr, make_wrapper):
        owner = module
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(module, cls_name)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if inspect.isclass(owner):
            targets = [(owner, attr)]
        else:
            targets = [(m, k) for m in self.modules
                       for k, v in vars(m).items() if v is original]
        for target, key in targets:
            self.saved.append((target, key, original))
            setattr(target, key, wrapper)

    def restore(self):
        for target, key, original in reversed(self.saved):
            setattr(target, key, original)
        self.saved.clear()


class Tracer:
    """In-memory spans around calls into the package.

    A span is [name, start, end, parent index, owner, phase]. ``owner`` is
    the model layer whose weight a conv uses (``model.enc1.conv``) or the
    loss term an op was created under (``losses.ssim``); backward spans
    inherit the owner of the op that created them.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.loss_stack = []
        self.layer_maps = []  # per open Model.predict: id(kernel) -> layer
        self.phase = "setup"
        self.work = {}     # (phase, counter) -> total
        self.t0 = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def begin(self, name, owner=None):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, owner,
                           self.phase])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def add_work(self, counter, amount):
        key = (self.phase, counter)
        self.work[key] = self.work.get(key, 0.0) + amount

    def span_wrapper(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                idx = self.begin(name, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(idx)
            return traced
        return make

    def loss_wrapper(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                idx = self.begin(name, name)
                self.loss_stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.loss_stack.pop()
                    self.end(idx)
            return traced
        return make

    def predict_wrapper(self, fn):
        """Span around Model.predict that also maps the model's kernels to
        layer names, so convs called under it are owned by their layer."""
        def traced(model, *args, **kwargs):
            self.layer_maps.append({id(t): "model." + name[:-len(".kernel")]
                                    for name, t in model.params.items()
                                    if name.endswith(".kernel")})
            idx = self.begin("model.predict", "model.predict")
            try:
                return fn(model, *args, **kwargs)
            finally:
                self.end(idx)
                self.layer_maps.pop()
        return traced

    def op_wrapper(self, op, kind):
        counts_work = op == "conv2d"

        def make(fn):
            def traced(*args, **kwargs):
                owner = self.loss_stack[-1] if self.loss_stack else None
                bw_gflop = 0.0
                if kind == "conv2d":
                    x, kernel = args[0], args[1]
                    if self.layer_maps:
                        owner = self.layer_maps[-1].get(id(kernel), owner)
                    if counts_work:
                        gflop, cols_mb = conv_work(x, kernel, args[3:], kwargs)
                        self.add_work("conv_gflop", gflop)
                        self.add_work("im2col_mb", cols_mb)
                        bw_gflop = gflop * (kernel.requires_grad + x.requires_grad)
                idx = self.begin(f"tensor.{kind}.fwd", owner)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end(idx)
                bw = out._backward_fn
                if bw is not None and not getattr(bw, "traced", False):
                    out._backward_fn = self._traced_backward(bw, kind, owner,
                                                             bw_gflop)
                return out
            return traced
        return make

    def _traced_backward(self, bw, kind, owner, gflop):
        def traced():
            idx = self.begin(f"tensor.{kind}.bwd", owner)
            try:
                bw()
            finally:
                self.end(idx)
            if gflop:
                self.add_work("conv_gflop", gflop)
        traced.traced = True
        return traced

    def install(self, patcher: Patcher):
        patcher.wrap(program_module("model"), "Model.predict",
                     self.predict_wrapper)
        tensor = program_module("tensor")
        for op, kind in TENSOR_OPS.items():
            patcher.wrap(tensor, op, self.op_wrapper(op, kind))
        losses = program_module("losses")
        for attr, name in LOSS_SPANS:
            patcher.wrap(losses, attr, self.loss_wrapper(name))
        for module, attr, name in SPANS:
            patcher.wrap(program_module(module), attr, self.span_wrapper(name))

    # -- reading ------------------------------------------------------------

    def self_times(self):
        """Duration of each span minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summarize(self, ops, setups, densify_results):
        """Per-layer metrics except trace.op_s_p50. Layers the workload never
        calls read 0."""
        own = self.self_times()
        self_op, self_setup, total_op = {}, {}, {}
        n_ops = 0

        def add(table, key, value):
            table[key] = table.get(key, 0.0) + value

        for (name, start, end, parent, owner, phase), t in zip(self.spans, own):
            if phase == "setup":
                add(self_setup, name, t)
            if phase != "timed":
                continue
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            add(self_op, name, t)
            if parent_name != name:
                add(total_op, name, end - start)
            if name.startswith("tensor.") and name.endswith(".fwd") and not (
                    parent_name.startswith("tensor.") and parent_name.endswith(".fwd")):
                n_ops += 1
            if owner and owner.startswith("model.") and name.startswith("tensor.conv2d."):
                add(self_op, f"{owner}.{name.rsplit('.', 1)[1]}", t)
            elif owner and owner.startswith("losses."):
                if name.endswith(".bwd"):
                    add(self_op, "losses.bwd", t)
                elif owner != "losses.total":
                    add(self_op, f"{owner}.fwd", t)

        ops = max(ops, 1)
        m = {metric: self_op.get(name, 0.0) / ops for name, metric in SELF_PER_OP}
        m.update({f"{n}.total_s": total_op.get(n, 0.0) / ops for n in TOTAL_PER_OP})
        m.update({f"{n}_s": self_setup.get(n, 0.0) / setups for n in SELF_PER_SETUP})
        m["tensor.ops"] = n_ops / ops
        m["tensor.conv2d.gflop"] = self.work.get(("timed", "conv_gflop"), 0.0) / ops
        m["tensor.im2col.mb"] = self.work.get(("timed", "im2col_mb"), 0.0) / ops
        iters = sum(r.iterations for r in densify_results)
        m["densify.iterations"] = iters / ops
        m["densify.iteration_ms"] = 1000.0 * self_op.get("densify.solve", 0.0) / max(iters, 1)
        residuals = sorted(r.residual for r in densify_results)
        m["densify.residual"] = residuals[len(residuals) // 2] if residuals else 0.0
        return m

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, owner, phase in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start - self.t0, "end": end - self.t0,
                    "parent": parent, "owner": owner, "phase": phase}) + "\n")


def conv_work(x, kernel, rest, kwargs):
    """GFLOP of one conv2d forward and MB of its im2col buffer, from shapes."""
    stride = kwargs.get("stride", rest[0] if len(rest) > 0 else 1)
    padding = kwargs.get("padding", rest[1] if len(rest) > 1 else 0)
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cols = n * cin * kh * kw * ho * wo
    return 2.0 * cout * cols / 1e9, cols * x.data.itemsize / 1e6

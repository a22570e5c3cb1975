"""Outside-in tracing of volformer through its module attributes.

The tracer replaces public functions of ``volformer.tensor``, ``layers``,
``model``, ``data``, ``train``, ``localize`` and ``cli`` with timing wrappers
and puts the originals back on ``uninstall``. Every caller inside the package
reaches a primitive through ``T.<name>`` or a module global, so patching the
attribute also catches internal calls. The wrapper around a tensor primitive
also wraps the ``_backward`` closure of the tensor it returns, which gives
backward time per primitive, charged to the layer row whose forward created
the node. Nothing under ``src/`` is edited.

Spans stay in memory as tuples ``(id, kind, name, start, end, parent,
request, row)`` and are aggregated, or written out, after the run. Span kinds:
``p`` tensor primitive forward, ``b`` backward closure, ``B`` backward sweep,
``l`` layer row, ``f`` any other public function.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import defaultdict

TENSOR_GROUPS = {
    "conv3d": ("conv3d",),
    "matmul": ("matmul",),
    "pointwise": ("add", "sub", "mul", "div", "neg", "relu", "exp", "log", "sqrt"),
    "shape": ("reshape", "transpose", "concat", "narrow", "select_index"),
    "reduce": ("tensor_sum", "mean", "avg_pool_global"),
}
GROUP_OF = {name: group for group, names in TENSOR_GROUPS.items() for name in names}

# Public functions timed per call: (module, attribute path, metric). A metric
# ending in "self_ms" subtracts the time of the function's child spans.
FUNCTIONS = (
    ("train", "Adam.step", "train.Adam.step_ms"),
    ("train", "train_fold", "train.train_fold.self_ms"),
    ("train", "evaluate", "train.evaluate.ms"),
    ("model", "BrainFormer.forward_logits", "model.forward_logits.ms"),
    ("model", "forward_volume", "model.forward_volume.ms"),
    ("model", "BrainFormer.forward_trace", "model.forward_trace.ms"),
    ("model", "save_model", "model.save_model.ms"),
    ("model", "load_model", "model.load_model.ms"),
    ("data", "generate_synthetic", "data.generate_synthetic.ms"),
    ("data", "write_dataset", "data.write_dataset.ms"),
    ("data", "load_manifest", "data.load_manifest.ms"),
    ("data", "read_volume", "data.read_volume.ms"),
    ("localize", "grad_cam", "localize.grad_cam.self_ms"),
    ("localize", "trilinear_resize", "localize.trilinear_resize.ms"),
    ("cli", "main", "cli.main.self_ms"),
)

LAYER_CLASSES = ("DataNormLayer", "Conv3dLayer", "BatchNormLayer",
                 "ResidualConvBlock", "SGABlock", "DGABlock")

MIB = float(1 << 20)


def conv_col_mib(x_shape, k_shape, stride: int, pad: int, itemsize: int) -> float:
    """Bytes of the im2col patch matrix ``conv3d`` builds for these shapes."""
    batch = x_shape[0] if len(x_shape) == 5 else 1
    _, c_in, kd, kh, kw = k_shape
    vox = 1
    for extent, k in zip(x_shape[-3:], (kd, kh, kw)):
        vox *= (extent + 2 * pad - k) // stride + 1
    return batch * c_in * kd * kh * kw * vox * itemsize / MIB


def _encoder_rows(enc) -> tuple[dict, list]:
    """Map an encoder's layer objects to (``estimate_cost`` row, stage index),
    and list each stage's attention row (None for a stage without one)."""
    rows = {}
    if enc.data_norm is not None:
        rows[id(enc.data_norm)] = ("data_norm", None)
    rows[id(enc.stem)] = rows[id(enc.stem_bn)] = ("stem", None)
    attn_rows = []
    for i, blocks in enumerate(enc.stages):
        for b, block in enumerate(blocks):
            rows[id(block)] = (f"stage{i + 1}.block{b}", i)
        attn = enc.attention[i]
        name = None if attn is None else f"stage{i + 1}.attn_{enc.cfg.attention_plan[i]}"
        if attn is not None:
            rows[id(attn)] = (name, i)
        attn_rows.append(name)
    return rows, attn_rows


class Patches:
    """Replaces attributes of modules and classes; ``restore`` undoes it."""

    def __init__(self):
        self._saved: list = []

    def patch(self, owner, attr, make) -> None:
        """Set ``owner.attr`` to ``make(original)``; static methods stay static."""
        orig = owner.__dict__[attr]
        self._saved.append((owner, attr, orig))
        if isinstance(orig, staticmethod):
            setattr(owner, attr, staticmethod(make(orig.__func__)))
        else:
            setattr(owner, attr, make(orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __bool__(self) -> bool:
        return bool(self._saved)


class StepProbe:
    """The one definition of a train step that the benchmark uses: from a
    training-mode ``BrainFormer.forward_logits`` to the return of the
    ``Adam.step`` that follows it. Listeners get ``step_begin()`` and
    ``step_end()``."""

    def __init__(self, patches: Patches, vf):
        self.listeners: list = []
        self._open = False

        def make_forward(forward):
            def probed_forward(model, volumes, training, *args, **kwargs):
                if training and not self._open:
                    self._open = True
                    for listener in self.listeners:
                        listener.step_begin()
                return forward(model, volumes, training, *args, **kwargs)
            return probed_forward

        def make_step(step):
            def probed_step(*args, **kwargs):
                out = step(*args, **kwargs)
                if self._open:
                    self._open = False
                    for listener in self.listeners:
                        listener.step_end()
                return out
            return probed_step

        patches.patch(vf.model.BrainFormer, "forward_logits", make_forward)
        patches.patch(vf.train.Adam, "step", make_step)


class _Frame:
    """Layer-row context: the row new primitives are charged to."""

    __slots__ = ("row", "rows", "attn_rows", "stage")

    def __init__(self, row, rows=None, attn_rows=None):
        self.row = row
        self.rows = rows
        self.attn_rows = attn_rows
        self.stage = 0


class Tracer:
    """Patches volformer's module attributes and records spans."""

    def __init__(self, vf, probe: StepProbe | None = None):
        self.vf = vf  # namespace with the volformer modules as attributes
        self.probe = probe  # marks train steps; made on install if None
        self._own_probe = probe is None
        self.spans: list[tuple] = []
        self.request_kind: dict[int, str] = {}
        self.request_units: dict[int, int] = {}
        self.request_col_mib: dict[int, float] = defaultdict(float)
        self._patches = Patches()
        self._stack: list[int] = []
        self._frames: list[_Frame] = []
        self._next_id = 0
        self._request = 0
        self._request_ops = None
        self._counter = None
        self._next_request = 0
        self.clock = time.perf_counter

    # -- requests ----------------------------------------------------------

    def begin_request(self, kind: str) -> None:
        self.end_request()
        self._next_request += 1
        self._request = self._next_request
        self.request_kind[self._request] = kind
        self._request_ops = self.vf.tensor.count_ops()
        self._counter = self._request_ops.__enter__()

    def end_request(self) -> None:
        if self._request:
            self.request_units[self._request] = self._counter.macs
            self._request_ops.__exit__(None, None, None)
            self._request = 0
            self._request_ops = None

    def current_request_kind(self):
        return self.request_kind.get(self._request) if self._request else None

    def step_begin(self) -> None:
        if self.current_request_kind() in (None, "step"):
            self.begin_request("step")

    def step_end(self) -> None:
        if self.current_request_kind() == "step":
            self.end_request()

    # -- span bookkeeping --------------------------------------------------

    def _open(self) -> tuple[int, tuple, float]:
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, (parent, self._request), self.clock()

    def _close(self, sid, opened, kind, name, start, row) -> None:
        """Record a span. It belongs to the request open when it ends, or, if
        none is (the span ended a step), to the one open when it began."""
        end = self.clock()
        self._stack.pop()
        parent, request = opened
        self.spans.append((sid, kind, name, start, end, parent,
                           self._request or request, row))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        vf = self.vf
        patch = self._patches.patch
        if self._own_probe:
            self.probe = StepProbe(self._patches, vf)
        self.probe.listeners.append(self)
        for name in GROUP_OF:
            patch(vf.tensor, name, lambda fn, n=name: self._wrap_primitive(fn, n))
        patch(vf.tensor, "backward", self._wrap_backward)
        for cls in LAYER_CLASSES:
            patch(getattr(vf.layers, cls), "forward", self._wrap_layer)
        patch(vf.model.VolumeEncoder, "forward", self._wrap_encoder)
        patch(vf.model.VolumeEncoder, "_to_tokens", self._wrap_to_tokens)
        patch(vf.model.BrainFormer, "forward_logits", self._wrap_forward_logits)
        patch(vf.model.BrainFormer, "forward_probs", self._wrap_forward_probs)
        for module, path, _ in FUNCTIONS:
            if path == "BrainFormer.forward_logits":
                continue  # patched above, with the classifier row
            owner = getattr(vf, module)
            *holder, attr = path.split(".")
            for part in holder:
                owner = getattr(owner, part)
            patch(owner, attr, lambda fn, n=f"{module}.{path}": self._wrap_function(fn, n))

    def uninstall(self) -> None:
        self.end_request()
        self.probe.listeners.remove(self)
        self._patches.restore()

    # -- wrappers ----------------------------------------------------------

    def _wrap_primitive(self, fn, name):
        tracer = self
        span_name = "tensor." + name
        row_override = "avg_pool" if name == "avg_pool_global" else None
        is_conv = name == "conv3d"

        def wrapper(*args, **kwargs):
            frames = tracer._frames
            pushed = row_override is not None and bool(frames) and frames[-1].rows is not None
            if pushed:
                frames.append(_Frame(row_override))
            row = frames[-1].row if frames else None
            sid, opened, start = tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, opened, "p", span_name, start, row)
                if pushed:
                    frames.pop()
            if is_conv and tracer._request:
                x, k = args[0], args[1]
                stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
                pad = kwargs.get("pad", args[3] if len(args) > 3 else 0)
                tracer.request_col_mib[tracer._request] += conv_col_mib(
                    x.shape, k.shape, stride, pad, x.data.dtype.itemsize)
            closure = getattr(out, "_backward", None)
            if closure is not None and not getattr(closure, "_traced", False):
                out._backward = tracer._wrap_closure(closure, name, row)
            return out

        return wrapper

    def _wrap_closure(self, closure, name, row):
        tracer = self
        span_name = "tensor." + name + ".bwd"

        def traced_closure(g):
            sid, opened, start = tracer._open()
            try:
                closure(g)
            finally:
                tracer._close(sid, opened, "b", span_name, start, row)

        traced_closure._traced = True
        return traced_closure

    def _wrap_backward(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            sid, opened, start = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, opened, "B", "tensor.backward", start, None)

        return wrapper

    def _wrap_layer(self, fn):
        tracer = self

        def wrapper(obj, *args, **kwargs):
            frames = tracer._frames
            enc = frames[-1] if frames else None
            entry = enc.rows.get(id(obj)) if enc is not None and enc.rows else None
            if entry is None:
                return fn(obj, *args, **kwargs)
            row, stage = entry
            if stage is not None:
                enc.stage = stage
            frames.append(_Frame(row))
            sid, opened, start = tracer._open()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer._close(sid, opened, "l", "layers." + row, start, row)
                frames.pop()
                enc.row = row

        return wrapper

    def _wrap_encoder(self, fn):
        tracer = self

        def wrapper(enc, *args, **kwargs):
            rows, attn_rows = _encoder_rows(enc)
            tracer._frames.append(_Frame(None, rows, attn_rows))
            sid, opened, start = tracer._open()
            try:
                return fn(enc, *args, **kwargs)
            finally:
                tracer._close(sid, opened, "f", "model.VolumeEncoder.forward", start, None)
                tracer._frames.pop()

        return wrapper

    def _wrap_to_tokens(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            enc = tracer._frames[-1] if tracer._frames else None
            row = enc.attn_rows[enc.stage] if enc is not None and enc.attn_rows else None
            if row is None:
                return fn(*args, **kwargs)
            tracer._frames.append(_Frame(row))
            sid, opened, start = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, opened, "l", "layers." + row, start, row)
                tracer._frames.pop()

        return wrapper

    def _wrap_forward_logits(self, fn):
        tracer = self

        def wrapper(model, volumes, training, *args, **kwargs):
            tracer._frames.append(_Frame("classifier"))
            sid, opened, start = tracer._open()
            try:
                return fn(model, volumes, training, *args, **kwargs)
            finally:
                tracer._close(sid, opened, "f", "model.BrainFormer.forward_logits",
                              start, None)
                tracer._frames.pop()

        return wrapper

    def _wrap_forward_probs(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            own = tracer._request == 0
            if own:
                tracer.begin_request("eval")
            try:
                return fn(*args, **kwargs)
            finally:
                if own:
                    tracer.end_request()

        return wrapper

    def _wrap_function(self, fn, name):
        tracer = self
        is_cli = name == "cli.main"

        def wrapper(*args, **kwargs):
            span_name = name
            if is_cli:  # one span name per subcommand: "cli.main gen"
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"{name} {argv[0] if argv else ''}"
            sid, opened, start = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, opened, "f", span_name, start, None)

        return wrapper

    # -- aggregation -------------------------------------------------------

    def summary(self, primary: str, rows: list[str], cli_command: str) -> dict:
        """Per-layer metrics: ``<module>.<name>.<quantity>`` -> value.

        Tensor and layer figures are per request of kind ``primary`` (a train
        step or a map). Function figures are per call: over the calls inside
        such requests if there are any, else over every call, so that the mix
        of call kinds does not depend on how many requests ran. ``cli.main``
        counts only calls of the subcommand ``cli_command``.
        """
        by_id = {s[0]: s for s in self.spans}
        child_s = defaultdict(float)
        for s in self.spans:
            child_s[s[5]] += s[4] - s[3]
        wanted = {r for r, kind in self.request_kind.items() if kind == primary}
        n_req = max(len(wanted), 1)
        total = defaultdict(float)
        counts = defaultdict(int)
        for sid, kind, name, start, end, parent, req, row in self.spans:
            dur = end - start
            if kind in ("p", "b") and req in wanted:
                prim = name.split(".")[1]
                group = GROUP_OF[prim]
                self_s = dur - child_s[sid]
                total[f"tensor.{group}.{'bwd_ms' if kind == 'b' else 'fwd_ms'}"] += self_s
                if kind == "p":
                    counts["tensor.nodes"] += 1
                    if prim == "conv3d":
                        counts["tensor.conv3d.calls"] += 1
            if req in wanted and row is not None:
                if kind == "b":
                    total[f"layers.{row}.bwd_ms"] += dur
                elif kind in ("p", "l"):
                    parent_row = by_id[parent][7] if parent in by_id else None
                    if parent_row != row:
                        total[f"layers.{row}.fwd_ms"] += dur
            if kind == "B" and req in wanted:
                total["tensor.backward.self_ms"] += dur - child_s[sid]
            if kind == "f":
                for key in (name, name + "@primary") if req in wanted else (name,):
                    counts[key] += 1
                    total[key] += dur
                    total[key + "#self"] += dur - child_s[sid]
        out = {}
        for group in TENSOR_GROUPS:
            for q in ("fwd_ms", "bwd_ms"):
                out[f"tensor.{group}.{q}"] = 1e3 * total[f"tensor.{group}.{q}"] / n_req
        out["tensor.conv3d.calls"] = counts["tensor.conv3d.calls"] / n_req
        out["tensor.conv3d.col_mib"] = sum(
            self.request_col_mib[r] for r in wanted) / n_req
        out["tensor.backward.self_ms"] = 1e3 * total["tensor.backward.self_ms"] / n_req
        out["tensor.nodes"] = counts["tensor.nodes"] / n_req
        out["tensor.count_ops.units"] = sum(
            self.request_units.get(r, 0) for r in wanted) / n_req
        for row in rows:
            for q in ("fwd_ms", "bwd_ms"):
                out[f"layers.{row}.{q}"] = 1e3 * total[f"layers.{row}.{q}"] / n_req
        for module, path, metric in FUNCTIONS:
            name = f"{module}.{path}"
            if name == "cli.main":
                name += " " + cli_command
            if counts[name + "@primary"]:
                name += "@primary"
            calls = counts[name]
            key = name + ("#self" if metric.endswith("self_ms") else "")
            out[metric] = 1e3 * total[key] / calls if calls else None
        out["requests"] = len(wanted)
        return out

    def write_spans(self, path) -> int:
        """Write every span as gzipped CSV; returns the number written."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "kind", "name", "start_s", "end_s",
                             "parent", "request", "request_kind", "row"])
            for sid, kind, name, start, end, parent, req, row in self.spans:
                writer.writerow([sid, kind, name, f"{start:.9f}", f"{end:.9f}",
                                 parent, req, self.request_kind.get(req, ""),
                                 row or ""])
        return len(self.spans)

"""Benchmark entry point for volformer.

    python3 perfbench/run.py --workload desk-cv --seed 1 --seconds 15 --trace 0

runs one workload in this process and prints a human-readable report, then,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the traced variant and reports the
per-layer metrics instead. Without ``--workload`` every workload that
``BENCHMARK.json`` lists runs, each in a fresh process. The program is
imported from ``src/`` next to this directory; scratch files and results go
under ``.perfbench/`` at the root and scratch files are removed at exit.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))

# One BLAS thread, set before numpy loads. On a 2-vCPU host a second thread
# made no step faster and doubled CPU use by spin-waiting (see NOTES.md).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up repeats until it has run SETUP_RUNS times and SETUP_SECONDS passed;
# ``setup_s`` is the fastest run, since other load on the host only adds time.
SETUP_RUNS = 3
SETUP_SECONDS = 4.0

END_TO_END = {
    "setup_s": "s",
    "latency_ms_min": "ms",
    "peak_rss_mib": "MiB",
    "retained_mib_per_vol": "MiB",
}

# ``estimate_cost().per_layer`` names for the S-S-D-D plan, brackets as "_".
LAYER_ROWS = ("data_norm", "stem",
              *(f"stage{s}.{part}" for s, kind in ((1, "S"), (2, "S"), (3, "D"), (4, "D"))
                for part in ("block0", "block1", f"attn_{kind}")),
              "avg_pool", "classifier")

PER_LAYER = {
    **{f"tensor.{g}.{q}": "ms" for g in ("conv3d", "matmul", "pointwise", "shape",
                                          "reduce") for q in ("fwd_ms", "bwd_ms")},
    "tensor.conv3d.calls": "count",
    "tensor.conv3d.col_mib": "MiB",
    "tensor.backward.self_ms": "ms",
    "tensor.nodes": "count",
    "tensor.count_ops.units": "count",
    # data_norm acts on the input, which has no gradient, so it has no bwd_ms.
    **{f"layers.{row}.{q}": "ms" for row in LAYER_ROWS for q in ("fwd_ms", "bwd_ms")
       if (row, q) != ("data_norm", "bwd_ms")},
    "train.Adam.step_ms": "ms",
    "model.forward_logits.ms": "ms",
    "data.generate_synthetic.ms": "ms",
    "data.write_dataset.ms": "ms",
    "data.load_manifest.ms": "ms",
    "data.read_volume.ms": "ms",
    "data.read_volume.calls_per_op": "count",
    "cli.main.self_ms": "ms",
}

# The whole op whose fastest run each workload reports as ``latency_ms_min``.
OP_OF = {
    "desk-cv": "one volformer cv command, each of its parts at its fastest",
    "wide-train": "one batch-2 train step",
    "localize-audit": "read_volume, forward_volume and grad_cam of one volume",
}


def load_volformer() -> SimpleNamespace:
    if not (SRC / "volformer" / "__init__.py").is_file():
        raise FileNotFoundError(f"volformer sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("tensor", "layers", "model", "data", "train", "localize", "cli", "errors")
    return SimpleNamespace(**{n: importlib.import_module(f"volformer.{n}") for n in names})


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
    }


def layer_rows(vf, cfg) -> list[tuple[str, int]]:
    """``estimate_cost`` rows as metric-safe names with their analytic MACs."""
    report = vf.model.estimate_cost(cfg)
    return [(name.replace("[", "_").replace("]", ""), macs)
            for name, macs, _act, _params in report.per_layer]


def measure(wl, seconds: float, doc: dict) -> dict:
    """Untraced run: repeated set-up, the timed loop, then the memory pass."""
    setups = []
    while len(setups) < SETUP_RUNS or sum(setups) < SETUP_SECONDS:
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)
    wl.warm_up()
    ops = wl.window(seconds, wl.min_ops)
    retained = wl.retained()
    wl.finish(ops)
    named = wl.metrics(ops)
    named["latency_ms_min"] = (wl.latency_ms(ops), "ms", len(ops))
    named["setup_s"] = (min(setups), "s", len(setups))
    named["retained_mib_per_vol"] = (retained, "MiB", 1)
    named["peak_rss_mib"] = (wl.peak_rss_mib, "MiB", 1)
    doc["named"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()}
    doc["op_seconds"] = [op.seconds for op in ops]
    return {k: {"value": float(named[k][0]), "unit": u} for k, u in END_TO_END.items()}


def _inner_seconds(ops) -> list[float]:
    """Train-step times inside the ops where recorded (desk-cv), else op times."""
    steps = [s for op in ops for s in op.parts.get("steps", ())]
    return steps or [op.seconds for op in ops]


def trace(wl, vf, seconds: float, doc: dict, spans_path) -> dict:
    """Traced run: traced set-up, an untraced window, then a traced window."""
    from spans import Tracer

    tracer = Tracer(vf, wl.probe)
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    wl.warm_up()
    wl.window(0)  # one untimed op, so that neither window pays first-touch costs
    wl.fresh()
    untraced = wl.window(seconds / 3)
    wl.fresh()
    wl.tracer = tracer
    mark = len(tracer.spans)
    tracer.install()
    try:
        traced = wl.window(2 * seconds / 3)
    finally:
        tracer.uninstall()
        wl.tracer = None
    same = untraced[0].fingerprint == traced[0].fingerprint
    wl.record(same, "traced first op is not bit-identical to the untraced one")
    wl.checks["traced first op bit-identical to untraced"] = str(same)
    wl.finish(untraced + traced)

    rows = layer_rows(vf, wl.model_config())
    layer = tracer.summary(wl.primary, [r for r, _ in rows], wl.cli_command)
    reads = sum(1 for span in tracer.spans[mark:] if span[2] == "data.read_volume")
    layer["data.read_volume.calls_per_op"] = reads / len(traced)
    before, after = _inner_seconds(untraced), _inner_seconds(traced)
    # The share compares the fastest ops: tracing adds a fixed cost per span,
    # while other load on the host moves the medians of the two windows apart.
    doc["overhead"] = {"untraced_ms_p50": 1e3 * statistics.median(before),
                       "traced_ms_p50": 1e3 * statistics.median(after),
                       "untraced_ms_min": 1e3 * min(before),
                       "traced_ms_min": 1e3 * min(after),
                       "untraced_n": len(before), "traced_n": len(after),
                       "share": min(after) / min(before) - 1}
    doc["layer_macs"] = dict(rows)
    doc["per_layer"] = layer
    if spans_path is not None:
        doc["spans"] = {"path": str(spans_path.relative_to(ROOT)),
                        "count": tracer.write_spans(spans_path)}
    missing = [k for k in PER_LAYER if layer.get(k) is None]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return {k: {"value": float(layer[k]), "unit": u} for k, u in PER_LAYER.items()}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 tiny: bool = False, write: bool = True) -> dict:
    """Run one workload in this process; returns the full result document."""
    from workloads import WORKLOADS

    vf = load_volformer()
    results = OUT / "results"
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if write:
        results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT / "tmp"))
    wl = WORKLOADS[name](vf, seed, workdir, tiny=tiny)
    doc = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
           "tiny": tiny, "machine": machine(seed)}
    try:
        if traced:
            spans_path = results / f"{stem}-spans.csv.gz" if write else None
            metrics = trace(wl, vf, seconds, doc, spans_path)
        else:
            metrics = measure(wl, seconds, doc)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    doc["rusage"] = {"user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                     "minor_faults": usage.ru_minflt,
                     "involuntary_switches": usage.ru_nivcsw}
    doc["checks"] = wl.checks
    doc["failures"] = wl.failures
    doc["line"] = {"correct": wl.failed == 0, "attempted": wl.attempted,
                   "failed": wl.failed, "metrics": metrics}
    if write:
        (results / f"{stem}-trace{int(traced)}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def render(doc: dict) -> str:
    """Human-readable report of one result document."""
    line = doc["line"]
    out = [f"== {doc['workload']}  seed={doc['seed']}  trace={doc['trace']}  "
           f"seconds={doc['seconds']}",
           "machine: " + json.dumps(doc["machine"], sort_keys=True)]
    if "named" in doc:
        for key, m in doc["named"].items():
            out.append(f"  {key:<22} {m['value']:>12.4f} {m['unit']:<6} (n={m['n']})")
        out.append(f"  latency_ms_min is the fastest op: {OP_OF[doc['workload']]}")
    else:
        o = doc["overhead"]
        out.append(f"  tracing overhead: {100 * o['share']:+.1f}% on the fastest op "
                   f"({o['untraced_ms_min']:.2f} ms untraced over {o['untraced_n']}, "
                   f"{o['traced_ms_min']:.2f} ms traced over {o['traced_n']}; medians "
                   f"{o['untraced_ms_p50']:.2f} and {o['traced_ms_p50']:.2f} ms)")
        layer = doc["per_layer"]
        out.append(f"  per {'map' if doc['workload'] == 'localize-audit' else 'train step'}"
                   f" ({layer['requests']} traced):")
        out.append(f"  {'row':<16} {'analytic MACs/vol':>18} {'fwd ms':>10} {'bwd ms':>10}")
        for row, macs in doc["layer_macs"].items():
            out.append(f"  {row:<16} {macs:>18,d} {layer[f'layers.{row}.fwd_ms']:>10.3f} "
                       f"{layer[f'layers.{row}.bwd_ms']:>10.3f}")
        for key, value in layer.items():
            if not key.startswith("layers."):
                shown = "-" if value is None else f"{value:.4f}"
                out.append(f"  {key:<32} {shown}")
    out.append(f"  error_rate: {line['failed']}/{line['attempted']} operations failed")
    for check, verdict in doc["checks"].items():
        out.append(f"  check: {check}: {verdict}")
    for failure in doc["failures"]:
        out.append(f"  FAILED: {failure}")
    return "\n".join(out)


def run_all(args) -> int:
    """Run the workloads ``BENCHMARK.json`` lists, each in a fresh process,
    and combine their lines."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    combined = {}
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": combined}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="workload to run (default: those in BENCHMARK.json, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "volformer" / "__init__.py").is_file():
        print(f"error: volformer sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(render(doc))
    print(json.dumps(doc["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

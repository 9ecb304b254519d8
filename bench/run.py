"""zestkit benchmark: one workload per run, timed as a closed loop.

    python3 bench/run.py --workload sign-local|sign-loopback|campaign \
        [--seed N] [--seconds S] [--trace 0|1]

zestkit is imported from ``src/`` next to this directory and driven only
through its public API. The run sets the workload up several times (the
median is ``setup_s``), then runs ops one after another for ``--seconds``
and checks each op's output; an op that raises or fails its check counts
as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones, plus the tracing overhead against the untraced ones.

stdout ends with two JSON lines: ``{"report": ...}`` (environment stamp,
sample counts, tail percentile, check failures, layer shares), then the
result ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sign-local", "sign-loopback", "campaign")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def import_zestkit() -> float:
    """Import zestkit from this checkout's ``src/``; returns the import time."""
    if not os.path.isfile(os.path.join(SRC, "zestkit", "__init__.py")):
        sys.exit(f"bench: no zestkit sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import zestkit
    seconds = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(zestkit.__file__))) != SRC:
        sys.exit(f"bench: imported zestkit from {zestkit.__file__}, not {SRC}")
    return seconds


def import_in_child() -> float:
    """Import time of zestkit in a fresh interpreter: one more set-up sample."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import zestkit; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unavailable"
    with open(head, encoding="utf-8") as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unavailable"


def source_digest() -> str:
    """sha256 over the package sources: names the code when git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "zestkit")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode("utf-8") + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    """Interpreter, numpy, BLAS and CPU as found; BLAS threads are not pinned."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    blas_config = blas.get("openblas configuration", "")
    max_threads = [t.split("=", 1)[1] for t in blas_config.split() if t.startswith("MAX_THREADS=")]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
                 "max_threads": max_threads[0] if max_threads else "unknown",
                 "thread_env": {k: os.environ.get(k) for k in (
                     "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "server": ("ModelServer thread in the benchmark process, 127.0.0.1, one client"
                   if workload == "sign-loopback" else "none"),
    }


def tail(samples) -> "dict | None":
    """The highest listed percentile with at least ten samples beyond it."""
    import numpy as np
    for q in TAIL_PERCENTILES:
        value = float(np.percentile(samples, q))
        beyond = sum(1 for s in samples if s > value)
        if beyond >= TAIL_BEYOND:
            return {"percentile": q, "value_s": value, "samples": len(samples),
                    "beyond": beyond}
    return None


def quartiles(samples) -> "list[float]":
    if len(samples) < 2:
        return [samples[0]] * 3 if samples else []
    return statistics.quantiles(samples, n=4)


def set_up(make, repeats: int):
    """Set the workload up ``repeats`` times; keep the last, return all times."""
    times, workload = [], None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        workload = make()
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return workload, times


def run_loop(workload, seconds: float, trace: bool):
    """Closed loop for ``seconds``: op i is traced when tracing and i is odd."""
    from spans import Instrumented, Tracer
    run = SimpleNamespace(outcomes=[], attempted=0, failed=0, errors=[],
                          tracer=Tracer() if trace else None)
    min_ops = 4 if trace else 3
    start = time.perf_counter()
    while True:
        traced = trace and run.attempted % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                with Instrumented(run.tracer):
                    out = workload.run_op(run.tracer)
            else:
                out = workload.run_op()
        except Exception as e:  # a raising op is a failed op; the loop goes on
            out = None
            run.errors.append(f"op {run.attempted}: {type(e).__name__}: {e}")
        last = time.perf_counter() - t0
        if out is not None:
            run.outcomes.append(out)
            run.errors += [f"op {run.attempted}: {msg}" for msg in out.errors]
        run.failed += out is None or bool(out.errors)
        run.attempted += 1
        if run.attempted >= min_ops and time.perf_counter() - start + last > seconds:
            return run


def end_to_end(run, import_s: float, setup_times) -> dict:
    ops = [o.seconds for o in run.outcomes]
    return {
        "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
        "op_s": {"value": statistics.median(ops), "unit": "s"},
        "victim_rows_per_op": {"value": statistics.median(o.rows for o in run.outcomes),
                               "unit": "rows"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "unit": "MiB"},
    }


PER_OP_UNITS = {
    "nn.self_s": "s", "nn.forward_s": "s", "nn.forward_rows": "rows",
    "oracle.self_s": "s", "oracle.predict_s": "s", "oracle.predict_calls": "count",
    "oracle.client_cpu_s": "s", "oracle.wait_s": "s", "oracle.failures": "count",
    "lime.self_s": "s", "lime.mask_tensor_s": "s", "lime.masked_batch_s": "s",
    "lime.kernel_weights_s": "s", "lime.fit_residual_s": "s",
    "attack.self_s": "s", "attack.transfer_eval_s": "s",
    "zest.self_s": "s", "util.self_s": "s",
    "util.container_write_s": "s", "util.container_read_s": "s",
    "util.container_bytes": "bytes", "experiment.self_s": "s",
}


def per_layer(run):
    """Per-layer metrics of the traced ops, and the layer report."""
    from spans import LAYERS, median_or_zero, op_layer_sums, per_call
    traced = [o for o in run.outcomes if o.traced]
    plain = [o.seconds for o in run.outcomes if not o.traced]
    spans = run.tracer.spans
    sums = [op_layer_sums(o.root, spans) for o in traced]

    def med(key):
        return median_or_zero([s[key] for s in sums])

    metrics = {k: {"value": med(k), "unit": unit} for k, unit in PER_OP_UNITS.items()}
    train_s = per_call(spans, "nn.train")
    steps = per_call(spans, "nn.train", "steps")
    requests = median_or_zero([o.requests for o in traced])
    rows = median_or_zero([o.rows for o in traced])
    traced_s = median_or_zero([o.seconds for o in traced])
    plain_s = median_or_zero(plain)
    metrics.update({
        "nn.train_s": {"value": median_or_zero(train_s), "unit": "s"},
        "nn.sgd_steps": {"value": median_or_zero(steps), "unit": "count"},
        "nn.sgd_step_s": {"value": sum(train_s) / sum(steps) if steps else 0.0, "unit": "s"},
        "nn.input_gradient_s": {"value": median_or_zero(per_call(spans, "nn.input_gradient")),
                                "unit": "s"},
        "oracle.requests": {"value": requests, "unit": "count"},
        "oracle.rows_per_request": {"value": rows / requests if requests else 0.0,
                                    "unit": "rows"},
        "attack.pgd_s": {"value": median_or_zero(per_call(spans, "attack.pgd")), "unit": "s"},
        "attack.pgd_steps": {"value": median_or_zero(per_call(spans, "attack.pgd", "steps")),
                             "unit": "count"},
        "zest.select_s": {"value": median_or_zero(per_call(spans, "zest.select")), "unit": "s"},
        "zest.store_put_s": {"value": median_or_zero(per_call(spans, "zest.store_put")),
                             "unit": "s"},
        "trace.op_s": {"value": traced_s, "unit": "s"},
        "trace.untraced_op_s": {"value": plain_s, "unit": "s"},
        "trace.overhead_share": {"value": traced_s / plain_s - 1.0 if plain_s else 0.0,
                                 "unit": "share"},
    })
    for purpose in ("signature", "signature_baseline", "attack_eval"):
        metrics[f"oracle.ledger.{purpose}"] = {
            "value": median_or_zero([o.ledger.get(purpose, 0) for o in traced]), "unit": "rows"}

    shares = {layer: med(f"{layer}.self_s") / med("op_s") if sums else 0.0
              for layer in LAYERS}
    report = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "self_share_by_layer": shares,
        "dominant_layer": max(shares, key=shares.get) if sums else None,
        # exact by construction; the second figure also covers the
        # benchmark's own code between the op's timer and its root span
        "self_sum_over_root_span": [s["self_sum_s"] / s["op_s"] for s in sums],
        "self_sum_over_op_wall": [s["self_sum_s"] / o.seconds for s, o in zip(sums, traced)],
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 7 for sign-*, 202 for campaign)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_zestkit()
    from workloads import DEFAULT_SEEDS, make_workload
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))

    imports = [import_s] + [import_in_child() for _ in range(SETUP_REPEATS - 1)]
    workload, setup_times = set_up(lambda: make_workload(args.workload, seed, workdir),
                                   SETUP_REPEATS)
    try:
        run = run_loop(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    ops = [o.seconds for o in run.outcomes]
    report = {
        "environment": environment(args.workload, seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "import_runs_s": imports,
        "setup_runs_s": setup_times,
        "ops": len(ops),
        "op_s_quartiles": quartiles(ops) if ops else None,
        "op_s_tail": tail(ops) if ops else None,
        "victim_rows_per_op": sorted({o.rows for o in run.outcomes}),
        "server_requests_per_op": sorted({o.requests for o in run.outcomes}),
        "failed_share": run.failed / run.attempted,
        "errors": run.errors[:10],
    }
    metrics = {}
    if run.outcomes:
        if args.trace:
            metrics, report["layers"] = per_layer(run)
        else:
            metrics = end_to_end(run, statistics.median(imports), setup_times)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": run.failed == 0 and bool(run.outcomes),
                      "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

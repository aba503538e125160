#!/usr/bin/env python3
"""Benchmark of PipeMare training and serving (wall clock and CPU time).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the driver from source into .bench_build (or
$CARGO_TARGET_DIR) on first use, runs one workload for --seconds, checks its
outputs, prints every metric by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics, and the Chrome traces plus the per-layer self-time table
are kept in .bench_out/. Every run's full result is saved to
.bench_out/runs/ for compare.py.

Extra flags for reference figures (see README.md): --backend, --workers,
--serve-workers, --stages.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reduce  # noqa: E402

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
WORKLOADS = ("resnet_steal", "transformer_threaded", "transformer_hogwild", "serve_mlp")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds the driver; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "trainer.h")):
        fail("no pipemare sources under %s/src; run from a full checkout" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found" % tool)
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    driver = os.path.join(bdir, "perfbench_driver")
    if not os.access(driver, os.X_OK):
        fail("build produced no driver at " + driver)
    return driver


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


# Program spans that are compute on a training worker, per backend.
BUSY_SPANS = {"threaded": {"pipeline.fwd", "pipeline.bwd"},
              "threaded_steal": {"sched.fwd", "sched.bwd"},
              "threaded_hogwild": {"hogwild.micro"}}


def layer_table(trace_paths, out_path, backend, threads):
    """Self time per layer over each traced window, plus the training
    bubble share the trace shows; written as JSON."""
    table = {}
    for label, path in trace_paths:
        with open(path) as f:
            trace = json.load(f)
        rows = reduce.self_times(trace)
        total = sum(r["self_ms"] for r in rows.values()) or 1.0
        for r in rows.values():
            r["self_share"] = r["self_ms"] / total
        table[label] = {"layers": dict(sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"]))}
        window = reduce.trace_window_us(trace, "pipeline.forward_backward")
        if label == "train" and backend in BUSY_SPANS and window > 0:
            table[label]["bubble_share"] = reduce.bubble_share(
                trace, BUSY_SPANS[backend], threads, window)
    with open(out_path, "w") as f:
        json.dump(table, f, indent=1)
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--backend")
    ap.add_argument("--workers", type=int)
    ap.add_argument("--serve-workers", type=int)
    ap.add_argument("--stages", type=int)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    spec = load_spec()
    driver = build(build_dir())
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    raw = os.path.join(out_dir, tag + ".driver.json")
    cmd = [driver, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace, "--out=" + raw]
    if args.trace:
        cmd.append("--trace-prefix=" + os.path.join(out_dir, tag))
    for flag in ("backend", "workers", "serve_workers", "stages"):
        value = getattr(args, flag)
        if value is not None:
            cmd.append("--%s=%s" % (flag.replace("_", "-"), value))
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    except subprocess.CalledProcessError as e:
        fail("driver failed with exit code %d" % e.returncode)
    with open(raw) as f:
        result = json.load(f)

    values = {}
    if args.trace:
        values.update(result["layers_train"])
        values.update(result["layers_serve"])
        traces = [(phase, os.path.join(out_dir, "%s.%s.json" % (tag, phase)))
                  for phase in ("train", "probe", "serve")]
        train = result["train_detail"]["train"]
        result["layer_table"] = layer_table(traces, os.path.join(out_dir, tag + ".layers.json"),
                                            train["backend"], train["threads"])
        wanted = spec["per_layer"]
    else:
        values.update(result["e2e"])
        values.update(result["e2e_train"])
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail("driver reported no value for metric " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result["metrics"] = metrics
    with open(os.path.join(out_dir, "runs", "%s-%d.json" % (tag, time.time_ns())), "w") as f:
        json.dump(result, f)

    for c in result["checks"]:
        if not c["ok"]:
            label = "KNOWN FAULT (counted in failed)" if c.get("known_fault") else "CHECK FAILED"
            print("%s %s: %s" % (label, c["check"], c["detail"]))
    m = result["machine"]
    print("%s seed=%d nproc=%d kernels=%s isa=%s %s %s" % (
        args.workload, args.seed, m["nproc"], m["kernel_kind"], m["tiled_isa"],
        m["compiler"], m["build_type"]))
    for name, v in metrics.items():
        print("  %-36s %14.6g %s" % (name, v["value"], v["unit"]))
    print("  operations attempted %d, failed %d" % (result["attempted"], result["failed"]))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh interpreter of a benchmark run (started by run.py).

``--mode setup`` imports pcmc and writes the workload's inputs, timing
both. ``--mode run`` does the same, then repeats the workload's command
sequence through ``pcmc.cli.main`` until ``--seconds`` have passed,
checks the outputs, and writes everything to ``--result`` as JSON.
With ``--trace 1`` untraced and traced passes alternate, so that the
tracing overhead is measured under the same conditions.
"""

import time

_T0 = time.perf_counter()

import pcmc  # noqa: E402  (timed as part of set-up)
import pcmc.cli  # noqa: E402

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _outputs(cmds):
    return [argv[argv.index("--out") + 1] for _, argv in cmds]


def _run_pass(cmds, trace=None):
    """Run the command sequence once.

    Returns (wall seconds, per-command seconds, per-command error or None).
    """
    times, errors = [], []
    start = time.perf_counter()
    for index, (kind, argv) in enumerate(cmds):
        t = time.perf_counter()
        try:
            if trace is None:
                code = pcmc.cli.main(argv)
            else:
                trace.command = index
                code = trace.call("cli." + kind, "cli", pcmc.cli.main, (argv,), {})
            errors.append(None if code == 0 else "exit code %d" % code)
        except Exception:
            errors.append(traceback.format_exc(limit=3))
        times.append(time.perf_counter() - t)
    return time.perf_counter() - start, times, errors


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](workloads.SCALES[args.scale])
    os.makedirs(args.dir, exist_ok=True)
    manifest = workload.generate(pcmc, args.seed, args.dir)
    result = {"setup_s": time.perf_counter() - _T0,
              "inputs": _digest(os.path.join(args.dir, f) for f in os.listdir(args.dir))}
    if args.mode == "run":
        result.update(_measure(workload, manifest, args))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _measure(workload, manifest, args):
    cmds = workload.commands(manifest)
    outputs = _outputs(cmds)
    trace = tracer.Tracer(pcmc) if args.trace else None
    plain, layer_passes = [], []
    samples = {"model.objective": [], "ctmc.stationary": []}
    spans_out = []
    failed = [0] * len(cmds)
    first_digest = None

    def record(wall, times, errors):
        nonlocal first_digest
        for k, err in enumerate(errors):
            if err is not None:
                failed[k] += 1
                print("command %d (%s) failed: %s" % (k, " ".join(cmds[k][1][:4]), err),
                      file=sys.stderr)
        digests = [_digest([p]) if os.path.exists(p) else None for p in outputs]
        if first_digest is None:
            first_digest = digests
        for k, (a, b) in enumerate(zip(first_digest, digests)):
            if a != b and errors[k] is None:
                failed[k] += 1
                print("command %d output differs from the first pass" % k, file=sys.stderr)

    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        wall, times, errors = _run_pass(cmds)
        record(wall, times, errors)
        plain.append({"wall": wall, "times": times})
        if trace is not None:
            trace.install()
            try:
                wall, times, errors = _run_pass(cmds, trace)
            finally:
                trace.uninstall()
            record(wall, times, errors)
            spans = trace.take_spans()
            metrics, pass_samples = tracer.pass_metrics(spans, wall)
            layer_passes.append(metrics)
            for key, values in pass_samples.items():
                samples[key].extend(values)
            spans_out = spans
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = len(plain) + len(layer_passes)

    try:
        problems = workload.check(manifest)
    except Exception:
        problems = [(k, "check raised: " + traceback.format_exc(limit=3))
                    for k in range(len(cmds))]
    for k, msg in problems:
        print("check failed on command %d: %s" % (k, msg), file=sys.stderr)
    bad = {k for k, _ in problems}
    for k in bad:
        failed[k] = runs

    out = {"kinds": [kind for kind, _ in cmds], "passes": plain,
           "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
           "peak_rss_mb": rss_mb, "attempted": runs * len(cmds),
           "failed": sum(failed)}
    if trace is None:
        try:
            out["quality"] = workload.quality(pcmc, manifest)
        except Exception:
            traceback.print_exc()
            out["quality"] = None
    else:
        out["layers"] = tracer.combine_passes(
            layer_passes, samples, statistics.median(p["wall"] for p in plain))
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for s in spans_out:
                    fh.write(json.dumps({"id": s[0], "parent": s[1], "name": s[2],
                                         "layer": s[3], "start": s[4], "end": s[5],
                                         "command": s[6], "extra": s[7]}) + "\n")
    return out


if __name__ == "__main__":
    sys.exit(main())

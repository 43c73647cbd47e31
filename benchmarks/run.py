"""Seeded end-to-end benchmark of the pcmc command-line pipeline.

    python3 benchmarks/run.py --workload fit-chain --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; ``src/pcmc`` is imported from
there. Each workload runs in fresh single-threaded interpreters
(``worker.py``): set-up is repeated ``SETUP_REPEATS`` times, and the last
interpreter goes on to repeat the workload's command sequence for
``--seconds``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the host, library versions and thread pins.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("fit-chain", "audit", "wide-luce")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

# One thread everywhere: BLAS reduction order then repeats, and so do
# the optimizers' iteration counts.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "heldout_l1": "l1", "train_nll_per_obs": "nats"}


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def _worker(args, mode, workdir, index, deadline):
    """Run one worker interpreter and return its result dict."""
    result = os.path.join(workdir, "result-%d.json" % index)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--dir", os.path.join(workdir, "in-%d" % index),
           "--result", result]
    if args.spans and mode == "run":
        cmd += ["--spans", args.spans]
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=sys.stderr, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker passed the time limit") from None
    if code != 0:
        raise BenchError("worker exited with %d" % code)
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pcmc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(setups, run):
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.median(p["wall"] for p in run["passes"]),
              "peak_rss_mb": run["peak_rss_mb"]}
    if run["quality"] is not None:
        values["heldout_l1"], values["train_nll_per_obs"] = run["quality"]
    return {name: _metric(values[name], unit)
            for name, unit in END_TO_END_UNITS.items() if name in values}


def _per_layer(run):
    return {name: _metric(value, _layer_unit(name)) for name, value in run["layers"].items()}


def _layer_unit(name):
    if name.endswith("_share") or name.endswith(".success"):
        return "ratio"
    if name.endswith("rows_per_s"):
        return "1/s"
    if ".us_" in name:
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def measure(args):
    if not os.path.isdir(os.path.join(SRC, "pcmc")):
        raise BenchError("no pcmc sources under %s" % SRC)
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=WORK)
    try:
        setups = [_worker(args, "setup", workdir, k, deadline)
                  for k in range(SETUP_REPEATS - 1)]
        run = _worker(args, "run", workdir, SETUP_REPEATS - 1, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it
    setups.append(run)
    attempted = run["attempted"] + len(setups)
    failed = run["failed"]
    if len({s["inputs"] for s in setups}) != 1:
        print("set-up wrote different inputs from the same seed", file=sys.stderr)
        failed += len(setups)
    metrics = (_per_layer(run) if args.trace
               else _end_to_end([s["setup_s"] for s in setups], run))
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale, "passes": len(run["passes"]),
            "setups": len(setups), "commit": _commit(), "src_sha256": _source_digest(),
            "nproc": os.cpu_count(), "threads": THREAD_ENV, "python": platform.python_version(),
            **run["versions"],
            "command_s": _command_medians(run),
            "pass_s": [round(p["wall"], 4) for p in run["passes"]]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, meta


def _command_medians(run):
    """Median seconds of each command of the sequence, by position."""
    kinds = run["kinds"]
    return ["%s %.4f" % (kinds[k], statistics.median(p["times"][k] for p in run["passes"]))
            for k in range(len(kinds))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is a tiny run for the tests")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the last traced pass's spans here")
    args = parser.parse_args(argv)
    try:
        result, meta = measure(args)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    print("# " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

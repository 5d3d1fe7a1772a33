"""The pqm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The load is one client in a closed loop: the benchmark runs the
workload's fixed request set in a fresh interpreter (one pass), again and
again until ``--seconds`` are used up, and reports medians over the passes.
Times are rescaled to a fixed reference speed of the machine, measured by
fixed calibration work run between the requests (see ``calib.py``); the raw
times are printed and recorded beside them.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from traced passes, which alternate with untraced ones so
the tracing overhead is measured in the same run.  The last line of standard
output is the result as one JSON object; the full record, with the
environment, goes to ``.bench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from calib import REF_S, Calibration, pin_to_one_cpu

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")

# one thread per process: the benchmark is one closed-loop client on a 2-core
# box, and a single BLAS thread keeps the dense kernels from competing with it
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

SETUP_IMPORTS = 15  # fresh interpreters timed for setup_s, after one untimed
MIN_REQUESTS = 100  # so that p90 has at least 10 requests beyond it
BUDGET_S = 150.0  # a run stops starting passes after this, to exit within 180 s
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import pqm.cli; "
    "print(repr(time.perf_counter() - t))"
)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PQM_BENCH_SRC=SRC, PYTHONHASHSEED="0")


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the numpy build may not describe its BLAS
        blas = "unknown"
    commit = None  # a checkout without .git has no commit to record
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_before": os.getloadavg(),
    }


def measure_setup() -> list[tuple[float, float]]:
    """Import time of pqm.cli in fresh interpreters, (rescaled, raw); the
    first one, which may write bytecode caches, is not counted.  A
    calibration sample is taken right before and after each interpreter."""
    cal = Calibration()
    times = []
    try:
        for i in range(SETUP_IMPORTS + 1):
            cal.take()
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=child_env(),
                                  capture_output=True, text=True, timeout=60, cwd=ROOT)
            t1 = time.perf_counter()
            cal.take()
            if proc.returncode != 0:
                fail(f"cannot import pqm.cli from {SRC}: {proc.stderr.strip()[-500:]}")
            if i:
                raw = float(proc.stdout.strip())
                times.append((raw * cal.scale(t0, t1), raw))
    finally:
        cal.close()
    return times


def run_pass(workdir: str, index: int, traced: bool, timeout: float) -> dict:
    """One worker process; returns its result, with its peak RSS as the
    worker reports it, and the spawn-to-exit time."""
    result_path = os.path.join(workdir, f"result_{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           os.path.join(workdir, "plan.json"), result_path]
    if traced:
        cmd += ["--trace", os.path.join(workdir, f"spans_{index}.jsonl")]
    log = open(os.path.join(workdir, f"worker_{index}.log"), "wb")
    try:
        t0 = time.perf_counter()
        # the worker leads a process group of its own, with its calibration
        # process, so that stopping it stops both
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log, start_new_session=True)
        kill = lambda: os.killpg(proc.pid, signal.SIGKILL)  # noqa: E731
        # block in wait4, so the parent stays idle while the worker is
        # measured; the timer stops a worker that overruns
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:  # terminated: stop the worker, then unwind
            kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        log.close()
    out = {"exit": proc.returncode, "process_s": elapsed,
           "traced": traced}
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            out.update(json.load(fh))
    else:
        with open(os.path.join(workdir, f"worker_{index}.log"), encoding="utf-8",
                  errors="replace") as fh:
            out["log"] = fh.read()[-2000:]
    return out


def nearest_rank(sorted_vals: list, q: float):
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def request_records(p: dict, plan: list[dict]) -> list[dict]:
    """Per-request records of a pass; a crashed pass fails every request."""
    if "requests" in p:
        return p["requests"]
    return [{"cls": r["cls"], "s": None, "raw_s": None, "error": "worker failed"}
            for r in plan]


def count_failures(passes: list[dict], plan: list[dict]) -> tuple[int, int]:
    from workloads import VERIFY_CHECKS

    n_checks = len(VERIFY_CHECKS) if plan[0]["kind"] == "verify" else None
    attempted = failed = 0
    for p in passes:
        if n_checks:
            attempted += n_checks
            failed += p.get("verify_failed", n_checks) if p["exit"] == 0 else n_checks
        else:
            recs = request_records(p, plan)
            attempted += len(recs)
            failed += sum(r["error"] is not None for r in recs)
    return attempted, failed


def end_to_end(passes: list[dict], plan: list[dict], setup: list[tuple]) -> tuple[dict, dict]:
    """The end-to-end metrics from rescaled times, and the detail: where the
    percentiles fell, and the same metrics from raw times."""
    metrics = _times(passes, plan, setup, scaled=True)
    if not metrics:
        return {}, {}
    metrics["peak_rss_mb"] = (
        statistics.median(p["rss_mb"] for p in passes if "rss_mb" in p), "MB")
    recs = sorted((r for p in passes for r in request_records(p, plan) if r["s"] is not None),
                  key=lambda r: r["s"])
    lat = [r["s"] * 1000.0 for r in recs]
    tail_q = _tail_q(plan)
    p50, tail = nearest_rank(recs, 0.5), nearest_rank(recs, tail_q)
    spins = [p["spin_median_s"] for p in passes if "spin_median_s" in p]
    detail = {
        "requests": len(lat),
        "p50_class": p50["cls"],
        "tail_percentile": tail_q,
        "tail_class": tail["cls"],
        "beyond_tail": sum(x > tail["s"] * 1000.0 for x in lat),
        "neighbours_p50_ms": _neighbours(lat, 0.5),
        "neighbours_tail_ms": _neighbours(lat, tail_q),
        "walls_s": [p["wall_s"] for p in passes if "wall_s" in p],
        "speed": {"ref_spin_s": REF_S, "median_spin_s": statistics.median(spins),
                  "scale": REF_S / statistics.median(spins)},
        "raw": {k: v for k, (v, _) in _times(passes, plan, setup, scaled=False).items()},
    }
    return metrics, detail


def _tail_q(plan: list[dict]) -> float:
    # a few `pqm verify` runs per measurement: no percentile above the median
    # has 10 requests beyond it, so both report the median
    return 0.5 if plan[0]["kind"] == "verify" else 0.9


def _times(passes: list[dict], plan: list[dict], setup: list[tuple], scaled: bool) -> dict:
    key = "s" if scaled else "raw_s"
    walls = [p["wall_s" if scaled else "raw_wall_s"] for p in passes if "wall_s" in p]
    lat = sorted(r[key] for p in passes for r in request_records(p, plan)
                 if r[key] is not None)
    if not walls or not lat:
        return {}
    return {
        "setup_s": (statistics.median(t[0 if scaled else 1] for t in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "req_p50_ms": (_percentile(lat, 0.5, plan) * 1000.0, "ms"),
        "req_p90_ms": (_percentile(lat, _tail_q(plan), plan) * 1000.0, "ms"),
    }


def _percentile(lat: list[float], q: float, plan: list[dict]) -> float:
    # the verify runs of a measurement are few; their median is the one
    # `wall_s` reports, not the lower of the middle two
    return statistics.median(lat) if plan[0]["kind"] == "verify" else nearest_rank(lat, q)


def _neighbours(lat: list[float], q: float) -> list[float]:
    i = max(0, math.ceil(q * len(lat)) - 1)
    return [round(x, 3) for x in lat[max(0, i - 2): i + 3]]


def _scale(p: dict) -> float:
    """A pass's median rescaling factor, for the traced layer times."""
    return REF_S / p["spin_median_s"]


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    from tracing import layer_metric_names
    from workloads import VERIFY_SUITES

    traced = [p for p in passes if p["traced"] and p.get("layers") is not None]
    plain = [p for p in passes if not p["traced"] and "wall_s" in p]
    if not traced or not plain:
        return {}, {}
    k = len(traced)
    metrics = {}
    for name in layer_metric_names():
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            value = sum(p["layers"].get(fn, {"calls": 0})["calls"] for p in traced) / k
        else:
            value = sum(p["layers"].get(fn, {"self_s": 0.0})["self_s"] * _scale(p)
                        for p in traced) / k
        metrics[name] = (value, "count" if stat == "calls" else "s")
    for suite in VERIFY_SUITES:
        name = f"verify.suite_{suite}"
        total = sum(p["layers"].get(name, {"total_s": 0.0})["total_s"] * _scale(p)
                    for p in traced) / k
        metrics[f"{name}.total_s"] = (total, "s")
    metrics["cli.state_bytes"] = (sum(p["state_bytes"] for p in traced) / k, "B")
    metrics["cli.csv_bytes"] = (sum(p["csv_bytes"] for p in traced) / k, "B")
    visits = sum(p["grid_visits"] for p in traced)
    hits = sum(p["grid_hits"] for p in traced)
    metrics["finiteqm.grid_cache_hit_share"] = (hits / visits if visits else 0.0, "ratio")
    wall = lambda ps: statistics.median(p["wall_s"] for p in ps)  # noqa: E731
    metrics["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
    return metrics, {"traced_passes": k, "untraced_passes": len(plain),
                     "traced_wall_s": wall(traced), "untraced_wall_s": wall(plain)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    # on SIGTERM unwind normally, so the worker is stopped and files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "pqm", "cli.py")):
        fail(f"no program source at {SRC}/pqm; run from a pqm checkout")

    sys.path[:0] = [HERE, SRC]
    import selftest
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    env = environment(args)
    env["pinned_cpu"] = pin_to_one_cpu()
    setup = measure_setup()

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        check_problems = selftest.run(workdir)
        requests = workloads.make_plan(args.workload, args.seed, workdir)
        with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump({"requests": requests,
                       "warmup": workloads.warmup_plan(args.workload, workdir)}, fh)
        if args.trace:
            min_passes = 2  # one untraced, one traced
        elif requests[0]["kind"] == "verify":
            min_passes = 3
        else:
            min_passes = max(3, math.ceil(MIN_REQUESTS / len(requests)))
        passes: list[dict] = []
        measure_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - measure_start
            if passes:
                est = statistics.median(p["process_s"] for p in passes)
                over_time = elapsed + est > args.seconds
                over_budget = time.perf_counter() - started + est > BUDGET_S
                if (len(passes) >= min_passes and over_time) or over_budget:
                    break
            traced = bool(args.trace) and len(passes) % 2 == 1
            timeout = max(5.0, BUDGET_S + 20.0 - (time.perf_counter() - started))
            passes.append(run_pass(workdir, len(passes), traced, timeout))
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        for i in range(len(passes)):
            spans = os.path.join(workdir, f"spans_{i}.jsonl")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(out_dir, f"{args.workload}-spans-{i}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = count_failures(passes, requests)
    plain = [p for p in passes if not p["traced"]]
    e2e, e2e_detail = end_to_end(plain, requests, setup)
    layers, layer_detail = per_layer(passes) if args.trace else ({}, {})
    metrics = layers if args.trace else e2e
    correct = (failed == 0 and all(p["exit"] == 0 for p in passes) and bool(metrics)
               and not check_problems)
    env["loadavg_after"] = os.getloadavg()
    env["run_s"] = time.perf_counter() - started

    errors = check_problems + sorted({r["error"] for p in passes
                                      for r in request_records(p, requests) if r["error"]})
    record = {"env": env, "setup_imports_s": setup, "end_to_end": e2e, "detail": e2e_detail,
              "per_layer": layers, "trace_detail": layer_detail, "attempted": attempted,
              "failed": failed, "errors": errors[:20],
              "passes": [{k: v for k, v in p.items() if k not in ("requests", "layers")}
                         for p in passes]}
    with open(os.path.join(ROOT, ".bench_out", f"{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print("env " + json.dumps(env, default=str))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(requests)} requests, one client, closed loop")
    raw = e2e_detail.get("raw", {})
    for name, (value, unit) in e2e.items():
        unscaled = f" (raw {raw[name]:.6g} {unit})" if name in raw else ""
        print(f"{name} {value:.6g} {unit}{unscaled}")
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    if e2e_detail:
        print("percentiles " + json.dumps({k: v for k, v in e2e_detail.items()
                                            if k not in ("walls_s", "raw")}))
    if layer_detail:
        print("tracing " + json.dumps(layer_detail))
    for err in errors[:5]:
        print(f"error: {err}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

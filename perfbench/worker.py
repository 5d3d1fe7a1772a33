"""One pass of a workload in a fresh interpreter: one client, closed loop.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json [--trace SPANS.jsonl]

The import of ``pqm.cli`` is timed (it is part of a ``pqm verify`` run).
The warm-up requests run untimed and unchecked, tracing is installed if asked
for, and then each request is prepared (untimed), executed (timed) and
checked (untimed, with tracing paused).  Calibration samples (see
``calib.py``) are taken between requests, outside the timed regions, from a
calibration process on the same CPU, and every timed region is reported both
raw and rescaled to the reference speed.
"""

import json
import os
import resource
import sys
from time import perf_counter

from calib import REF_S, Calibration


def timed_suites(verify_mod, cal: Calibration, segments: list) -> None:
    """Time each verify suite as its own segment, with a calibration sample
    before it, so the rescaling follows the host's speed through the run."""
    table = verify_mod._SUITE_FUNCS

    def timed(fn):
        def run(*args, **kwargs):
            cal.take()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                segments.append((start, perf_counter()))

        return run

    for suite, fn in table.items():
        table[suite] = timed(fn)


def main(argv: list[str]) -> int:
    plan_path, result_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    cal = Calibration()
    cal.take()
    t0 = perf_counter()
    import pqm.cli

    t1 = perf_counter()
    cal.take()
    import workloads

    src = os.path.realpath(os.environ["PQM_BENCH_SRC"])
    if not os.path.realpath(pqm.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"pqm imported from {pqm.cli.__file__}, not from {src}")
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    verify = plan["requests"][0]["kind"] == "verify"

    for req in plan["warmup"]:
        workloads.execute(req, workloads.prepare(req))

    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    suite_segments: list = []
    if verify:
        timed_suites(pqm.verify, cal, suite_segments)

    records = []
    state_bytes = csv_bytes = 0
    for i, req in enumerate(plan["requests"]):
        if tracer:
            tracer.active = False
        inp = workloads.prepare(req)
        cal.maybe_take()
        if tracer:
            tracer.request_id = i
            tracer.active = True
        error = None
        start = perf_counter()
        try:
            out = workloads.execute(req, inp)
        except Exception as exc:  # a failed request is counted, not fatal
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        end = perf_counter()
        if tracer:
            tracer.active = False
        if error is None:
            try:
                error = workloads.check(req, inp, out)
            except Exception as exc:  # a malformed output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append({"cls": req["cls"], "start": start, "end": end, "error": error,
                        "kernel": req.get("calibrate", "spin")})
        for flag in ("--in", "--out"):  # bytes of state files and tables moved
            if flag in req.get("argv", ()):
                path = req["argv"][req["argv"].index(flag) + 1]
                size = os.path.getsize(path) if os.path.exists(path) else 0
                if path.endswith(".csv"):
                    csv_bytes += size
                else:
                    state_bytes += size
    cal.take()
    cal.close()

    for rec in records:
        start, end = rec.pop("start"), rec.pop("end")
        rec["raw_s"] = end - start
        rec["s"] = rec["raw_s"] * cal.scale(start, end, rec.pop("kernel"))
    if verify:
        # the request is the whole `pqm verify` run: the import, each suite
        # scaled on its own, and the rest of the run (argument parsing, the
        # report) without the calibration samples taken inside it
        rec = records[0]
        inside = sum(e - s for s, e, *_ in cal.samples if start <= s and e <= end)
        suites = sum(e - s for s, e in suite_segments)
        rest = rec["raw_s"] - inside - suites
        rec["raw_s"] = (t1 - t0) + suites + rest
        rec["s"] = ((t1 - t0) * cal.scale(t0, t1) + rest * REF_S / cal.median()
                    + sum((e - s) * cal.scale(s, e) for s, e in suite_segments))
    # the requests run back to back; the untimed preparation and checks
    # between them are the benchmark's, not the program's
    wall_s = sum(r["s"] for r in records)
    raw_wall_s = sum(r["raw_s"] for r in records)

    verify_failed = None
    if verify:
        verify_failed = workloads.check_verify(*out) if out else len(workloads.VERIFY_CHECKS)

    result = {
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "spin_median_s": cal.median(),
        # this process's own peak: the reaped calibration process, which
        # wait4 would fold in, is not the program's
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": records,
        "verify_failed": verify_failed,
        "grid_visits": tracer.grid_visits if tracer else 0,
        "grid_hits": tracer.grid_hits if tracer else 0,
        "state_bytes": state_bytes,
        "csv_bytes": csv_bytes,
        "layers": tracer.summary() if tracer else None,
    }
    if tracer:
        tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

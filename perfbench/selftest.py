"""Show that the output checks catch a corrupted output.

    python3 perfbench/selftest.py

For each kind of output (a transformed state, a displaced and an embedded
state, a round-tripped state file, a phase-space table, a poset answer, a
group-law result and a verify report) this runs a small real request, checks
that the clean output passes, corrupts one amplitude, cell or value, and
checks that the corrupted output fails.  ``run.py`` runs it before measuring.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bump_amplitude(path: str, index: int) -> None:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["amplitudes"][index][0] += 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")


def _bump_cell(path: str, a: int, b: int, n: int) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = lines[1 + a * n + b].split(",")
    row[2] = repr(float(row[2]) + 1e-6)
    lines[1 + a * n + b] = ",".join(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run(workdir: str) -> list[str]:
    """Return the problems found; an empty list means every corruption was caught."""
    import numpy as np

    import workloads as wl

    problems = []

    def expect(req, inp, corrupt, label):
        out = wl.execute(req, inp)
        if wl.check(req, inp, out) is not None:
            problems.append(f"{label}: clean output failed its check")
            return
        out = corrupt(out)
        if wl.check(req, inp, out) is None:
            problems.append(f"{label}: corrupted output passed its check")

    rng = np.random.default_rng(7)
    src = os.path.join(workdir, "st.json")
    wl.write_state(src, 12, "position", wl._random_amps(rng, 12, "position"))
    out = os.path.join(workdir, "out.json")

    def amp(index):
        return lambda res: (_bump_amplitude(out, index), res)[1]

    expect(wl._cli("t", ["fourier", "--method", "good", "--in", src, "--out", out],
                   type="fourier", src=src, method="good"), None, amp(5), "fourier")
    expect(wl._cli("t", ["displace", "--in", src, "--out", out, "--alpha", 3, "--beta", 4],
                   type="displace", src=src, alpha=3, beta=4), None, amp(2), "displace")
    expect(wl._cli("t", ["displace", "--in", src, "--out", out, "--alpha", 0, "--beta", 0],
                   type="roundtrip", src=src), None, amp(0), "roundtrip")
    expect(wl._cli("t", ["embed", "--from", 12, "--to", 36, "--in", src, "--out", out],
                   type="embed", src=src, dst=36), None, amp(30), "embed")

    table = os.path.join(workdir, "t.csv")
    wl.write_state(src, 7, "position", wl._random_amps(rng, 7, "position"))
    for kind in ("wigner", "weyl"):
        expect(wl._cli("t", ["wigner", "--kind", kind, "--in", src, "--out", table],
                       type="table", src=src, kind=kind, cells=[[1, 2], [4, 6]]),
               None, lambda res: (_bump_cell(table, 4, 6, 7), res)[1], f"{kind} table")

    def bump_width(res):
        payload = json.loads(res[1])
        payload["width"] += 1
        return res[0], json.dumps(payload)

    expect(wl._cli("t", ["poset", "--n", 360, "width"], type="poset", n=360, query="width"),
           None, bump_width, "poset width")

    req = {"kind": "lib", "cls": "t", "func": "hw_chain", "n": 10, "length": 8, "seed": 1}
    expect(req, wl.prepare(req),
           lambda res: (wl.fq.hw_mul(res[0], wl.fq.hw_x(10)), res[1]), "hw chain")

    report = "".join(f"[PASS] {s}:{n} residual=0.000e+00 tolerance=0.0e+00\n"
                     for s, n in sorted(wl.VERIFY_CHECKS)) + "OK: 36 checks\n"
    if wl.check_verify(0, report) != 0:
        problems.append("verify: clean report failed its check")
    one_failed = report.replace("[PASS] poset:t0_everywhere", "[FAIL] poset:t0_everywhere")
    if wl.check_verify(0, one_failed) != 1:
        problems.append("verify: a failed check was not counted")
    return problems


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        problems = run(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: " + ("FAILED" if problems else "every corrupted output was caught"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

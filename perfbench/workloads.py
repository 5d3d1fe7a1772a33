"""Workload plans, request execution and independent output checks.

A plan is a list of requests made from the seed by the parent process
(``make_plan``); input files it needs are written next to it.  A worker
process turns each request into program inputs (``prepare``, untimed), runs
it (``execute``, timed) and checks its output (``check``, untimed).  The seed
fixes every value the program sees; the request mix and sizes are fixed per
workload.

Every check compares against a reference that does not go through the code
path under test: ``numpy.fft`` for the transforms, the dense
``hw_matrix``/``parity_matrix`` path for table cells, integer arithmetic for
the group laws, and a benchmark-side factorisation for the divisor poset.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import numpy as np

from pqm import cli
from pqm import finiteqm as fq
from pqm import numbers as nm
from pqm import profinite_hw as ph

WORKLOADS = ("verify_default", "transforms", "phase_space", "exact_algebra")

# (suite, name) of every check `pqm verify` reports at default config
VERIFY_CHECKS = frozenset(
    tuple(s.split(":")) for s in """
fourier:fourier_fourth_power_is_identity fourier:parseval
good:good_factorization_matches_direct hw:group_law_matches_matrices
hw:zx_commutator_exact_phase hw:zx_commutator_matrices
tomography:displacement_expansion tomography:resolution_of_identity
parity:parity_displacement_expansion parity:parity_hermitian
parity:parity_sandwich_trace parity:parity_squares_to_identity
parity:parity_tomography marginals:marginal_a_pairing
marginals:marginal_b_pairing_with_hat marginals:parity_marginal_pairings
coherent:coherent_resolution_of_identity
embeddings:character_preservation_exact embeddings:composition_exact
embeddings:fourier_intertwining embeddings:hw_intertwining
embeddings:ubiquity_entropy embeddings:ubiquity_norm
embeddings:ubiquity_weyl_wigner numbers:character_factorization_exact
numbers:crt_round_trips_bijective numbers:minus_one_digit_pattern
numbers:ostrowski_product_is_one poset:symbolic_suprema poset:t0_everywhere
poset:t1_fails_with_witness_for_composite poset:width_length_oracle_values
schwartz:canonicalization_isometry schwartz:degree_refinement_invariance
schwartz:degree_refinement_invariance_integer_exact schwartz:fourier_degree_swap
""".split()
)

VERIFY_SUITES = ("fourier", "good", "hw", "tomography", "parity", "marginals", "coherent",
                 "embeddings", "numbers", "poset", "schwartz")

TRANSFORM_NS = (1024, 2187, 2310, 3600, 4096)  # 2^10, 3^7, 2.3.5.7.11, 2^4.3^2.5^2, 2^12
TABLE_NS = (31, 32, 48, 63, 64)
TOMOGRAPHY_NS = (24, 32, 40)
PARITY_NS = (17, 25, 33)  # odd only: the parity identities are guaranteed there
HW_NS = (9, 64, 1001, 4096, 65535, 65536, 720719, 720720)
PHW_PRIMES = (2, 3, 101)
PHW_PRECISIONS = (4, 8, 12, 16)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def write_state(path: str, n: int, rep: str, amps: np.ndarray) -> None:
    """Write a state file in the program's format (sorted keys, [re, im])."""
    data = {"amplitudes": [[float(z.real), float(z.imag)] for z in amps], "n": n, "rep": rep}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")


def _random_amps(rng, n: int, rep: str) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    weight = 1.0 / n if rep == "position" else 1.0
    return v / np.sqrt(weight * np.vdot(v, v).real)


def _cli(cls: str, argv: list, **check) -> dict:
    argv = [str(a) for a in argv]
    if "--out" in argv:
        check["out"] = argv[argv.index("--out") + 1]
    return {"kind": "cli", "cls": cls, "argv": argv, "check": check}


def _plan_transforms(rng, workdir: str) -> list[dict]:
    files = {}
    for n in TRANSFORM_NS:
        for rep in ("position", "momentum"):
            path = os.path.join(workdir, f"state_{n}_{rep}.json")
            write_state(path, n, rep, _random_amps(rng, n, rep))
            files[n, rep] = path
    out = lambda name: os.path.join(workdir, f"out_{name}.json")  # noqa: E731
    # the representations alternate in a fixed pattern, so the request mix,
    # and with it where p50 falls, is the same for every seed
    reps = iter(("position", "momentum") * 10)
    pick = lambda: next(reps)  # noqa: E731
    reqs = []
    # I/O-bound class (13 of 20 requests): JSON load + O(n) work + dump.  The
    # extra displacements at the two largest n, and the round trips at the
    # three largest, put p50 inside their cluster of similar latencies
    for n in TRANSFORM_NS + (3600, 4096):
        rep = pick()
        alpha, beta, gamma = (int(v) for v in rng.integers(1, n, 3))
        reqs.append(_cli("displace", [
            "displace", "--in", files[n, rep], "--out", out(f"d{len(reqs)}"),
            "--alpha", alpha, "--beta", beta, "--gamma", gamma],
            type="displace", src=files[n, rep], alpha=alpha, beta=beta))
    for n in (2310, 3600, 4096):
        rep = pick()
        reqs.append(_cli("roundtrip", [
            "displace", "--in", files[n, rep], "--out", out(f"r{n}"),
            "--alpha", 0, "--beta", 0, "--gamma", 0],
            type="roundtrip", src=files[n, rep]))
    for n, dst in ((1024, 3072), (2187, 4374)):
        rep = pick()
        reqs.append(_cli("embed", [
            "embed", "--from", n, "--to", dst, "--in", files[n, rep], "--out", out(f"e{n}")],
            type="embed", src=files[n, rep], dst=dst))
    rep = pick()  # square-free: Good's CRT path
    reqs.append(_cli("good_crt", [
        "fourier", "--method", "good", "--in", files[2310, rep], "--out", out("g2310")],
        type="fourier", src=files[2310, rep], method="good"))
    # dense-DFT class (3): direct method, and Good's method at a prime power
    dense = [(1024, "direct"), (3600, "direct"), (2187, "good")]
    dense += [(4096, "direct"), (4096, "good")] * 2  # the tail class (p90), 4 of 20
    for i, (n, method) in enumerate(dense):
        rep = pick()
        reqs.append(_cli(f"dense_{n}", [
            "fourier", "--n", n, "--method", method, "--in", files[n, rep],
            "--out", out(f"f{i}")],
            type="fourier", src=files[n, rep], method=method))
        # numpy and page faults on the n x n matrix: see calib.py
        reqs[-1]["calibrate"] = "stream"
    return reqs


def _plan_phase_space(rng, workdir: str) -> list[dict]:
    reqs = []
    for n in TABLE_NS:
        path = os.path.join(workdir, f"table_{n}.json")
        write_state(path, n, "position", _random_amps(rng, n, "position"))
        kinds = ["weyl", "wigner"] + (["wigner"] * 5 if n in (63, 64) else [])
        for i, kind in enumerate(kinds):
            cells = [[int(a), int(b)] for a, b in rng.integers(0, n, (6, 2))]
            reqs.append(_cli(f"table_{kind}_{n}", [
                "wigner", "--kind", kind, "--in", path,
                "--out", os.path.join(workdir, f"table_{n}_{i}.csv")],
                type="table", src=path, kind=kind, cells=cells))
    # library calls: every n is visited three times, so the first visit fills
    # the displacement-grid cache and the later ones hit it
    for visit in range(3):
        for n in TOMOGRAPHY_NS:
            for func in ("resolution_identity_check", "operator_expand", "coherent_check"):
                reqs.append({"kind": "lib", "cls": "tomography", "func": func, "n": n,
                             "seed": int(rng.integers(0, 2**31))})
        for n in PARITY_NS[: 1 + visit]:
            reqs.append({"kind": "lib", "cls": "parity", "func": "parity_expand_check",
                         "n": n, "seed": int(rng.integers(0, 2**31))})
    # coherent_check at n=40 costs the same on every call (it uses no cache);
    # nine more of them make a plateau of latencies that holds p50, which
    # would otherwise fall where the latencies of the other calls thin out
    reqs[-1:-1] = [{"kind": "lib", "cls": "coherent_40", "func": "coherent_check", "n": 40,
                    "seed": int(rng.integers(0, 2**31))} for _ in range(9)]
    # the n^4 arrays at n=33 on top of every grid cache set the peak RSS;
    # running that request last keeps the peak independent of the order
    reqs[-1]["last"] = True
    return reqs


def _plan_exact_algebra(rng, workdir: str) -> list[dict]:
    reqs = []
    seed = lambda: int(rng.integers(0, 2**31))  # noqa: E731
    for n in HW_NS:
        for _ in range(2):
            reqs.append({"kind": "lib", "cls": "hw_chain", "func": "hw_chain", "n": n,
                         "length": 120, "seed": seed()})
    for p in PHW_PRIMES:
        for prec in PHW_PRECISIONS:
            reqs.append({"kind": "lib", "cls": "phw_chain", "func": "phw_chain", "p": p,
                         "precision": prec, "length": 40, "seed": seed()})
    for n in (360, 5040, 720720, 2**10 * 3**5, 101**2 * 7, 30030):
        reqs.append({"kind": "lib", "cls": "phw_global", "func": "phw_global", "n": n,
                     "length": 12, "seed": seed()})
    for n in (720720, 2**12 * 3**7, 30030, 101**3, 10**6, 9699690):
        reqs.append({"kind": "lib", "cls": "rat", "func": "rat", "n": n,
                     "count": 60, "seed": seed()})
    for p in (2, 3, 101, 7, 5, 65537):
        reqs.append({"kind": "lib", "cls": "padic_rational", "func": "padic_rational",
                     "p": p, "precision": 16, "count": 150, "seed": seed()})
    for n in (720720, 10**6, 9699690, 2**10 * 3**5):
        mu = int(rng.integers(0, n))
        reqs.append(_cli("padic", ["padic", "crt", "--n", n, "--mu", mu],
                         type="padic_crt", n=n, mu=mu))
    for p in (2, 3, 101):
        den = p
        while den % p == 0:
            den = int(rng.integers(1, 10**4))
        q = Fraction(-int(rng.integers(1, 10**6)), den)
        # a negative value must be passed as --value=-7/5; argparse rejects "--value -7/5"
        reqs.append(_cli("padic", ["padic", "expand", "--p", p, f"--value={q}",
                                   "--precision", 12],
                         type="padic_expand", p=p, value=str(q), precision=12))
    for n in (720720, 2**6 * 3**4, 9699690):
        q = Fraction(int(rng.integers(-n, n)), n)
        reqs.append(_cli("padic", ["padic", "decompose", f"--value={q}"],
                         type="padic_decompose", value=str(q)))
    queries = ("width", "partition", "antichain", "topology")
    reqs += [_cli("poset_small", ["poset", "--n", 5040, q], type="poset", n=5040, query=q)
             for q in queries]
    # tail class (p90): divisor posets of large N.  10^6 has few divisors but
    # a long trial division; 720720 has 239 divisors and O(d^2) matching on
    # top; their latencies overlap, so they form one class
    reqs += [_cli("poset_large", ["poset", "--n", 10**6, q], type="poset", n=10**6, query=q)
             for q in queries * 2]
    reqs += [_cli("poset_large", ["poset", "--n", 720720, q], type="poset", n=720720, query=q)
             for q in queries[:3] * 5 + ("topology",) * 2]
    return reqs


def make_plan(workload: str, seed: int, workdir: str) -> list[dict]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify_default":
        return [{"kind": "verify", "cls": "verify"}]
    reqs = {
        "transforms": _plan_transforms,
        "phase_space": _plan_phase_space,
        "exact_algebra": _plan_exact_algebra,
    }[workload](rng, workdir)
    # a seeded order interleaves the classes, so a slow spell of the machine
    # hits every class alike instead of one block of requests
    reqs = [reqs[i] for i in rng.permutation(len(reqs))]
    return sorted(reqs, key=lambda r: r.get("last", False))


def warmup_plan(workload: str, workdir: str) -> list[dict]:
    """Small requests run before timing, so lazy imports and first-call costs
    of the interpreter and numpy are not charged to the first request."""
    rng = np.random.default_rng(0)
    if workload == "transforms":
        path = os.path.join(workdir, "warm_state.json")
        write_state(path, 12, "position", _random_amps(rng, 12, "position"))
        out = os.path.join(workdir, "warm_out.json")
        return [_cli("warm", ["fourier", "--method", m, "--in", path, "--out", out], type="none")
                for m in ("direct", "good")] + [
            _cli("warm", ["displace", "--in", path, "--out", out, "--alpha", 1, "--beta", 1],
                 type="none"),
            _cli("warm", ["embed", "--from", 12, "--to", 24, "--in", path, "--out", out],
                 type="none")]
    if workload == "phase_space":
        path = os.path.join(workdir, "warm_state.json")
        write_state(path, 5, "position", _random_amps(rng, 5, "position"))
        out = os.path.join(workdir, "warm_table.csv")
        return [_cli("warm", ["wigner", "--kind", k, "--in", path, "--out", out], type="none")
                for k in ("wigner", "weyl")] + [
            {"kind": "lib", "cls": "warm", "func": f, "n": 3, "seed": 0}
            for f in ("resolution_identity_check", "operator_expand", "coherent_check",
                      "parity_expand_check")]
    if workload == "exact_algebra":
        return [
            {"kind": "lib", "cls": "warm", "func": "hw_chain", "n": 6, "length": 4, "seed": 0},
            {"kind": "lib", "cls": "warm", "func": "phw_chain", "p": 3, "precision": 4,
             "length": 4, "seed": 0},
            {"kind": "lib", "cls": "warm", "func": "phw_global", "n": 12, "length": 2, "seed": 0},
            {"kind": "lib", "cls": "warm", "func": "rat", "n": 12, "count": 4, "seed": 0},
            {"kind": "lib", "cls": "warm", "func": "padic_rational", "p": 3, "precision": 4,
             "count": 4, "seed": 0},
            _cli("warm", ["poset", "--n", 12, "width"], type="none"),
            _cli("warm", ["padic", "crt", "--n", 12, "--mu", 5], type="none"),
        ]
    return []


# ---------------------------------------------------------------------------
# Execution (inside the worker; only ``execute`` is timed)
# ---------------------------------------------------------------------------


def _hw_ops(rng, n: int, length: int) -> list[tuple]:
    ops = []
    for _ in range(length):
        a, b, g = (int(v) for v in rng.integers(0, n, 3))
        ops.append((a, b, g, bool(rng.integers(0, 4) == 0)))  # adjoint every ~4th
    return ops


def prepare(req: dict):
    """Build the program-side inputs of a request; not timed."""
    if req["kind"] != "lib":
        return None
    rng = np.random.default_rng(req["seed"])
    func = req["func"]
    if func in ("resolution_identity_check", "operator_expand", "parity_expand_check"):
        n = req["n"]
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if func == "coherent_check":
        return fq.FiniteState(req["n"], "position", _random_amps(rng, req["n"], "position"))
    if func == "hw_chain":
        n = req["n"]
        ops = _hw_ops(rng, n, req["length"])
        return ops, [fq.HWElement.from_canonical(n, a, b, g) for a, b, g, _ in ops]
    if func == "phw_chain":
        p, prec = req["p"], req["precision"]
        draw = random.Random(req["seed"]).randrange
        triples = [tuple(draw(p**prec) for _ in range(3)) for _ in range(req["length"])]
        return triples, [ph.ProfiniteHWElement.from_ints(*t, p, prec) for t in triples]
    if func == "phw_global":
        tails = [tuple(int(v) for v in rng.integers(-10**9, 10**9, 3))
                 for _ in range(req["length"])]
        return tails, [ph.GlobalProfiniteHW.from_tail(*t) for t in tails]
    if func == "rat":
        n = req["n"]
        return [nm.RatMod1.of(int(m), n) for m in rng.integers(1, n, req["count"])]
    if func == "padic_rational":
        p = req["p"]
        out = []
        while len(out) < req["count"]:
            num, den = int(rng.integers(-10**9, 10**9)), int(rng.integers(1, 10**6))
            if den % p:
                out.append(Fraction(num, den))
        return out
    raise ValueError(f"unknown library request {func}")


def execute(req: dict, inp):
    """Run one request against the program; this is the timed region."""
    if req["kind"] in ("verify", "cli"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify"] if req["kind"] == "verify" else req["argv"])
        return code, buf.getvalue()
    func = req["func"]
    if func in ("resolution_identity_check", "coherent_check"):
        return getattr(fq, func)(inp)
    if func == "operator_expand":
        return fq.operator_expand(inp)
    if func == "parity_expand_check":
        return fq.parity_expand_check(inp)
    if func == "hw_chain":
        ops, els = inp
        acc = fq.hw_identity(req["n"])
        for (_, _, _, adj), el in zip(ops, els):
            acc = fq.hw_mul(acc, fq.hw_adjoint(el) if adj else el)
        return acc, fq.hw_mul(acc, fq.hw_adjoint(acc))
    if func == "phw_chain":
        _, els = inp
        acc = els[0]
        for el in els[1:]:
            acc = ph.phw_mul(acc, el)
        comms = [ph.phw_commutator(a, b) for a, b in zip(els[::2], els[1::2])]
        return acc, comms
    if func == "phw_global":
        _, els = inp
        acc = els[0]
        for el in els[1:]:
            acc = ph.phw_global_mul(acc, el)
        return ph.phw_global_project_factors(acc, req["n"]), [
            ph.phw_global_project_factors(el, req["n"]) for el in els[:2]]
    if func == "rat":
        return [nm.rat_recombine(nm.rat_decompose(q)) for q in inp], [
            nm.rat_decompose(q) for q in inp[:4]]
    if func == "padic_rational":
        return [nm.PadicInt.from_rational(q, req["p"], req["precision"]) for q in inp]
    raise ValueError(f"unknown library request {func}")


# ---------------------------------------------------------------------------
# Checks: independent references, run untimed after each request
# ---------------------------------------------------------------------------


def _factorize(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _crt(residues: dict[int, int], moduli: dict[int, int]) -> int:
    x, m = 0, 1
    for p, q in moduli.items():
        t = ((residues[p] - x) * pow(m, -1, q)) % q
        x, m = x + m * t, m * q
    return x % m


def _read_state(path: str):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    return data, amps


def fourier_reference(amps: np.ndarray, rep: str) -> np.ndarray:
    """Forward kernel omega_n(-XP) with the source measure: numpy.fft."""
    n = len(amps)
    return np.fft.fft(amps) * (1.0 / n if rep == "position" else 1.0)


def check_fourier(c: dict) -> str | None:
    src, a = _read_state(c["src"])
    out, b = _read_state(c["out"])
    want = fourier_reference(a, src["rep"])
    flipped = "momentum" if src["rep"] == "position" else "position"
    if out["n"] != src["n"] or out["rep"] != flipped:
        return "wrong n or representation tag"
    if out.get("metadata") != {"method": c["method"]}:
        return "missing method metadata"
    err = float(np.max(np.abs(b - want)))
    if not err <= 1e-9 * float(np.max(np.abs(want))):
        return f"differs from numpy.fft by {err:.3e}"
    return None


def check_displace(c: dict) -> str | None:
    src, a = _read_state(c["src"])
    out, b = _read_state(c["out"])
    n = src["n"]
    if out["n"] != n or out["rep"] != src["rep"]:
        return "wrong n or representation tag"
    x = np.arange(n)
    chi = 2 if n % 2 else 1  # the position phase is omega_n(chi * alpha * x)
    shift = c["beta"] if src["rep"] == "position" else chi * c["alpha"]
    if not np.allclose(np.abs(b), np.abs(a[(x - shift) % n]), rtol=1e-12, atol=0):
        return "moduli are not the shifted input moduli"
    if abs(np.vdot(b, b).real - np.vdot(a, a).real) > 1e-12 * np.vdot(a, a).real:
        return "norm not preserved"
    return None


def check_roundtrip(c: dict) -> str | None:
    with open(c["src"], "rb") as fh_in, open(c["out"], "rb") as fh_out:
        if fh_in.read() != fh_out.read():
            return "identity displacement did not round-trip bit-identically"
    return None


def check_embed(c: dict) -> str | None:
    src, a = _read_state(c["src"])
    out, b = _read_state(c["out"])
    n, m = src["n"], c["dst"]
    if out["n"] != m or out["rep"] != src["rep"]:
        return "wrong n or representation tag"
    if src["rep"] == "position":
        want = a[np.arange(m) % n]  # periodic extension
    else:
        want = np.zeros(m, dtype=complex)
        want[np.arange(n) * (m // n)] = a
    if not np.array_equal(b, want):
        return "embedding is not the periodic extension / zero padding"
    return None


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def check_table(c: dict) -> str | None:
    _, f = _read_state(c["src"])
    n = len(f)
    header, rows = read_table(c["out"])
    if header != "a,b,re,im" or len(rows) != n * n:
        return "bad header or row count"
    for a, b in c["cells"]:
        row = rows[a * n + b]
        if int(row[0]) != a or int(row[1]) != b:
            return f"row order broken at ({a}, {b})"
        if c["kind"] == "wigner":
            m = fq.parity_matrix(fq.PhasePoint(n, a, b))
        else:
            m = fq.hw_matrix(fq.HWElement.from_canonical(n, a, b, 0))
        want = np.vdot(f, m @ f) / n
        got = complex(float(row[2]), float(row[3]))
        if not abs(got - want) <= 1e-9:
            return f"cell ({a}, {b}) off by {abs(got - want):.3e}"
    return None


def _omega_levels(n: int) -> list[int]:
    """Divisor counts by number of prime factors (with multiplicity)."""
    levels = [1]
    for e in _factorize(n).values():
        new = [0] * (len(levels) + e)
        for k, cnt in enumerate(levels):
            for j in range(e + 1):
                new[k + j] += cnt
        levels = new
    return levels


def check_poset(c: dict, payload: dict) -> str | None:
    n = c["n"]
    divisors = {1}
    for p, e in _factorize(n).items():
        divisors = {d * p**k for d in divisors for k in range(e + 1)}
    divisors.discard(1)
    levels = _omega_levels(n)
    width = max(levels[1:])
    length = len(levels) - 1  # Omega(n)
    q = c["query"]
    if payload.get("n") != n:
        return "wrong n"
    if q == "width":
        return None if payload.get("width") == width else "wrong width"
    if q == "topology":
        wit = payload.get("T1_witness")
        ok = payload.get("T0") is True and payload.get("T1") is False and wit is not None
        ok = ok and wit[0] != wit[1] and wit[1] % wit[0] == 0 and set(wit) <= divisors
        return None if ok else "wrong topology answer"
    if payload.get("width") != width or payload.get("length") != length:
        return "wrong width or length"
    if q == "partition":
        chains = payload["chain_partition"]
        flat = [x for ch in chains for x in ch]
        ok = len(chains) == width and sorted(flat) == sorted(divisors)
        ok = ok and all(y % x == 0 and y != x for ch in chains for x, y in zip(ch, ch[1:]))
        return None if ok else "chain partition is not a minimum chain cover"
    anti = payload["max_antichain"]
    ok = len(anti) == width and set(anti) <= divisors
    ok = ok and all(x == y or (x % y and y % x) for x in anti for y in anti)
    return None if ok else "antichain is not a maximum antichain"


def check_padic(c: dict, payload: dict) -> str | None:
    if c["type"] == "padic_crt":
        n, mu = c["n"], c["mu"]
        fac = _factorize(n)
        moduli = [p**e for p, e in fac.items()]
        ok = payload["moduli"] == moduli and payload["components"] == [mu % q for q in moduli]
        hats = payload["hat_components"]
        total = sum(Fraction(h, q) for h, q in zip(hats, moduli)) - Fraction(mu, n)
        ok = ok and len(hats) == len(moduli) and total.denominator == 1
        return None if ok else "CRT components wrong"
    if c["type"] == "padic_expand":
        p, q, prec = c["p"], Fraction(c["value"]), c["precision"]
        digits = payload["digits"]
        mod = p**prec
        value = sum(d * p**v for v, d in enumerate(digits))
        ok = len(digits) == prec and all(0 <= d < p for d in digits)
        ok = ok and (value * q.denominator - q.numerator) % mod == 0
        return None if ok else "p-adic digits wrong"
    q = Fraction(c["value"])
    parts = {int(p): Fraction(v) for p, v in payload["parts"].items()}
    frac = q - (q.numerator // q.denominator)
    ok = payload["value"] == f"{frac.numerator}/{frac.denominator}"
    ok = ok and (sum(parts.values()) - q).denominator == 1
    ok = ok and all(set(_factorize(v.denominator)) == {p} for p, v in parts.items())
    return None if ok else "partial fractions wrong"


def _hw_reference(n: int, ops: list[tuple]) -> tuple[int, int, int]:
    """The group law in integers: the phase is an integer P meaning P/(2n)."""
    chi = 2 if n % 2 else 1
    acc = (0, 0, 0)
    for a, b, g, adj in ops:
        # canonical (alpha, beta, gamma) -> phase (gamma - alpha beta)/n (odd n)
        # or (2 gamma - alpha beta)/(2n) (even n), written over 2n
        el = (a, b, (2 * (g - a * b) if n % 2 else 2 * g - a * b) % (2 * n))
        if adj:
            el = ((-a) % n, (-b) % n, (-el[2] - 2 * chi * a * b) % (2 * n))
        acc = ((acc[0] + el[0]) % n, (acc[1] + el[1]) % n,
               (acc[2] + el[2] - 2 * chi * el[0] * acc[1]) % (2 * n))
    return acc


def _padic_value(x) -> int:
    return sum(d * x.p**v for v, d in enumerate(x.digits))


def check_lib(req: dict, inp, out) -> str | None:
    func = req["func"]
    if func in ("resolution_identity_check", "coherent_check"):
        return None if out <= 1e-9 else f"residual {out:.3e}"
    if func == "operator_expand":
        coeffs, residual = out
        n = req["n"]
        a, b = (int(v) for v in np.random.default_rng(req["seed"] + 1).integers(0, n, 2))
        d = fq.hw_matrix(fq.HWElement.from_canonical(n, a, b, 0))
        want = np.trace(d.conj().T @ inp)
        if abs(coeffs[a, b] - want) > 1e-9 * max(1.0, abs(want)):
            return f"coefficient ({a}, {b}) wrong"
        return None if residual <= 1e-9 else f"residual {residual:.3e}"
    if func == "parity_expand_check":
        worst = max(out.expansion_residual, out.sandwich_residual, out.tomography_residual)
        return None if worst <= 1e-9 else f"residual {worst:.3e}"
    if func == "hw_chain":
        n = req["n"]
        acc, unit = out
        alpha, beta, phase2n = _hw_reference(n, inp[0])
        ok = (acc.alpha, acc.beta) == (alpha, beta)
        ok = ok and acc.phase.as_fraction == Fraction(phase2n, 2 * n) % 1
        ok = ok and (unit.alpha, unit.beta, unit.phase.numerator) == (0, 0, 0)
        return None if ok else "group law result wrong"
    if func == "phw_chain":
        triples, els = inp
        acc, comms = out
        p, prec = req["p"], req["precision"]
        mod = p**prec
        ref = triples[0]
        for t in triples[1:]:
            ref = ((ref[0] + t[0]) % mod, (ref[1] + t[1]) % mod,
                   (ref[2] + t[2] + ref[0] * t[1] - t[0] * ref[1]) % mod)
        got = tuple(_padic_value(x) for x in (acc.a, acc.b, acc.c))
        if got != ref:
            return "truncated group law wrong"
        for k in (1, prec // 2, prec):  # the projection to Z(p^k)^3 is a homomorphism
            if tuple(v % p**k for v in got) != tuple(v % p**k for v in ref):
                return f"projection to level {k} wrong"
        for (g, h), cm in zip(zip(triples[::2], triples[1::2]), comms):
            want = (0, 0, 2 * (g[0] * h[1] - h[0] * g[1]) % mod)
            if tuple(_padic_value(x) for x in (cm.a, cm.b, cm.c)) != want:
                return "commutator wrong"
        return None
    if func == "phw_global":
        tails, _ = inp
        proj, first_two = out
        n = req["n"]
        fac = _factorize(n)
        ref = tails[0]
        for t in tails[1:]:
            ref = (ref[0] + t[0], ref[1] + t[1], ref[2] + t[2] + ref[0] * t[1] - t[0] * ref[1])
        if set(proj) != set(fac):
            return "wrong prime support"
        for p, e in fac.items():
            if tuple(proj[p]) != tuple(v % p**e for v in ref):
                return f"projection at {p} wrong"
        moduli = {p: p**e for p, e in fac.items()}
        joined = tuple(_crt({p: proj[p][i] for p in fac}, moduli) for i in range(3))
        if joined != tuple(v % n for v in ref):
            return "CRT join of the factors is not the Z(n) projection"
        # homomorphism: project(g) * project(h) == project(g h) on Z(n)^3
        g, h = (tuple(_crt({p: f[p][i] for p in fac}, moduli) for i in range(3))
                for f in first_two)
        gh = (tails[0][0] + tails[1][0], tails[0][1] + tails[1][1],
              tails[0][2] + tails[1][2] + tails[0][0] * tails[1][1] - tails[1][0] * tails[0][1])
        law = ((g[0] + h[0]) % n, (g[1] + h[1]) % n, (g[2] + h[2] + g[0] * h[1] - h[0] * g[1]) % n)
        return None if law == tuple(v % n for v in gh) else "projection is not a homomorphism"
    if func == "rat":
        back, parts_sample = out
        if any(b != q for b, q in zip(back, inp)) or len(back) != len(inp):
            return "rat_recombine(rat_decompose(q)) != q"
        for q, parts in zip(inp, parts_sample):
            if set(parts) != set(_factorize(q.denominator)):
                return "component support is not the primes of the denominator"
            if any(set(_factorize(f.as_fraction.denominator)) != {p} for p, f in parts.items()):
                return "a component is not a p-power fraction"
        return None
    if func == "padic_rational":
        mod = req["p"] ** req["precision"]
        for q, x in zip(inp, out):
            if (_padic_value(x) * q.denominator - q.numerator) % mod:
                return f"from_rational({q}) wrong"
        return None if len(out) == len(inp) else "missing results"
    return f"unknown library request {func}"


def check_verify(code: int, text: str) -> int:
    """Number of the 36 expected checks that did not pass."""
    passed = set()
    for line in text.splitlines():
        if line.startswith("[PASS] "):
            suite, _, name = line[7:].split(" ", 1)[0].partition(":")
            passed.add((suite, name))
    missing = len(VERIFY_CHECKS - passed)
    if code != 0 or f"OK: {len(VERIFY_CHECKS)} checks" not in text:
        return max(missing, 1)
    return missing


def check(req: dict, inp, out) -> str | None:
    """None when the request's output is correct, else what is wrong."""
    if req["kind"] == "lib":
        return check_lib(req, inp, out)
    code, text = out
    if req["kind"] == "verify":
        failed = check_verify(code, text)
        return f"{failed} verify checks failed" if failed else None
    if code != 0:
        return f"exit code {code}"
    c = req["check"]
    kind = c["type"]
    if kind == "none":
        return None
    if kind in ("poset", "padic_crt", "padic_expand", "padic_decompose"):
        payload = json.loads(text)
        return check_poset(c, payload) if kind == "poset" else check_padic(c, payload)
    return {
        "fourier": check_fourier,
        "displace": check_displace,
        "roundtrip": check_roundtrip,
        "embed": check_embed,
        "table": check_table,
    }[kind](c)

"""The ``pqm`` command line: state-file plumbing plus the verification harness.

State files are JSON ({"n", "rep", "amplitudes": [[re, im], ...]}, optional
"metadata"), phase-space tables are CSV with header ``a,b,re,im``.  Exit
codes: 0 success, 1 verification failure, 2 usage, parse or I/O errors and
running out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from . import finiteqm as fq
from . import numbers as nm
from . import poset as ps
from .embeddings import EmbeddingSpec, state_embed
from .verify import SUITES, VerifyConfig, report_dict, run_suites


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# State files
# ---------------------------------------------------------------------------


def load_state(path: str) -> fq.FiniteState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read state file {path}: {exc}") from exc
    try:
        n, rep = data["n"], data["rep"]
        if type(n) is not int:
            raise TypeError(f"n={n!r} is not an integer")
        pairs = np.array(data["amplitudes"])
        numeric = pairs.dtype.kind in "biuf" or all(
            isinstance(v, (int, float)) for v in pairs.flat
        )
        if not numeric or (pairs.size and pairs.shape[1:] != (2,)):
            raise TypeError("amplitudes must be [re, im] number pairs")
        # one (n, 2) float array read as complex keeps every bit, -0.0 too
        amps = np.asarray(pairs, dtype=float).view(complex).ravel()
        if not np.isfinite(amps).all():
            raise ValueError("non-finite amplitude")
        return fq.FiniteState(n, rep, amps)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed state file {path}: {exc}") from exc


def dump_state(f: fq.FiniteState, path: str, metadata: dict | None = None) -> None:
    a = f.amplitudes
    data = {
        "n": f.n,
        "rep": f.rep,
        "amplitudes": np.column_stack((a.real, a.imag)).tolist(),
    }
    if metadata:
        data["metadata"] = metadata
    # one json.dumps call takes the C encoder; a streamed json.dump does not
    text = json.dumps(data, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Config files: plain "key = value" lines
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "tolerance": float,
    "max_n": int,
    "samples": int,
    "seed": int,
    "even_n_exploratory": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "poset_limit": int,
}


def load_config(path: str) -> dict:
    out: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = (s.strip() for s in line.partition("="))
                if key not in _CONFIG_KEYS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    out[key] = _CONFIG_KEYS[key](value)
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: bad value for {key}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fourier(args) -> int:
    f = load_state(args.infile)
    if args.n is not None and args.n != f.n:
        raise UsageError(f"state has n={f.n}, expected n={args.n}")
    out = fq.fourier_good(f) if args.method == "good" else fq.fourier(f)
    dump_state(out, args.out, metadata={"method": args.method})
    return 0


def cmd_displace(args) -> int:
    f = load_state(args.infile)
    el = fq.HWElement.from_canonical(f.n, args.alpha, args.beta, args.gamma)
    dump_state(fq.displace(el, f), args.out)
    return 0


def cmd_wigner(args) -> int:
    f = load_state(args.infile)
    doubled = args.doubled and args.kind == "wigner" and f.n % 2 == 0
    table = fq.wigner_table(f, args.kind, doubled)
    # a-major rows of Python floats, so the values print as repr(float)
    text = "".join(
        f"{a},{b},{re!r},{im!r}\n"
        for a, (res, ims) in enumerate(zip(table.real.tolist(), table.imag.tolist()))
        for b, (re, im) in enumerate(zip(res, ims))
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("a,b,re,im\n" + text)
    return 0


def cmd_embed(args) -> int:
    f = load_state(args.infile)
    if f.n != args.src:
        raise UsageError(f"state has n={f.n}, expected n={args.src}")
    dump_state(state_embed(f, EmbeddingSpec(args.src, args.dst)), args.out)
    return 0


def cmd_poset(args) -> int:
    if args.query in ("width", "length", "partition", "antichain"):
        res = ps.divisor_width_length(args.n)
        payload = {
            "n": args.n,
            "width": res.width,
            "length": res.length,
        }
        if args.query == "partition":
            payload["chain_partition"] = [list(c) for c in res.chain_partition]
        if args.query == "antichain":
            payload["max_antichain"] = sorted(res.max_antichain)
        if args.query in ("width", "length"):
            payload = {"n": args.n, args.query: payload[args.query]}
    elif args.query == "topology":
        poset = ps.divisor_poset(args.n, bound=ps.SIZE_BOUND)
        t1, witness = ps.check_t1(poset)
        payload = {
            "n": args.n,
            "T0": ps.check_t0(poset),
            "T1": t1,
            "T1_witness": list(witness) if witness else None,
        }
    elif args.query == "basis":
        # U(x) = N(x), so x's own factorization answers, never n's divisors
        if args.n < 2:
            raise UsageError("n must be >= 2")
        if args.element is None:
            raise UsageError("basis query needs --element")
        if args.element < 2 or args.n % args.element:
            raise UsageError(f"{args.element} is not a divisor (> 1) of {args.n}")
        payload = {
            "n": args.n,
            "element": args.element,
            "open_set": list(ps.divisor_poset(args.element).elements),
        }
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown query {args.query}")
    print(json.dumps(payload, sort_keys=True))
    return 0


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc


def cmd_padic(args) -> int:
    if args.action == "crt":
        if args.n is None or args.mu is None:
            raise UsageError("crt needs --n and --mu")
        comps = nm.crt_split_mu(args.n, args.mu)
        hats = nm.crt_split_nu_hat(args.n, args.mu)
        factors = [f.q for f in nm.crt_idempotents(args.n)]
        payload = {
            "n": args.n,
            "mu": args.mu,
            "moduli": factors,
            "components": list(comps),
            "hat_components": list(hats),
        }
    elif args.action == "ord":
        if args.p is None or args.value is None:
            raise UsageError("ord needs --p and --value")
        q = _parse_rational(args.value)
        ordv, absv = nm.padic_ord_abs(q, args.p)
        payload = {
            "p": args.p,
            "value": str(q),
            "ord": ordv,
            "abs": str(absv),
        }
    elif args.action == "expand":
        if args.p is None or args.value is None:
            raise UsageError("expand needs --p and --value")
        q = _parse_rational(args.value)
        a = nm.PadicInt.from_rational(q, args.p, args.precision)
        payload = {
            "p": args.p,
            "value": str(q),
            "precision": args.precision,
            "digits": list(a.digits),
        }
    elif args.action == "ostrowski":
        if args.value is None:
            raise UsageError("ostrowski needs --value")
        q = _parse_rational(args.value)
        prod = nm.ostrowski_product(q)
        payload = {"value": str(q), "product": str(prod)}
    elif args.action == "decompose":
        if args.value is None:
            raise UsageError("decompose needs --value")
        q = nm.RatMod1.of(_parse_rational(args.value))
        parts = nm.rat_decompose(q)
        payload = {
            "value": f"{q.numerator}/{q.denominator}",
            "parts": {str(p): str(fr.as_fraction) for p, fr in parts.items()},
        }
    else:  # pragma: no cover
        raise UsageError(f"unknown action {args.action}")
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    overrides = load_config(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            overrides[key] = flag
    suites = tuple(args.suite) if args.suite else SUITES
    try:
        cfg = VerifyConfig(suites=suites, **overrides)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    results = run_suites(cfg)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"[{status}] {r.suite}:{r.name} residual={r.residual:.3e} "
            f"tolerance={r.tolerance:.1e}"
        )
    report = report_dict(results, cfg)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    passed = report["passed"]
    print(f"{'OK' if passed else 'FAILED'}: {len(results)} checks")
    return 0 if passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqm",
        description="Exact finite phase-space machinery on Z(n) and its p-adic limits",
    )
    parser.add_argument("--version", action="version", version=f"pqm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fourier", help="Fourier-transform a state file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=("direct", "good"), default="direct")
    p.add_argument("--n", type=int, default=None, help="validate the dimension")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("displace", help="apply a displacement operator")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--gamma", type=int, default=0)
    p.set_defaults(func=cmd_displace)

    p = sub.add_parser("wigner", help="tabulate the Wigner or Weyl function")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--kind", choices=("wigner", "weyl"), default="wigner")
    p.add_argument("--doubled", action="store_true", help="even-n doubled a-grid")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("embed", help="embed a state into a larger system")
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("poset", help="divisor poset and topology queries")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "query",
        choices=("width", "length", "partition", "antichain", "topology", "basis"),
    )
    p.add_argument("--element", type=int, default=None)
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("padic", help="p-adic and CRT evaluations")
    p.add_argument("action", choices=("crt", "ord", "expand", "ostrowski", "decompose"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--value", default=None)
    p.add_argument("--precision", type=int, default=8)
    p.set_defaults(func=cmd_padic)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--suite", action="append", choices=SUITES, default=None)
    p.add_argument("--json", default=None, help="write the JSON report here")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--poset-limit", dest="poset_limit", type=int, default=None)
    p.add_argument("--even-n-exploratory", action="store_true", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Read ``--value -7/5`` as ``--value=-7/5``: argparse takes a token that
    starts with "-" and is not a plain negative number for an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--value" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"--value={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"pqm: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"pqm: error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

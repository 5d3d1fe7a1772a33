"""The ``pqm`` command line: state-file plumbing plus the verification harness.

State files are JSON ({"n", "rep", "amplitudes": [[re, im], ...]}, optional
"metadata"), phase-space tables are CSV with header ``a,b,re,im``.  Exit
codes: 0 success, 1 verification failure, 2 usage, parse or I/O errors and
running out of memory.

Only the modules a subcommand needs are imported, inside it: ``padic`` and
``poset`` are integer arithmetic and never load numpy.  ``main`` builds its
parser on its first call and reuses it for every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING

from . import SUITES, __version__
from . import numbers as nm
from . import poset as ps

if TYPE_CHECKING:
    from .finiteqm import FiniteState


class UsageError(Exception):
    pass


# the most base-p digits ``pqm padic expand`` lists.  It counts digits, not
# bits: on Python 3.11, 10^4 digits take about 2 ms at p = 3 and 0.4 s at an
# 18-digit p, where big-int division, quadratic there, sets the cost
PRECISION_BOUND = 10**4

# str() prints an int of at most 4300 digits (Python's default limit), so a
# ``--value`` must stay below this in numerator and denominator
_VALUE_BOUND = 10**4300
# Fraction builds 10^|exponent| before any other check.  Its integer part,
# its fraction and a printable value each have at most 4300 digits, so only
# a value of 0 can have a longer exponent than this
_EXPONENT_BOUND = 3 * 4300
# the most amplitudes ``pqm embed`` writes: --to 2^20 from a 1024-point state
# takes 2.4-2.6 s and 53 MB peak (Python 3.11, numpy 2.4, one core) for a
# 45 MB state file.  The time grows linearly in --to; the memory holds a few
# arrays of --to values, since the text is written a chunk at a time
_EMBED_BOUND = 2**20
# the largest state file ``load_state`` reads, checked before it is parsed:
# the largest state ``pqm embed`` writes, 2^20 amplitude pairs each at the
# longest repr of a float, plus the keys
_STATE_BOUND = (
    _EMBED_BOUND * len("[-2.2250738585072014e-308, -2.2250738585072014e-308], ") + 2**10
)
# the JSON tokens ``load_state`` counts before it parses, and the most it
# parses: a state pqm writes holds 3 per amplitude pair ("[", the pair's ","
# and the "," after it) and a few dozen in its keys.  Short pairs, empty
# objects or short strings parse into far more Python objects per byte than
# the byte bound allows for
_STATE_TOKENS = ",[{:\""
_STATE_TOKEN_BOUND = 3 * _EMBED_BOUND + 2**10
# the amplitude pairs ``dump_state`` encodes in one json.dumps call
_STATE_CHUNK = 2**14
# the most cells ``pqm wigner`` writes: 2^20 cells (n = 1024) take 1.8-2.0 s
# and 95 MB peak (Python 3.11, numpy 2.4, one core) for the 52 MB Weyl CSV,
# all linear in cells
_WIGNER_BOUND = 2**20


# ---------------------------------------------------------------------------
# State files
# ---------------------------------------------------------------------------


def load_state(path: str) -> FiniteState:
    import numpy as np

    from .finiteqm import FiniteState

    try:
        if os.stat(path).st_size > _STATE_BOUND:
            raise UsageError(f"state file {path} exceeds bound {_STATE_BOUND} bytes")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # every array holds a "[", every object a "{" and every string two
        # '"'; every value after the first in an array or object follows a
        # "," (and an object's key a ":"), so this count bounds the values
        # the parse builds, and so its memory.  Each token is one character,
        # so a text no longer than the bound needs no count
        if len(text) > _STATE_TOKEN_BOUND and (
            sum(map(text.count, _STATE_TOKENS)) > _STATE_TOKEN_BOUND
        ):
            raise UsageError(f"state file {path} exceeds bound {_STATE_TOKEN_BOUND} JSON tokens")
        data = json.loads(text)
        del text  # free before the parsed pairs become an array
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"malformed state file {path}: not a JSON object")
    try:
        n, rep = data["n"], data["rep"]
        if type(n) is not int:
            raise TypeError(f"n={n!r} is not an integer")
        if n > _EMBED_BOUND:
            raise ValueError(f"n={n} exceeds bound {_EMBED_BOUND}")
        try:  # ragged nesting raises numpy's own ValueError, which names no field
            pairs = np.array(data["amplitudes"])
        except ValueError:
            pairs = None
        # numpy reads JSON true as 1, so the parsed values' own types decide
        if pairs is None or (pairs.size and (
            pairs.shape[1:] != (2,)
            or not set(map(type, chain.from_iterable(data["amplitudes"]))) <= {int, float}
        )):
            raise TypeError("amplitudes must be [re, im] number pairs")
        try:  # one (n, 2) float array read as complex keeps every bit, -0.0 too
            amps = np.asarray(pairs, dtype=float).view(complex).ravel()
        except OverflowError:
            raise ValueError("amplitude beyond the float range") from None
        state = FiniteState(n, rep, amps)
        _check_bounded(state)
        return state
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed state file {path}: {exc}") from exc


def _check_bounded(f: FiniteState) -> None:
    """Raise ValueError unless every amplitude is finite and the squares of
    f's position values sum to a finite float.  That sum bounds every value a
    transform or table computes from f (Cauchy-Schwarz), and ``fourier`` and
    ``displace`` keep it.  Momentum values carry the counting weight, so the
    position side's sum is n times theirs (Parseval)."""
    import numpy as np

    if not np.isfinite(f.amplitudes).all():
        raise ValueError("non-finite amplitude")
    xs = f.amplitudes.view(float)
    with np.errstate(over="ignore"):
        total = (f.n if f.rep == "momentum" else 1) * np.dot(xs, xs)
    if not np.isfinite(total):
        raise ValueError("squared amplitudes sum beyond the float range")


def dump_state(f: FiniteState, path: str, metadata: dict | None = None) -> None:
    import numpy as np

    keys = {"n": f.n, "rep": f.rep}
    if metadata:
        keys["metadata"] = metadata
    # what this writes, load_state reads: ``embed`` multiplies the position
    # side's sum of squares by --to/--from.  Both checks run before the file
    # is opened, so a refused state writes no file
    try:
        _check_bounded(f)
        tail = json.dumps(keys, sort_keys=True, allow_nan=False)[1:]
    except ValueError as exc:
        raise UsageError(f"cannot write state file {path}: {exc}") from exc
    # the bytes of json.dumps(data, sort_keys=True), whose "amplitudes" sorts
    # before "metadata", "n" and "rep", written a chunk of pairs at a time:
    # each chunk is one call of the C encoder, and no text of the whole
    # state is held at once
    a = f.amplitudes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"amplitudes": [')
        for i in range(0, len(a), _STATE_CHUNK):
            c = a[i : i + _STATE_CHUNK]
            if i:
                fh.write(", ")
            fh.write(json.dumps(np.column_stack((c.real, c.imag)).tolist(), allow_nan=False)[1:-1])
        fh.write("], " + tail + "\n")


# ---------------------------------------------------------------------------
# Config files: plain "key = value" lines
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "tolerance": float,
    "samples": int,
    "seed": int,
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
    from . import finiteqm as fq

    f = load_state(args.infile)
    if args.n is not None and args.n != f.n:
        raise UsageError(f"state has n={f.n}, expected n={args.n}")
    out = fq.fourier_good(f) if args.method == "good" else fq.fourier(f)
    dump_state(out, args.out, metadata={"method": args.method})
    return 0


def cmd_displace(args) -> int:
    from . import finiteqm as fq

    f = load_state(args.infile)
    el = fq.HWElement.from_canonical(f.n, args.alpha, args.beta, args.gamma)
    dump_state(fq.displace(el, f), args.out)
    return 0


def cmd_wigner(args) -> int:
    from .finiteqm import wigner_table

    f = load_state(args.infile)
    doubled = args.doubled and args.kind == "wigner" and f.n % 2 == 0
    cells = (2 if doubled else 1) * f.n * f.n
    if cells > _WIGNER_BOUND:
        raise UsageError(f"table of {cells} cells exceeds bound {_WIGNER_BOUND}")
    table = wigner_table(f, args.kind, doubled)
    # the ",b," of every row, built once: each line is then its a-prefix, that
    # middle and two repr(float)s, which set the cost
    cols = [f",{b}," for b in range(f.n)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("a,b,re,im\n")
        # one a-row at a time, of Python floats, so the values print as
        # repr(float); a real (Wigner) table's imag is 0.0 in every row
        for a, row in enumerate(table):
            a = str(a)
            fh.write("".join(
                f"{a}{b}{re!r},{im!r}\n"
                for b, re, im in zip(cols, row.real.tolist(), row.imag.tolist())
            ))
    return 0


def cmd_embed(args) -> int:
    from .embeddings import EmbeddingSpec, state_embed

    if args.dst > _EMBED_BOUND:
        raise UsageError(f"target {args.dst} exceeds bound {_EMBED_BOUND}")
    f = load_state(args.infile)
    if f.n != args.src:
        raise UsageError(f"state has n={f.n}, expected n={args.src}")
    dump_state(state_embed(f, EmbeddingSpec(args.src, args.dst)), args.out)
    return 0


def cmd_poset(args) -> int:
    if args.query == "partition":
        res = ps.divisor_width_length(args.n)
        payload = {
            "n": args.n,
            "width": res.width,
            "length": res.length,
            "chain_partition": [list(c) for c in res.chain_partition],
        }
    elif args.query in ("width", "length", "antichain"):
        # the rank sizes answer without the chains: the width is the largest,
        # and the highest rank of that size is the antichain of the chains
        sizes = ps.divisor_rank_sizes(args.n)
        payload = {"n": args.n, "width": max(sizes), "length": len(sizes) - 1}
        if args.query == "antichain":
            top = payload["length"] - sizes.index(payload["width"])
            payload["max_antichain"] = list(ps.divisor_rank(args.n, top))
        else:
            payload = {"n": args.n, args.query: payload[args.query]}
    elif args.query == "topology":
        # N(n) is T0 by antisymmetry; divisor_t1 refuses what divisor_poset refuses
        t1, witness = ps.divisor_t1(args.n)
        payload = {
            "n": args.n,
            "T0": True,
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


def _parse_rational(text: str, mod1: bool = False) -> Fraction:
    """``text`` as a Fraction, reduced mod 1 if ``mod1``, that str() can print."""
    _, e, exponent = text.lower().partition("e")
    try:
        too_long = bool(e) and abs(int(exponent)) > _EXPONENT_BOUND
    except ValueError:
        too_long = False  # no exponent to bound: Fraction rejects the text
    if too_long:
        raise UsageError(f"exponent of {text!r} exceeds bound {_EXPONENT_BOUND}")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc
    if mod1:
        q %= 1
    if max(abs(q.numerator), q.denominator) >= _VALUE_BOUND:
        raise UsageError(f"value {text!r} has more than 4300 digits")
    return q


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
        if args.precision > PRECISION_BOUND:
            raise UsageError(f"precision {args.precision} exceeds bound {PRECISION_BOUND}")
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
        q = nm.RatMod1.of(_parse_rational(args.value, mod1=True))
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
    from .verify import VerifyConfig, report_dict, run_suites

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


def _fourier_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=("direct", "good"), default="direct")
    p.add_argument("--n", type=int, default=None, help="validate the dimension")


def _displace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--gamma", type=int, default=0)


def _wigner_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--kind", choices=("wigner", "weyl"), default="wigner")
    p.add_argument("--doubled", action="store_true", help="even-n doubled a-grid")


def _embed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)


def _poset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "query",
        choices=("width", "length", "partition", "antichain", "topology", "basis"),
    )
    p.add_argument("--element", type=int, default=None)


def _padic_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=("crt", "ord", "expand", "ostrowski", "decompose"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--value", default=None)
    p.add_argument("--precision", type=int, default=8)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--suite", action="append", choices=SUITES, default=None)
    p.add_argument("--json", default=None, help="write the JSON report here")
    for key, kind in _CONFIG_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, default=None)


# each subcommand, in `pqm -h` order: its help and the function declaring its
# arguments.  ``main`` looks cmd_<name> up in the module on each call, so a
# cmd_* replaced after the parser is built (a tracer's wrapper) is the one run
_COMMANDS = {
    "fourier": ("Fourier-transform a state file", _fourier_args),
    "displace": ("apply a displacement operator", _displace_args),
    "wigner": ("tabulate the Wigner or Weyl function", _wigner_args),
    "embed": ("embed a state into a larger system", _embed_args),
    "poset": ("divisor poset and topology queries", _poset_args),
    "padic": ("p-adic and CRT evaluations", _padic_args),
    "verify": ("run the verification suites", _verify_args),
}


def build_parser() -> argparse.ArgumentParser:
    """A new ``pqm`` parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="pqm",
        description="Exact finite phase-space machinery on Z(n) and its p-adic limits",
    )
    parser.add_argument("--version", action="version", version=f"pqm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, declare) in _COMMANDS.items():
        declare(sub.add_parser(name, help=help_text))
    return parser


# the parser ``main`` parses with: built on its first call, kept for the process
# (each parse_args makes a new Namespace, so no call sees another's values)
_parser = functools.cache(build_parser)


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
    args = _parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"pqm: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"pqm: error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Fuzz `cli.main` over the exact subcommands, `pqm padic` and `pqm poset`.

Any argv exits 0 with one JSON line on stdout, or exits 2 with stderr ending
in exactly one `pqm…: error: …` line; no other exception escapes, and no
error line is a message of Python's own.  Integers that reach `factorize`
are at most 10^6 times a power of ten, so no case can hang on it; a prime p
for `ord` and `expand` may be any size, and a `--value` in exponent
notation may lie past either bound of `cli._parse_rational`.
"""

import contextlib
import io
import json
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqm import cli

_ERROR_LINE = re.compile(r"pqm[^:]*: error: .+")

# anything factorize sees, and any integer at all
_SMALL = st.sampled_from([0, 1, -1]) | st.integers(-(10**6), 10**6)
_ANY = (
    _SMALL
    | st.sampled_from([2**63 - 1, 2**63 + 1, 10**18 + 3, 10**30, 3317044064679887385961981])
    | st.integers(-(10**30), 10**30)
)
_WORDS = st.sampled_from(
    ["nan", "inf", "-inf", "NaN", "1/0", "0/0", "", "x", "1.5", "-0.25", "2e3", "3e-4", " 5 "]
)


def _rationals(ints):
    # zero and negative denominators included
    return (
        ints.map(str)
        | st.builds("{}/{}".format, ints, ints)
        | st.builds("{}e{}".format, ints, st.integers(-13000, 13000))
        | _WORDS
    )


def _options(draw, flags: dict) -> list[str]:
    out: list[str] = []
    for flag in draw(st.permutations(list(flags))):
        if draw(st.booleans()):
            value = str(draw(flags[flag]))
            out += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return out


@st.composite
def _padic_argv(draw):
    action = draw(st.sampled_from(["crt", "ord", "expand", "ostrowski", "decompose"]))
    values = _ANY if action in ("ord", "expand") else _SMALL
    flags = {
        "--n": _SMALL,
        "--mu": _ANY,
        "--p": _ANY,
        "--value": _rationals(values),
        "--precision": st.sampled_from([-1, 0, 1, 2, 8, 33, 10**4 + 1]),
    }
    return ["padic", action, *_options(draw, flags)]


@st.composite
def _poset_argv(draw):
    query = draw(
        st.sampled_from(["width", "length", "partition", "antichain", "topology", "basis"])
    )
    return ["poset", query, *_options(draw, {"--n": _SMALL, "--element": _ANY})]


@settings(deadline=None, max_examples=300)
@given(argv=_padic_argv() | _poset_argv())
@example(argv=["padic", "crt", "--n", "0", "--mu", "5"])
@example(argv=["padic", "ord", "--p", "1000000000000000003", "--value", "3/7"])
@example(argv=["padic", "expand", "--p", "3317044064679887385961981", "--value", "1"])
@example(argv=["padic", "ord", "--p", "2", "--value", "-inf"])
@example(argv=["poset", "--n", "-1", "basis", "--element", "0"])
@example(argv=["padic", "expand", "--p", "4", "--value", "1/2"])
@example(argv=["padic", "ord", "--p", "3", "--value", "1e5000"])
@example(argv=["padic", "ostrowski", "--value", "1e999999999"])
def test_exact_subcommands_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2)
    if code == 0:
        assert err == ""
        (line,) = out.splitlines()
        assert isinstance(json.loads(line), dict)
    else:
        assert out == ""
        lines = err.splitlines()
        assert _ERROR_LINE.fullmatch(lines[-1])
        assert sum(bool(_ERROR_LINE.match(line)) for line in lines) == 1
        # the two messages of Python's own that once reached this line
        assert "int_max_str_digits" not in err and "not invertible" not in err

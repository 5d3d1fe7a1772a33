"""`pqm` builds its parser once per process and reuses it on every call.

A `cli.main` call on the reused parser must print the same bytes and exit
with the same code as one on a parser built for it alone, and no call may
see the values or the functions of another.
"""

import argparse
import contextlib
import io

import pytest

from pqm import cli


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def _run(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh(argv: list[str]) -> tuple:
    cli._parser.cache_clear()
    return _run(argv)


def test_commands_are_the_full_tree_choices_in_order():
    assert tuple(cli._COMMANDS) == tuple(_subparsers(cli.build_parser()).choices)


def test_full_tree_keeps_argparse_names_for_the_command():
    # a metavar on the full tree would rename "argument command" in both errors
    assert _subparsers(cli.build_parser()).metavar is None
    code, out, err = _run([])
    assert (code, out) == (2, "")
    assert err.endswith("\npqm: error: the following arguments are required: command\n")
    choices = ", ".join(repr(c) for c in cli._COMMANDS)
    code, out, err = _run(["bogus"])
    assert (code, out) == (2, "")
    assert err.endswith(
        f"\npqm: error: argument command: invalid choice: 'bogus' (choose from {choices})\n"
    )


def test_build_parser_returns_a_new_parser():
    # a caller that changes its parser cannot change what main parses with
    mine = cli.build_parser()
    assert mine is not cli.build_parser() and mine is not cli._parser()
    mine.add_argument("--extra")
    assert _run(["--extra", "1"])[0] == 2


_ARGVS = [
    [], ["-h"], ["--help"], ["--he"], ["--version"], ["-h", "poset"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["bogus"], ["--", "poset", "--n", "12", "width"], ["--bogus"], ["--bogus", "poset"],
    ["poset", "--n", "12", "width", "--bogus"], ["poset", "--n", "12", "width", "extra"],
    ["poset", "--version"], ["poset"], ["poset", "--n", "x", "width"],
    ["poset", "--n", "12", "wid"], ["padic", "bogus"], ["verify", "--suite", "nope"],
    ["padic", "crt", "--n", "720720", "--mu", "7"],
    ["padic", "ord", "--p", "2", "--value", "12"],
    ["padic", "expand", "--p", "3", "--value", "-7/5"],
    ["padic", "ostrowski", "--value", "3/4"],
    ["padic", "decompose", "--value", "5/6"],
    ["padic", "--value", "-7/5", "ord", "--p", "5"],
    ["padic", "crt", "--n", "12"],
    *(["poset", "--n", "720720", q] for q in ("width", "length", "partition", "antichain")),
    ["poset", "--n", "5040", "topology"],
    ["poset", "--n", "720720", "basis", "--element", "360"],
    ["poset", "--n", "720720", "basis"],
    ["fourier", "--in", "missing.json"],
    ["embed", "--from", "2", "--to", "x", "--in", "a", "--out", "b"],
]


@pytest.fixture(scope="module")
def runs() -> dict:
    """Each argv's (exit code, stdout, stderr): on a fresh parser, then on the
    reused one after every argv has run, in forward and in reverse order."""
    fresh = [_fresh(argv) for argv in _ARGVS]
    for argv in _ARGVS:
        _run(argv)
    forward = [_run(argv) for argv in _ARGVS]
    reverse = [_run(argv) for argv in _ARGVS[::-1]][::-1]
    return {tuple(argv): got for argv, *got in zip(_ARGVS, fresh, forward, reverse)}


@pytest.mark.parametrize("argv", _ARGVS, ids=" ".join)
def test_main_prints_what_the_full_tree_prints(argv, runs):
    # help, --version and the usage errors end in SystemExit; none of them,
    # and no earlier call, may change what a later call prints
    fresh, forward, reverse = runs[tuple(argv)]
    assert forward == reverse == fresh


# one argv per subcommand that parses and ends quickly, in an error or not
_PARSED = {
    "fourier": ["fourier", "--in", "missing.json", "--out", "x.json"],
    "displace": ["displace", "--in", "missing.json", "--out", "x.json", "--alpha", "1",
                 "--beta", "2"],
    "wigner": ["wigner", "--in", "missing.json", "--out", "x.csv"],
    "embed": ["embed", "--from", "2", "--to", "4", "--in", "missing.json", "--out", "x.json"],
    "poset": ["poset", "--n", "12", "width"],
    "padic": ["padic", "crt", "--n", "12", "--mu", "7"],
    "verify": ["verify", "--config", "missing.cfg"],
}


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_a_second_call_builds_no_parser(name, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    first = _fresh(_PARSED[name])
    assert len(built) == 1 + len(cli._COMMANDS)  # the top level and each subcommand
    built.clear()
    assert _run(_PARSED[name]) == first
    assert built == []


def test_an_appended_suite_does_not_leak_into_the_next_call(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.suite) or 0)
    assert _run(["verify", "--suite", "parity", "--suite", "hw"])[0] == 0
    assert _run(["verify"])[0] == 0
    assert _run(["verify", "--suite", "parity"])[0] == 0
    assert seen == [["parity", "hw"], None, ["parity"]]


def test_main_runs_the_cmd_function_the_module_holds_when_it_runs(monkeypatch):
    # a tracer wraps cli.cmd_* after the parser exists; its wrapper must run
    cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_poset", lambda args: seen.append(args.n) or 0)
    assert _run(["poset", "--n", "12", "width"]) == (0, "", "")
    assert seen == [12]

"""`pqm` parses a leading subcommand with that subcommand's parser alone.

The one-subcommand tree must declare the same arguments as the full tree,
and `cli.main` must print the same bytes and exit with the same code as a
`main` that always parses with the full tree.
"""

import argparse
import contextlib
import io

import pytest

from pqm import cli

_ATTRS = (
    "option_strings", "dest", "type", "default", "const", "choices", "required",
    "nargs", "help", "metavar",
)
_CHOICES = "{fourier,displace,wigner,embed,poset,padic,verify}"


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def _declared(parser: argparse.ArgumentParser) -> list:
    return [
        (type(a).__name__, *(getattr(a, attr) for attr in _ATTRS)) for a in parser._actions
    ]


def _run(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_commands_are_the_full_tree_choices_in_order():
    assert tuple(cli._COMMANDS) == tuple(_subparsers(cli.build_parser()).choices)


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_one_subcommand_tree_declares_what_the_full_tree_does(name):
    full, small = _subparsers(cli.build_parser()), _subparsers(cli.build_parser(name))
    assert list(small.choices) == [name]
    want, got = full.choices[name], small.choices[name]
    assert _declared(got) == _declared(want)
    assert got._defaults == want._defaults
    assert (got.prog, got.description, got.usage) == (want.prog, want.description, want.usage)
    # the help string `pqm -h` lists beside the name
    assert [(a.dest, a.help) for a in small._choices_actions] == [
        (a.dest, a.help) for a in full._choices_actions if a.dest == name
    ]
    assert small.metavar == _CHOICES


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


@pytest.mark.parametrize("argv", _ARGVS, ids=" ".join)
def test_main_prints_what_the_full_tree_prints(argv, monkeypatch):
    got = _run(argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == _run(argv)


def test_a_subcommand_builds_one_subparser(monkeypatch):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert _run(["padic", "crt", "--n", "12", "--mu", "7"])[0] == 0
    assert names == ["padic"]
    names.clear()
    assert _run(["--bogus", "padic"])[0] == 2
    assert names == list(cli._COMMANDS)

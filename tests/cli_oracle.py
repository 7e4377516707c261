"""Reference oracle for the command-line parser: the argparse parser that
``lieforge.cli`` built from its tables before it read argv itself.

``build_parser`` is that parser, one flat subparser per command with the flags
some kind of the command reads; ``parse`` adds the check ``cli.run`` made
after it, that a kind reads every flag given to it. tests/test_cli.py asks
the two parsers for the same values, or both for a usage error, on every
corpus command line and on the fuzz test's command lines. The two differ on
purpose in two ways, each with its own test there: argparse takes an
abbreviated flag (``--buil h3``), and it refuses a value that starts with
``-`` (``--form -e3``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
from functools import cache

from lieforge.catalog import BUILTINS
from lieforge.cli import _COMMANDS, _FLAGS, _option

_ACTIONS = {"force": {"action": "store_true"}, "fix": {"action": "append", "default": []}}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser built from ``_COMMANDS`` and ``_FLAGS``: each command takes the flags some kind of it reads."""
    parser = argparse.ArgumentParser(
        prog="lieforge",
        description="Exact-arithmetic Lie algebra extensions and geometric structure checks.",
    )
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument(
        "--wedge-convention",
        choices=("determinant", "paper"),
        default="determinant",
        help="sign convention for printed form evaluations; never changes verdicts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, kinds) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("kind", choices=tuple(kinds))
        source = p.add_mutually_exclusive_group()
        source.add_argument("--builtin", choices=sorted(BUILTINS))
        source.add_argument("--algebra", help="path to a lieforge/1 algebra file")
        read = {flag for _, flags, _ in kinds.values() for flag in flags.split()}
        for flag, flag_help in _FLAGS.items():
            if flag in read:
                p.add_argument(_option(flag), help=flag_help, **_ACTIONS.get(flag, {}))
    p = sub.add_parser("builtin", help="print a built-in algebra and its structures")
    p.add_argument("name")
    return parser


def parse(argv: list[str]) -> dict | None:
    """The values argparse gives ``argv``, or None for a usage error: argparse's own, a flag the
    kind does not read, or a name that is not a built-in's (which ``builtin NAME`` refused)."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = vars(build_parser().parse_args(argv))
    except SystemExit:
        return None
    if args["command"] == "builtin":
        return args if args["name"] in BUILTINS else None
    reads = _COMMANDS[args["command"]][1][args["kind"]][1].split()
    if any(flag not in reads and args.get(flag) not in (None, False, []) for flag in _FLAGS):
        return None
    return args

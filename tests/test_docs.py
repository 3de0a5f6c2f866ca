"""README.md stays in step with the package: its layout list and its
command-line block name exactly what exists."""

import argparse
import pathlib
import re

from swarmcover.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def section(title):
    """The README text under a '## title' heading, up to the next '## ' heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## )", README, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def test_layout_lists_every_module_and_only_existing_paths():
    listed = re.findall(r"^- `([^`]+)`", section("Layout"), re.M)
    assert listed
    missing = [path for path in listed if not (ROOT / path).exists()]
    assert missing == []
    modules = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "src" / "swarmcover").glob("*.py"))
    unlisted = [module for module in modules if module not in listed]
    assert unlisted == []


def test_command_line_block_matches_the_parser():
    block = re.search(r"```sh\n(.*?)```", section("Command line"), re.S)
    assert block
    documented = re.findall(r"^swarmcover (\S+)", block.group(1), re.M)
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(documented) == sorted(sub.choices)

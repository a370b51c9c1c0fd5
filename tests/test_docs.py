"""README: every import it documents names a real module path, every
`neuralfp` command line it shows parses, every long flag it names is an
option of a subcommand, the line count it states for src/neuralfp is the
tree's, its config table names the config's fields, and its container
paragraph names the format save writes, the formats load reads and the
array record dtypes.
The tree itself keeps to its line budget and line width."""

import argparse
import ast
import re
import shlex
from pathlib import Path

import pytest

from neuralfp import persistence
from neuralfp.cli import build_parser
from neuralfp.hierarchy import HierarchyConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "neuralfp").glob("*.py"))
# ROADMAP item 12: src/neuralfp at 3,400 lines or fewer, at most 110 characters a line
LINE_BUDGET, LINE_WIDTH = 3400, 110
README = (ROOT / "README.md").read_text()
# the ```python blocks, and the Python a shell block feeds to `python3 -` in a heredoc
SOURCES = (re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
           + re.findall(r"^python3 - <<'EOF'[^\n]*\n(.*?)^EOF$", README, re.S | re.M))

# the neuralfp command lines of the shell blocks
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", README, re.S | re.M)
            for line in block.splitlines() if line.startswith("neuralfp ")]


def test_readme_has_python_code():
    assert len(SOURCES) >= 2


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_imports_resolve(index):
    # the imports only: the Library example trains a whole hierarchy
    tree = ast.parse(SOURCES[index])
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(imports, type_ignores=[]), f"README.md source {index}", "exec"), {})


def test_stated_line_count_is_the_trees():
    (stated,) = re.findall(r"`src/neuralfp` holds ([\d,]+) lines", README)
    lines = sum(len(p.read_text().splitlines()) for p in SRC)
    assert int(stated.replace(",", "")) == lines


def test_source_keeps_its_line_budget():
    assert sum(len(p.read_text().splitlines()) for p in SRC) <= LINE_BUDGET


def test_source_keeps_its_line_width():
    wide = [f"{p.name}:{n}" for p in SRC for n, line in enumerate(p.read_text().splitlines(), start=1)
            if len(line) > LINE_WIDTH]
    assert wide == []


@pytest.mark.parametrize("line", COMMANDS)
def test_commands_parse(line):
    # parsed, not run: a flag the parser no longer has fails here
    assert len(COMMANDS) >= 7
    build_parser().parse_args(shlex.split(line)[1:])


def test_named_flags_are_parser_options():
    # pip's flag in the install line is the one flag that is not neuralfp's
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", README)) - {"--no-build-isolation"}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for parser in sub.choices.values() for flag in parser._option_string_actions}
    assert len(named) >= 10
    assert sorted(named - options) == []


def test_config_table_keys_are_the_config_fields():
    # the table has one default column, and its first cell names one key or several
    (rows,) = re.findall(r"^\| key \| type and range \| default \|\n\|---\|---\|---\|\n((?:\|.*\n)+)",
                         README, re.M)
    keys = [key for row in rows.splitlines() for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(HierarchyConfig.__dataclass_fields__)


def test_container_paragraph_names_the_formats_and_dtypes():
    [(written, read)] = re.findall(r"versioned container \(format (\d+);\s+`load` reads formats ([^)]*)\)", README)
    assert int(written) == persistence.FORMAT_VERSION
    assert tuple(int(n) for n in re.findall(r"\d+", read)) == persistence.READ_FORMATS
    (paragraph,) = [p for p in README.split("\n\n") if "versioned container" in p]
    assert set(re.findall(r"`(<\w\d)`", paragraph)) == set(persistence._ITEM_BYTES)

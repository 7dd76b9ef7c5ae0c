"""The README's python blocks run, its CLI examples parse, and the public
names resolve."""
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import pyrsample
from pyrsample import cli

from conftest import EXCERPT_PATH

README = Path(__file__).parent.parent / "README.md"


def python_blocks() -> list[str]:
    """Every python block of the README, in order; the first is the
    library quick tour."""
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_quick_tour_runs_on_the_excerpt():
    # Every block runs, in order, in one scope, as a reader would paste them.
    blocks = python_blocks()
    assert '"instances.json"' in blocks[0]
    scope = {}
    for n, code in enumerate(blocks):
        code = code.replace('"instances.json"', repr(str(EXCERPT_PATH)))
        exec(compile(code, f"README python block {n + 1}", "exec"), scope)
    assert len(scope["chips"]) and len(scope["uncoverable"]) == 0
    assert [k for k, _ in scope["curve"]] == [64, 128, 256, 512]
    # Each box is an RoI with IoU 1 against itself: foreground when in range.
    labels, classes, gts = scope["labels"], scope["classes"], scope["gts"]
    assert len(labels) == len(gts) and set(labels.tolist()) <= {1, -1} and (labels == 1).any()
    assert (classes == gts.class_ids)[labels == 1].all() and (classes[labels == -1] == -1).all()
    # The later blocks: a set by mask, one merged batch, and chip rows.
    assert len(scope["small"]) < len(gts) and len(scope["merged"]) == 2
    assert scope["first"] == scope["chips"][0] and (scope["fine"].scale_ids == 2).all()


def test_every_public_name_resolves():
    assert len(set(pyrsample.__all__)) == len(pyrsample.__all__)
    for name in pyrsample.__all__:
        assert getattr(pyrsample, name) is not None, name


def test_every_cited_module_name_resolves():
    # A backticked `<module>.<name>` (or `pyrsample.<module>.<name>`) whose
    # <module> is a pyrsample module must name something in it, so that the
    # README cannot cite a deleted or renamed function.
    modules = {info.name for info in pkgutil.iter_modules(pyrsample.__path__)}
    cited = re.findall(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)`", README.read_text())
    checked = 0
    for dotted in cited:
        parts = dotted.removeprefix("pyrsample.").split(".")
        if parts[0] not in modules:
            continue
        target = importlib.import_module(f"pyrsample.{parts[0]}")
        for name in parts[1:]:
            assert hasattr(target, name), f"README cites `{dotted}`, which does not resolve"
            target = getattr(target, name)
        checked += 1
    assert checked >= 10


def cli_commands() -> list[list[str]]:
    """The arguments of every ``pyrsample`` command in the README's CLI
    bash block, with backslash continuations joined and comments stripped."""
    text = README.read_text()
    section = text[text.index("## CLI"):]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in commands if argv[:1] == ["pyrsample"]]


def test_readme_cli_block_has_every_command():
    named = {tuple(argv[:2]) if argv[0] in ("chips", "focus", "stats") else (argv[0],)
             for argv in cli_commands()}
    assert named == {("validate",), ("show-config",), ("chips", "positive"),
                     ("chips", "negative"), ("focus", "labels"), ("focus", "chips"),
                     ("stack",), ("stats", "areafractions"), ("stats", "roiscale"),
                     ("stats", "focuspixels"), ("stats", "speedup")}


@pytest.mark.parametrize("argv", cli_commands(), ids=" ".join)
def test_readme_cli_command_parses(argv):
    # Parse only: a subcommand or flag the CLI no longer has fails here.
    cli.build_parser().parse_args(argv)

"""The README's library quick tour runs, and the public names resolve."""
import re
from pathlib import Path

import pyrsample

from conftest import EXCERPT_PATH

README = Path(__file__).parent.parent / "README.md"


def quick_tour() -> str:
    """The first python block after the "Library quick tour" heading."""
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs_on_the_excerpt():
    code = quick_tour()
    assert '"instances.json"' in code
    scope = {}
    exec(compile(code.replace('"instances.json"', repr(str(EXCERPT_PATH))), "README", "exec"),
         scope)
    assert len(scope["chips"]) and len(scope["uncoverable"]) == 0
    assert [k for k, _ in scope["curve"]] == [64, 128, 256, 512]
    # Each box is an RoI with IoU 1 against itself: foreground when in range.
    labels, classes, gts = scope["labels"], scope["classes"], scope["gts"]
    assert len(labels) == len(gts) and set(labels.tolist()) <= {1, -1} and (labels == 1).any()
    assert (classes == gts.class_ids)[labels == 1].all() and (classes[labels == -1] == -1).all()


def test_every_public_name_resolves():
    assert len(set(pyrsample.__all__)) == len(pyrsample.__all__)
    for name in pyrsample.__all__:
        assert getattr(pyrsample, name) is not None, name

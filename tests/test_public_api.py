"""The documented public surface: the README quick start and ``__all__``."""

import ast
import math
import re
from pathlib import Path

import floergrowth

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_steps():
    """(source, documented repr or None) per line of the README quick start.

    A line followed by a ``# ...`` comment line is an expression whose repr
    the comment documents; every other line is a plain statement.
    """
    section = README.read_text().split("## Library quick start")[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.strip()]
    steps = []
    for i, line in enumerate(lines):
        if line.startswith("#"):
            continue
        following = lines[i + 1] if i + 1 < len(lines) else ""
        documented = following[1:].strip() if following.startswith("#") else None
        steps.append((line, documented))
    return steps


def close(got, want) -> bool:
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    if isinstance(want, (tuple, list)):
        return (
            type(got) is type(want)
            and len(got) == len(want)
            and all(close(g, w) for g, w in zip(got, want))
        )
    return got == want


def test_readme_quick_start_reprs():
    namespace: dict = {}
    checked = 0
    for source, documented in quick_start_steps():
        if documented is None:
            exec(source, namespace)
            continue
        got = eval(source, namespace)
        if repr(got) != documented:
            assert close(got, ast.literal_eval(documented)), (source, repr(got), documented)
        checked += 1
    assert checked == 4


def test_all_names_resolve_once():
    names = floergrowth.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(floergrowth, name)]
    assert missing == []

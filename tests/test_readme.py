"""The README's library example prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first python block under the ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def expected_outputs(code: str) -> list[str | None]:
    """For each ``print(`` line, the ``# ...`` comment right after it."""
    lines = code.splitlines()
    return [
        after[2:] if after.startswith("# ") else None
        for line, after in zip(lines, lines[1:] + [""])
        if line.startswith("print(")
    ]


def test_library_example_prints_its_comments():
    code = library_block()
    expected = expected_outputs(code)
    assert expected and None not in expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        pattern = ".*".join(re.escape(part) for part in want.split("..."))
        assert re.fullmatch(pattern, got), (got, want)

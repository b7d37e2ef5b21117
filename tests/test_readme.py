"""The README's Library example runs as written and gives the values its
comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The ```python block under the README's `## Library` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    namespace: dict = {}
    exec(compile(library_example(), "README.md (Library)", "exec"), namespace)
    assert namespace["report"].member is False
    assert namespace["cover"].base_words() == ("", "a")

"""README's Library example runs as written against the package's exports."""

import re
import shutil
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"
DATA = Path(__file__).parent / "data"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_mines_example11(tmp_path, monkeypatch):
    shutil.copy(DATA / "example11.edges", tmp_path / "graph.edges")
    shutil.copy(DATA / "example11.attrs", tmp_path / "graph.attrs")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    assert namespace["records"]

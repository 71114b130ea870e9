"""The README's Library block, run exactly as documented."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(library_snippet(), names)
    assert names["svg"].startswith("<svg")
    assert len(names["table"].rows) == names["cover"].n_balls
    assert sorted(p.name for p in tmp_path.iterdir()) == ["means.csv", "price.csv"]

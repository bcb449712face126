"""The README's library tour runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.slow
def test_library_tour_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)  # the tour saves a model file
    namespace = {}
    exec(compile(code, f"{README}:Library tour", "exec"), namespace)
    assert 0.5 < namespace["report"].auc <= 1.0
    assert namespace["probs"].shape == (namespace["test"].n_rows,)
    assert (tmp_path / "stack.json").exists()

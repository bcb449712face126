"""The README's library tour runs as written, and its config tables match the code."""

import json
import re
from pathlib import Path

import pytest

from imbalkit.learners import HYPERPARAMETERS
from imbalkit.report import _SETTINGS
from imbalkit.stacking import StackingSpec

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


def test_config_tables_name_every_key_with_its_default_and_rule():
    text = README.read_text(encoding="utf-8")
    settings = {**_SETTINGS, "oof_folds": (StackingSpec.oof_folds, StackingSpec.OOF_FOLDS)}
    rows = [f"| `{key}` | `{json.dumps(default)}` | {rule} |"
            for key, (default, rule) in settings.items()]
    rows += [f"| `{algorithm}` | `{key}` | `{json.dumps(default)}` | {rule} |"
             for algorithm, table in HYPERPARAMETERS.items()
             for key, (default, rule) in table.items()]
    assert [row for row in rows if row not in text] == []

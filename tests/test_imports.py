"""Each CLI process loads only the modules its command runs, and the package
exports resolve on first use. Module sets are read in a fresh interpreter,
since this process has imported everything the other tests reach."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import imbalkit
import imbalkit.learners

SRC = Path(imbalkit.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# modules no command needs before it runs: the explainers, the survey
# psychometrics, and the installed-distribution metadata scan
UNUSED = {"imbalkit.explain", "imbalkit.psychometrics", "importlib.metadata"}

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("imbalkit", "importlib"))))
"""
_CLI_RUN = """
import sys
from imbalkit.cli import main
try:
    main(sys.argv[1:], standalone_mode=False)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def _modules_after(code: str, *args) -> set:
    """The imbalkit and importlib modules a fresh interpreter holds after code."""
    done = subprocess.run([sys.executable, "-c", code + _REPORT, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    """A synthetic run of naive Bayes and logistic regression, without a stack."""
    tmp = tmp_path_factory.mktemp("fence")
    path = tmp / "config.json"
    path.write_text(json.dumps({
        "dataset": "synthetic", "seed": 3, "synthetic": {"n": 200},
        "models": [{"name": "nb", "algorithm": "naive-bayes"},
                   {"name": "logistic", "algorithm": "logistic"}],
        "output_dir": str(tmp / "out")}), encoding="utf-8")
    return path


def _learners(modules: set) -> set:
    return {m.rsplit(".", 1)[1] for m in modules if m.startswith("imbalkit.learners.")}


def test_import_imbalkit_loads_no_submodule():
    assert {m for m in _modules_after("import imbalkit") if m.startswith("imbalkit")} == {
        "imbalkit"}


@pytest.mark.parametrize("code, args", [("import imbalkit.cli", ()), (_CLI_RUN, ("eda",))],
                         ids=["import", "eda"])
def test_cli_and_eda_load_no_learner_and_no_explainer(config, code, args):
    modules = _modules_after(code, *args, *(("--config", config) if args else ()))
    assert "imbalkit.cli" in modules
    assert _learners(modules) == {"base"}
    assert modules & UNUSED == set()


def test_benchmark_loads_only_its_roster_learners(config):
    modules = _modules_after(_CLI_RUN, "benchmark", "--config", config)
    assert _learners(modules) == {"base", "naive_bayes", "linear"}
    assert modules & UNUSED == set()


def test_explain_loads_only_the_learner_it_explains(config):
    modules = _modules_after(_CLI_RUN, "explain", "--model", "nb", "--config", config)
    assert _learners(modules) == {"base", "naive_bayes"}
    assert modules & UNUSED == {"imbalkit.explain"}


@pytest.mark.parametrize("package", [imbalkit, imbalkit.learners], ids=lambda p: p.__name__)
def test_every_export_resolves_and_is_listed(package):
    assert len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in dir(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_exports_are_the_defining_modules_objects():
    from imbalkit import SmoteSettings, fit_model, shapley_exact
    from imbalkit.explain import shapley_exact as defined
    from imbalkit.learners import fit_model as learners_fit_model
    from imbalkit.validation import SmoteSettings as reexported

    assert shapley_exact is defined
    assert fit_model is learners_fit_model
    assert SmoteSettings is reexported


def test_pyproject_version_is_the_package_version():
    version = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(encoding="utf-8"),
                        re.MULTILINE)
    assert version is not None and version.group(1) == imbalkit.__version__

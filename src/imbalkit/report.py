"""Run configuration, artifact writing, and the run manifest."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

from .data import load_dataset, load_schema
from .learners.base import POSITIVE, LearnerError, ModelSpec, Rule, check_value, count
from .learners.search import check_space
from .stacking import StackingSpec
from .validation import SmoteSettings
from . import synth

__all__ = ["ConfigError", "RunConfig", "ArtifactWriter", "load_config"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dataset: str
    schema_path: str | None
    target: str
    seed: int
    test_fraction: float
    resampler: SmoteSettings | None  # None when SMOTE is disabled
    resample_test: bool
    models: dict                     # name -> ModelSpec | StackingSpec
    model_order: list[str]
    tuning_spaces: dict
    tuning_n_iter: int
    tuning_folds: int
    cv_folds: int
    reference_model: str | None
    output_dir: str
    synthetic_n: int
    synthetic_imbalance: float
    explain_options: dict            # the four explain options, as counts >= 1
    raw: dict

    def load(self):
        """Materialize the Dataset this config points at."""
        if self.dataset == "synthetic":
            return synth.synthetic_dataset(n=self.synthetic_n, seed=self.seed,
                                           imbalance=self.synthetic_imbalance)
        schema = load_schema(self.schema_path)
        return load_dataset(self.dataset, schema, self.target)


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object")
    return value


# run setting (dotted as in the config) -> (default, the rule its values must pass)
_SETTINGS = {
    "seed": (0, Rule(kind=numbers.Integral, high=2**63 - 1)),
    "test_fraction": (0.2, Rule(kind=numbers.Real, high=1.0, strict=True)),
    "smote.k_neighbors": (5, count(1)),
    # a run does not tell SMOTE which columns are categorical, so no other
    # rounding mode would change its output
    "smote.rounding": ("continuous", Rule(("continuous",))),
    "smote.enabled": (True, Rule((True, False))),
    "resample_test": (False, Rule((True, False))),
    "cv_folds": (10, count(2)),
    "oof_folds": (5, count(2)),
    "tuning.n_iter": (10, count(1)),
    "tuning.folds": (5, count(2)),
    "synthetic.n": (2000, count(1)),
    "synthetic.imbalance": (5.0, POSITIVE),
    "explain.n_permutations": (30, count(1)),
    "explain.background_rows": (25, count(1)),
    "explain.global_rows": (50, count(1)),
    "explain.lime_samples": (500, count(1)),
}


def _setting(raw: dict, key: str, default=None):
    """Run setting key (dotted: section.name) from raw, checked against its rule;
    a missing one is default, or the table's default if that is None."""
    *sections, name = key.split(".")
    for section in sections:
        raw = _section(raw, section)
    table_default, rule = _SETTINGS[key]
    value = raw.get(name, table_default if default is None else default)
    check_value(rule, value, key)
    return value


def _parse_models(raw_models, seed: int, resampler: SmoteSettings | None):
    if not isinstance(raw_models, list) or not raw_models:
        raise ConfigError("config must list at least one model")
    specs: dict = {}
    order: list[str] = []
    deferred = []
    for entry in raw_models:
        if not isinstance(entry, dict):
            raise ConfigError(f"model entry {entry!r} is not a JSON object")
        name = entry.get("name")
        algo = entry.get("algorithm")
        if not name or not algo:
            raise ConfigError("every model entry needs 'name' and 'algorithm'")
        if name in specs or name in [d[0] for d in deferred]:
            raise ConfigError(f"duplicate model name {name!r}")
        order.append(name)
        if algo == "stacking":
            deferred.append((name, entry))
            continue
        specs[name] = ModelSpec(algo, dict(_section(entry, "hyperparameters")),
                                _setting(entry, "seed", seed))
    for name, entry in deferred:
        base_names = entry.get("bases", [])
        if not isinstance(base_names, list) or not all(isinstance(b, str) for b in base_names):
            raise ConfigError(f"stacking model {name!r}: 'bases' must be a list of model names")
        missing = [b for b in base_names if b not in specs]
        if missing:
            raise ConfigError(f"stacking model {name!r} references unknown bases {missing}")
        meta_entry = _section(entry, "meta")
        meta = ModelSpec("logistic", dict(_section(meta_entry, "hyperparameters")),
                         _setting(meta_entry, "seed", seed))
        specs[name] = StackingSpec(
            base_specs=tuple(specs[b] for b in base_names),
            meta_spec=meta,
            oof_folds=_setting(entry, "oof_folds"),
            seed=_setting(entry, "seed", seed),
            resampler=resampler,
        )
    return specs, order


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None,
                resample_test_override: bool | None = None) -> RunConfig:
    """The run configuration at path; every fault in it, a value that the rule
    of a run setting or hyperparameter rejects included, is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("dataset", "synthetic") != "synthetic" and not raw.get("schema"):
        raise ConfigError("a CSV dataset requires a schema path")
    try:
        seed = _setting(raw if seed_override is None else {"seed": seed_override}, "seed")
        # the SMOTE settings are checked even when SMOTE is disabled
        resampler = SmoteSettings(k_neighbors=_setting(raw, "smote.k_neighbors"))
        _setting(raw, "smote.rounding")
        if not _setting(raw, "smote.enabled"):
            resampler = None
        models, order = _parse_models(raw.get("models", []), seed, resampler)
        tuning = _section(raw, "tuning")
        reference = raw.get("reference_model")
        if reference is not None and reference not in models:
            raise ConfigError(f"reference model {reference!r} not in the roster")
        for name, space in _section(tuning, "spaces").items():
            if name not in models:
                raise ConfigError(f"tuning space for unknown model {name!r}")
            if isinstance(models[name], StackingSpec):
                raise ConfigError(f"stacking model {name!r} cannot be tuned")
            if not isinstance(space, dict) or not space:
                raise ConfigError(f"tuning space for {name!r} must be a non-empty JSON object")
            check_space(models[name].algorithm, space)
        resample_test = _setting(raw, "resample_test")
        return RunConfig(
            dataset=raw.get("dataset", "synthetic"),
            schema_path=raw.get("schema"),
            target=raw.get("target", synth.TARGET),
            seed=seed,
            test_fraction=float(_setting(raw, "test_fraction")),
            resampler=resampler,
            resample_test=resample_test if resample_test_override is None
            else resample_test_override,
            models=models,
            model_order=order,
            tuning_spaces=tuning.get("spaces", {}),
            tuning_n_iter=_setting(raw, "tuning.n_iter"),
            tuning_folds=_setting(raw, "tuning.folds"),
            cv_folds=_setting(raw, "cv_folds"),
            reference_model=reference,
            output_dir=out_override or raw.get("output_dir", "imbalkit-out"),
            synthetic_n=_setting(raw, "synthetic.n"),
            synthetic_imbalance=float(_setting(raw, "synthetic.imbalance")),
            explain_options={key.split(".")[1]: _setting(raw, key)
                             for key in _SETTINGS if key.startswith("explain.")},
            raw=raw,
        )
    except LearnerError as exc:
        raise ConfigError(str(exc)) from None


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ArtifactWriter:
    """Atomic artifact writes plus the run manifest (paths, hashes, statuses)."""

    def __init__(self, out_dir, config: RunConfig):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts: dict[str, str] = {}
        self.model_status: dict[str, str] = {}
        self.config = config

    def _write_atomic(self, rel: str, data: bytes):
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        self.artifacts[rel] = _sha256_bytes(data)

    def write_text(self, rel: str, text: str):
        self._write_atomic(rel, text.encode("utf-8"))

    def write_json(self, rel: str, obj):
        self.write_text(rel, json.dumps(obj, sort_keys=True, indent=2) + "\n")

    def write_csv(self, rel: str, header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
        self.write_text(rel, buf.getvalue())

    def finalize(self) -> dict:
        config_bytes = json.dumps(self.config.raw, sort_keys=True).encode("utf-8")
        manifest = {
            "config_hash": _sha256_bytes(config_bytes),
            "seed": self.config.seed,
            "tool": "imbalkit",
            "version": _package_version(),
            "artifacts": dict(sorted(self.artifacts.items())),
            "model_status": dict(sorted(self.model_status.items())),
        }
        data = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")
        path = self.out_dir / "run-manifest.json"
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        return manifest


def _package_version() -> str:
    """Installed distribution version, else the package's own __version__
    (a source checkout run with PYTHONPATH=src has no distribution metadata)."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("imbalkit")
    except PackageNotFoundError:
        from . import __version__  # not at the top: the package sets it after importing us

        return __version__

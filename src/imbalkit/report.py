"""Run configuration, artifact writing, and the run manifest."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .data import load_dataset, load_schema
from .learners.base import LearnerError, ModelSpec, default_hyperparameters
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
        if not self.schema_path:
            raise ConfigError("a CSV dataset requires a schema path")
        schema = load_schema(self.schema_path)
        return load_dataset(self.dataset, schema, self.target)


def _number(cast, value, what: str):
    """cast(value) for cast in (int, float); a value it rejects is a config fault."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _count(value, what: str, low: int) -> int:
    """int(value), which must be >= low; anything else is a config fault."""
    count = _number(int, value, what)
    if count < low:
        raise ConfigError(f"{what} must be >= {low}, got {count}")
    return count


def _flag(value, what: str) -> bool:
    """A JSON boolean: bool() would read the string "false" as true."""
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object")
    return value


_EXPLAIN_DEFAULTS = {"n_permutations": 30, "background_rows": 25, "global_rows": 50,
                     "lime_samples": 500}


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
        try:
            specs[name] = ModelSpec(algo, dict(_section(entry, "hyperparameters")),
                                    _number(int, entry.get("seed", seed), f"{name}.seed"))
        except LearnerError as exc:
            raise ConfigError(str(exc)) from exc
    for name, entry in deferred:
        base_names = entry.get("bases", [])
        if not isinstance(base_names, list) or not all(isinstance(b, str) for b in base_names):
            raise ConfigError(f"stacking model {name!r}: 'bases' must be a list of model names")
        missing = [b for b in base_names if b not in specs]
        if missing:
            raise ConfigError(f"stacking model {name!r} references unknown bases {missing}")
        meta_entry = _section(entry, "meta")
        try:
            meta = ModelSpec("logistic", dict(_section(meta_entry, "hyperparameters")),
                             _number(int, meta_entry.get("seed", seed), f"{name}.meta.seed"))
            specs[name] = StackingSpec(
                base_specs=tuple(specs[b] for b in base_names),
                meta_spec=meta,
                oof_folds=_number(int, entry.get("oof_folds", 5), f"{name}.oof_folds"),
                seed=_number(int, entry.get("seed", seed), f"{name}.seed"),
                resampler=resampler,
            )
        except LearnerError as exc:
            raise ConfigError(f"stacking model {name!r}: {exc}") from exc
    return specs, order


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None,
                resample_test_override: bool | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    seed = _number(int, seed_override if seed_override is not None else raw.get("seed", 0),
                   "seed")
    test_fraction = _number(float, raw.get("test_fraction", 0.2), "test_fraction")
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must lie strictly between 0 and 1, got {test_fraction}")
    smote_raw = _section(raw, "smote")
    # the settings are checked even when SMOTE is disabled
    resampler = SmoteSettings(
        k_neighbors=_number(int, smote_raw.get("k_neighbors", 5), "smote.k_neighbors"))
    rounding = smote_raw.get("rounding", "continuous")
    if rounding != "continuous":
        raise ConfigError(f"smote.rounding must be \"continuous\", got {rounding!r}: a run "
                          "does not tell SMOTE which columns are categorical, so no other "
                          "mode would change its output")
    if not _flag(smote_raw.get("enabled", True), "smote.enabled"):
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
        unknown = set(space) - set(default_hyperparameters(models[name].algorithm))
        if unknown:
            raise ConfigError(f"tuning space for {name!r} has unknown hyperparameters "
                              f"{sorted(unknown)}")
        try:
            check_space(space)
        except LearnerError as exc:
            raise ConfigError(f"tuning space for {name!r}: {exc}") from None
    explain = _section(raw, "explain")
    explain_options = {key: _count(explain.get(key, default), f"explain.{key}", 1)
                       for key, default in _EXPLAIN_DEFAULTS.items()}
    synthetic = _section(raw, "synthetic")
    imbalance = _number(float, synthetic.get("imbalance", 5.0), "synthetic.imbalance")
    if not 0 < imbalance < math.inf:
        raise ConfigError(f"synthetic.imbalance must be positive and finite, got {imbalance}")
    resample_test = _flag(raw.get("resample_test", False), "resample_test")
    if resample_test_override is not None:
        resample_test = resample_test_override
    return RunConfig(
        dataset=raw.get("dataset", "synthetic"),
        schema_path=raw.get("schema"),
        target=raw.get("target", synth.TARGET),
        seed=seed,
        test_fraction=test_fraction,
        resampler=resampler,
        resample_test=resample_test,
        models=models,
        model_order=order,
        tuning_spaces=tuning.get("spaces", {}),
        tuning_n_iter=_count(tuning.get("n_iter", 10), "tuning.n_iter", 1),
        tuning_folds=_count(tuning.get("folds", 5), "tuning.folds", 2),
        cv_folds=_count(raw.get("cv_folds", 10), "cv_folds", 2),
        reference_model=reference,
        output_dir=out_override or raw.get("output_dir", "imbalkit-out"),
        synthetic_n=_count(synthetic.get("n", 2000), "synthetic.n", 1),
        synthetic_imbalance=imbalance,
        explain_options=explain_options,
        raw=raw,
    )


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

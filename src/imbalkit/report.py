"""Run configuration, artifact writing, and the run manifest."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .data import load_dataset, load_schema
from .learners.base import LearnerError, ModelSpec
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
    smote_enabled: bool
    smote: SmoteSettings
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
    explain_options: dict
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


def _parse_models(raw_models, seed: int, smote_settings, smote_enabled: bool):
    if not isinstance(raw_models, list) or not raw_models:
        raise ConfigError("config must list at least one model")
    specs: dict = {}
    order: list[str] = []
    deferred = []
    for entry in raw_models:
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
            specs[name] = ModelSpec(algo, dict(entry.get("hyperparameters", {})),
                                    int(entry.get("seed", seed)))
        except LearnerError as exc:
            raise ConfigError(str(exc)) from exc
    for name, entry in deferred:
        base_names = entry.get("bases", [])
        missing = [b for b in base_names if b not in specs]
        if missing:
            raise ConfigError(f"stacking model {name!r} references unknown bases {missing}")
        meta_entry = entry.get("meta", {})
        meta = ModelSpec("logistic", dict(meta_entry.get("hyperparameters", {})),
                         int(meta_entry.get("seed", seed)))
        specs[name] = StackingSpec(
            base_specs=tuple(specs[b] for b in base_names),
            meta_spec=meta,
            oof_folds=int(entry.get("oof_folds", 5)),
            seed=int(entry.get("seed", seed)),
            resampler=smote_settings if smote_enabled else None,
        )
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

    seed = int(seed_override if seed_override is not None else raw.get("seed", 0))
    smote_raw = raw.get("smote", {})
    smote_enabled = bool(smote_raw.get("enabled", True))
    smote_settings = SmoteSettings(
        k_neighbors=int(smote_raw.get("k_neighbors", 5)),
        rounding=smote_raw.get("rounding", "continuous"),
    )
    models, order = _parse_models(raw.get("models", []), seed, smote_settings,
                                  smote_enabled)
    tuning = raw.get("tuning", {})
    reference = raw.get("reference_model")
    if reference is not None and reference not in models:
        raise ConfigError(f"reference model {reference!r} not in the roster")
    for name in tuning.get("spaces", {}):
        if name not in models:
            raise ConfigError(f"tuning space for unknown model {name!r}")
    synthetic = raw.get("synthetic", {})
    resample_test = bool(raw.get("resample_test", False))
    if resample_test_override is not None:
        resample_test = resample_test_override
    return RunConfig(
        dataset=raw.get("dataset", "synthetic"),
        schema_path=raw.get("schema"),
        target=raw.get("target", synth.TARGET),
        seed=seed,
        test_fraction=float(raw.get("test_fraction", 0.2)),
        smote_enabled=smote_enabled,
        smote=smote_settings,
        resample_test=resample_test,
        models=models,
        model_order=order,
        tuning_spaces=tuning.get("spaces", {}),
        tuning_n_iter=int(tuning.get("n_iter", 10)),
        tuning_folds=int(tuning.get("folds", 5)),
        cv_folds=int(raw.get("cv_folds", 10)),
        reference_model=reference,
        output_dir=out_override or raw.get("output_dir", "imbalkit-out"),
        synthetic_n=int(synthetic.get("n", 2000)),
        synthetic_imbalance=float(synthetic.get("imbalance", 5.0)),
        explain_options=raw.get("explain", {}),
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

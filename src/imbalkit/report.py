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

from . import __version__, synth
from .data import SmoteSettings, load_dataset, load_schema
from .learners.base import POSITIVE, LearnerError, ModelSpec, Rule, check_value, count

__all__ = ["ConfigError", "RunConfig", "ArtifactWriter", "load_config"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    settings: dict                   # dotted run setting -> its checked value (not oof_folds)
    resampler: SmoteSettings | None  # None when SMOTE is disabled
    models: dict                     # name -> ModelSpec | StackingSpec, in config order
    tuning_spaces: dict
    reference_model: str | None
    output_dir: str
    raw: dict

    seed = property(lambda self: self.settings["seed"])

    def load(self):
        """Materialize the Dataset this config points at."""
        if self.raw.get("dataset", "synthetic") == "synthetic":
            return synth.synthetic_dataset(n=self.settings["synthetic.n"], seed=self.seed,
                                           imbalance=self.settings["synthetic.imbalance"])
        return load_dataset(self.raw["dataset"], load_schema(self.raw["schema"]),
                            self.raw.get("target", synth.TARGET))


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
    # SMOTE has no other rounding mode; the key stays so that configs naming it load
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
    # each global row costs a full Shapley estimate, so the cap is low
    "explain.global_rows": (50, Rule(kind=numbers.Integral, low=1, high=200)),
    "explain.lime_samples": (500, count(1)),
}


# the keys of each part of a config ("" is the top level) that are not the run
# settings _SETTINGS puts there; model entries hold no section of _SETTINGS,
# and its `oof_folds` row is a key of stacking entries, not of the top level
_KEYS = {
    "": {"dataset", "schema", "target", "output_dir", "models", "reference_model", "smote",
         "tuning", "synthetic", "explain"},
    "tuning": {"spaces"},
    "model": {"name", "algorithm", "hyperparameters", "seed"},
    "stacking": {"name", "algorithm", "bases", "meta", "oof_folds", "seed"},
    "meta": {"hyperparameters", "seed"},
}


def _check_keys(raw: dict, part: str, where: str):
    """A key of raw that this part of a config does not hold is a ConfigError."""
    settings = {key.rpartition(".")[2] for key in _SETTINGS
                if key.rpartition(".")[0] == part and key != "oof_folds"}
    unknown = sorted(set(raw) - _KEYS.get(part, set()) - settings)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


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


def _parse_models(raw_models, seed: int, resampler: SmoteSettings | None) -> dict:
    """name -> spec in config order: every non-stacking entry first, then each
    stack over those; a stack is never the base of another."""
    if not isinstance(raw_models, list) or not raw_models:
        raise ConfigError("config must list at least one model")
    entries = {}
    for entry in raw_models:
        if not isinstance(entry, dict):
            raise ConfigError(f"model entry {entry!r} is not a JSON object")
        name = entry.get("name")
        algo = entry.get("algorithm")
        if not (name and isinstance(name, str) and algo and isinstance(algo, str)):
            raise ConfigError("every model entry needs 'name' and 'algorithm' strings")
        if name in entries:
            raise ConfigError(f"duplicate model name {name!r}")
        _check_keys(entry, "stacking" if algo == "stacking" else "model", f"model {name!r}")
        entries[name] = entry
    bases = {name: ModelSpec(entry["algorithm"], dict(_section(entry, "hyperparameters")),
                             _setting(entry, "seed", seed))
             for name, entry in entries.items() if entry["algorithm"] != "stacking"}
    return {name: _stacking_spec(name, entry, bases, seed, resampler)
            if entry["algorithm"] == "stacking" else bases[name]
            for name, entry in entries.items()}


def _stacking_spec(name: str, entry: dict, bases: dict, seed: int,
                   resampler: SmoteSettings | None):
    from .stacking import StackingSpec  # here: a config without a stack never loads it

    base_names = entry.get("bases", [])
    if not isinstance(base_names, list) or not all(isinstance(b, str) for b in base_names):
        raise ConfigError(f"stacking model {name!r}: 'bases' must be a list of model names")
    missing = [b for b in base_names if b not in bases]
    if missing:
        raise ConfigError(f"stacking model {name!r}: bases {missing} are not non-stacking "
                          "models of the roster")
    meta_entry = _section(entry, "meta")
    _check_keys(meta_entry, "meta", f"the meta entry of {name!r}")
    meta = ModelSpec("logistic", dict(_section(meta_entry, "hyperparameters")),
                     _setting(meta_entry, "seed", seed))
    return StackingSpec(base_specs=tuple(bases[b] for b in base_names), meta_spec=meta,
                        oof_folds=_setting(entry, "oof_folds"),
                        seed=_setting(entry, "seed", seed), resampler=resampler)


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None,
                resample_test_override: bool | None = None) -> RunConfig:
    """The run configuration at path; every fault in it, a value that the rule
    of a run setting or hyperparameter rejects included, is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, "", "the config")
    for section in ("smote", "tuning", "synthetic", "explain"):
        _check_keys(_section(raw, section), section, repr(section))
    for key in ("dataset", "schema", "target", "output_dir"):
        if not isinstance(raw.get(key, ""), str):
            raise ConfigError(f"{key!r} must be a string")
    if raw.get("dataset", "synthetic") != "synthetic" and not raw.get("schema"):
        raise ConfigError("a CSV dataset requires a schema path")
    overrides = {"seed": seed_override, "resample_test": resample_test_override}
    try:
        # every setting is checked, the SMOTE ones even when SMOTE is disabled
        settings = {key: _setting(raw if overrides.get(key) is None else overrides, key)
                    for key in _SETTINGS if key != "oof_folds"}
        resampler = (SmoteSettings(k_neighbors=settings["smote.k_neighbors"])
                     if settings["smote.enabled"] else None)
        models = _parse_models(raw.get("models", []), settings["seed"], resampler)
        tuning = _section(raw, "tuning")
        reference = raw.get("reference_model")
        if reference is not None and (not isinstance(reference, str) or reference not in models):
            raise ConfigError(f"reference model {reference!r} not in the roster")
        for name, space in _section(tuning, "spaces").items():
            if name not in models:
                raise ConfigError(f"tuning space for unknown model {name!r}")
            if not isinstance(models[name], ModelSpec):
                raise ConfigError(f"stacking model {name!r} cannot be tuned")
            if not isinstance(space, dict) or not space:
                raise ConfigError(f"tuning space for {name!r} must be a non-empty JSON object")
            from .learners.search import check_space  # only a config that tunes loads it

            check_space(models[name].algorithm, space)
        return RunConfig(settings=settings, resampler=resampler, models=models,
                         tuning_spaces=tuning.get("spaces", {}), reference_model=reference,
                         output_dir=out_override or raw.get("output_dir", "imbalkit-out"),
                         raw=raw)
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

    def write_text(self, rel: str, text: str):
        data = text.encode("utf-8")
        self._write_atomic(rel, data)
        self.artifacts[rel] = _sha256_bytes(data)

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
            "version": __version__,
            "artifacts": dict(sorted(self.artifacts.items())),
            "model_status": dict(sorted(self.model_status.items())),
        }
        # the manifest is not among the artifacts it hashes
        self._write_atomic("run-manifest.json",
                           (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8"))
        return manifest

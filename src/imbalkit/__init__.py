"""imbalkit: from-scratch imbalanced tabular binary classification toolkit.

Each exported name is imported from its module on first use (PEP 562), so
`import imbalkit` loads no module that a caller does not reach."""

import importlib
import sys

__version__ = "0.1.0"


def _lazy_exports(package: str, modules: dict) -> tuple:
    """(__all__, __getattr__, __dir__) for package, whose names resolve from
    modules (submodule -> the names it exports) on first use, per PEP 562."""
    exports = {name: module for module, names in modules.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{exports[name]}", package), name)
        namespace[name] = value  # later lookups skip this function
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return list(exports), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "data": ("ClassBalance", "ColumnSchema", "DataError", "Dataset", "EncodedMatrix",
             "EncoderMap", "SchemaError", "SmoteSettings", "class_distribution",
             "label_encode", "load_dataset", "load_schema", "smote", "stratified_split"),
    "learners.base": ("ModelSpec", "TrainedModel", "fit_model", "predict_proba"),
    "learners.gbt": ("ordered_target_statistics",),
    "learners.search": ("tune_random_search",),
    "learners.tree": ("entropy_impurity",),
    "metrics": ("ConfusionMatrix", "EvaluationReport", "confusion", "evaluate", "iba",
                "roc_auc", "roc_curve"),
    "psychometrics": ("FactorModel", "ReliabilityResult", "bartlett_sphericity",
                      "cronbach_alpha", "efa_varimax", "kmo"),
    "stacking": ("StackedModel", "StackingSpec", "stack_fit", "stack_predict_proba"),
    "stats": ("AssociationResult", "PairedTestResult", "bonferroni_adjust",
              "chi_square_association", "cramers_v", "paired_t_test"),
    "validation": ("CvRun", "cross_validate"),
    "explain": ("Attribution", "ImportanceReport", "LimeConfig", "SurrogateFit",
                "gbt_importances", "impurity_importance", "lime_explain",
                "permutation_importance", "shapley_exact", "shapley_sampled"),
})

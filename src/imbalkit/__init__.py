"""imbalkit: from-scratch imbalanced tabular binary classification toolkit."""

from .data import (
    ClassBalance,
    ColumnSchema,
    DataError,
    Dataset,
    EncodedMatrix,
    EncoderMap,
    SchemaError,
    class_distribution,
    label_encode,
    load_dataset,
    load_schema,
    smote,
    stratified_split,
)
from .learners import (
    ModelSpec,
    TrainedModel,
    entropy_impurity,
    fit_model,
    ordered_target_statistics,
    predict_proba,
    tune_random_search,
)
from .metrics import ConfusionMatrix, EvaluationReport, confusion, evaluate, iba, roc_auc, roc_curve
from .psychometrics import (
    FactorModel,
    ReliabilityResult,
    bartlett_sphericity,
    cronbach_alpha,
    efa_varimax,
    kmo,
)
from .stacking import StackedModel, StackingSpec, stack_fit, stack_predict_proba
from .stats import (
    AssociationResult,
    PairedTestResult,
    bonferroni_adjust,
    chi_square_association,
    cramers_v,
    paired_t_test,
)
from .validation import CvRun, SmoteSettings, cross_validate
from .explain import (
    Attribution,
    ImportanceReport,
    LimeConfig,
    SurrogateFit,
    gbt_importances,
    impurity_importance,
    lime_explain,
    permutation_importance,
    shapley_exact,
    shapley_sampled,
)

__version__ = "0.1.0"

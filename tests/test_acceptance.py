"""End-to-end acceptance checks.

Each test covers one numbered criterion and, on success, emits a single
un-captured PASS line so the run log shows one line per criterion.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner

from imbalkit import label_encode, smote, stratified_split
from imbalkit.cli import main as cli_main
from imbalkit.data import EncodedMatrix, class_distribution
from imbalkit.explain import LimeConfig, lime_explain, shapley_exact, shapley_sampled
from imbalkit.learners.base import ModelSpec, TrainedModel, fit_model, predict_proba
from imbalkit.metrics import evaluate, roc_auc
from imbalkit.psychometrics import (
    bartlett_sphericity,
    cronbach_alpha,
    efa_varimax,
    factor_congruence,
    kmo,
)
from imbalkit.special import chi2_sf, t_sf
from imbalkit.stacking import StackingSpec, stack_fit, stack_predict_proba
from imbalkit.stats import bonferroni_adjust, paired_t_test
from imbalkit.synth import synthetic_dataset
from imbalkit.validation import SmoteSettings, cross_validate, stratified_folds

mp.mp.dps = 40


def report(capsys, n, message):
    with capsys.disabled():
        print(f"\ncriterion {n:2d} PASS: {message}")


def test_criterion_01_smote_balance(capsys):
    rng = np.random.default_rng(0)
    n0, n1 = 1692, 308
    values = np.vstack([rng.normal(0, 1, size=(n0, 22)),
                        rng.normal(0.5, 1, size=(n1, 22))])
    target = np.r_[np.zeros(n0, int), np.ones(n1, int)]
    m = EncodedMatrix(values, target, tuple(f"f{j}" for j in range(22)),
                      np.arange(n0 + n1))
    t0 = time.perf_counter()
    out = smote(m, seed=1)
    elapsed = time.perf_counter() - t0
    bal = class_distribution(out)
    assert (bal.count_class0, bal.count_class1) == (1692, 1692)
    assert elapsed < 1.0
    report(capsys, 1, f"1692/308 -> 1692/1692 in {elapsed * 1000:.0f} ms")


def test_criterion_02_bonferroni(capsys):
    adjusted = bonferroni_adjust(0.05, 14)
    assert adjusted == pytest.approx(0.003571428571428571, abs=1e-15)
    assert float(f"{adjusted:.2g}") == 0.0036
    report(capsys, 2, f"adjust(0.05, 14) = {adjusted:.10f} (0.0036 at 2 s.f.)")


# published paired-test rows: (t statistic, Cohen's d), all at n = 10 folds
PUBLISHED_PAIRS = [
    (121.1051686, 38.29681691),
    (80.25698535, 25.37948718),
    (10.2632747, 3.24553243),
    (16.26647032, 5.143909572),
    (91.64586441, 28.98096697),
    (150.0921306, 47.46329915),
    (114.5227586, 36.21527612),
    (20.22896814, 6.396961404),
    (37.65104053, 11.90630443),
    (23.62297162, 7.470239543),
    (26.08610852, 8.249151821),
    (44.42596868, 14.04872483),
    (323.2059984, 102.2067108),
    (4.208968922, 1.330992839),
]


def test_criterion_03_paired_test_identity(capsys):
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        res = paired_t_test(a, b)
        assert abs(res.cohens_d - res.t / math.sqrt(n)) < 1e-12
    worst = 0.0
    for t, d in PUBLISHED_PAIRS:
        rel = abs(t / math.sqrt(10) - d) / abs(d)
        worst = max(worst, rel)
        assert rel < 5e-4
    report(capsys, 3, f"d = t/sqrt(n) to 1e-12; 14 published rows agree "
                      f"(worst rel err {worst:.2e})")


def test_criterion_04_metric_oracle(capsys):
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    checked = 0
    while checked < 1000:
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, size=4))
        if tp + fn == 0 or tn + fp == 0:
            continue
        y = np.r_[np.ones(tp + fn, int), np.zeros(tn + fp, int)]
        probs = np.r_[np.full(tp, 0.8), np.full(fn, 0.2),
                      np.full(fp, 0.8), np.full(tn, 0.2)]
        rep = evaluate(probs, y)

        def div(a, b):
            return a / b if b else 0.0

        acc = (tp + tn) / (tp + fp + tn + fn)
        prec = 0.5 * (div(tp, tp + fp) + div(tn, tn + fn))
        rec = 0.5 * (div(tp, tp + fn) + div(tn, tn + fp))
        f1 = div(2 * prec * rec, prec + rec)
        sens, spec = div(tp, tp + fn), div(tn, tn + fp)
        for got, want in [
            (rep.accuracy, acc), (rep.macro_precision, prec),
            (rep.macro_recall, rec), (rep.macro_f1, f1),
            (rep.specificity, spec), (rep.g_mean, math.sqrt(sens * spec)),
            (rep.iba, (1 + 0.1 * (sens - spec)) * sens * spec),
        ]:
            assert abs(got - want) < 1e-12
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(capsys, 4, f"1000 confusion matrices match brute force to 1e-12 "
                      f"in {elapsed:.1f} s")


def test_criterion_05_auc_identity(capsys):
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(4, 201))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        probs = rng.integers(0, 10, size=n) / 9.0
        pos, neg = probs[y == 1], probs[y == 0]
        oracle = ((pos[:, None] > neg[None, :]).sum()
                  + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (pos.size * neg.size)
        assert abs(roc_auc(probs, y) - oracle) < 1e-12
    report(capsys, 5, "rank AUC equals concordant-pair probability on 500 vectors")


def test_criterion_06_shapley(capsys):
    rng = np.random.default_rng(6)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        W = rng.normal(size=(d, 2))

        def predict(X, W=W):
            X = np.asarray(X, dtype=float)
            return np.tanh(X @ W[:, 0]) + (X @ W[:, 1]) ** 2

        x = rng.normal(size=d)
        bg = rng.normal(size=(6, d))
        att = shapley_exact(predict, x, bg)
        assert abs(att.values.sum() - (att.prediction - att.base_value)) < 1e-9

    d = 6
    W6 = rng.normal(size=d)

    def predict6(X):
        X = np.asarray(X, dtype=float)
        return np.sin(X @ W6) + 0.4 * X[:, 0] * X[:, 1]

    x = rng.normal(size=d)
    bg = rng.normal(size=(8, d))
    exact = shapley_exact(predict6, x, bg)
    sampled = shapley_sampled(predict6, x, bg, n_permutations=2000, seed=0)
    assert np.max(np.abs(sampled.values - exact.values)) <= 0.02

    prod = shapley_exact(lambda X: np.asarray(X)[:, 0] * np.asarray(X)[:, 1],
                         np.array([1.0, 1.0]), np.zeros((1, 2)))
    np.testing.assert_allclose(prod.values, [0.5, 0.5], atol=1e-12)
    report(capsys, 6, "efficiency 1e-9 on 100 models; sampled within 0.02; "
                      "product case phi = (0.5, 0.5)")


def test_criterion_07_lime_fidelity(capsys):
    rng = np.random.default_rng(7)
    cosines, r2s = [], []
    for _ in range(20):
        d = int(rng.integers(3, 8))
        w = rng.normal(size=d)
        b = float(rng.normal())

        def predict(X, w=w, b=b):
            return np.asarray(X, dtype=float) @ w + b

        X = rng.normal(size=(200, d))
        config = LimeConfig.from_training(X, n_samples=400)
        fit = lime_explain(predict, rng.normal(size=d), config, seed=0)
        cos = float(fit.coefficients @ w
                    / (np.linalg.norm(fit.coefficients) * np.linalg.norm(w)))
        cosines.append(cos)
        r2s.append(fit.weighted_r2)
    assert min(cosines) >= 0.99
    assert min(r2s) >= 0.95
    report(capsys, 7, f"linear recovery: min cosine {min(cosines):.4f}, "
                      f"min weighted R2 {min(r2s):.4f} over 20 instances")


def test_criterion_08_psychometrics(capsys):
    rng = np.random.default_rng(8)
    col = rng.normal(size=(60, 1))
    assert abs(cronbach_alpha(np.hstack([col, col, col])).alpha - 1.0) < 1e-12

    eye = np.vstack([np.diag([2.0] * 4), -np.diag([2.0] * 4)])
    assert abs(cronbach_alpha(eye).alpha) < 1e-12

    for r in (0.3, 0.505, -0.8):
        assert abs(kmo(np.array([[1.0, r], [r, 1.0]])) - 0.5) < 1e-10

    chi2, _, _ = bartlett_sphericity(np.eye(6), n=500)
    assert chi2 == 0.0

    F = rng.standard_normal((1000, 3))
    true = np.zeros((9, 3))
    for k in range(3):
        true[k * 3:(k + 1) * 3, k] = rng.uniform(0.7, 0.95, size=3)
    X = F @ true.T + 0.35 * rng.standard_normal((1000, 9))
    model = efa_varimax(X, 3)
    congruence = np.abs(factor_congruence(model.loadings, true)).max(axis=0)
    assert np.all(congruence >= 0.95)
    report(capsys, 8, f"alpha/KMO/Bartlett identities hold; EFA congruence "
                      f"{np.round(congruence, 3).tolist()}")


def test_criterion_09_p_value_engine(capsys):
    worst = 0.0
    for df in range(1, 31):
        for x in (0.05, 0.8, df / 2.0, float(df), 2.0 * df + 3.0):
            oracle = float(mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, mp.inf,
                                       regularized=True))
            worst = max(worst, abs(chi2_sf(x, df) - oracle))
        for t in (-6.0, -0.9, 0.4, 2.2, 9.0):
            z = mp.mpf(df) / (df + mp.mpf(t) ** 2)
            half = mp.betainc(mp.mpf(df) / 2, mp.mpf("0.5"), 0, z,
                              regularized=True) / 2
            oracle = float(half if t >= 0 else 1 - half)
            worst = max(worst, abs(t_sf(t, df) - oracle))
    assert worst < 1e-8
    report(capsys, 9, f"chi-square and t tails within {worst:.1e} of the "
                      "high-precision oracle for df 1..30")


class _Memorizer(TrainedModel):
    algorithm = "knn"

    def __init__(self, train):
        super().__init__(train.column_names)
        self.seen = {v.tobytes(): t for v, t in zip(train.values, train.target)}

    def predict_proba_values(self, values):
        return np.array([float(self.seen.get(r.tobytes(), 0.5)) for r in values])


def test_criterion_10_leakage_guards(capsys):
    ds = synthetic_dataset(400, seed=10)
    matrix, _ = label_encode(ds)

    run = cross_validate(ModelSpec("naive-bayes"), matrix, folds=10,
                         resampler=SmoteSettings(), seed=0)
    for ids in run.validation_row_ids:
        assert np.all(ids >= 0), "synthetic SMOTE row reached a validation fold"

    spec = StackingSpec(base_specs=(ModelSpec("knn"),), oof_folds=5, seed=0)
    model = stack_fit(spec, matrix, base_fit=lambda s, tr: _Memorizer(tr))
    np.testing.assert_array_equal(model.oof_matrix[:, 0], 0.5)

    # balance the classes first so chance accuracy is 50% and the 57% bound
    # measures leakage rather than the class prior
    rng = np.random.default_rng(0)
    poison_matrix, _ = label_encode(synthetic_dataset(1200, seed=11))
    minority = np.flatnonzero(poison_matrix.target == 1)
    majority = np.flatnonzero(poison_matrix.target == 0)[:minority.size]
    balanced = poison_matrix.take(np.sort(np.concatenate([minority, majority])))
    shuffled = EncodedMatrix(balanced.values, rng.permutation(balanced.target),
                             balanced.column_names, balanced.row_ids)
    poison_spec = StackingSpec(
        base_specs=(ModelSpec("knn"), ModelSpec("naive-bayes")), oof_folds=3, seed=0)

    def base_fit(s, tr):
        return _Memorizer(tr) if s.algorithm == "knn" else fit_model(s, tr)

    outer = stratified_folds(shuffled.target, 5, seed=1)
    accs = []
    for f in range(5):
        tr = shuffled.take(np.flatnonzero(outer != f))
        va = shuffled.take(np.flatnonzero(outer == f))
        probs = stack_predict_proba(stack_fit(poison_spec, tr, base_fit=base_fit), va)
        accs.append(float(np.mean((probs >= 0.5).astype(int) == va.target)))
    mean_acc = float(np.mean(accs))
    assert mean_acc <= 0.57
    report(capsys, 10, f"CV validation rows all original; OOF pure; poison "
                       f"CV accuracy {mean_acc:.3f} <= 0.57")


@pytest.mark.slow
def test_criterion_11_ensemble_sanity(capsys):
    ds = synthetic_dataset(2000, seed=7, imbalance=5.0)
    matrix, _ = label_encode(ds)
    base_mlp = {"hidden_layer_sizes": (32, 16), "max_iterations": 60}
    base_gbt = {"n_estimators": 80, "learning_rate": 0.1}
    stacked_aucs, best_base_aucs = [], []
    t0 = time.perf_counter()
    for seed in range(5):
        train, test = stratified_split(matrix, 0.2, seed=seed)
        train = smote(train, seed=seed)
        specs = (ModelSpec("mlp", base_mlp, seed), ModelSpec("gbt", base_gbt, seed))
        base_auc = max(
            evaluate(predict_proba(fit_model(s, train), test), test.target).auc
            for s in specs
        )
        stack_spec = StackingSpec(base_specs=specs, oof_folds=5, seed=seed)
        probs = stack_predict_proba(stack_fit(stack_spec, train), test)
        stacked_aucs.append(evaluate(probs, test.target).auc)
        best_base_aucs.append(base_auc)
    elapsed = time.perf_counter() - t0
    med_stacked = float(np.median(stacked_aucs))
    med_base = float(np.median(best_base_aucs))
    assert med_stacked >= med_base - 0.01

    # full eight-model benchmark at default hyperparameters
    train, test = stratified_split(matrix, 0.2, seed=0)
    train = smote(train, seed=0)
    t1 = time.perf_counter()
    from imbalkit.learners.base import ALGORITHMS

    for algo in ALGORITHMS:
        model = fit_model(ModelSpec(algo, seed=0), train)
        evaluate(predict_proba(model, test), test.target)
    bench_elapsed = time.perf_counter() - t1
    assert bench_elapsed < 600.0
    report(capsys, 11, f"median stacked AUC {med_stacked:.4f} vs best base "
                       f"{med_base:.4f} over 5 seeds ({elapsed:.0f} s); "
                       f"8-model benchmark in {bench_elapsed:.0f} s")


def test_criterion_12_benchmark_determinism(capsys, tmp_path):
    out = tmp_path / "out"
    cfg = {
        "dataset": "synthetic",
        "seed": 11,
        "test_fraction": 0.25,
        "synthetic": {"n": 300, "imbalance": 4.0},
        "models": [
            {"name": "nb", "algorithm": "naive-bayes"},
            {"name": "tree", "algorithm": "decision-tree"},
            {"name": "stack", "algorithm": "stacking", "bases": ["nb", "tree"],
             "oof_folds": 3},
        ],
        "output_dir": str(out),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    runner = CliRunner()
    assert runner.invoke(cli_main, ["benchmark", "--config", str(cfg_path)]).exit_code == 0
    first = {rel: (out / rel).read_bytes() for rel in ("metrics.json", "metrics.csv")}
    assert runner.invoke(cli_main, ["benchmark", "--config", str(cfg_path)]).exit_code == 0
    for rel, data in first.items():
        assert (out / rel).read_bytes() == data, f"{rel} not byte-identical"
    report(capsys, 12, "two identical benchmark runs emit byte-identical "
                       "metrics.json and metrics.csv")


PUBLISHED_DATASET = None  # supply a path here to exercise the replication run


def test_criterion_13_published_replication(capsys):
    if PUBLISHED_DATASET is None:
        pytest.skip("criterion 13 needs the externally published survey dataset; "
                    "best-effort replication is not CI-gated")

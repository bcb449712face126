"""Fit and predict time, AUC, fit_info, the minor page faults of each fit
(this process's `ru_minflt` before and after it) and the sha256 of the saved
model document of every learner at its defaults on the criterion-11 split: 2,000
synthetic rows (dataset seed 7), split and SMOTEd at seed 0, so 2,666 training
rows and 400 test rows. Two files with equal digests hold the same models, bit
for bit.

    python3 tools/learner_bench.py BENCH_<n>.json

Run from the root of a checkout. The times are raw seconds, so they compare
only between runs made close together on one host; the AUCs and digests
compare across hosts.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run as perfbench  # noqa: E402  pins BLAS to 1 thread and puts src/ on sys.path

from imbalkit import evaluate, label_encode, smote, stratified_split  # noqa: E402
from imbalkit.learners.base import (  # noqa: E402
    ALGORITHMS, ModelSpec, fit_model, predict_proba, serialize_model)
from imbalkit.synth import synthetic_dataset  # noqa: E402

matrix, _ = label_encode(synthetic_dataset(2000, seed=7, imbalance=5.0))
raw_train, test = stratified_split(matrix, 0.2, seed=0)
train = smote(raw_train, seed=0)
learners = {}
for algo in ALGORITHMS:
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    model = fit_model(ModelSpec(algo, seed=0), train)
    t1 = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    probs = predict_proba(model, test)
    t2 = time.perf_counter()
    learners[algo] = {"fit_s": t1 - t0, "predict_s": t2 - t1,
                      "auc": evaluate(probs, test.target).auc, "fit_info": model.fit_info,
                      "fit_minor_faults": faults,
                      "document_sha256": hashlib.sha256(json.dumps(
                          serialize_model(model), sort_keys=True).encode()).hexdigest()}
bench = {"environment": perfbench.environment(), "train_rows": train.n_rows,
         "test_rows": test.n_rows, "learners": learners}
Path(sys.argv[1]).write_text(json.dumps(bench, indent=2, sort_keys=True,
                                        default=lambda v: v.item()) + "\n", encoding="utf-8")

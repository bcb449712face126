import tracemalloc

import numpy as np
import pytest

from imbalkit import label_encode, smote, stratified_split
from imbalkit.synth import synthetic_dataset


@pytest.fixture(scope="session")
def small_dataset():
    return synthetic_dataset(300, seed=3)


@pytest.fixture(scope="session")
def small_matrix(small_dataset):
    matrix, _ = label_encode(small_dataset)
    return matrix


@pytest.fixture(scope="session")
def small_split(small_matrix):
    return stratified_split(small_matrix, 0.2, seed=42)


@pytest.fixture(scope="session")
def small_train(small_split):
    train, _ = small_split
    return smote(train, seed=1)


@pytest.fixture(scope="session")
def small_test(small_split):
    return small_split[1]


def kernel_level() -> str:
    """The highest x86-64 level whose kernels numpy dispatches to in this
    process: X86_V4 uses the AVX-512 exp and log kernels, X86_V3 the AVX2 ones
    (numpy's NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" forces
    X86_V3 on an AVX-512 CPU); "other" off x86-64."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return next((level for level in ("X86_V4", "X86_V3", "X86_V2")
                 if __cpu_features__.get(level)), "other")


def pinned(digest) -> str:
    """A pinned digest: the string itself, or, from a {kernel level: digest}
    table of a result that numpy's exp or log reach, the one for this
    process's level. A level with no recorded digest fails the test."""
    if isinstance(digest, str):
        return digest
    level = kernel_level()
    if level not in digest:
        pytest.fail(f"no digest recorded at numpy kernel level {level}; "
                    f"recorded: {sorted(digest)}")
    return digest[level]


def two_class_matrix(n0, n1, d=3, seed=0):
    """Raw Gaussian EncodedMatrix helper with shifted class means."""
    from imbalkit.data import EncodedMatrix

    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n0, d))
    X1 = rng.normal(1.5, 1.0, size=(n1, d))
    values = np.vstack([X0, X1])
    target = np.r_[np.zeros(n0, int), np.ones(n1, int)]
    return EncodedMatrix(values, target, tuple(f"f{j}" for j in range(d)),
                         np.arange(n0 + n1))


def tied_grid():
    """The 20 points of a 5 x 4 integer grid, each held 100 times, shuffled:
    every row lies at distance 0 from 99 others."""
    grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(4.0)), axis=-1).reshape(-1, 2)
    return np.random.default_rng(0).permutation(np.repeat(grid, 100, axis=0))


def grouping_peak(monkeypatch, fn, *args) -> int:
    """The most bytes that tracemalloc traces, over a call of fn(*args), above
    the start of one block's neighbour grouping: data._ball_groups and the
    work done on each group it yields. A first, untraced call warms numpy's
    lazy imports and caches."""
    from imbalkit import data

    peaks = [0]
    groups = data._ball_groups

    def traced(ball):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        yield from groups(ball)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(data, "_ball_groups", traced)
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        tracemalloc.stop()
    return max(peaks)

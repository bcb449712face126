"""Survey-scale validation: Cronbach's alpha, KMO, Bartlett's sphericity, EFA with varimax."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import chi2_sf

__all__ = [
    "ReliabilityResult",
    "FactorModel",
    "PsychometricsError",
    "cronbach_alpha",
    "correlation_matrix",
    "kmo",
    "bartlett_sphericity",
    "varimax",
    "efa_varimax",
    "factor_congruence",
]


class PsychometricsError(ValueError):
    pass


@dataclass(frozen=True)
class ReliabilityResult:
    alpha: float
    n_items: int
    item_variances: np.ndarray
    total_variance: float


@dataclass(frozen=True)
class FactorModel:
    loadings: np.ndarray          # (p, k) rotated loadings
    rotation: np.ndarray          # (k, k) orthogonal rotation applied
    eigenvalues: np.ndarray       # all p eigenvalues, descending
    kmo: float
    bartlett_chi2: float
    bartlett_df: int
    bartlett_p: float

    @property
    def communalities(self) -> np.ndarray:
        return np.sum(self.loadings ** 2, axis=1)


def cronbach_alpha(items) -> ReliabilityResult:
    """Internal-consistency alpha of an n x k item-score matrix (unbiased variances)."""
    X = np.asarray(items, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2 or X.shape[0] < 2:
        raise PsychometricsError("need an n x k matrix with n >= 2 and k >= 2")
    k = X.shape[1]
    item_var = X.var(axis=0, ddof=1)
    total_var = X.sum(axis=1).var(ddof=1)
    if total_var == 0:
        raise PsychometricsError("zero total-score variance")
    alpha = k / (k - 1) * (1.0 - item_var.sum() / total_var)
    return ReliabilityResult(alpha=float(alpha), n_items=k,
                             item_variances=item_var, total_variance=float(total_var))


def correlation_matrix(data) -> np.ndarray:
    X = np.asarray(data, dtype=float)
    if np.any(X.std(axis=0) == 0):
        raise PsychometricsError("constant column: correlation undefined")
    return np.corrcoef(X, rowvar=False)


def kmo(R) -> float:
    """Kaiser-Meyer-Olkin sampling adequacy from a correlation matrix.

    Uses anti-image partial correlations derived from the inverse matrix.
    """
    R = np.asarray(R, dtype=float)
    p = R.shape[0]
    if R.shape != (p, p) or not np.allclose(R, R.T, atol=1e-10):
        raise PsychometricsError("R must be a symmetric square matrix")
    try:
        S = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        raise PsychometricsError("singular correlation matrix") from None
    d = np.sqrt(np.outer(np.diag(S), np.diag(S)))
    partial = -S / d
    off = ~np.eye(p, dtype=bool)
    r2 = np.sum(R[off] ** 2)
    q2 = np.sum(partial[off] ** 2)
    if r2 + q2 == 0:
        return 0.0
    return float(r2 / (r2 + q2))


def bartlett_sphericity(R, n: int) -> tuple[float, int, float]:
    """Bartlett's test that a correlation matrix is the identity.

    chi2 = -(n - 1 - (2p + 5) / 6) * ln det(R), df = p(p-1)/2.
    """
    R = np.asarray(R, dtype=float)
    p = R.shape[0]
    if n <= p:
        raise PsychometricsError("sample size must exceed the number of variables")
    sign, logdet = np.linalg.slogdet(R)
    if sign <= 0:
        raise PsychometricsError("correlation matrix is not positive-definite")
    chi2 = -(n - 1 - (2 * p + 5) / 6.0) * logdet
    chi2 = max(chi2, 0.0)
    df = p * (p - 1) // 2
    return float(chi2), df, chi2_sf(chi2, df) if df > 0 else 1.0


def _varimax_criterion(L: np.ndarray) -> float:
    p = L.shape[0]
    sq = L ** 2
    return float(np.sum(sq ** 2) / p - np.sum((sq.sum(axis=0) / p) ** 2))


def varimax(loadings, kaiser: bool = True, tol: float = 1e-8, max_sweeps: int = 200
            ) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal varimax rotation by pairwise Jacobi sweeps.

    Returns (rotated loadings, rotation matrix R) with rotated = loadings @ R.
    Kaiser normalization divides rows by their communality norms during
    rotation and restores them afterwards. PsychometricsError if max_sweeps
    sweeps end before a sweep raises the criterion by less than tol.
    """
    L = np.asarray(loadings, dtype=float).copy()
    p, k = L.shape
    R = np.eye(k)
    if k < 2:
        return L, R
    h = np.sqrt(np.sum(L ** 2, axis=1))
    if kaiser:
        scale = np.where(h > 0, h, 1.0)
        L = L / scale[:, None]
    crit = _varimax_criterion(L)
    for _ in range(max_sweeps):
        for i in range(k - 1):
            for j in range(i + 1, k):
                u = L[:, i] ** 2 - L[:, j] ** 2
                v = 2.0 * L[:, i] * L[:, j]
                A = u.sum()
                B = v.sum()
                C = np.sum(u ** 2 - v ** 2)
                D = np.sum(2.0 * u * v)
                num = D - 2.0 * A * B / p
                den = C - (A ** 2 - B ** 2) / p
                phi = 0.25 * math.atan2(num, den)
                if abs(phi) < 1e-14:
                    continue
                c, s = math.cos(phi), math.sin(phi)
                rot = np.array([[c, -s], [s, c]])
                L[:, [i, j]] = L[:, [i, j]] @ rot
                R[:, [i, j]] = R[:, [i, j]] @ rot
        new_crit = _varimax_criterion(L)
        if new_crit - crit < tol:
            break
        crit = new_crit
    else:
        raise PsychometricsError(f"varimax did not converge in {max_sweeps} sweeps")
    if kaiser:
        L = L * scale[:, None]
    return L, R


def efa_varimax(data, n_factors: int) -> FactorModel:
    """Exploratory factor analysis: principal-component extraction + varimax rotation.

    Loadings come from the correlation-matrix eigendecomposition (eigenvectors
    scaled by sqrt eigenvalues for the top n_factors), then varimax-rotated.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise PsychometricsError("data must be an n x p matrix")
    n, p = X.shape
    if n_factors > p or n_factors < 1:
        raise PsychometricsError("n_factors must lie in [1, p]")
    R = correlation_matrix(X)
    eigvals, eigvecs = np.linalg.eigh(R)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    top = np.clip(eigvals[:n_factors], 0.0, None)
    unrotated = eigvecs[:, :n_factors] * np.sqrt(top)[None, :]
    # deterministic sign: make the largest-magnitude entry of each column positive
    for j in range(n_factors):
        idx = np.argmax(np.abs(unrotated[:, j]))
        if unrotated[idx, j] < 0:
            unrotated[:, j] = -unrotated[:, j]
    rotated, rot = varimax(unrotated)
    # order rotated factors by explained variance, sign-fix again
    var_order = np.argsort(-np.sum(rotated ** 2, axis=0), kind="stable")
    rotated = rotated[:, var_order]
    rot = rot[:, var_order]
    for j in range(n_factors):
        idx = np.argmax(np.abs(rotated[:, j]))
        if rotated[idx, j] < 0:
            rotated[:, j] = -rotated[:, j]
            rot[:, j] = -rot[:, j]
    chi2, df, pval = bartlett_sphericity(R, n)
    return FactorModel(loadings=rotated, rotation=rot, eigenvalues=eigvals,
                       kmo=kmo(R), bartlett_chi2=chi2, bartlett_df=df, bartlett_p=pval)


def factor_congruence(A, B) -> np.ndarray:
    """Tucker congruence coefficients between the columns of two loading matrices."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    num = A.T @ B
    den = np.sqrt(np.outer(np.sum(A ** 2, axis=0), np.sum(B ** 2, axis=0)))
    return num / den

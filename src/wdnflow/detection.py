"""Leak/event detection by per-sensor linear interpolation from the others.

For every sensor i a least-squares model predicts column i from all other
columns plus an intercept. Thresholds come from the training residuals with a
safety margin; a time step is suspicious as soon as one sensor deviates more
than its threshold. Per-sensor thresholds make alarm decisions invariant
under an affine rescaling of any single sensor applied to both splits.

All p models come from one QR factorization of the centred training matrix
X_c with its columns scaled to unit norm (Lauritzen 1996): with
P = (X_c^T X_c)^-1 = R^-1 R^-T, sensor i's weight on sensor j is
-P_ij / P_ii and its training residuals are (X_c P)_i / P_ii. Prediction is
then one product X W^T + b, with a zero diagonal in W. When the scaled X_c
is numerically rank-deficient (the cut-off `np.linalg.lstsq` applies with
rcond=None) or holds a constant column, every sensor is instead fitted on
its own by `lstsq`, which gives minimum-norm weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ColumnMismatchError, InsufficientDataError
from .network import _real
from .scada import GroundTruthRecord

__all__ = [
    "SensorInterpolationDetector", "DetectionResult", "EventOutcome",
    "Metrics", "evaluate",
]


def _impute(values: np.ndarray, lead_fill: np.ndarray) -> np.ndarray:
    """Forward-fill NaNs per column; leading NaNs take lead_fill."""
    out = np.array(values, dtype=float)
    missing = np.isnan(out)
    if not missing.any():
        return out
    n, p = out.shape
    padded = np.vstack([lead_fill, out])
    # each cell's source is the last present padded row at or above it;
    # padded row 0 is the fill, which is where a leading gap points
    source = np.where(missing, 0, np.arange(1, n + 1)[:, None])
    np.maximum.accumulate(source, axis=0, out=source)
    return padded[source, np.arange(p)]


def _column_means(X: np.ndarray) -> np.ndarray:
    """Mean of each column's present cells; 0.0 for a column with none."""
    # summed along contiguous rows, a gap-free column's mean is bit-equal to
    # its own ndarray.mean()
    rows = X.T.copy()
    missing = np.isnan(rows)
    rows[missing] = 0.0
    counts = X.shape[0] - missing.sum(axis=1)
    return np.divide(rows.sum(axis=1), counts, out=np.zeros(X.shape[1]),
                     where=counts > 0)


def _reject_infinite(X: np.ndarray, what: str) -> None:
    bad = np.isinf(X).any(axis=0)
    if bad.any():
        raise ValueError(
            f"{what} column {int(np.argmax(bad))} holds an infinite value")


def _fit_factored(X: np.ndarray):
    """Weights, intercepts and training residuals of all p regressions from
    one QR factorization, or None when it cannot stand for them. X is
    centred and scaled in place."""
    n, p = X.shape
    if (np.ptp(X, axis=0) == 0.0).any():
        return None
    mu = X.mean(axis=0)
    X -= mu
    scale = np.linalg.norm(X, axis=0)
    X /= scale
    R = np.linalg.qr(X, mode="r")
    s = np.linalg.svd(R, compute_uv=False)
    if s[-1] <= np.finfo(float).eps * max(n, p) * s[0]:
        return None
    # P of the unit-norm columns; undoing their scale turns -P_ij / P_ii into
    # weights on raw readings. Q is never formed, and each factor is dropped
    # once used and scaled in place, so at most two (n, p) arrays are live.
    Rinv = np.linalg.inv(R)
    del R
    P = Rinv @ Rinv.T
    del Rinv
    f = scale / np.diag(P)
    residuals = X @ P
    residuals *= f
    weights = P
    weights *= -f[:, None] / scale
    np.fill_diagonal(weights, 0.0)
    return weights, mu - weights @ mu, residuals


def _fit_per_column(X: np.ndarray):
    """One `lstsq` per sensor on the other columns plus an intercept."""
    n, p = X.shape
    weights = np.zeros((p, p))
    intercepts = np.zeros(p)
    residuals = np.zeros((n, p))
    for i in range(p):
        y = X[:, i]
        if np.ptp(y) == 0.0:
            # constant column: the mean is already a perfect predictor
            intercepts[i] = y[0]
            continue
        A = np.hstack([np.delete(X, i, axis=1), np.ones((n, 1))])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        weights[i, np.arange(p) != i] = coef[:-1]
        intercepts[i] = coef[-1]
        residuals[:, i] = y - A @ coef
    return weights, intercepts, residuals


@dataclass(frozen=True, eq=False)
class DetectionResult:
    times: tuple[float, ...]
    suspicious: tuple[int, ...]        # indices into times
    residuals: np.ndarray              # (n_rows, n_sensors)
    thresholds: np.ndarray

    @property
    def suspicious_times(self) -> tuple[float, ...]:
        return tuple(self.times[i] for i in self.suspicious)


class SensorInterpolationDetector:
    """Alarm when any sensor strays from its interpolation by the others."""

    def __init__(self, margin: float = 0.1, min_threshold: float = 1e-9):
        for name, value in (("margin", margin),
                            ("min_threshold", min_threshold)):
            if not _real(value, 0.0):
                raise ValueError(f"{name} must be a finite number >= 0,"
                                 f" got {value!r}")
        self.margin = float(margin)
        self.min_threshold = float(min_threshold)
        self.n_sensors: int | None = None
        self.weights: np.ndarray | None = None      # (p, p), zero diagonal
        self.intercepts: np.ndarray | None = None
        self.thresholds: np.ndarray | None = None
        self.train_means: np.ndarray | None = None

    def fit(self, values: np.ndarray) -> "SensorInterpolationDetector":
        X = np.asarray(values, dtype=float)
        if X.ndim != 2:
            raise ValueError("training data must be a 2-D matrix")
        n, p = X.shape
        if p < 1:
            raise InsufficientDataError("no sensor columns to fit")
        if n < p + 1:
            raise InsufficientDataError(
                f"need at least {p + 1} training rows for {p} sensors, got {n}")
        _reject_infinite(X, "training")
        means = _column_means(X)
        # the factored fit consumes its copy of the readings
        fitted = (_fit_factored(_impute(X, means))
                  or _fit_per_column(_impute(X, means)))
        self.n_sensors = p
        self.train_means = means
        self.weights, self.intercepts, residuals = fitted
        self.thresholds = np.maximum(
            (1.0 + self.margin) * np.abs(residuals).max(axis=0),
            self.min_threshold)
        return self

    def apply(self, values: np.ndarray,
              times: tuple[float, ...] | None = None) -> DetectionResult:
        if self.n_sensors is None:
            raise InsufficientDataError("detector has not been fitted")
        X = np.asarray(values, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_sensors:
            got = X.shape[1] if X.ndim == 2 else "?"
            raise ColumnMismatchError(
                f"detector fitted on {self.n_sensors} sensors, got {got}")
        _reject_infinite(X, "applied")
        X = _impute(X, self.train_means)
        # X - (X W^T + b) in one (n, p) buffer beside X
        residuals = X @ self.weights.T
        residuals += self.intercepts
        np.subtract(X, residuals, out=residuals)
        flagged = np.abs(residuals) > self.thresholds
        suspicious = tuple(int(i) for i in np.where(flagged.any(axis=1))[0])
        if times is None:
            times = tuple(float(i) for i in range(X.shape[0]))
        elif len(times) != X.shape[0]:
            raise ColumnMismatchError("times length does not match rows")
        return DetectionResult(times=tuple(times), suspicious=suspicious,
                               residuals=residuals,
                               thresholds=self.thresholds.copy())


@dataclass(frozen=True)
class EventOutcome:
    event_id: str
    kind: str
    detected: bool
    delay_s: float | None


@dataclass(frozen=True)
class Metrics:
    true_positive_rate: float
    false_positive_rate: float
    precision: float
    f1: float
    events: tuple[EventOutcome, ...]

    def as_text(self) -> str:
        lines = [
            f"true_positive_rate: {self.true_positive_rate:.4f}",
            f"false_positive_rate: {self.false_positive_rate:.4f}",
            f"precision: {self.precision:.4f}",
            f"f1: {self.f1:.4f}",
        ]
        for e in self.events:
            delay = "undetected" if e.delay_s is None else f"{e.delay_s:.1f} s"
            lines.append(f"event {e.event_id} ({e.kind}): {delay}")
        return "\n".join(lines)


def evaluate(result: DetectionResult,
             truth: tuple[GroundTruthRecord, ...]) -> Metrics:
    """Step-level rates plus per-event detection delay.

    A step is positive when it falls in any event window (start inclusive,
    end exclusive). Empty denominators yield 0.0 rather than NaN.
    """
    times = np.array(result.times)
    flagged = np.zeros(times.size, dtype=bool)
    flagged[list(result.suspicious)] = True
    positive = np.zeros(times.size, dtype=bool)
    for rec in truth:
        positive |= (times >= rec.start_s) & (times < rec.end_s)

    tp = int(np.sum(flagged & positive))
    fp = int(np.sum(flagged & ~positive))
    fn = int(np.sum(~flagged & positive))
    tn = int(np.sum(~flagged & ~positive))
    tpr = tp / (tp + fn) if tp + fn else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f1 = (2 * precision * tpr / (precision + tpr)) if precision + tpr else 0.0

    events = []
    for rec in truth:
        in_window = (times >= rec.start_s) & (times < rec.end_s)
        hits = np.where(in_window & flagged)[0]
        if hits.size:
            events.append(EventOutcome(rec.event_id, rec.kind, True,
                                       float(times[hits[0]] - rec.start_s)))
        else:
            events.append(EventOutcome(rec.event_id, rec.kind, False, None))
    return Metrics(tpr, fpr, precision, f1, tuple(events))

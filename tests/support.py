"""Helpers that only the tests use: gradient checking, parameter counting and
a canonical training log. The package never calls them."""

import numpy as np


def relative_error(a, b) -> np.ndarray:
    """|a-b| / max(1e-8, |a|+|b|), elementwise; stable near zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))


def finite_difference_gradient(f, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat parameter array."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    work = theta.copy()
    for i in range(theta.size):
        work[i] = theta[i] + eps
        up = f(work)
        work[i] = theta[i] - eps
        down = f(work)
        work[i] = theta[i]
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"finite_difference_gradient: f non-finite at coordinate {i}")
        grad[i] = (up - down) / (2.0 * eps)
    return grad


def parameter_count(params) -> int:
    """Number of scalars in a name->Variable parameter dict."""
    return sum(p.value.size for p in params.values())


def format_log(log) -> str:
    """Canonical training log of EpochRecords (timing excluded: wall clock is
    not reproducible)."""
    return "".join(f"{r.epoch},{r.train_nll!r},{r.valid_nll!r}\n" for r in log)

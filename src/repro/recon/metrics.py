"""Image-quality metrics for reconstruction validation."""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.utils.arrays import norm2


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a.ravel(), b.ravel()


def rmse(image, reference) -> float:
    """Root mean squared error."""
    a, b = _pair(image, reference)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def relative_error(image, reference) -> float:
    """``||image - reference|| / ||reference||`` (2-norm)."""
    a, b = _pair(image, reference)
    denom = norm2(b) or 1.0
    return norm2(a - b) / denom


def psnr(image, reference, data_range: float | None = None) -> float:
    """Peak signal-to-noise ratio in dB (infinite for identical inputs)."""
    a, b = _pair(image, reference)
    if data_range is None:
        data_range = float(b.max() - b.min()) or 1.0
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(data_range**2 / mse)


def correlation(image, reference) -> float:
    """Pearson correlation of pixel values (1.0 = perfect structure)."""
    a, b = _pair(image, reference)
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return 1.0 if np.allclose(a, b) else 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))

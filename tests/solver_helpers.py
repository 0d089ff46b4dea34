"""Solver helpers that only the tests call, kept out of ``featalign``."""

import numpy as np

from featalign.lm_align import _damping_matrix


def damp(h: np.ndarray, lam: float, mode: str) -> np.ndarray:
    """Apply damping: H + lam * I (levenberg) or H + lam * diag(H) (marquardt),
    the damped system ``align_level`` solves."""
    return h + lam * _damping_matrix(h, mode)

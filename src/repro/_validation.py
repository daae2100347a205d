"""Small validation helpers shared by the library modules.

These helpers normalise user input (lists, tuples, numpy arrays) into
well-shaped ``numpy`` arrays and raise :class:`repro.exceptions.DimensionError`
with informative messages when the input cannot be used; :func:`env_int`
reads the integer ``REPRO_*`` environment knobs.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .exceptions import DimensionError

ArrayLike = Union[float, int, Sequence, np.ndarray]


def env_int(name: str, report: Optional[Callable[[str], None]] = None) -> Optional[int]:
    """Integer value of environment variable ``name``; ``None`` when it is
    unset, empty or malformed.

    ``"2e6"``-style floats are accepted.  Non-numeric and non-finite values
    (``inf``, ``nan``, ``1e400``) are malformed: ``report``, when given,
    receives an ``ignoring non-numeric ...`` message and the value reads as
    unset, so a typo never crashes the caller.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return int(value)
    if report is not None:
        report(f"ignoring non-numeric {name}={raw!r}")
    return None


def as_matrix(value: ArrayLike, name: str = "matrix") -> np.ndarray:
    """Return ``value`` as a 2-D float array.

    Scalars become 1x1 matrices and 1-D vectors become a single row.

    Raises:
        DimensionError: if the input has more than two dimensions or contains
            non-finite entries.
    """
    array = np.atleast_2d(np.asarray(value, dtype=float))
    if array.ndim != 2:
        raise DimensionError(f"{name} must be at most 2-dimensional, got ndim={array.ndim}")
    if not np.all(np.isfinite(array)):
        raise DimensionError(f"{name} contains non-finite entries")
    return array


def as_column(value: ArrayLike, name: str = "vector") -> np.ndarray:
    """Return ``value`` as a 2-D column vector (n x 1)."""
    array = np.asarray(value, dtype=float)
    if array.ndim == 0:
        array = array.reshape(1, 1)
    elif array.ndim == 1:
        array = array.reshape(-1, 1)
    elif array.ndim == 2:
        if array.shape[1] != 1 and array.shape[0] == 1:
            array = array.T
        elif array.shape[1] != 1:
            raise DimensionError(f"{name} must be a vector, got shape {array.shape}")
    else:
        raise DimensionError(f"{name} must be a vector, got ndim={array.ndim}")
    if not np.all(np.isfinite(array)):
        raise DimensionError(f"{name} contains non-finite entries")
    return array


def as_row(value: ArrayLike, name: str = "vector") -> np.ndarray:
    """Return ``value`` as a 2-D row vector (1 x n)."""
    return as_column(value, name=name).T


def require_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check that ``matrix`` is square and return it unchanged."""
    if matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {matrix.shape}")
    return matrix


def require_positive(value: float, name: str = "value") -> float:
    """Check that a scalar is strictly positive and return it as ``float``."""
    value = float(value)
    if not value > 0:
        raise DimensionError(f"{name} must be strictly positive, got {value}")
    return value


def require_non_negative_int(value: int, name: str = "value") -> int:
    """Check that a scalar is a non-negative integer and return it as ``int``."""
    ivalue = int(value)
    if ivalue != value or ivalue < 0:
        raise DimensionError(f"{name} must be a non-negative integer, got {value!r}")
    return ivalue


def is_symmetric(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """Return True when ``matrix`` is symmetric within ``tol``."""
    return bool(np.allclose(matrix, matrix.T, atol=tol))


def is_positive_definite(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """Return True when the symmetric part of ``matrix`` is positive definite."""
    symmetric = 0.5 * (matrix + matrix.T)
    try:
        eigenvalues = np.linalg.eigvalsh(symmetric)
    except np.linalg.LinAlgError:
        return False
    return bool(np.min(eigenvalues) > tol)

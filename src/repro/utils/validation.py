"""Small argument-validation helpers shared across the library.

Each helper raises ``ValueError`` with a message that names the offending
parameter, which keeps the validation blocks at the top of public functions
short and uniform.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

#: Kernel dtype spellings accepted by :func:`resolve_dtype`.
SUPPORTED_DTYPES = ("float64", "float32")


def check_positive(name: str, value: float) -> float:
    """Ensure ``value`` is strictly positive and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be strictly positive, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Ensure ``value`` is >= 0 and return it."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1] and return it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Ensure ``low <= value <= high`` and return ``value``."""
    if not low <= value <= high:
        raise ValueError(
            f"{name} must lie in [{low}, {high}], got {value!r}"
        )
    return value


def check_power_of_two(name: str, value: int) -> int:
    """Ensure ``value`` is a positive power of two and return it."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")
    return value


def check_choice(name: str, value: str, choices: Iterable[str]) -> str:
    """Ensure ``value`` is one of ``choices`` and return it."""
    allowed = tuple(choices)
    if value not in allowed:
        raise ValueError(
            f"{name} must be one of {allowed}, got {value!r}"
        )
    return value


def resolve_dtype(dtype: Union[None, str, type, np.dtype] = None) -> np.dtype:
    """Normalise the kernel ``dtype=`` knob to float64 (default) or float32.

    float64 is the bit-exact reference precision of the BP and trellis
    kernels; float32 runs the same kernels in single precision and is
    validated statistically (see EXPERIMENTS.md).
    """
    if dtype is None:
        return np.dtype(np.float64)
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(
            f"unsupported kernel dtype {dtype!r}; valid choices are "
            f"{', '.join(SUPPORTED_DTYPES)}") from exc
    if resolved.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported kernel dtype {resolved.name!r}; valid choices "
            f"are {', '.join(SUPPORTED_DTYPES)}")
    return resolved

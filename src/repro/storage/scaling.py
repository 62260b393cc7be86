"""Fixed-point scaling of floating-point attributes to 64-bit integers.

§6.1: "Floating point values are typically limited to a fixed number of
decimal points (e.g., 2 for price values).  We scale all values by the
smallest power of 10 that converts them to integers."  This module implements
exactly that conversion and remembers the scale so values can be converted
back for display or for mapping query predicates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import SchemaError

_MAX_DECIMALS = 9

#: 2**63: scaled values must lie in ``[-2**63, 2**63)`` to fit ``int64``.
_INT64_LIMIT = float(2**63)


def _required_decimals(values: np.ndarray, max_decimals: int) -> int:
    """Return the smallest number of decimal digits that makes ``values`` integral."""
    for decimals in range(max_decimals + 1):
        scaled = values * (10**decimals)
        # rtol must be zero: a relative tolerance would wrongly accept large
        # scaled values whose fractional part is far from zero.
        if np.allclose(scaled, np.rint(scaled), rtol=0.0, atol=1e-6):
            return decimals
    raise SchemaError(
        f"values require more than {max_decimals} decimal digits of precision; "
        "round them before ingestion"
    )


@dataclass(frozen=True)
class FixedPointScaler:
    """Reversible mapping ``float -> int64`` using a power-of-ten scale."""

    decimals: int

    @property
    def factor(self) -> int:
        """Multiplicative factor applied to raw values (``10 ** decimals``)."""
        return 10**self.decimals

    @classmethod
    def fit(cls, values: np.ndarray, max_decimals: int = _MAX_DECIMALS) -> "FixedPointScaler":
        """Choose the smallest power of ten that converts ``values`` to integers."""
        array = np.asarray(values, dtype=np.float64)
        if array.size and not np.all(np.isfinite(array)):
            raise SchemaError("cannot scale non-finite floating point values")
        if array.size == 0:
            return cls(decimals=0)
        return cls(decimals=_required_decimals(array, max_decimals))

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Scale raw float values to ``int64``.

        A non-finite value, or one whose scaled value falls outside ``int64``,
        raises :class:`SchemaError` instead of wrapping in the cast.
        """
        scaled = np.rint(np.asarray(values, dtype=np.float64) * self.factor)
        # NaN fails both comparisons, so it is rejected with the infinities.
        if not np.all((scaled >= -_INT64_LIMIT) & (scaled < _INT64_LIMIT)):
            raise SchemaError(
                f"values scaled by {self.factor} must be finite and fit in int64"
            )
        return scaled.astype(np.int64)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Map stored integers back to their original floating-point values."""
        return np.asarray(values, dtype=np.float64) / self.factor

    def transform_scalar(self, value: float) -> int:
        """Scale a single raw value (useful for query predicate bounds)."""
        return int(round(float(value) * self.factor))


def scale_to_int64(values: np.ndarray, max_decimals: int = _MAX_DECIMALS) -> tuple[np.ndarray, FixedPointScaler]:
    """Convenience helper returning the scaled array together with its scaler."""
    scaler = FixedPointScaler.fit(values, max_decimals=max_decimals)
    return scaler.transform(values), scaler

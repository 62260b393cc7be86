"""Compact CDF models used to partition dimensions into equal-depth cells.

Flood partitions every dimension uniformly in its CDF (§2.2); the Augmented
Grid additionally partitions a dimension uniformly in a *conditional* CDF
given another dimension's partition (§5.2.2).  The models here are compact:
they store at most a fixed number of quantile knots and interpolate linearly
between them, which keeps index size proportional to the knot count instead
of the data size.

With ``p`` partitions, value ``x`` lies in partition
``min(int(evaluate(x) * p), p - 1)``, where :meth:`EmpiricalCDF.evaluate` is
the interpolated CDF (``np.interp``).  Rows and query windows share one
compiled form of that function: on first use of a partition count, a model
compiles the sorted doubles at which the partition changes, found by
searching ``evaluate`` itself (from the interpolation's analytic inverse), so
the compiled function equals the formula at every double.  A row's
partition is then one ``np.searchsorted`` and a query window two bisects.
The compiled lists are derived state: pickles leave them out, and a loaded
model compiles again on first use.
"""

from __future__ import annotations

from math import inf, nextafter
from typing import NamedTuple

import numpy as np

from repro.common.errors import IndexBuildError

_SIGN_BIT = np.int64(-(2**63))
#: First-round key offsets of a boundary search around its guess.
_GALLOP = np.concatenate([-(2 ** np.arange(20, -1, -1)), [0], 2 ** np.arange(21)]).astype(np.int64)
#: Later rounds' steps across a bracket.
_STEPS = np.arange(64, dtype=np.uint64)


def _keys(values: np.ndarray) -> np.ndarray:
    """Order-preserving int64 keys of doubles: adjacent doubles get adjacent keys."""
    bits = np.asarray(values, dtype=np.float64).reshape(-1).view(np.int64)
    return np.where(bits < 0, _SIGN_BIT - bits, bits)


def _doubles(keys) -> np.ndarray:
    """The doubles of :func:`_keys` keys."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    return np.where(keys < 0, _SIGN_BIT - keys, keys).view(np.float64)


class Partitioning(NamedTuple):
    """One partition count's compiled partition function.

    Value ``x`` lies in partition ``ids[bisect_right(breaks, x)]``: ``breaks``
    are the sorted doubles at which the partition changes and ``ids[i + 1]``
    is the partition from ``breaks[i]`` on (``ids[0]`` is 0).  The arrays hold
    the same numbers for vectorized lookups.
    """

    breaks: list[float]
    ids: list[int]
    break_array: np.ndarray
    id_array: np.ndarray


class EmpiricalCDF:
    """A compact empirical CDF over one dimension's stored values.

    The model stores up to ``max_knots`` quantile knots of the observed
    distribution and evaluates ``CDF(x)`` by linear interpolation, clamped to
    ``[0, 1]``.  With ``p`` partitions, value ``x`` is assigned to partition
    ``min(floor(CDF(x) * p), p - 1)``, which yields approximately equal-depth
    partitions.  :meth:`partitioning` compiles that function once per
    partition count, and every partition lookup reads the compiled form.
    """

    def __init__(self, values: np.ndarray, max_knots: int = 1024) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise IndexBuildError("cannot fit a CDF over an empty value array")
        if max_knots < 2:
            raise ValueError(f"max_knots must be >= 2, got {max_knots}")
        ordered = np.sort(values)
        self._n = int(ordered.size)
        if ordered.size <= max_knots:
            self._knots = ordered
            self._knot_cdf = (np.arange(1, ordered.size + 1)) / ordered.size
        else:
            quantiles = np.linspace(0.0, 1.0, max_knots)
            self._knots = np.quantile(ordered, quantiles)
            self._knot_cdf = quantiles.copy()
            self._knot_cdf[-1] = 1.0
        self._min = float(ordered[0])
        self._max = float(ordered[-1])
        self._compiled: dict[int, Partitioning] = {}
        # Distinct knots with the CDF at and just below each, for compiling.
        self._segments: tuple[list[float], list[float], list[float]] | None = None

    def __getstate__(self) -> dict:
        # Compiled partitionings are derived from the knots; a loaded model
        # compiles again on first use.
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        state.pop("_segments", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._compiled = {}
        self._segments = None

    @property
    def num_values(self) -> int:
        """Number of values the model was fit on."""
        return self._n

    @property
    def domain(self) -> tuple[float, float]:
        """``(min, max)`` of the fitted values."""
        return self._min, self._max

    def evaluate(self, x: float) -> float:
        """Return ``CDF(x)`` in ``[0, 1]``."""
        if x < self._min:
            return 0.0
        if x >= self._max:
            return 1.0
        return float(np.interp(x, self._knots, self._knot_cdf))

    def evaluate_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`evaluate`."""
        values = np.asarray(values, dtype=np.float64)
        result = np.interp(values, self._knots, self._knot_cdf)
        result[values < self._min] = 0.0
        result[values >= self._max] = 1.0
        return result

    def partitioning(self, num_partitions: int) -> Partitioning:
        """The compiled partition function for ``num_partitions`` partitions."""
        compiled = self._compiled.get(num_partitions)
        if compiled is None:
            if num_partitions < 1:
                raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
            compiled = self._compiled[num_partitions] = self._compile(num_partitions)
        return compiled

    def partitions_of(self, values: np.ndarray, num_partitions: int) -> np.ndarray:
        """Partition id of every value when the dimension has ``num_partitions``."""
        _, _, breaks, ids = self.partitioning(num_partitions)
        values = np.asarray(values, dtype=np.float64)
        return ids[np.searchsorted(breaks, values, side="right")]

    def size_bytes(self) -> int:
        """Approximate footprint of the model: its knots (§5.1's accounting).

        Compiled partition functions are derived from the knots and left out.
        """
        return int(self._knots.nbytes + self._knot_cdf.nbytes)

    # -- compiling -------------------------------------------------------------

    def _compile(self, num_partitions: int) -> Partitioning:
        """Every double at which the partition of ``num_partitions`` changes.

        Between two distinct knots ``np.interp`` evaluates one line, so the
        partition never falls inside such a segment: it starts at the left
        knot's partition and climbs to the partition just below the right
        knot.  Boundary ``k`` of a segment is its smallest double whose
        partition is at least ``k``.  At a knot the partition may jump, and
        where rounding leaves the line's end above the knot's own CDF value
        it may even fall by one; a knot whose partition differs from the
        one just below it is a change point too.
        """
        if self._segments is None:
            distinct = np.append(True, self._knots[1:] != self._knots[:-1])
            knots = self._knots[distinct]
            self._segments = (
                knots.tolist(),
                self.evaluate_many(knots).tolist(),
                self.evaluate_many(np.nextafter(knots, -np.inf)).tolist(),
            )
        knots, knot_cdf, below_cdf = self._segments
        top = num_partitions - 1
        at = [min(int(cdf * num_partitions), top) for cdf in knot_cdf]
        below = [min(int(cdf * num_partitions), top) for cdf in below_cdf]
        climbs = [
            (segment, target)
            for segment in range(len(knots) - 1)
            for target in range(at[segment] + 1, below[segment + 1] + 1)
        ]
        boundaries = iter(self._boundaries(climbs, num_partitions))

        breaks: list[float] = []
        ids = [0]
        for segment, knot in enumerate(knots):
            if at[segment] != below[segment]:
                breaks.append(knot)
                ids.append(at[segment])
            if segment + 1 < len(knots):
                for target in range(at[segment] + 1, below[segment + 1] + 1):
                    boundary = next(boundaries)
                    if breaks and breaks[-1] == boundary:
                        # A partition skipped inside the segment: the last holds.
                        ids[-1] = target
                    else:
                        breaks.append(boundary)
                        ids.append(target)
        return Partitioning(breaks, ids, np.array(breaks, dtype=np.float64), np.array(ids, dtype=np.int64))

    def _boundaries(self, climbs: list[tuple[int, int]], num_partitions: int) -> list[float]:
        """Per ``(segment, k)``: the segment's smallest double of partition >= ``k``.

        The partition is below ``k`` at the segment's left knot and at least
        ``k`` just below its right one.  The guess inverts the segment's
        line.  Rounding usually leaves the boundary within a double or two
        of it, so one ``np.interp`` call checks the five doubles around
        every guess (the probes lie inside ``[min, max)``, where
        :meth:`evaluate` is ``np.interp``, and a partition below ``p`` is at
        least ``k`` exactly when ``CDF * p >= k``).  :meth:`_search` finds
        the rest.
        """
        knots, knot_cdf, below_cdf = self._segments
        guesses, probes = [], []
        for segment, target in climbs:
            low, end = knots[segment], knots[segment + 1]
            last = nextafter(end, -inf)
            # The climb makes the CDF rise across the segment, so no division by zero.
            run = (last - low) / (below_cdf[segment + 1] - knot_cdf[segment])
            guess = low + (target / num_partitions - knot_cdf[segment]) * run
            guess = nextafter(low, inf) if not guess > low else min(guess, last)
            guesses.append(guess)
            down, up = nextafter(guess, -inf), nextafter(guess, inf)
            probes += [max(nextafter(down, -inf), low), max(down, low), guess]
            probes += [min(up, last), min(nextafter(up, inf), last)]
        cdf = np.interp(probes, self._knots, self._knot_cdf).tolist() if probes else []
        found: list[float] = []
        missed: list[int] = []
        for position, (segment, target) in enumerate(climbs):
            window = probes[5 * position : 5 * position + 5]
            reached = [value * num_partitions >= target for value in cdf[5 * position : 5 * position + 5]]
            first = reached.index(True) if True in reached else 5
            if 0 < first < 5 or (first == 0 and window[0] == nextafter(knots[segment], inf)):
                found.append(window[first])
            else:
                found.append(guesses[position])
                missed.append(position)
        if missed:
            segments = np.array([climbs[row][0] for row in missed])
            knot_array = np.array(knots)
            searched = self._search(
                np.array([climbs[row][1] for row in missed]),
                num_partitions,
                knot_array[segments],
                np.nextafter(knot_array[segments + 1], -np.inf),
                np.array([guesses[row] for row in missed]),
            )
            for row, boundary in zip(missed, searched.tolist()):
                found[row] = boundary
        return found

    def _search(
        self,
        targets: np.ndarray,
        num_partitions: int,
        low: np.ndarray,
        high: np.ndarray,
        guess: np.ndarray,
    ) -> np.ndarray:
        """Per target ``k``: the smallest double in ``(low, high]`` of partition >= ``k``.

        The partition is below ``k`` at ``low`` and at least ``k`` at
        ``high``.  The search runs on the doubles' order-preserving integer
        keys, with one ``np.interp`` call a round for every boundary still
        open: the first round probes power-of-two distances around
        ``guess`` (the boundary can lie far from it where many doubles share
        one CDF value), and each later round 64 even steps of the bracket
        left, which narrows to the last probe below ``k`` and the first at
        or above it.
        """
        keys = _keys(np.concatenate([low, high, guess]))
        below, above, start = keys[: low.size], keys[low.size : 2 * low.size], keys[2 * low.size :]
        probes = start[:, None] + _GALLOP
        rows = np.arange(targets.size)
        while rows.size:
            probes = np.clip(probes, (below[rows] + 1)[:, None], above[rows, None])
            cdf = np.interp(_doubles(probes), self._knots, self._knot_cdf)
            reach = cdf.reshape(probes.shape) * num_partitions >= targets[rows, None]
            above[rows] = np.where(reach, probes, above[rows, None]).min(axis=1)
            below[rows] = np.where(reach, below[rows, None], probes).max(axis=1)
            # Key differences can exceed the int64 range; unsigned arithmetic wraps exactly.
            width = above[rows].view(np.uint64) - below[rows].view(np.uint64)
            rows, width = rows[width > 1], width[width > 1]
            step = (width - 2) // 63
            offsets = np.where(step[:, None] > 0, step[:, None] * _STEPS, np.minimum(_STEPS, width[:, None] - 2))
            probes = (below[rows].view(np.uint64)[:, None] + 1 + offsets).view(np.int64)
        return _doubles(above)


class ConditionalCDF:
    """``CDF(Y | X)``: one compact CDF of Y per partition of the base dimension X.

    §5.2.2: "if there are pX and pY partitions over X and Y respectively, we
    implement CDF(Y|X) by storing pX histograms over Y, one for each partition
    in X."  We store one :class:`EmpiricalCDF` per X-partition; empty
    X-partitions fall back to the marginal CDF of Y.
    """

    def __init__(
        self,
        base_partitions: np.ndarray,
        dependent_values: np.ndarray,
        num_base_partitions: int,
        max_knots: int = 64,
    ) -> None:
        base_partitions = np.asarray(base_partitions)
        dependent_values = np.asarray(dependent_values, dtype=np.float64)
        if base_partitions.shape != dependent_values.shape:
            raise IndexBuildError(
                "base partition ids and dependent values must have the same length"
            )
        if num_base_partitions < 1:
            raise ValueError("num_base_partitions must be >= 1")
        self._num_base_partitions = num_base_partitions
        marginal = EmpiricalCDF(dependent_values, max_knots=max_knots)
        self._marginal = marginal
        self._models: list[EmpiricalCDF] = []
        for partition in range(num_base_partitions):
            members = dependent_values[base_partitions == partition]
            if members.size == 0:
                self._models.append(marginal)
            else:
                self._models.append(EmpiricalCDF(members, max_knots=max_knots))

    @property
    def num_base_partitions(self) -> int:
        """Number of partitions of the base dimension."""
        return self._num_base_partitions

    def model_for(self, base_partition: int) -> EmpiricalCDF:
        """The CDF of the dependent dimension within one base partition."""
        if not 0 <= base_partition < self._num_base_partitions:
            raise ValueError(
                f"base partition {base_partition} out of range "
                f"[0, {self._num_base_partitions})"
            )
        return self._models[base_partition]

    def partitions_of(
        self, y_values: np.ndarray, base_partitions: np.ndarray, num_partitions: int
    ) -> np.ndarray:
        """Vectorized partition assignment for (y, base-partition) pairs."""
        y_values = np.asarray(y_values, dtype=np.float64)
        base_partitions = np.asarray(base_partitions)
        result = np.empty(y_values.shape, dtype=np.int64)
        for partition in range(self._num_base_partitions):
            mask = base_partitions == partition
            if not mask.any():
                continue
            result[mask] = self._models[partition].partitions_of(
                y_values[mask], num_partitions
            )
        return result

    def size_bytes(self) -> int:
        """Approximate in-memory footprint (deduplicating the shared marginal)."""
        total = self._marginal.size_bytes()
        for model in self._models:
            if model is not self._marginal:
                total += model.size_bytes()
        return total

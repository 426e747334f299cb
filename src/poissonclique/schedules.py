"""Rate families lambda_n(r): the Poisson intensity attached to every subset of
cardinality r on ground set {1, ..., n}.

A family is consistent across levels when

    lambda_n(r) = lambda_{n+1}(r) + lambda_{n+1}(r + 1)        (all 0 <= r <= n)

which is exactly the recurrence satisfied by the moments of a measure on [0, 1]:
lambda_n(r) = integral x^r (1-x)^(n-r) mu(dx).  The parametric kinds below are
closed-form instances of that representation; explicit tables are free-form and
may deliberately violate the recurrence.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import ClassVar, Iterable, Mapping, Sequence

from .lattice import _FrozenDict, _Value

DEFAULT_CONSISTENCY_TOL = 1e-12


class RateSchedule(ABC):
    """Immutable assignment (n, r) -> lambda_n(r) >= 0."""

    kind: ClassVar[str]

    def rate(self, n: int, r: int) -> float:
        """Evaluate lambda_n(r); raises ValueError outside 0 <= r <= n."""
        if n < 0:
            raise ValueError(f"level {n} must be non-negative")
        if not 0 <= r <= n:
            raise ValueError(f"cardinality {r} out of range 0..{n}")
        return self._rate(n, r)

    @abstractmethod
    def _rate(self, n: int, r: int) -> float: ...

    @abstractmethod
    def to_dict(self) -> dict: ...


class GeometricSchedule(_Value, RateSchedule):
    """lambda_n(r) = c * alpha^r * (1 - alpha)^(n - r); consistent for any 0 < alpha < 1."""

    alpha: float
    c: float
    kind = "geometric"

    def __init__(self, alpha: float, c: float = 1.0) -> None:
        super().__init__(alpha, c)
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
        if not (math.isfinite(c) and c > 0):
            raise ValueError(f"c must be finite and positive, got {c}")

    def _rate(self, n: int, r: int) -> float:
        return self.c * self.alpha**r * (1.0 - self.alpha) ** (n - r)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha, "c": self.c}


class BetaUniformSchedule(_Value, RateSchedule):
    """lambda_n(r) = c / ((n + 1) * C(n, r)): moments of c times the uniform measure.

    The (n + 1) factor is forced: without it the binomial-inverse family fails
    the cross-level recurrence, since 1/C(n+1,r) + 1/C(n+1,r+1) = (n+2) / ((n+1) C(n,r)).

    Each rate is one integer quotient: the correctly rounded exact fraction at
    every level, past the float range of the binomial too (subnormal or zero there).
    """

    c: float
    kind = "beta_uniform"

    def __init__(self, c: float = 1.0) -> None:
        super().__init__(c)
        if not (math.isfinite(c) and c > 0):
            raise ValueError(f"c must be finite and positive, got {c}")

    def _rate(self, n: int, r: int) -> float:
        num, den = self.c.as_integer_ratio()
        return num / (den * (n + 1) * math.comb(n, r))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "c": self.c}


class MomentAtomsSchedule(_Value, RateSchedule):
    """lambda_n(r) = sum_k w_k * x_k^r * (1 - x_k)^(n - r) for atoms (x_k, w_k).

    Boundary atoms use the 0^0 = 1 convention, so x = 1 puts weight only on
    r = n and x = 0 only on r = 0.
    """

    atoms: tuple[tuple[float, float], ...]
    kind = "moment_atoms"

    def __init__(self, atoms: Iterable[tuple[float, float]]) -> None:
        super().__init__(tuple((float(x), float(w)) for x, w in atoms))
        for x, w in self.atoms:
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"atom location {x} outside [0, 1]")
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"atom weight {w} must be finite and positive")
        # lambda_0(0) is the total weight, and every rate is at most it
        total = sum(w for _, w in self.atoms)
        if not math.isfinite(total):
            raise ValueError(f"total atom weight {total} must be finite")

    def _rate(self, n: int, r: int) -> float:
        return sum(w * x**r * (1.0 - x) ** (n - r) for x, w in self.atoms)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "atoms": [[x, w] for x, w in self.atoms]}


class TableSchedule(_Value, RateSchedule):
    """Explicit per-level rows; row n holds (lambda_n(0), ..., lambda_n(n)).

    Rows may be sparse (a single working level is enough for fixed-n queries);
    evaluating a missing level is an error.  No consistency is implied.
    """

    rows: Mapping[int, tuple[float, ...]]
    kind = "table"

    def __init__(self, rows: Mapping[int, Sequence[float]]) -> None:
        frozen = {}
        for level, row in dict(rows).items():
            level = int(level)
            row = tuple(float(v) for v in row)
            if level < 0:
                raise ValueError(f"level {level} must be non-negative")
            if len(row) != level + 1:
                raise ValueError(f"row for level {level} must have {level + 1} entries, got {len(row)}")
            for v in row:
                if not (math.isfinite(v) and v >= 0):
                    raise ValueError(f"rate {v} at level {level} must be finite and non-negative")
            frozen[level] = row
        if not frozen:
            raise ValueError("table needs at least one row")
        super().__init__(_FrozenDict(frozen))

    @property
    def n_max(self) -> int:
        return max(self.rows)

    def levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def _rate(self, n: int, r: int) -> float:
        if n not in self.rows:
            raise ValueError(f"level {n} not present in table (levels: {self.levels()})")
        return self.rows[n][r]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n_max,
            "rows": {str(level): list(self.rows[level]) for level in self.levels()},
        }


def constant_table(n: int, value: float) -> TableSchedule:
    """Table with lambda_m(r) = value for every m <= n (inconsistent unless value = 0)."""
    return TableSchedule({m: (value,) * (m + 1) for m in range(n + 1)})


class ConsistencyReport(_Value):
    """Outcome of checking the cross-level recurrence up to a top level."""

    n_max: int
    tol: float
    max_violation: float
    witnesses: tuple[tuple[int, int, float, float], ...]

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "tol": self.tol,
            "max_violation": self.max_violation,
            "ok": self.ok,
            "witnesses": [
                {"n": n, "r": r, "rate": lhs, "split_sum": rhs}
                for n, r, lhs, rhs in self.witnesses
            ],
        }


def check_consistency(
    schedule: RateSchedule, n_max: int, tol: float = DEFAULT_CONSISTENCY_TOL
) -> ConsistencyReport:
    """Compare lambda_n(r) against lambda_{n+1}(r) + lambda_{n+1}(r+1) for all n < n_max.

    Each level 1..n_max is read once, lowest first, so a table fails at its
    lowest missing level; n_max = 1 reads none.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    worst = 0.0
    witnesses = []
    upper = [schedule.rate(1, r) for r in range(2)] if n_max > 1 else []
    for n in range(1, n_max):
        lower, upper = upper, [schedule.rate(n + 1, r) for r in range(n + 2)]
        for r, lhs in enumerate(lower):
            rhs = upper[r] + upper[r + 1]
            gap = abs(lhs - rhs)
            worst = max(worst, gap)
            if gap > tol:
                witnesses.append((n, r, lhs, rhs))
    return ConsistencyReport(n_max, tol, worst, tuple(witnesses))


def derive_lower(top_row: Sequence[float]) -> TableSchedule:
    """Fill every level below len(top_row) - 1 by the recurrence; zero violation by construction."""
    row = tuple(float(v) for v in top_row)
    if not row:
        raise ValueError("top row must contain at least the level-0 rate")
    rows = {len(row) - 1: row}
    while len(row) > 1:
        row = tuple(row[r] + row[r + 1] for r in range(len(row) - 1))
        rows[len(row) - 1] = row
    return TableSchedule(rows)  # checks every rate, top row first


def require_real(value, what: str) -> float:
    """``value`` as a float if it is a JSON number (int or float); a bool, None or
    string raises ValueError, as does an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is beyond the float range") from None


def _table_level(key) -> int:
    """A table row key as its level; only canonical decimal text ("0", "3", "12")
    is accepted, so that no two keys of one document name the same level."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit() and key == str(int(key))):
        raise ValueError(f"table level key {key!r} must be a non-negative decimal integer without leading zeros")
    return int(key)


def _atom(atom) -> tuple[float, float]:
    """A moment atom [location, weight]; any other shape raises TypeError naming it."""
    if not (isinstance(atom, (list, tuple)) and len(atom) == 2):
        raise TypeError(f"atom {atom!r} must be a [location, weight] pair")
    return require_real(atom[0], "atom location"), require_real(atom[1], "atom weight")


def schedule_from_dict(doc: Mapping) -> RateSchedule:
    """Parse {"kind": ..., parameters...}; raises ValueError on malformed input.

    Every parameter and rate must be a JSON number (``require_real``), and every
    table level key canonical decimal text.
    """
    try:
        kind = doc["kind"]
    except (TypeError, KeyError):
        raise ValueError("schedule document must be an object with a 'kind' field") from None
    try:
        if kind == "geometric":
            alpha, c = require_real(doc["alpha"], "alpha"), require_real(doc.get("c", 1.0), "c")
            return GeometricSchedule(alpha=alpha, c=c)
        if kind == "beta_uniform":
            return BetaUniformSchedule(c=require_real(doc.get("c", 1.0), "c"))
        if kind == "moment_atoms":
            return MomentAtomsSchedule(tuple(_atom(atom) for atom in doc["atoms"]))
        if kind == "table":
            rows = doc["rows"].items()
            return TableSchedule(
                {_table_level(level): tuple(require_real(v, "rate") for v in row) for level, row in rows}
            )
    except ValueError:
        raise
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"malformed {kind!r} schedule document: {exc}") from exc
    raise ValueError(f"unknown schedule kind {kind!r}")

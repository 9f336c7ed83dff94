"""Discrete simulation clock and the step loop's counter folds.

The fluid model advances in fixed steps of ``dt`` seconds.  Using an integer
tick counter (rather than accumulating floats) keeps epoch boundaries exact:
``now == tick * dt`` with no drift over long runs.

The per-session counters do not follow that rule: ``elapsed_s`` and
``epoch_elapsed`` accumulate by ``+= dt`` and ``restart_remaining`` decays
by ``max(0, rr - dt)``, which drifts for step sizes that are not dyadic
fractions (3000 x ``+= 0.1`` gives 299.9999999999997, not 300).  Every path
that advances many steps at once replays those folds through
:class:`SpanFolds`, so its epoch closes, completions and restart ends land
on the step loop's tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class SimClock:
    """Fixed-step simulation clock.

    Parameters
    ----------
    dt:
        Step length in seconds.  Must be positive.
    """

    dt: float = 1.0
    tick: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.tick * self.dt

    def advance(self, nticks: int = 1) -> float:
        """Advance the clock by ``nticks`` steps and return the new time."""
        if nticks < 0:
            raise ValueError("cannot advance the clock backwards")
        self.tick += nticks
        return self.now

    def ticks_for(self, seconds: float) -> int:
        """Number of whole ticks spanning ``seconds`` (rounded to nearest).

        Raises if ``seconds`` is not an integral multiple of ``dt`` to within
        floating-point tolerance; epoch lengths must align with the step size
        so that epoch averages cover whole steps.
        """
        ratio = seconds / self.dt
        n = round(ratio)
        if abs(ratio - n) > 1e-9:
            raise ValueError(
                f"{seconds} s is not a multiple of dt={self.dt} s"
            )
        return n


class SpanFolds:
    """Memoized replays of the step loop's float counter arithmetic.

    Each fold runs the loop's own operations from a start value and is
    memoized on that value, so a population whose sessions share counter
    values folds once.  One instance serves one engine or one batch run
    (the memos grow with the distinct start values it sees).
    """

    def __init__(self, dt: float) -> None:
        self.dt = dt
        self._close: dict[tuple[float, float], int] = {}
        self._done: dict[tuple[float, float, int | None], int] = {}
        self._dead: dict[float, int] = {}
        self._add: dict[tuple[float, int], float] = {}
        self._sub: dict[tuple[float, int], float] = {}

    def close(self, ee0: float, target: float) -> int:
        """Steps until ``epoch_elapsed`` (``+= dt`` from ``ee0``) passes
        the loop's boundary test ``>= target - 1e-9``."""
        key = (ee0, target)
        n = self._close.get(key)
        if n is None:
            dt = self.dt
            n = 0
            v = ee0
            while v < target - 1e-9:
                v += dt
                n += 1
            self._close[key] = n
        return n

    def done(self, el0: float, limit: float, cap: int | None = None) -> int:
        """Steps until ``elapsed_s`` (``+= dt`` from ``el0``) reaches the
        duration ``limit``, or ``cap`` if that comes first."""
        key = (el0, limit, cap)
        n = self._done.get(key)
        if n is None:
            dt = self.dt
            n = 0
            v = el0
            while v < limit and n != cap:
                v += dt
                n += 1
            self._done[key] = n
        return n

    def dead(self, rr: float) -> int:
        """Whole steps ``restart_remaining`` stays ``>= dt`` from ``rr``:
        the session's dead prefix, on which it moves nothing and draws
        no jitter."""
        n = self._dead.get(rr)
        if n is None:
            dt = self.dt
            n = 0
            v = rr
            while v >= dt:
                v -= dt
                n += 1
            self._dead[rr] = n
        return n

    def add(self, start: float, k: int) -> float:
        """``start`` after ``k`` sequential ``+= dt``."""
        key = (start, k)
        v = self._add.get(key)
        if v is None:
            dt = self.dt
            v = start
            for _ in range(k):
                v += dt
            self._add[key] = v
        return v

    def sub(self, rr: float, k: int) -> float:
        """``rr`` after ``k`` steps of ``max(0.0, rr - dt)``."""
        key = (rr, k)
        v = self._sub.get(key)
        if v is None:
            dt = self.dt
            v = rr
            for _ in range(k):
                v = max(0.0, v - dt)
            self._sub[key] = v
        return v

    def change_ticks(self, schedule) -> list[int]:
        """Ticks at which ``schedule``'s load changes, matching
        ``schedule.at(tick * dt)``: the new load applies on the first
        tick with ``tick * dt >= change_time``."""
        dt = self.dt
        ticks = []
        for c in schedule.change_times:
            m = max(1, math.ceil(c / dt))
            while m * dt < c:
                m += 1
            while m > 1 and (m - 1) * dt >= c:
                m -= 1
            ticks.append(m)
        return ticks

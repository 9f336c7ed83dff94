"""Discrete simulation clock and the one boundary rule.

The fluid model advances in fixed steps of ``dt`` seconds.  Using an integer
tick counter (rather than accumulating floats) keeps epoch boundaries exact:
``now == tick * dt`` with no drift over long runs.

The session clocks (:class:`~repro.sim.session.TransferSession`) are
integer step counts too, and every threshold they meet — an epoch's
length, a duration limit, a load change — resolves through
:func:`boundary_tick` to a tick, so the step loop and every path that
advances many steps at once meet each boundary on the same step.
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


def boundary_tick(t: float, dt: float) -> int:
    """The first tick ``n >= 1`` with ``n * dt >= t``: the step on which
    a count of whole steps reaches ``t`` seconds.

    An epoch of target ``e`` closes at ``boundary_tick(e - 1e-9, dt)``
    (the epoch test's tolerance), a ``d``-second transfer ends at
    ``boundary_tick(d, dt)``, and a load change at ``c`` applies from
    ``boundary_tick(c, dt)`` (``LoadSchedule.at(tick * dt)``).  As
    ``n * dt`` is monotone in ``n``, ``ticks >= boundary_tick(t, dt)``
    exactly when ``ticks * dt >= t``.
    """
    n = max(1, math.ceil(t / dt))
    while n * dt < t:
        n += 1
    while n > 1 and (n - 1) * dt >= t:
        n -= 1
    return n

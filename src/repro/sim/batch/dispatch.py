"""Population dispatch: window-end tuner proposals as ``(B,)`` arrays.

The span kernel (:func:`repro.sim.batch.shard.advance_spans`) closes a
round of epochs with one batched close; without populations every lane
would then still run one python ladder — generator ``send``, restart
dead-time chain — per epoch.  The :class:`PopulationDispatcher` routes
each lane once, at its first close:

* lanes whose tuner class offers :meth:`~repro.core.base.Tuner.propose_batch`
  (cd, cs, gss) join a shared :class:`~repro.core.base.TunerPopulation`
  keyed by ``(tuner class, space)`` and thereafter advance as one
  ``observe_batch`` array step per window;
* everything else — unsupported tuner classes (nm, spsa, ...),
  retry/breaker machinery, instrumented runs — goes back to the
  driver's dispatch round (the engine's own ``_dispatch_epoch`` with
  pre-drawn factors), tallied once per lane under the ``dispatch:*``
  reasons in :mod:`repro.sim.batch.eligibility`.

Bit-exactness: population lanes replicate the ladder's clean path
draw-for-draw.  A population lane's epoch noise shares its generator
with the span step jitter, so both sides consume the lane's block
buffer of standard normals (:func:`take_std_normals`, held on the
lane's span state) in program order, scaled ``loc + sigma * z`` —
bitwise the sized ``Generator.normal`` sequence (sigma == 0 draws
nothing, exactly like ``lognormal_factor``).  Only the ``exp`` is
batched — ``np.exp`` over the collected normals equals the scalar
``np.exp`` per element.  Adoption is the ladder's clean arm with the
restart dead-time chain (``RestartModel.restart_time_s`` → rjit clamp →
``begin_restart`` cap) evaluated as elementwise float64 arrays in the
scalar operand order — population lanes carry no fault machinery, so
the clean arm is the only arm they can take.  Reordering closes and
dispatches across lanes is safe because lanes draw from independent
per-engine streams and epoch closes consume none.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.sim.batch.eligibility import (
    DISPATCH_LATE_JOIN,
    DISPATCH_UNSUPPORTED,
    dispatch_fallback_reason,
)

_NO_DRAWS = np.empty(0)


def take_std_normals(span, n: int):
    """The next ``n`` standard normals of a population lane's
    throughput-noise stream, from its span state's block buffer
    (refilled with sized draws — the same value sequence as ``n``
    scalar calls)."""
    buf = span._pop_z
    pos = span._pop_zpos
    if pos + n > buf.shape[0]:
        tail = buf[pos:]
        short = n - tail.shape[0]
        fresh = span.engine._rng_noise.standard_normal(
            short if short > 256 else 256)
        buf = span._pop_z = np.concatenate([tail, fresh])
        pos = 0
    span._pop_zpos = pos + n
    return buf[pos:pos + n]


class PopulationDispatcher:
    """Routes window-end epoch dispatches to tuner populations.

    One dispatcher serves one batch run; lane ids are the caller's
    (lane index for :class:`~repro.sim.batch.engine.BatchEngine`).
    ``fallback_reasons`` counts each scalar-routed lane exactly once —
    the per-(lane, reason) dedup the run-level fallback accounting
    needs.
    """

    def __init__(self) -> None:
        self._pops: dict = {}
        self._lane_pop: dict = {}
        self._decided: set = set()
        # Per-lane dispatch constants, resolved once at routing time:
        # (noise sigma, rjit sigma, restart base_s, per_proc_s,
        #  cmp_beta, max_contention, dead-time cap, warm factor,
        #  restart_each_epoch, warm_restart, nc_dim, np_dim, fixed_nc,
        #  fixed_np) — the attribute chains (and the ParamMap nc/np
        # method calls the adopt loop would make four times per
        # lane-epoch) are measurable at thousands of lane-epochs per
        # run.
        self._consts: dict = {}
        # Per-lane pre-drawn restart-jitter factors.  A population
        # lane's restart_jitter stream has exactly one consumer — the
        # per-epoch rjit draw — so a sized draw yields the identical
        # value sequence (the RNG-order contract) with one generator
        # call and one ``np.exp`` per refill instead of one per epoch.
        self._rjit_buf: dict = {}
        self.fallback_reasons: Counter = Counter()
        self.population_lanes = 0
        self.ladder_lanes = 0

    def dispatch(self, items) -> list:
        """Advance the population lanes among ``(lane, span, session,
        rec)`` closes, one epoch each; returns the other items, in
        order, for the caller's dispatch round."""
        rest = []
        grouped: dict = {}
        lane_pop = self._lane_pop
        for item in items:
            pop = lane_pop.get(item[0])
            if pop is None:
                pop = self._route(*item)
            if pop is None:
                rest.append(item)
            else:
                grouped.setdefault(pop, []).append(item)
        for pop, group in grouped.items():
            self._dispatch_population(pop, group)
        return rest

    # -- routing ---------------------------------------------------------

    def _route(self, lane, span, session, rec):
        engine = span.engine
        pop = self._lane_pop.get(lane)
        if pop is not None or lane in self._decided:
            return pop
        self._decided.add(lane)
        why = dispatch_fallback_reason(engine, session)
        if why is None and rec.index != 0:
            # The lane already dispatched through the scalar ladder (a
            # mid-run routing decision would have to replay its history);
            # populations only admit lanes at their very first close.
            why = DISPATCH_LATE_JOIN
        if why is None:
            tuner = session.driver.tuner
            key = (type(tuner), session.space)
            if key in self._pops:
                pop = self._pops[key]
            else:
                pop = self._pops[key] = tuner.propose_batch(session.space)
            if pop is not None:
                cur = pop.add_lane(lane, tuner, rec.params)
                if cur is None:
                    why = DISPATCH_UNSUPPORTED
                elif tuple(cur) != tuple(rec.params):
                    # Population primed elsewhere than the session runs:
                    # never expected (both prime via fBnd), but a scalar
                    # fallback is always correct.
                    pop.detach(lane)
                    why = DISPATCH_UNSUPPORTED
            else:
                why = DISPATCH_UNSUPPORTED
        if why is not None:
            self.fallback_reasons[why] += 1
            self.ladder_lanes += 1
            return None
        self._lane_pop[lane] = pop
        self.population_lanes += 1
        span._pop_z = _NO_DRAWS  # from here on, draw through the buffer
        restart = engine.client.restart
        pm = session.param_map
        self._consts[lane] = (
            engine.config.noise_sigma_epoch,
            restart.jitter_sigma,
            restart.base_s,
            restart.per_proc_s,
            restart.cmp_beta,
            restart.max_contention,
            restart.max_fraction_of_epoch * session.spec.epoch_s,
            restart.warm_np_factor,
            session.restart_each_epoch,
            session.warm_restart,
            pm.nc_dim,
            pm.np_dim,
            pm.fixed_nc,
            pm.fixed_np,
        )
        self._rjit_buf[lane] = []
        return pop

    # -- the batched clean path ------------------------------------------

    def _dispatch_population(self, pop, items) -> None:
        n = len(items)
        noises = [1.0] * n
        rjits = [1.0] * n
        consts = self._consts
        rjit_buf = self._rjit_buf
        zs: list = []  # raw standard normals, one per drawing lane
        sigs: list[float] = []
        slots: list[int] = []  # lane index j of each noise draw
        cs: list = []  # each lane's consts, reused by the adopt loop
        for j, (lane, span, session, rec) in enumerate(items):
            engine = span.engine
            c = consts[lane]
            cs.append(c)
            sig_n, sig_r = c[0], c[1]
            if sig_n > 0.0:
                # The noise stream is shared with the span loop's step
                # jitter; both sides consume the lane's block buffer
                # (inlined fast path — one epoch draw per lane-window).
                buf = span._pop_z
                pos = span._pop_zpos
                if pos < buf.shape[0]:
                    z = buf[pos]
                    span._pop_zpos = pos + 1
                else:
                    z = take_std_normals(span, 1)[0]
                zs.append(z)
                sigs.append(sig_n)
                slots.append(j)
            if sig_r > 0.0:
                buf = rjit_buf[lane]
                if not buf:
                    z = engine._rng_rjit.normal(
                        -0.5 * sig_r * sig_r, sig_r, size=64
                    )
                    buf = np.exp(z).tolist()
                    buf.reverse()  # pop() below then consumes in order
                    rjit_buf[lane] = buf
                rjits[j] = buf.pop()
        if zs:
            # loc + sigma*z then one exp over every lane's epoch draw:
            # elementwise float64 in the scalar operand order, so each
            # factor is bitwise lognormal_factor's scalar np.exp.
            sig = np.asarray(sigs)
            factors = np.exp(
                (-0.5) * sig * sig + sig * np.asarray(zs)).tolist()
            for value, j in zip(factors, slots):
                noises[j] = value

        lanes = [item[0] for item in items]
        observed = [item[3].observed for item in items]
        proposals = pop.observe_batch(lanes, observed)
        # The ladder's clean-arm adopt, with the restart dead-time chain
        # batched: populations only hold fault-free lanes, so proposals
        # are in-space fBnd points and the clean arm is the only arm.
        rows = []  # lanes whose params changed (or always-restart lanes)
        row_nc: list[int] = []
        for j, (lane, span, session, rec) in enumerate(items):
            params = tuple(proposals[j])
            c = cs[j]
            ncd = c[10]
            old = session.params
            old_nc = old[ncd] if ncd is not None else c[12]
            new_nc = params[ncd] if ncd is not None else c[12]
            session.params = params
            session.noise_factor = noises[j]
            npd = c[11]
            if (c[8] or new_nc != old_nc
                    or (npd is not None and params[npd] != old[npd])):
                warm = c[9] and new_nc == old_nc
                rows.append((j, session, span.engine, warm, c))
                row_nc.append(new_nc)
        if not rows:
            return
        # Elementwise float64, scalar operand order throughout:
        # base = base_s + per_proc_s * nc;
        # contention = min(1 + beta*g/(1-g), max_contention);
        # t = base * contention (* warm factor when warm);
        # dead = min(min(t, cap) * rjit, cap); begin_restart caps again.
        C = np.asarray([r[4][2:8] for r in rows])
        g = np.asarray([r[2]._last_cmp_frac for r in rows])
        warm_mask = np.asarray([r[3] for r in rows])
        rj = np.asarray([rjits[r[0]] for r in rows])
        base = C[:, 0] + C[:, 1] * np.asarray(row_nc, dtype=np.float64)
        cont = np.minimum(1.0 + C[:, 2] * g / (1.0 - g), C[:, 3])
        t = base * cont
        t = np.where(warm_mask, t * C[:, 5], t)
        cap = C[:, 4]
        dead = np.minimum(np.minimum(t, cap) * rj, cap)
        for (j, session, engine, warm, c), d in zip(rows, dead.tolist()):
            if d > 0.0:
                session.begin_restart(d)

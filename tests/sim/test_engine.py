"""Unit/behavioural tests for the simulation engine."""

import math

import pytest

from repro.core.base import StaticTuner
from repro.core.cd_tuner import CdTuner
from repro.core.nm_tuner import NmTuner
from repro.core.aggregate import JointTuner
from repro.core.params import ParamSpace
from repro.endpoint.host import HostSpec
from repro.endpoint.load import ExternalLoad, LoadSchedule
from repro.gridftp.client import ClientModel, RestartModel
from repro.gridftp.transfer import TransferSpec
from repro.net.link import Link, Path
from repro.net.tcp import TcpModel
from repro.net.topology import Topology
from repro.sim.engine import Engine, EngineConfig, JointController, _ramp_average
from repro.sim.session import ParamMap, TransferSession
from repro.units import GB, MB

HOST = HostSpec(name="h", cores=8, core_copy_rate_mbps=1000.0,
                cs_coeff=0.0, dgemm_thread_weight=0.5, thread_overhead=0.0)

SPACE = ParamSpace(("nc",), (1,), (64,))


def _topo(capacity=1000.0, stream_cap_rate=None):
    """One path over one link; optionally buffer-limit streams."""
    tcp = TcpModel(wmax_bytes=4 * MB, slow_start_tau=0.5)
    topo = Topology()
    topo.add_path(
        Path(
            name="p",
            links=(Link("l", capacity),),
            rtt_ms=40.0,  # buffer limit: 4 MB / 40 ms = 100 MB/s per stream
            loss_rate=1e-9,
            tcp=tcp,
        )
    )
    return topo


def _session(tuner=None, *, duration=120.0, epoch=30.0, x0=(2,),
             restart_each_epoch=False, total_bytes=math.inf, **kw):
    spec = TransferSpec(
        name=kw.pop("name", "s"), path_name="p", total_bytes=total_bytes,
        max_duration_s=duration if math.isinf(total_bytes) else kw.pop("max_duration_s", duration),
        epoch_s=epoch,
    )
    return TransferSession(
        spec, tuner if tuner is not None else StaticTuner(), SPACE, x0,
        param_map=ParamMap.nc_only(fixed_np=1),
        restart_each_epoch=restart_each_epoch, **kw
    )


def _engine(sessions, *, load=None, client=None, seed=0, noise=False, topo=None):
    cfg = EngineConfig(
        seed=seed,
        noise_sigma_epoch=0.03 if noise else 0.0,
        noise_sigma_step=0.02 if noise else 0.0,
    )
    return Engine(
        topology=topo if topo is not None else _topo(),
        host=HOST,
        sessions=sessions,
        schedule=LoadSchedule.constant(load or ExternalLoad()),
        client=client or ClientModel(restart=RestartModel(
            base_s=3.0, per_proc_s=0.0, jitter_sigma=0.0)),
        config=cfg,
    )


class TestSingleTransfer:
    def test_noise_free_run_reaches_expected_rate(self):
        # 2 procs x 1 stream, 100 MB/s buffer-limited streams -> 200 MB/s.
        s = _session(duration=120.0)
        trace = _engine([s]).run()["s"]
        last = trace.epochs[-1]
        assert last.best_case == pytest.approx(200.0, rel=0.02)

    def test_observed_below_best_case_due_to_startup(self):
        s = _session(duration=60.0)
        trace = _engine([s]).run()["s"]
        first = trace.epochs[0]
        assert first.observed < first.best_case

    def test_static_session_pays_startup_only_once(self):
        s = _session(duration=120.0)
        trace = _engine([s]).run()["s"]
        assert any(st.restarting for st in trace.steps[:5])
        assert not any(st.restarting for st in trace.steps[10:])

    def test_tuner_session_restarts_every_epoch(self):
        s = _session(CdTuner(), duration=120.0, restart_each_epoch=True)
        trace = _engine([s]).run()["s"]
        restart_times = [st.time for st in trace.steps if st.restarting]
        # A restart window opens at (or just after) each epoch boundary.
        for boundary in (0.0, 30.0, 60.0, 90.0):
            assert any(boundary <= t < boundary + 5.0 for t in restart_times)

    def test_bytes_conserved_between_steps_and_epochs(self):
        s = _session(duration=120.0)
        trace = _engine([s]).run()["s"]
        assert sum(e.bytes_moved for e in trace.epochs) == pytest.approx(
            trace.total_bytes
        )

    def test_finite_transfer_completes_and_stops(self):
        s = _session(total_bytes=5 * GB, duration=1e9, max_duration_s=None)
        trace = _engine([s]).run()["s"]
        assert trace.total_bytes == pytest.approx(5 * GB)
        assert s.done

    def test_run_until_cuts_off(self):
        s = _session(duration=600.0)
        engine = _engine([s])
        trace = engine.run(until_s=60.0)["s"]
        assert engine.clock.now == pytest.approx(60.0)
        assert len(trace.epochs) == 2

    def test_deterministic_under_seed(self):
        t1 = _engine([_session(CdTuner(), duration=120.0,
                               restart_each_epoch=True)], noise=True,
                     seed=5).run()["s"]
        t2 = _engine([_session(CdTuner(), duration=120.0,
                               restart_each_epoch=True)], noise=True,
                     seed=5).run()["s"]
        assert t1.epoch_observed().tolist() == t2.epoch_observed().tolist()

    def test_different_seeds_differ(self):
        t1 = _engine([_session(duration=120.0)], noise=True, seed=1).run()["s"]
        t2 = _engine([_session(duration=120.0)], noise=True, seed=2).run()["s"]
        assert t1.epoch_observed().tolist() != t2.epoch_observed().tolist()


class TestExternalLoad:
    def test_ext_transfer_reduces_our_share(self):
        free = _engine([_session(x0=(8,), duration=90.0)]).run()["s"]
        loaded = _engine(
            [_session(x0=(8,), duration=90.0)],
            load=ExternalLoad(ext_tfr=16),
        ).run()["s"]
        assert (
            loaded.epochs[-1].best_case < free.epochs[-1].best_case
        )

    def test_ext_compute_reduces_cpu_share(self):
        free = _engine([_session(x0=(8,), duration=90.0)]).run()["s"]
        loaded = _engine(
            [_session(x0=(8,), duration=90.0)],
            load=ExternalLoad(ext_cmp=64),
        ).run()["s"]
        assert loaded.epochs[-1].best_case < free.epochs[-1].best_case

    def test_more_streams_recover_share_from_ext_traffic(self):
        small = _engine(
            [_session(x0=(2,), duration=90.0)], load=ExternalLoad(ext_tfr=32),
        ).run()["s"]
        big = _engine(
            [_session(x0=(32,), duration=90.0)], load=ExternalLoad(ext_tfr=32),
        ).run()["s"]
        assert big.epochs[-1].best_case > 2 * small.epochs[-1].best_case

    def test_load_schedule_switch_changes_rate(self):
        sched = LoadSchedule(
            [(0.0, ExternalLoad(ext_tfr=48)), (60.0, ExternalLoad())]
        )
        s = _session(x0=(4,), duration=120.0)
        engine = Engine(
            topology=_topo(), host=HOST, sessions=[s], schedule=sched,
            client=ClientModel(restart=RestartModel(jitter_sigma=0.0)),
            config=EngineConfig(noise_sigma_epoch=0.0, noise_sigma_step=0.0),
        )
        trace = engine.run()["s"]
        assert trace.epochs[-1].best_case > 1.5 * trace.epochs[0].best_case


class TestSharedBottleneck:
    def test_two_sessions_share_link_per_stream(self):
        a = _session(name="a", x0=(30,), duration=90.0)
        b = _session(name="b", x0=(10,), duration=90.0)
        traces = _engine([a, b]).run()
        ra = traces["a"].epochs[-1].best_case
        rb = traces["b"].epochs[-1].best_case
        assert ra + rb == pytest.approx(1000.0, rel=0.05)
        assert ra / rb == pytest.approx(3.0, rel=0.1)


class TestJointControllerEngine:
    @staticmethod
    def _controlled(name):
        spec = TransferSpec(name=name, path_name="p", total_bytes=math.inf,
                            max_duration_s=240.0, epoch_s=30.0)
        return TransferSession(
            spec, None, SPACE, (2,), param_map=ParamMap.nc_only(fixed_np=1),
            restart_each_epoch=True,
        )

    def test_joint_controller_drives_both_sessions(self):
        sa = self._controlled("a")
        sb = self._controlled("b")
        joint = JointTuner(inner=NmTuner(), subspaces=[SPACE, SPACE],
                           labels=["a", "b"])
        ctl = JointController(joint, ["a", "b"], (2, 2))
        engine = Engine(
            topology=_topo(), host=HOST, sessions=[sa, sb],
            controllers=[ctl],
            client=ClientModel(restart=RestartModel(jitter_sigma=0.0)),
            config=EngineConfig(noise_sigma_epoch=0.0, noise_sigma_step=0.0),
        )
        traces = engine.run()
        # Both sessions got proposals beyond the starting point.
        assert len(set(traces["a"].epoch_param(0))) > 1
        assert len(set(traces["b"].epoch_param(0))) > 1


class TestEngineValidation:
    def test_duplicate_session_names(self):
        with pytest.raises(ValueError):
            _engine([_session(name="s"), _session(name="s")])

    def test_reserved_names(self):
        with pytest.raises(ValueError):
            _engine([_session(name="ext.cmp")])

    def test_unknown_path(self):
        spec = TransferSpec(name="s", path_name="nope",
                            total_bytes=math.inf, max_duration_s=60.0)
        sess = TransferSession(spec, StaticTuner(), SPACE, (2,))
        with pytest.raises(KeyError):
            _engine([sess])

    def test_session_without_tuner_or_controller(self):
        s = _session(duration=60.0)
        s.driver = None
        with pytest.raises(ValueError):
            _engine([s])

    def test_controller_over_tunered_session_rejected(self):
        s = _session(CdTuner(), name="a", duration=60.0)
        joint = JointTuner(inner=NmTuner(), subspaces=[SPACE], labels=["a"])
        ctl = JointController(joint, ["a"], (2,))
        with pytest.raises(ValueError):
            Engine(topology=_topo(), host=HOST, sessions=[s],
                   controllers=[ctl])


class TestRampAverage:
    def test_zero_run_is_zero(self):
        assert _ramp_average(2.0, 0.0, 0.0) == 0.0

    def test_matches_point_value_for_long_runs(self):
        assert _ramp_average(2.0, 100.0, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_increasing_in_t0(self):
        a = _ramp_average(2.0, 0.0, 1.0)
        b = _ramp_average(2.0, 5.0, 1.0)
        assert b > a

    def test_average_below_endpoint_value(self):
        import math as m
        avg = _ramp_average(2.0, 0.0, 4.0)
        assert 0 < avg < 1 - m.exp(-4.0 / 2.0) + 1e-9

"""Unit tests for TransferSession and ParamMap."""

import math

import pytest

from repro.core.base import StaticTuner
from repro.core.cd_tuner import CdTuner
from repro.core.params import ParamSpace
from repro.gridftp.transfer import TransferSpec
from repro.sim.session import ParamMap, TransferSession

SPACE_1D = ParamSpace(("nc",), (1,), (64,))
SPACE_2D = ParamSpace(("nc", "np"), (1, 1), (64, 16))


def _spec(**kw):
    defaults = dict(
        name="s", path_name="p", total_bytes=math.inf, max_duration_s=600.0,
        epoch_s=30.0,
    )
    defaults.update(kw)
    return TransferSpec(**defaults)


def _session(tuner=None, space=SPACE_1D, x0=(2,), **kw):
    return TransferSession(
        _spec(), tuner if tuner is not None else StaticTuner(), space, x0, **kw
    )


class TestParamMap:
    def test_nc_only(self):
        pm = ParamMap.nc_only(fixed_np=8)
        assert pm.nc((5,)) == 5
        assert pm.np((5,)) == 8

    def test_nc_np(self):
        pm = ParamMap.nc_np()
        assert pm.nc((5, 3)) == 5
        assert pm.np((5, 3)) == 3

    def test_fully_fixed(self):
        pm = ParamMap(nc_dim=None, np_dim=None, fixed_nc=4, fixed_np=2)
        assert pm.nc(()) == 4
        assert pm.np(()) == 2

    def test_rejects_shared_dimension(self):
        with pytest.raises(ValueError):
            ParamMap(nc_dim=0, np_dim=0)

    def test_rejects_bad_fixed(self):
        with pytest.raises(ValueError):
            ParamMap(nc_dim=None, fixed_nc=0)


class TestSessionBasics:
    def test_derived_quantities(self):
        s = _session(space=SPACE_2D, x0=(3, 4), param_map=ParamMap.nc_np())
        assert (s.nc, s.np_, s.streams) == (3, 4, 12)

    def test_param_map_dimension_checked(self):
        with pytest.raises(ValueError):
            _session(space=SPACE_1D, x0=(2,), param_map=ParamMap.nc_np())

    def test_restarting_flag(self):
        s = _session()
        assert not s.restarting
        s.begin_restart(5.0)
        assert s.restarting
        assert s.time_since_start == 0.0

    def test_begin_restart_rejects_negative(self):
        with pytest.raises(ValueError):
            _session().begin_restart(-1.0)

    def test_disk_cap_defaults_to_inf(self):
        assert _session().disk_cap() == math.inf

    def test_disk_cap_fn_receives_params(self):
        s = _session(
            space=SPACE_2D, x0=(3, 4), param_map=ParamMap.nc_np(),
            disk_cap_fn=lambda nc, np_, pp: 10.0 * nc * np_ * pp,
        )
        assert s.disk_cap() == 120.0  # pp defaults to fixed_pp = 1

    def test_pp_dimension_mapping(self):
        space3 = ParamSpace(("nc", "np", "pp"), (1, 1, 1), (64, 16, 64))
        s = _session(
            space=space3, x0=(3, 4, 8), param_map=ParamMap.nc_np_pp(),
            disk_cap_fn=lambda nc, np_, pp: float(pp),
        )
        assert s.pp == 8
        assert s.disk_cap() == 8.0

    def test_pp_shares_dimension_rejected(self):
        with pytest.raises(ValueError):
            ParamMap(nc_dim=0, np_dim=1, pp_dim=1)


class TestEpochAccounting:
    def test_close_epoch_computes_observed_and_best_case(self):
        s = _session()
        s.epoch_ticks = 30  # 30 s at the default dt=1.0
        s.epoch_run_s = 25.0
        s.epoch_bytes = 25.0 * 100e6  # 100 MB/s while running
        rec = s.close_epoch(start_time=0.0)
        assert rec.observed == pytest.approx(2500.0 / 30.0)
        assert rec.best_case == pytest.approx(100.0)
        assert rec.params == (2,)

    def test_close_epoch_resets_accumulators(self):
        s = _session()
        s.epoch_ticks, s.epoch_run_s, s.epoch_bytes = 30, 30.0, 1e9
        s.close_epoch(start_time=0.0)
        assert (s.epoch_elapsed, s.epoch_run_s, s.epoch_bytes) == (0, 0, 0)
        assert s.epoch_index == 1

    def test_close_empty_epoch_raises(self):
        with pytest.raises(ValueError):
            _session().close_epoch(start_time=0.0)

    def test_all_restart_epoch_best_case_zero(self):
        s = _session()
        s.epoch_ticks = 30  # 30 s at the default dt=1.0
        s.epoch_run_s = 0.0
        s.epoch_bytes = 0.0
        rec = s.close_epoch(start_time=0.0)
        assert rec.observed == 0.0
        assert rec.best_case == 0.0


class TestApplyParams:
    def test_tuner_session_restarts_every_epoch(self):
        s = _session(tuner=CdTuner(), restart_each_epoch=True)
        needs, warm = s.apply_params(s.params)  # even with unchanged params
        assert needs and not warm

    def test_static_session_never_restarts_on_same_params(self):
        s = _session(restart_each_epoch=False)
        needs, _ = s.apply_params(s.params)
        assert not needs

    def test_static_session_restarts_on_changed_params(self):
        s = _session(restart_each_epoch=False)
        needs, _ = s.apply_params((10,))
        assert needs

    def test_warm_restart_only_when_nc_unchanged(self):
        s = _session(
            space=SPACE_2D, x0=(3, 4), param_map=ParamMap.nc_np(),
            warm_restart=True,
        )
        _, warm_np = s.apply_params((3, 8))   # np changed only
        assert warm_np
        _, warm_nc = s.apply_params((5, 8))   # nc changed
        assert not warm_nc

    def test_rejects_out_of_domain_params(self):
        s = _session()
        with pytest.raises(ValueError):
            s.apply_params((9999,))

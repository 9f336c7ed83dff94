"""Unit tests for transfer accounting and the Globus policy."""

import math

import pytest

from repro.gridftp.globus import GlobusPolicy
from repro.gridftp.transfer import TransferSpec, TransferState
from repro.units import GB, MB


def _spec(**kw):
    defaults = dict(name="t", path_name="p", total_bytes=10 * GB)
    defaults.update(kw)
    return TransferSpec(**defaults)


class TestTransferSpec:
    def test_unbounded_requires_duration(self):
        with pytest.raises(ValueError):
            TransferSpec("t", "p", total_bytes=math.inf)
        TransferSpec("t", "p", total_bytes=math.inf, max_duration_s=600.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(name="")
        with pytest.raises(ValueError):
            _spec(path_name="")
        with pytest.raises(ValueError):
            _spec(total_bytes=0)
        with pytest.raises(ValueError):
            _spec(max_duration_s=0.0)
        with pytest.raises(ValueError):
            _spec(epoch_s=0.0)


class TestTransferState:
    def test_account_moves_bytes_and_time(self):
        st = TransferState(_spec())
        moved = st.account(1 * GB, 1.0)
        assert moved == 1 * GB
        assert st.remaining_bytes == 9 * GB
        assert st.elapsed_s == 1.0
        assert not st.done

    def test_account_clips_to_remaining(self):
        st = TransferState(_spec(total_bytes=100.0))
        assert st.account(1000.0, 1.0) == 100.0
        assert st.remaining_bytes == 0.0
        assert st.done

    def test_duration_limit_marks_done(self):
        st = TransferState(
            _spec(total_bytes=math.inf, max_duration_s=2.0)
        )
        st.account(0.0, 1.0)
        assert not st.done
        st.account(0.0, 1.0)
        assert st.done

    def test_conservation_over_many_steps(self):
        st = TransferState(_spec(total_bytes=1 * GB))
        total = 0.0
        while not st.done:
            total += st.account(37 * MB, 1.0)
        assert total == pytest.approx(1 * GB)

    def test_account_validation(self):
        st = TransferState(_spec())
        with pytest.raises(ValueError):
            st.account(-1.0, 1.0)
        with pytest.raises(ValueError):
            st.account(1.0, 0.0)


class TestGlobusPolicy:
    def test_large_file_defaults_match_paper(self):
        # "For large files, Globus transfer uses default values of 2 and 8"
        assert GlobusPolicy().choose(1 * GB) == (2, 8)

    def test_small_file_defaults(self):
        pol = GlobusPolicy()
        assert pol.choose(1 * MB) == (pol.small_nc, pol.small_np)

    def test_threshold_boundary(self):
        pol = GlobusPolicy()
        assert pol.choose(pol.large_file_threshold_bytes) == (2, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            GlobusPolicy(large_nc=0)
        with pytest.raises(ValueError):
            GlobusPolicy(large_file_threshold_bytes=0)
        with pytest.raises(ValueError):
            GlobusPolicy().choose(0)

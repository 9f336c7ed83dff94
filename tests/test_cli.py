"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, make_tuner, parse_load
from repro.core.base import StaticTuner
from repro.core.nm_tuner import NmTuner


class TestParseLoad:
    def test_none(self):
        load = parse_load("none")
        assert load.ext_cmp == 0 and load.ext_tfr == 0

    def test_cmp_only(self):
        assert parse_load("cmp16").ext_cmp == 16

    def test_tfr_only(self):
        assert parse_load("tfr64").ext_tfr == 64

    def test_combined(self):
        load = parse_load("cmp16+tfr64")
        assert (load.ext_cmp, load.ext_tfr) == (16, 64)

    def test_bad_spec(self):
        with pytest.raises(SystemExit):
            parse_load("lots")


class TestMakeTuner:
    def test_known_names(self):
        assert isinstance(make_tuner("default", 0), StaticTuner)
        assert isinstance(make_tuner("nm", 0), NmTuner)
        for name in ("cd", "cs", "hj", "spsa", "gss", "heur1", "heur2"):
            assert make_tuner(name, 0).name  # constructs fine

    def test_unknown_name(self):
        with pytest.raises(SystemExit):
            make_tuner("bogus", 0)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "anl-uc"
        assert args.tuner == "nm"
        assert args.duration == 1800.0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "mars"])


class TestCommands:
    def test_run_prints_summary(self, capsys):
        rc = main(["run", "--tuner", "cd", "--duration", "120",
                   "--load", "none"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "steady observed" in out
        assert "nc per epoch" in out

    def test_run_tune_np_prints_both_trajectories(self, capsys):
        rc = main(["run", "--tuner", "nm", "--duration", "120",
                   "--tune-np"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "np per epoch" in out

    def test_sweep(self, capsys):
        rc = main(["sweep", "--nc", "2,8", "--duration", "90"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "static response surface" in out

    def test_oracle(self, capsys):
        rc = main(["oracle", "--duration", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "oracle static nc" in out

    def test_figure_fig11(self, capsys):
        rc = main(["figure", "fig11", "--duration", "300"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "UC share" in out

    def test_figure_unknown(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_bad_tuner_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--tuner", "bogus", "--duration", "60"])


class TestJournalCommands:
    def _run_journaled(self, tmp_path, capsys):
        journal = tmp_path / "run.jnl"
        rc = main(["run", "--tuner", "nm", "--duration", "150",
                   "--journal", str(journal)])
        capsys.readouterr()
        assert rc == 0
        return journal

    def test_run_journal_then_resume(self, tmp_path, capsys):
        journal = self._run_journaled(tmp_path, capsys)
        assert journal.exists()
        rc = main(["resume", str(journal)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "already complete" in out
        assert "steady observed" in out

    def test_resume_continues_a_truncated_journal(self, tmp_path, capsys):
        journal = self._run_journaled(tmp_path, capsys)
        # keep header + first epoch + snapshot: a "killed" run
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:3]))
        rc = main(["resume", str(journal)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resuming" in out

    def test_run_refuses_existing_journal(self, tmp_path, capsys):
        journal = self._run_journaled(tmp_path, capsys)
        with pytest.raises(SystemExit, match="resume"):
            main(["run", "--duration", "150", "--journal", str(journal)])

    def test_resume_of_a_format_1_journal_exits_with_the_reason(
            self, tmp_path, capsys):
        from tests.checkpoint.test_resume_engine import _as_format_1

        journal = self._run_journaled(tmp_path, capsys)
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:3]))  # header, epoch, snapshot
        _as_format_1(journal)
        with pytest.raises(SystemExit) as exc:
            main(["resume", str(journal)])
        message = str(exc.value.code)
        assert "snapshot format 1" in message
        assert "\n" not in message

    def test_resume_missing_journal_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no journal"):
            main(["resume", str(tmp_path / "nope.jnl")])

    def test_warm_start_requires_journal(self, tmp_path, capsys):
        first = self._run_journaled(tmp_path, capsys)
        with pytest.raises(SystemExit, match="journal"):
            main(["run", "--duration", "150", "--warm-start", str(first)])

    def test_warm_start_run(self, tmp_path, capsys):
        first = self._run_journaled(tmp_path, capsys)
        rc = main(["run", "--tuner", "nm", "--duration", "150",
                   "--journal", str(tmp_path / "second.jnl"),
                   "--warm-start", str(first)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "steady observed" in out

    def test_trace_out_writes_loadable_trace(self, tmp_path, capsys):
        from repro.sim.traceio import load_trace

        out_path = tmp_path / "trace.json"
        rc = main(["run", "--tuner", "cd", "--duration", "150",
                   "--trace-out", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        assert load_trace(out_path).epochs


class TestInfo:
    def test_lists_tuners_scenarios_and_load_profiles(self, capsys):
        rc = main(["info"])
        out = capsys.readouterr().out
        assert rc == 0
        from repro.core.registry import tuner_names

        for name in tuner_names():
            assert name in out
        assert "anl-uc" in out and "anl-tacc" in out
        assert "cmp16" in out and "tfr64" in out
        # One-line docs came along.
        assert "Nelder-Mead" in out
        assert "ESnet" in out


class TestTop:
    def _journal(self, tmp_path, capsys):
        journal = tmp_path / "run.jnl"
        rc = main(["run", "--tuner", "nm", "--duration", "150",
                   "--journal", str(journal)])
        capsys.readouterr()
        assert rc == 0
        return journal

    def test_renders_a_completed_journal(self, tmp_path, capsys):
        journal = self._journal(tmp_path, capsys)
        rc = main(["top", str(journal)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[complete]" in out
        assert "breaker closed" in out
        assert "tuner=nm" in out

    def test_renders_an_in_progress_journal(self, tmp_path, capsys):
        journal = self._journal(tmp_path, capsys)
        # Strip the end record: the run looks live.
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(
            ln for ln in lines if not ln.startswith(b'{"kind":"end"')
        ))
        rc = main(["top", str(journal)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[LIVE]" in out

    def test_renders_a_saved_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        rc = main(["run", "--tuner", "cd", "--duration", "150",
                   "--trace-out", str(trace_path)])
        capsys.readouterr()
        assert rc == 0
        rc = main(["top", str(trace_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[complete]" in out
        assert "nc=" in out

    def test_follow_is_bounded_by_frames(self, tmp_path, capsys):
        journal = self._journal(tmp_path, capsys)
        rc = main(["top", str(journal), "--follow", "--frames", "1",
                   "--interval", "0.01"])
        assert rc == 0

    def test_missing_path_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no journal or trace"):
            main(["top", str(tmp_path / "nope.jnl")])


class TestObservabilityFlags:
    def test_run_writes_events_and_metrics(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.prom"
        rc = main(["run", "--tuner", "nm", "--duration", "150",
                   "--events", str(events),
                   "--metrics-out", str(metrics)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "events written" in out and "metrics written" in out

        from repro.obs import read_event_log

        log = read_event_log(events)
        kinds = {e.kind for e in log}
        assert {"epoch-start", "epoch-end", "tuner-proposal",
                "tuner-accept"} <= kinds
        text = metrics.read_text()
        assert "# TYPE repro_epochs_total counter" in text
        assert "repro_span_seconds" in text

    def test_resume_reconstructs_the_full_stream(self, tmp_path, capsys):
        journal = tmp_path / "run.jnl"
        ev_full = tmp_path / "full.jsonl"
        rc = main(["run", "--tuner", "nm", "--duration", "150",
                   "--journal", str(journal),
                   "--events", str(ev_full)])
        capsys.readouterr()
        assert rc == 0

        ev_resumed = tmp_path / "resumed.jsonl"
        rc = main(["resume", str(journal), "--events", str(ev_resumed)])
        capsys.readouterr()
        assert rc == 0

        from repro.obs import read_event_log

        replayable = ("epoch-end", "fault-injected", "breaker-transition")
        full = [e for e in read_event_log(ev_full)
                if e.kind in replayable]
        resumed = [e for e in read_event_log(ev_resumed)
                   if e.kind in replayable]
        assert resumed == full


class TestReplicateFlags:
    def test_run_reps_prints_table_and_ci(self, capsys):
        rc = main(["run", "--tuner", "cd", "--duration", "120",
                   "--reps", "3", "--jobs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 replicates" in out
        assert "95% CI" in out
        # one row per derived seed
        for seed in ("0", "1", "2"):
            assert seed in out

    def test_reps_parallel_equals_serial(self, capsys):
        main(["run", "--tuner", "cd", "--duration", "120", "--reps", "2"])
        serial = capsys.readouterr().out
        main(["run", "--tuner", "cd", "--duration", "120", "--reps", "2",
              "--jobs", "2"])
        assert capsys.readouterr().out == serial

    def test_reps_zero_rejected(self):
        with pytest.raises(SystemExit, match="reps"):
            main(["run", "--reps", "0"])

    @pytest.mark.parametrize("flag", [
        ("--journal", "j.jnl"), ("--warm-start", "w.jnl"),
        ("--trace-out", "t.json"), ("--events", "e.jsonl"),
        ("--metrics-out", "m.prom"),
    ])
    def test_reps_refuses_per_run_artifacts(self, flag):
        with pytest.raises(SystemExit, match="incompatible"):
            main(["run", "--reps", "2", *flag])


class TestCampaignJobsAndTimings:
    def test_campaign_jobs_journal_then_info_timings(self, tmp_path,
                                                     capsys):
        import repro.experiments.campaign as campaign_mod

        journal = tmp_path / "camp.jnl"
        # The real quick campaign is seconds-scale thanks to the fast
        # path, but trim to one unit to keep the CLI test snappy.
        units = campaign_mod.CAMPAIGN_UNITS
        try:
            campaign_mod.CAMPAIGN_UNITS = units[3:4]  # fig8 only
            rc = main(["campaign", "--quick", "--jobs", "2",
                       "--journal", str(journal)])
        finally:
            campaign_mod.CAMPAIGN_UNITS = units
        assert rc == 0
        assert "Fig 8" in capsys.readouterr().out

        rc = main(["info", "--timings", str(journal)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig8" in out
        assert "recorded total" in out

    def test_info_timings_missing_journal_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no journal"):
            main(["info", "--timings", str(tmp_path / "nope.jnl")])


class TestCampaignFallbackWarning:
    @staticmethod
    def _canned_result():
        from repro.experiments.batch import BatchOccupancy
        from repro.experiments.campaign import CampaignResult

        return CampaignResult(
            sections={"Fig X": "rows"},
            batch=BatchOccupancy(batched=5, fallback=5, chunks=2),
            fallback_reasons={"fault schedule": 4,
                              "finite-bytes transfer": 1},
        )

    def test_reasons_tally_and_threshold_warning(self, monkeypatch,
                                                 capsys):
        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_campaign",
                            lambda *a, **kw: self._canned_result())
        monkeypatch.delenv("REPRO_BATCH_WARN", raising=False)
        rc = main(["campaign", "--quick", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert ("fallback reasons: fault schedule: 4, "
                "finite-bytes transfer: 1") in out
        assert "warning: 50% of simulated runs" in out
        assert "threshold 10%" in out

    def test_flag_raises_threshold_past_the_rate(self, monkeypatch,
                                                 capsys):
        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_campaign",
                            lambda *a, **kw: self._canned_result())
        rc = main(["campaign", "--quick", "--no-cache",
                   "--batch-fallback-warn", "0.9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fallback reasons:" in out  # the tally always prints
        assert "warning:" not in out

    def test_threshold_of_one_disables_the_warning(self, monkeypatch,
                                                   capsys):
        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_campaign",
                            lambda *a, **kw: self._canned_result())
        rc = main(["campaign", "--quick", "--no-cache",
                   "--batch-fallback-warn", "1.0"])
        assert rc == 0
        assert "warning:" not in capsys.readouterr().out

    def test_negative_threshold_exits(self, monkeypatch):
        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_campaign",
                            lambda *a, **kw: self._canned_result())
        with pytest.raises(SystemExit, match=">= 0"):
            main(["campaign", "--quick", "--no-cache",
                  "--batch-fallback-warn", "-0.2"])

    def test_info_timings_refuses_non_campaign_journal(self, tmp_path):
        from repro.checkpoint import JournalWriter

        path = tmp_path / "run.jnl"
        with JournalWriter(path) as w:
            w.write_header({"run": {}})
        with pytest.raises(SystemExit, match="section records"):
            main(["info", "--timings", str(path)])


class TestFleetCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8760
        assert args.scenarios is None
        assert args.capacity == 64 and args.queue_limit == 128
        assert args.pace == 0.0
        assert args.batch is True
        assert build_parser().parse_args(
            ["serve", "--no-batch"]).batch is False

    def test_serve_unknown_scenario_exits(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["serve", "--scenarios", "mars-base", "--port", "0"])

    def test_serve_bad_capacity_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--capacity", "0", "--port", "0"])

    def test_submit_parser_defaults(self):
        args = build_parser().parse_args(["submit", "t1"])
        assert args.tenant == "t1"
        assert args.url == "http://127.0.0.1:8760"
        assert args.tuner == "cd" and args.epochs == 10
        assert not args.watch and not args.unsupervised

    def test_submit_against_a_live_fleet(self, capsys):
        from repro.experiments.scenarios import SCENARIOS
        from repro.service import FleetServer, FleetService

        fleet = FleetService({"anl-uc": SCENARIOS["anl-uc"]},
                             epoch_s=5.0, dt=1.0)
        with FleetServer(fleet) as server:
            rc = main(["submit", "t1", "--url", server.url,
                       "--epochs", "3", "--watch"])
            out = capsys.readouterr().out
        assert rc == 0
        assert '"admitted": true' in out
        assert '"state": "completed"' in out

    def test_submit_shed_watch_exits_nonzero(self, capsys):
        from repro.experiments.scenarios import SCENARIOS
        from repro.service import FleetServer, FleetService

        fleet = FleetService({"anl-uc": SCENARIOS["anl-uc"]},
                             capacity=1, queue_limit=0,
                             epoch_s=5.0, dt=1.0)
        with FleetServer(fleet) as server:
            assert main(["submit", "hog", "--url", server.url,
                         "--epochs", "1000"]) == 0
            rc = main(["submit", "shed-me", "--url", server.url,
                       "--epochs", "2", "--watch"])
            out = capsys.readouterr().out
        assert rc == 1  # shed with a recorded reason, never completed
        assert "queue-full" in out

    def test_submit_no_fleet_exits(self):
        with pytest.raises(SystemExit, match="fleet at"):
            main(["submit", "t1", "--url", "http://127.0.0.1:9",
                  "--timeout", "0.2"])


class TestDegradedBackendWarnings:
    def test_no_health_no_warnings(self):
        from repro.cli import _degraded_backend_warnings

        assert _degraded_backend_warnings(None) == []
        assert _degraded_backend_warnings({}) == []

    def test_closed_breaker_is_quiet(self):
        from repro.cli import _degraded_backend_warnings

        health = {"url": "http://c:1", "breaker": "closed",
                  "breaker_opens": 0}
        assert _degraded_backend_warnings(health) == []

    def test_open_breaker_warns_with_url(self):
        from repro.cli import _degraded_backend_warnings

        health = {"url": "http://cache:8750", "breaker": "open"}
        lines = _degraded_backend_warnings(health)
        assert len(lines) == 1
        assert "http://cache:8750" in lines[0]
        assert "breaker open" in lines[0]
        assert "local tier" in lines[0]

    def test_closed_but_tripped_breaker_warns(self):
        from repro.cli import _degraded_backend_warnings

        health = {"url": "sqlite:///c.db", "breaker": "closed",
                  "breaker_opens": 2}
        lines = _degraded_backend_warnings(health)
        assert len(lines) == 1
        assert "tripped 2x" in lines[0]

    def test_tiered_health_walks_remote_tier(self):
        from repro.cli import _degraded_backend_warnings

        health = {"tiers": {
            "local": {"url": "dir:/tmp/c", "breaker": "closed",
                      "breaker_opens": 0},
            "remote": {"url": "http://far:8750", "breaker": "half-open"},
        }}
        lines = _degraded_backend_warnings(health)
        assert len(lines) == 1
        assert "http://far:8750" in lines[0]

    def test_campaign_with_degraded_remote_prints_warning(self, tmp_path,
                                                          capsys):
        import repro.experiments.campaign as campaign_mod

        units = campaign_mod.CAMPAIGN_UNITS
        try:
            campaign_mod.CAMPAIGN_UNITS = units[3:4]  # fig8 only
            rc = main([
                "campaign", "--quick",
                "--cache-dir",
                f"http://127.0.0.1:9?local={tmp_path / 'local'}",
            ])
        finally:
            campaign_mod.CAMPAIGN_UNITS = units
        out = capsys.readouterr().out
        assert rc == 0
        assert "warning: cache backend" in out
        assert "local tier" in out

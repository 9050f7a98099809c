"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.stream == "vs2"
        assert args.hashes == 400
        assert args.threshold == 0.7

    def test_sweep_args(self):
        args = build_parser().parse_args(
            ["sweep", "threshold", "0.5", "0.7", "0.9"]
        )
        assert args.parameter == "threshold"
        assert args.values == [0.5, 0.7, 0.9]

    def test_inspect_args(self):
        args = build_parser().parse_args(["inspect", "--motion", "--gop", "6"])
        assert args.motion is True
        assert args.gop == 6

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workers == 2
        assert args.backend == "serial"
        assert args.policy == "block"
        assert args.resume is False

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_rejects_bad_sweep_parameter(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "nonsense", "1"])


class TestCommands:
    def test_inspect_runs(self, capsys):
        exit_code = main(["inspect", "--seconds", "3", "--quality", "60"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Bitstream report" in output
        assert "compression" in output

    def test_inspect_motion_runs(self, capsys):
        exit_code = main(
            ["inspect", "--seconds", "2", "--motion", "--gop", "4"]
        )
        assert exit_code == 0
        assert "motion-compensated" in capsys.readouterr().out

    @pytest.mark.slow
    def test_demo_runs(self, capsys):
        exit_code = main(
            ["demo", "--stream", "vs1", "--queries", "3",
             "--stream-seconds", "300", "--hashes", "128"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Detections" in output
        assert "precision=" in output

    def test_serve_resume_requires_checkpoint_dir(self, capsys):
        assert main(["serve", "--resume"]) == 2

    def test_only_demo_and_stats_choose_the_engine(self, capsys, tmp_path):
        """Serving runs one configuration; ``stats`` still runs any
        (Geometric on the oracle, through run_detector)."""
        for argv in (["serve", "--order", "geometric"],
                     ["gateway", "--no-index"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        out = tmp_path / "metrics.json"
        assert main(["stats", "--order", "geometric", "--stream", "vs1",
                     "--queries", "2", "--stream-seconds", "120",
                     "--hashes", "64", "--metrics-out", str(out)]) == 0
        counters = json.loads(out.read_text())["counters"]
        assert counters["engine.windows_processed"] > 0

    @pytest.mark.slow
    def test_serve_stop_and_resume(self, capsys, tmp_path):
        """Interrupted service + --resume reproduces the full-run output."""
        base = ["serve", "--stream", "vs1", "--queries", "3",
                "--stream-seconds", "240", "--hashes", "64",
                "--chunk-seconds", "30", "--workers", "2"]
        assert main(base) == 0
        full = capsys.readouterr().out.splitlines()[-1]
        assert full.startswith("matches=")

        ckpt = ["--checkpoint-dir", str(tmp_path)]
        assert main(base + ckpt + ["--stop-after", "3"]) == 0
        assert "--resume to continue" in capsys.readouterr().out
        assert main(base + ckpt + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "resumed from chunk 3" in resumed
        assert resumed.splitlines()[-1] == full

    @pytest.mark.slow
    def test_seeded_chaos_fires_with_sub_window_chunks(self, capsys):
        """2 s chunks on 5 s windows: most chunks complete no window and
        send no batch, so the seeded horizon must count only those that
        do, or the drawn event lands past the last message."""
        assert main([
            "serve", "--stream", "vs1", "--queries", "2",
            "--stream-seconds", "120", "--hashes", "64",
            "--chunk-seconds", "2", "--batch-chunks", "1",
            "--workers", "2", "--backend", "process",
            "--chaos", "seed:3", "--recovery-deadline", "1.0",
        ]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("supervisor: ")
        counters = dict(
            field.split("=") for field in summary.split()[1:]
        )
        assert int(counters["restarts"]) >= 1

    @pytest.mark.slow
    def test_sweep_runs(self, capsys):
        exit_code = main(
            ["sweep", "threshold", "0.5", "0.9", "--stream", "vs1",
             "--queries", "3", "--stream-seconds", "300"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "precision:" in output
        assert "recall:" in output
        assert "cpu_seconds:" in output


class TestIngestCommand:
    def test_ingest_defaults(self):
        args = build_parser().parse_args(["ingest"])
        assert args.streams == 3
        assert args.faults == "light"
        assert args.policy == "round_robin"
        assert args.degrade == "skip_window"
        with pytest.raises(SystemExit) as excinfo:  # no thread pool
            main(["ingest", "--pool", "2"])
        assert excinfo.value.code == 2

    def test_ingest_rejects_bad_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "--faults", "extreme"])

    def test_ingest_clean_run(self, capsys, tmp_path):
        metrics = tmp_path / "ingest.json"
        exit_code = main([
            "ingest", "--streams", "2", "--chunks", "4",
            "--faults", "none", "--metrics-out", str(metrics),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Ingestion report" in output
        assert "unprocessed=0" in output
        import json

        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema"] == "repro.ingest/2"
        assert len(snapshot["streams"]) == 2
        assert snapshot["reconciliation"]["unprocessed"] == 0

    def test_ingest_chaos_run_survives(self, capsys):
        exit_code = main([
            "ingest", "--streams", "2", "--chunks", "5",
            "--faults", "heavy", "--policy", "deficit",
        ])
        assert exit_code == 0
        assert "Ingestion report" in capsys.readouterr().out

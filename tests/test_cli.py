"""Tests for the command-line interface (on a tiny world for speed)."""

import json

import pytest

from repro.cli import build_parser, main

ARGS = ["--seed", "20210701", "--scale", "0.12"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "removed", [["--routing", "policy"], ["--backend", "thread"]]
    )
    def test_removed_options_rejected(self, removed):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", *removed])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.scale == 0.3
        assert args.seed == 20210701


class TestGenerate:
    def test_generate_summary(self, capsys):
        assert main(["generate", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "state-owned operators" in out
        assert "state-owned ASNs" in out


class TestShowErrors:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["show", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "nope.json" in err
        assert err.count("\n") == 1  # one-line message, not a traceback

    def test_corrupt_sqlite_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.db"
        bad.write_text("this is not a database")
        assert main(["show", str(bad)]) == 2
        assert "bad.db" in capsys.readouterr().err

    def test_truncated_json_exits_2(self, tmp_path, capsys):
        truncated = tmp_path / "cut.json"
        truncated.write_text('{"format_version": 1, "organizations": [{"or')
        assert main(["show", str(truncated)]) == 2
        assert "cut.json" in capsys.readouterr().err

    def test_wrong_format_version_exits_2(self, tmp_path, capsys):
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"format_version": 99}')
        assert main(["show", str(wrong)]) == 2
        assert "wrong.json" in capsys.readouterr().err

    def test_unwritable_log_json_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "events.jsonl"
        assert main(["run", *ARGS, "--log-json", str(target)]) == 2
        assert "events.jsonl" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, capsys):
        assert main(["run", *ARGS, "--jobs", "-3"]) == 2
        err = capsys.readouterr().err
        assert "jobs must be >= 1" in err
        assert "Traceback" not in err


@pytest.mark.slow
class TestRunAndShow:
    def test_run_exports_and_show_reads(self, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        db_path = tmp_path / "out.db"
        events_path = tmp_path / "events.jsonl"
        assert main(
            [
                "run",
                *ARGS,
                "--trace",
                "--log-json",
                str(events_path),
                "--json",
                str(json_path),
                "--sqlite",
                str(db_path),
            ]
        ) == 0
        assert json_path.exists() and db_path.exists()
        err = capsys.readouterr().err
        # --trace prints per-stage wall time and counters.
        assert "pipeline.candidates" in err
        assert "pipeline.confirmation" in err
        assert "ms" in err
        assert "origins_pruned=" in err
        # ...and ends with the cache / pool-reuse counter summary.
        assert "run.summary" in err
        # --log-json emits one valid JSON object per line.
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert events
        names = {event["name"] for event in events}
        assert "pipeline.expansion" in names
        assert "export.sqlite" in names
        # Spans plus the final run.summary counter event.
        assert all(event["event"] in {"span", "summary"} for event in events)
        assert events[-1]["name"] == "run.summary"

        assert main(["show", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "org_id" in out

        assert main(["show", str(db_path), "--country", "NO"]) == 0

    def test_validate_command(self, capsys):
        assert main(["validate", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "precision" in out

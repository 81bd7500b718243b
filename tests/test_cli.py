"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--figure", "fig99"])

    def test_tao_defaults(self):
        args = build_parser().parse_args(["tao"])
        assert args.ops == 500
        assert args.read_fraction == pytest.approx(0.998)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Weaver" in out and "gatekeepers" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "alice" in out
        assert "checkpoint" in out
        assert "failover" in out

    def test_tao_small(self, capsys):
        assert main(["tao", "--ops", "40", "--vertices", "60"]) == 0
        out = capsys.readouterr().out
        assert "failures" in out
        assert "| 0" in out  # zero failures

    def test_bench_fig7(self, capsys):
        assert main(["bench", "--figure", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "350000" in out and "speedup" in out

    def test_bench_fig14(self, capsys):
        assert main(["bench", "--figure", "fig14"]) == 0
        out = capsys.readouterr().out
        assert "oracle/tx" in out

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 1
        assert args.duration == 60
        assert args.vertices == 12

    def test_chaos_run(self, capsys):
        assert main(["chaos", "--seed", "2", "--duration", "25"]) == 0
        out = capsys.readouterr().out
        assert "recoveries" in out
        assert "history digest" in out
        assert "strict serializability: OK" in out

    def test_pinned_digests(self, capsys):
        # The values CI greps for: any intake change that alters a
        # record (or the soak's settlement/pruning schedule) fails here
        # by name, before it reaches the workflow.  The full table of
        # referee digests is tests/test_referee_digests.py.
        assert main(["chaos", "--seed", "1", "--duration", "20"]) == 0
        out = capsys.readouterr().out
        assert "history digest | 6294b677f2fbc83e" in out
        assert "violations |                0" in out
        assert main(["soak", "--seed", "1", "--chunks", "3"]) == 0
        rows = dict(
            (cell.strip() for cell in line.split("|"))
            for line in capsys.readouterr().out.splitlines()
            if line.count("|") == 1
        )
        assert rows["history digest"] == "288351d98c9b84da"
        assert rows["watermarks"] == "7"
        assert rows["records pruned"] == "211"
        assert (rows["window peak"], rows["window final"]) == ("31", "18")
        assert rows["violations"] == "0"
        # The price of "always on" is on the report.
        assert int(rows["referee events"]) > int(rows["committed"])
        assert float(rows["referee time (s)"]) > 0

    def test_soak_has_no_cross_check_flags(self):
        # One referee: nothing to cross-check, so nothing to switch off.
        for flag in ("--no-parity", "--no-offline"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["soak", flag])

    def test_simulate(self, capsys):
        assert main(["simulate", "--writes", "10"]) == 0
        out = capsys.readouterr().out
        assert "crashed" in out and "recovered" in out
        assert "post-recovery read of v0: ok" in out

    def test_bench_fig10(self, capsys):
        assert main(["bench", "--figure", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "p99" in out

    def test_module_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "Weaver" in result.stdout

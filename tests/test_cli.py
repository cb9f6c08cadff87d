"""Tests for the experiment CLI (python -m repro ...)."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro.cli import main
from repro.errors import ConfigurationError, FaultInjected


class TestCLI:
    def test_solve(self, capsys):
        assert main(["--seed", "2", "solve"]) == 0
        out = capsys.readouterr().out
        assert "phi:" in out and "converged=True" in out

    def test_table5(self, capsys):
        assert main(["--seed", "0", "table5"]) == 0
        assert "Table V" in capsys.readouterr().out

    def test_table6(self, capsys):
        assert main(["--seed", "0", "table6"]) == 0
        assert "Table VI" in capsys.readouterr().out

    def test_fig3_small(self, capsys):
        assert main(["--seed", "1", "fig3", "--samples", "2"]) == 0
        assert "histogram" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["--seed", "2", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "stage1" in out and "stage3 gap" in out

    def test_fig6_single_panel(self, capsys):
        assert main(["--seed", "2", "fig6", "--panel", "server_cpu"]) == 0
        out = capsys.readouterr().out
        assert "server_cpu" in out and "QuHE" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


_RAISE_PLAN = '{"seed": 1, "rules": [{"seam": "worker.solve", "kind": "raise"}]}'


class TestCLIFailurePaths:
    """Exit-code discipline: each taxonomy class maps to a distinct code."""

    @pytest.fixture(autouse=True)
    def _no_leaked_plan(self):
        # A warm service cache would satisfy `solve` without ever reaching
        # the worker.solve seam; chaos paths need the cold path.
        from repro.api.scenarios import SERVICE

        SERVICE.clear_cache()
        faults.clear()
        yield
        faults.clear()

    def test_missing_campaign_dir_exits_4(self, tmp_path, capsys):
        code = main(["campaign", "status", str(tmp_path / "nowhere")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("repro: FileNotFoundError:")
        assert err.count("\n") == 1  # one line, no traceback

    def test_bad_fault_plan_exits_2(self, capsys):
        assert main(["--faults", "{not json", "solve"]) == 2
        assert "repro: ConfigurationError:" in capsys.readouterr().err

    def test_injected_fault_exits_9(self, capsys):
        code = main(["--faults", _RAISE_PLAN, "solve", "--seed", "2"])
        assert code == 9
        assert "repro: FaultInjected:" in capsys.readouterr().err

    def test_debug_raises_instead_of_exit_code(self):
        with pytest.raises(FaultInjected):
            main(["--debug", "--faults", _RAISE_PLAN, "solve", "--seed", "2"])

    def test_debug_raises_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            main(["--debug", "--faults", "{not json", "solve"])

    def test_set_faults_intercepted_not_passed_to_scenario(self, capsys):
        # `--set faults=PLAN` must install the plan, not hit the scenario's
        # parameter table (solve has no 'faults' parameter).
        code = main([
            "run", "solve", "--set", f"faults={_RAISE_PLAN}",
            "--set", "seed=2",
        ])
        assert code == 9
        assert "FaultInjected" in capsys.readouterr().err

    def test_faultfree_run_still_exits_0(self, capsys):
        assert main(["solve", "--seed", "2"]) == 0
        assert "converged=True" in capsys.readouterr().out


class TestServeSignals:
    def test_sigint_drains_when_inherited_as_ignored(self, tmp_path):
        """A daemon started with SIGINT ignored, as a background job of a
        non-interactive shell is, still drains on SIGINT and exits 0."""
        from repro.serve import ServeRequest, request_once

        sock = str(tmp_path / "daemon.sock")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop(faults.ENV_VAR, None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            assert "listening on" in proc.stderr.readline()
            # Answered only once the daemon's loop runs, which is after its
            # signal handlers are installed.
            request_once(
                ServeRequest(id="ping", op="ping"), socket_path=sock
            ).raise_for_error()
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert "drained, shut down" in stderr

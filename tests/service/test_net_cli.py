"""The wire lanes of the CLI: ``--net`` always runs the worker pool.

``stress --net`` with no ``--workers`` runs a one-worker pool over a
Unix-domain socket, and the options the pool does not implement are
usage errors (exit 2) instead of being dropped on the floor -- both at
the config (``WorkerPoolConfig`` raises) and at the CLI.
"""

import pytest

import repro.service.cli as cli
from repro.errors import ConfigurationError
from repro.service.stack import ServiceConfig
from repro.service.workers import WorkerPoolConfig


class TestNetStress:
    def test_net_stress_runs_a_one_worker_pool(self, capsys):
        exit_code = cli.main(
            ["stress", "--net", "--threads", "2", "--requests", "200"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "over 1 worker processes" in out
        assert "OK" in out.split("per-worker reconciliation:")[1]
        assert "net stress OK" in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--workers", "0"],
            ["--workers", "-1"],
            ["--broker"],
            ["--wait-profile"],
            ["--span-sample", "4"],
            ["--shards", "2"],
            ["--trace-sample", "-1"],
        ],
    )
    def test_unsupported_pool_options_are_usage_errors(self, extra, capsys):
        exit_code = cli.main(
            ["stress", "--net", "--threads", "1", "--requests", "1", *extra]
        )
        assert exit_code == 2
        assert capsys.readouterr().err.startswith("stress: ")

    def test_serve_refuses_what_the_pool_does_not_implement(self, capsys):
        assert cli.main(["serve", "--duration", "0", "--broker"]) == 2
        assert cli.main(["serve", "--duration", "0", "--shards", "2"]) == 2
        assert "serve: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [["--trace-sample", "4"], ["--workers", "2"], ["--workers", "0"]]
    )
    def test_pool_only_options_require_net(self, extra, capsys):
        exit_code = cli.main(
            ["stress", "--threads", "1", "--requests", "1", *extra]
        )
        assert exit_code == 2
        assert "require --net" in capsys.readouterr().err

    def test_serve_has_no_tcp_binding(self):
        parser = cli.build_parser()
        for flag in ("--host", "--port", "--socket"):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve", flag, "x"])


class TestPoolConfig:
    @pytest.mark.parametrize(
        "option",
        [
            {"broker": True},
            {"wait_profile": True},
            {"span_sample_every": 4},
        ],
    )
    def test_unimplemented_options_are_refused(self, option):
        with pytest.raises(ConfigurationError, match="does not implement"):
            WorkerPoolConfig(workers=1, **option)

    def test_trace_sampling_is_a_pool_option(self):
        assert WorkerPoolConfig(workers=1, trace_sample_every=8)
        with pytest.raises(ConfigurationError):
            WorkerPoolConfig(workers=1, trace_sample_every=-1)
        with pytest.raises(TypeError):
            ServiceConfig(trace_sample_every=8)

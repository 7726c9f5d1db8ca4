"""Chaos-lane regressions: documented degraded postures, per scenario.

Satellite 2 of ISSUE 9: a tuner crash mid-surge must end in the frozen
static-LOCKLIST posture with a terminal ``freeze`` audit record and a
503 health answer; a worker SIGKILL mid-matrix must leave the
survivors frozen and the scenario marked ``expected-degraded`` -- not
``fail``.
"""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import EXPECTED_DEGRADED, FAIL, run_scenario
from repro.scenarios.grid import ScenarioSpec, scenario_id
from repro.service.chaos import CHAOS, TOPOLOGIES, build_chaos


def make_spec(params, slug="chaos"):
    return ScenarioSpec(
        grid="chaos-test",
        index=0,
        params=params,
        scenario_id=scenario_id("chaos-test", params),
        slug=slug,
    )


def checks_by_name(result):
    return {check.name: check for check in result.verdict.checks}


class TestRegistry:
    def test_every_injection_is_registered(self):
        assert set(CHAOS) == {
            "tuner-crash",
            "shard-stall",
            "worker-sigkill",
            "overflow-exhaustion",
        }

    def test_unknown_chaos_raises(self):
        with pytest.raises(ConfigurationError):
            build_chaos("no-such-chaos")


class TestTunerCrash:
    def test_crash_mid_surge_freezes_locklist_and_503s(self):
        result = run_scenario(
            make_spec(
                {
                    "kind": "service",
                    "regime": "uniform",
                    "threads": 2,
                    "requests_per_thread": 250,
                    "seed": 5,
                    "chaos": "tuner-crash",
                    "chaos_warm_requests": 20,
                },
                slug="tuner-crash",
            )
        )
        assert result.verdict.status == EXPECTED_DEGRADED
        checks = checks_by_name(result)
        # The frozen static-LOCKLIST posture, as documented:
        assert checks["tuner-crashed"].ok
        assert checks["locklist-frozen"].ok
        assert checks["freeze-audited"].ok
        assert checks["healthz-503"].ok
        assert checks["growth-disabled"].ok
        # Lock service survived the crash with exact accounting.
        assert checks["completeness"].ok
        assert checks["accounting-exact"].ok
        # The tuner-healthy standard check is skipped, not failed.
        assert "tuner-healthy" not in checks


class TestWorkerSigkill:
    def test_sigkill_mid_matrix_is_expected_degraded_not_fail(self):
        result = run_scenario(
            make_spec(
                {
                    "kind": "service",
                    "regime": "uniform",
                    "threads": 2,
                    "requests_per_thread": 300,
                    "seed": 5,
                    "workers": 2,
                    "chaos": "worker-sigkill",
                },
                slug="worker-sigkill",
            )
        )
        assert result.verdict.status == EXPECTED_DEGRADED
        assert result.verdict.ok  # degraded-as-expected is NOT a failure
        checks = checks_by_name(result)
        assert checks["survivors-frozen"].ok
        assert checks["crash-counted"].ok
        assert checks["incident-recorded"].ok
        assert checks["healthz-503"].ok
        assert checks["reconciliation-names-victim"].ok
        assert checks["survivors-served"].ok
        # Completeness cannot hold after a SIGKILL: skipped, not failed.
        assert "completeness" not in checks


class TestTopologyRequirements:
    def test_tuner_crash_on_a_worker_pool_is_rejected(self):
        """``requires`` is enforced before any stack is built: the
        in-process tuner crash never runs against the worker pool."""
        assert build_chaos("tuner-crash").requires == {"local", "sharded"}
        result = run_scenario(
            make_spec(
                {
                    "kind": "service",
                    "regime": "uniform",
                    "threads": 2,
                    "requests_per_thread": 50,
                    "seed": 5,
                    "workers": 1,
                    "chaos": "tuner-crash",
                },
                slug="tuner-crash-pool",
            )
        )
        assert result.verdict.status == FAIL
        (crashed,) = result.verdict.checks
        assert crashed.name == "run-crashed"
        assert crashed.detail.startswith("ConfigurationError")
        assert "'tuner-crash'" in crashed.detail
        assert "'pool'" in crashed.detail

    def test_every_injection_names_known_topologies(self):
        for name in CHAOS:
            requires = build_chaos(name).requires
            assert requires and requires <= TOPOLOGIES, name
        assert build_chaos("shard-stall").requires == {"sharded"}
        assert build_chaos("worker-sigkill").requires == {"pool"}

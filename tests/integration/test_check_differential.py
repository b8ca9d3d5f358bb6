"""Integration tests: the differential harness and cross-stack checkers.

The full three-profile sweep lives in ``benchmarks/test_conformance.py``;
here one scenario per concern keeps tier-1 fast while pinning the
harness's behaviour: both stacks agree on the observables, fault plans
ride through, the invariant suites attach to the event stack, and the
Monte-Carlo cross-check holds.
"""

import pytest

from repro.check import (
    ConformanceReport,
    DiffRow,
    RunView,
    conformance_report,
    default_suite,
    differential_run,
    montecarlo_vs_equations,
)
from repro.check.differential import (
    _scenarios,
    canonical_adversary_plan,
    canonical_diff_plan,
    uniform_wan_profile,
)
from repro.core import WlmConsensus
from repro.giraf.oracle import FixedLeaderOracle
from repro.net import measure_latency_table
from repro.sim import Transport
from repro.sync import SyncRun

ROUNDS = 80
TIMEOUT = 0.1


@pytest.fixture(scope="module")
def clean_result():
    return differential_run(
        "uniform-wan",
        lambda seed: uniform_wan_profile(seed=seed),
        timeout=TIMEOUT,
        rounds=ROUNDS,
        seed=7,
    )


@pytest.fixture(scope="module")
def faulted_result():
    return differential_run(
        "uniform-wan",
        lambda seed: uniform_wan_profile(seed=seed),
        timeout=TIMEOUT,
        rounds=ROUNDS,
        seed=7,
        plan=canonical_diff_plan(8, ROUNDS, seed=7),
    )


class TestDifferentialRun:
    def test_stacks_agree_without_faults(self, clean_result):
        assert clean_result.ok, [
            (r.quantity, r.lockstep, r.event)
            for r in clean_result.rows
            if not r.ok
        ]
        assert clean_result.fault == "none"

    def test_stacks_agree_under_the_canonical_plan(self, faulted_result):
        assert faulted_result.ok, [
            (r.quantity, r.lockstep, r.event)
            for r in faulted_result.rows
            if not r.ok
        ]
        assert faulted_result.fault == "canonical"

    def test_rows_cover_the_stated_observables(self, clean_result):
        quantities = [row.quantity for row in clean_result.rows]
        assert "measured p" in quantities
        for model in ("ES", "AFM", "LM", "WLM", "GS"):
            assert f"P_{model}" in quantities
        assert "D_WLM rounds" in quantities
        assert "sync error / timeout" in quantities

    def test_consensus_safety_ran_on_both_stacks(self, clean_result):
        # Zero violations is only meaningful because the checkers were
        # attached; the structure records per-stack findings.
        assert clean_result.violations == []

    def test_faults_actually_bite(self, clean_result, faulted_result):
        """The faulted scenario must measurably degrade delivery — a plan
        that changes nothing would make the with-faults half vacuous."""

        def measured_p(result):
            return next(
                row for row in result.rows if row.quantity == "measured p"
            )

        assert (
            measured_p(faulted_result).lockstep
            < measured_p(clean_result).lockstep
        )


class TestPairedDecisionRounds:
    """``D_WLM rounds`` compares both stacks from the same start rounds.

    With start points drawn from each stack's own satisfaction vector,
    the adversary scenario compared unpaired samples: one stack's starts
    landed in the pre-GSR rounds, the other's after them, and the row
    failed on these (seed, profile) pairs with the tolerance unchanged.
    """

    @pytest.mark.parametrize(
        "seed, profile",
        [
            (1, "planetlab-wan"),
            (1, "lan"),
            (4, "granular-wan"),
            (7, "planetlab-wan"),
        ],
    )
    def test_adversary_decision_rounds_agree(self, seed, profile):
        factory, timeout = next(
            (factory, timeout)
            for name, factory, timeout in _scenarios(8)
            if name == profile
        )
        result = differential_run(
            profile,
            factory,
            timeout=timeout,
            rounds=120,
            seed=seed,
            plan=canonical_adversary_plan(8, 120, seed=seed),
            fault_name="adversary",
        )
        row = next(r for r in result.rows if r.quantity == "D_WLM rounds")
        assert row.ok, (row.lockstep, row.event, row.tolerance)


class TestDiffRow:
    def test_abs_kind_within_tolerance(self):
        assert DiffRow("x", 1.0, 1.05, 0.1).ok
        assert not DiffRow("x", 1.0, 1.2, 0.1).ok

    def test_lower_bound_kind_is_one_sided(self):
        row = DiffRow("x", 0.9, 0.99, 0.05, kind="lower-bound")
        assert row.ok  # estimate above the bound: fine at any distance
        assert not DiffRow("x", 0.9, 0.8, 0.05, kind="lower-bound").ok

    def test_nan_pairs(self):
        nan = float("nan")
        assert DiffRow("x", nan, nan, 0.1).ok  # both censored: agree
        assert not DiffRow("x", nan, 1.0, 0.1).ok
        assert not DiffRow("x", 1.0, nan, 0.1).ok


class TestMonteCarloVsEquations:
    def test_grid_matches_closed_forms(self):
        rows = montecarlo_vs_equations(
            p_grid=(0.9, 0.97), n=5, samples=1500, seed=3
        )
        assert len(rows) == 10  # 2 p-values x 5 models
        for row in rows:
            assert row.ok, (row.quantity, row.lockstep, row.event)

    def test_afm_rows_are_lower_bounds(self):
        rows = montecarlo_vs_equations(p_grid=(0.9,), n=4, samples=400)
        kinds = {r.quantity: r.kind for r in rows}
        assert kinds["P_AFM(p=0.9, n=4)"] == "lower-bound"
        assert kinds["P_ES(p=0.9, n=4)"] == "abs"


class TestSyncRunObservers:
    def test_suite_attaches_to_the_event_stack(self):
        """SyncRun must feed proposals, oracle outputs and decisions to
        observers, and its result must carry what RunView needs."""
        profile = uniform_wan_profile(seed=11)
        table = measure_latency_table(uniform_wan_profile(seed=12), pings=10)
        suite = default_suite()
        run = SyncRun(
            8,
            lambda pid: WlmConsensus(pid, 8, f"value-{pid}"),
            FixedLeaderOracle(0),
            lambda sim: Transport(sim, profile),
            timeout=TIMEOUT,
            latency_table=table,
            max_rounds=30,
            observers=[suite],
        )
        result = run.run()
        violations = suite.finish(RunView.from_sync(result))
        assert violations == []
        # The uniform WAN at this timeout decides essentially always.
        assert result.decisions, "consensus never decided on a clean network"
        assert set(result.decision_rounds) == set(result.decisions)
        assert result.proposals == {
            pid: f"value-{pid}" for pid in range(8)
        }
        assert result.correct == frozenset(range(8))


class TestConformanceReportRendering:
    def test_report_text_sections(self, clean_result):
        report = ConformanceReport(
            results=[clean_result],
            mc_rows=montecarlo_vs_equations(p_grid=(0.95,), n=4, samples=400),
            mutation_detected=True,
            mutation_clean=True,
        )
        text = conformance_report(report)
        assert "uniform-wan" in text
        assert "Monte Carlo vs closed forms" in text
        assert "mutation self-test" in text
        assert text.rstrip().endswith("overall: PASS")

    def test_failed_report_renders_fail(self):
        report = ConformanceReport(
            results=[],
            mc_rows=[DiffRow("x", 0.0, 1.0, 0.1)],
            mutation_detected=True,
            mutation_clean=True,
        )
        assert not report.ok
        assert "overall: FAIL" in conformance_report(report)

    def test_nan_cells_render_as_dash(self):
        row = DiffRow("censored", float("nan"), float("nan"), 1.0)
        report = ConformanceReport(
            results=[],
            mc_rows=[row],
            mutation_detected=True,
            mutation_clean=True,
        )
        text = conformance_report(report)
        assert "nan" not in text

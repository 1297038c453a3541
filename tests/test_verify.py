"""Standalone inequality checkers: concentration, projected SGD, the
Lipschitz-integral link, the GSP subset-core inequality, and the benchmark
diagnostic, each with a working negative control."""

import dataclasses
import math

import numpy as np
import pytest

from pacesim import (
    DiscreteValues,
    MartingaleSetup,
    PacedAgent,
    PiecewiseLinear,
    SGDTestProblem,
    SimulationConfig,
    UniformValues,
    ValueModel,
    concentration_check,
    gsp_core_slack,
    lipschitz_integral_check,
    replicate,
    benchmark_value_ceiling,
    benchmark_value_diagnostic,
    run_simulation,
    second_price,
    sgd_regret_check,
    solve_ex_ante_optimum,
)
from pacesim import auctions, verify
from pacesim.constants import MC_SIGMA, SURE_TOL
from pacesim.errors import ConfigurationError, InvariantViolationError, PreconditionError
from pacesim.verify import fuzz_mechanisms, gsp_exhaustive_core_fuzz
from pacesim.welfare import counterexample_scenario


class TestConcentration:
    def test_degenerate_selector_never_exceeds(self):
        setup = MartingaleSetup(UniformValues(0.0, 1.0), "never", 100, 1.0, 0.5)
        report = concentration_check(setup, theta=0.5, trials=2000, seed=0)
        assert report.statistic == 0.0
        assert report.passed

    def test_uniform_always_selector(self):
        rho, T = 0.5, 200
        setup = MartingaleSetup(UniformValues(0.0, 2 * rho), "always", T, 2 * rho, rho)
        report = concentration_check(setup, theta=math.sqrt(T) * rho, trials=20000, seed=1)
        assert report.bound == pytest.approx(math.exp(-0.5))
        assert report.passed

    def test_adversarial_selector_still_bounded(self):
        rho, T = 0.5, 200
        setup = MartingaleSetup(
            UniformValues(0.0, 2 * rho), "adversarial", T, 2 * rho, rho
        )
        report = concentration_check(setup, theta=0.5 * math.sqrt(T) * rho,
                                     trials=20000, seed=2)
        assert report.passed

    def test_negative_control_mean_above_target(self):
        rho, T = 0.5, 200
        hot = MartingaleSetup(UniformValues(0.8, 1.2), "always", T, 2.0, rho)
        report = concentration_check(hot, theta=0.5 * math.sqrt(T) * rho,
                                     trials=3000, seed=3)
        assert not report.passed

    def test_discrete_values(self):
        setup = MartingaleSetup(
            DiscreteValues((0.0, 2.0), (0.75, 0.25)), "always", 150, 2.0, 0.5
        )
        report = concentration_check(setup, theta=math.sqrt(150) * 0.5, trials=10000, seed=4)
        assert report.passed

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DiscreteValues((math.nan, 2.0), (0.75, 0.25)),
            lambda: DiscreteValues((0.0, 2.0), (math.nan, 0.25)),
            lambda: DiscreteValues((0.0, -2.0), (0.75, 0.25)),
            lambda: DiscreteValues((0.0, 2.0), (0.75, 0.5)),
            lambda: UniformValues(math.nan, 1.0),
            lambda: UniformValues(0.0, math.inf),
            lambda: UniformValues(-1.0, 1.0),
            lambda: UniformValues(2.0, 0.0),
        ],
        ids=["nan-value", "nan-prob", "negative-value", "not-a-distribution", "nan-low",
             "inf-high", "negative-low", "low-above-high"],
    )
    def test_bad_value_distribution_refused_at_construction(self, make):
        with pytest.raises(ConfigurationError):
            make()

    def test_predictability_shape_enforced(self):
        with pytest.raises(ConfigurationError):
            MartingaleSetup(UniformValues(0.0, 3.0), "always", 10, 2.0, 0.5)
        with pytest.raises(ConfigurationError):
            concentration_check(
                MartingaleSetup(UniformValues(0.0, 1.0), "sneaky", 10, 1.0, 0.5), 1.0, 10
            )

    @pytest.mark.parametrize(
        "setup",
        [
            MartingaleSetup(UniformValues(0.0, 1.0), "always", 60, 1.0, 0.5),
            MartingaleSetup(DiscreteValues((0.0, 2.0), (0.75, 0.25)), "always", 60, 2.0, 0.5),
            MartingaleSetup(
                DiscreteValues((0.0, 1.0, 3.0), (0.5, 0.25, 0.25)), "always", 60, 3.0, 0.5
            ),
            MartingaleSetup(UniformValues(0.0, 1.0), "adversarial", 60, 1.0, 0.5),
            MartingaleSetup(UniformValues(0.0, 1.0), "never", 60, 1.0, 0.5),
            # Fractional selections and rho round in the update's last bit.
            MartingaleSetup(
                UniformValues(0.0, 1.0),
                lambda t, stat, rho: np.where(stat > rho * t, 0.7, 1.5),
                60, 1.0, 0.45,
            ),
        ],
        ids=["uniform", "two-atoms", "three-atoms", "adversarial", "never", "callable"],
    )
    def test_reports_equal_the_reference_loop(self, setup):
        for theta, trials, seed in ((2.0, 3_000, 0), (0.5, 1, 9)):
            report = concentration_check(setup, theta, trials, seed)
            assert report == _reference_concentration(setup, theta, trials, seed)
        # Every running sum, bit for bit, as the selector sees it each round.
        runs = []
        for check in (concentration_check, _reference_concentration):
            seen = []
            select = verify._selector(setup.selector)

            def recording(t, stat, rho, seen=seen, select=select):
                seen.append(stat.tobytes())
                return select(t, stat, rho)

            check(dataclasses.replace(setup, selector=recording), 2.0, 500, 2)
            runs.append(seen)
        assert runs[0] == runs[1]

    def test_draws_equal_numpys_samplers(self):
        seeds = np.random.SeedSequence(3)
        a, b = (np.random.Generator(np.random.Philox(seeds)) for _ in range(2))
        two = DiscreteValues((0.0, 2.0), (0.75, 0.25))
        uniform = UniformValues(0.25, 1.75)
        for n in (1, 1_000, 10_000):
            assert two.draw(a, n).tobytes() == b.choice(two.values, size=n, p=two.probs).tobytes()
            assert uniform.draw(a, n).tobytes() == b.uniform(0.25, 1.75, n).tobytes()
        out = np.empty(500)
        assert two.draw(a, 500, out=out) is out
        assert out.tobytes() == b.choice(two.values, size=500, p=two.probs).tobytes()
        assert uniform.draw(a, 500, out=out) is out
        assert out.tobytes() == b.uniform(0.25, 1.75, 500).tobytes()

    @pytest.mark.parametrize(
        "run",
        [
            lambda: MartingaleSetup(UniformValues(0.0, 1.0), "always", 0, 1.0, 0.5),
            lambda: MartingaleSetup(UniformValues(0.0, 1.0), "always", -3, 1.0, 0.5),
            lambda: MartingaleSetup(UniformValues(0.0, 1.0), "always", 2.5, 1.0, 0.5),
            lambda: MartingaleSetup(UniformValues(0.0, 0.0), "always", 10, 0.0, 0.5),
            lambda: MartingaleSetup(UniformValues(0.0, 1.0), "always", 10, math.inf, 0.5),
            lambda: MartingaleSetup(UniformValues(0.0, 1.0), "always", 10, 1.0, math.nan),
            lambda: MartingaleSetup(UniformValues(0.0, 1.0), "always", 10, 1.0, -0.5),
            lambda: concentration_check(_SMALL_SETUP, 1.0, trials=0),
            lambda: concentration_check(_SMALL_SETUP, 1.0, trials=2.5),
            lambda: concentration_check(_SMALL_SETUP, math.nan, trials=10),
            lambda: concentration_check(_SMALL_SETUP, -math.inf, trials=10),
            lambda: concentration_check(_SMALL_SETUP, -10.0, trials=10),
            lambda: SGDTestProblem((0.0, 1.0), np.full(10, 0.5), trials=0),
            lambda: SGDTestProblem((0.0, 1.0), np.full(10, 0.5), trials=1.5),
        ],
        ids=["horizon-0", "horizon-negative", "horizon-fractional", "v_max-0", "v_max-inf",
             "rho-nan", "rho-negative", "trials-0", "trials-fractional", "theta-nan",
             "theta-inf", "theta-negative", "sgd-trials-0", "sgd-trials-fractional"],
    )
    def test_inputs_that_cannot_be_checked_are_refused(self, run):
        with pytest.raises(ConfigurationError):
            run()


class TestSGD:
    def test_static_minimizer_converges(self):
        problem = SGDTestProblem((0.0, 1.0), np.full(2000, 0.7), noise_width=0.0, trials=20)
        report = sgd_regret_check(problem, problem.tuned_step_size(), seed=0)
        assert report.passed
        assert problem.path_bound == 1.0

    def test_drifting_minimizer_with_tuned_rate(self):
        mins = np.where((np.arange(3000) // 300) % 2 == 0, 0.2, 0.8)
        problem = SGDTestProblem((0.0, 1.0), mins, noise_width=0.5, trials=60)
        report = sgd_regret_check(problem, problem.tuned_step_size(), seed=1)
        assert report.passed
        # tuned bound is C * 2 D G sqrt(P T)
        d, g = problem.diameter, problem.gradient_bound
        assert report.bound == pytest.approx(
            4.0 * (d**2 * problem.path_bound / problem.tuned_step_size()
                   + problem.tuned_step_size() * g**2 * problem.horizon)
        )

    def test_zero_learning_rate_fails(self):
        problem = SGDTestProblem((0.0, 1.0), np.full(2000, 1.0), noise_width=0.0, trials=10)
        report = sgd_regret_check(problem, 0.0, seed=2)
        assert not report.passed
        assert report.statistic == pytest.approx(0.5 * 2000)

    def test_gradient_bound_is_sure(self):
        problem = SGDTestProblem((0.0, 2.0), np.full(50, 1.0), noise_width=0.25)
        assert problem.gradient_bound == 2.25


class TestLipschitzIntegral:
    def test_linear_function_is_tight(self):
        f = PiecewiseLinear([0.0, 2.0], [0.0, 6.0])
        report = lipschitz_integral_check(f, 2.0, lam=3.0)
        assert report.passed
        assert report.statistic == pytest.approx(report.bound)

    def test_zero_function(self):
        f = PiecewiseLinear([-1.0, 1.0], [0.0, 0.0])
        assert lipschitz_integral_check(f, 0.7, lam=1.0).passed

    def test_negative_side(self):
        f = PiecewiseLinear([-2.0, 0.0, 2.0], [-3.0, 0.0, 1.0])
        assert lipschitz_integral_check(f, -2.0, lam=1.5).passed

    def test_fuzzed_monotone_functions(self):
        rng = np.random.default_rng(5)
        for _ in range(1500):
            k = int(rng.integers(2, 9))
            xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, k))])
            slopes = rng.uniform(0.0, 2.5, k)
            ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
            lam = max(float(slopes.max()), 1e-9)
            x = float(rng.uniform(0.0, xs[-1]))
            assert lipschitz_integral_check(PiecewiseLinear(xs, ys), x, lam).passed

    def test_precondition_violations_raise(self):
        down = PiecewiseLinear([0.0, 1.0], [0.0, -1.0])
        with pytest.raises(PreconditionError):
            lipschitz_integral_check(down, 0.5, lam=2.0)
        steep = PiecewiseLinear([0.0, 1.0], [0.0, 5.0])
        with pytest.raises(PreconditionError):
            lipschitz_integral_check(steep, 0.5, lam=1.0)

    def test_jump_violates_without_validation(self):
        jump = PiecewiseLinear([0.0, 1e-9, 1.0], [0.0, 1.0, 1.0])
        assert not lipschitz_integral_check(jump, 1e-9, lam=1.0, validate=False).passed

    @pytest.mark.parametrize("seed", [0, 1, 77])
    def test_fuzz_rows_equal_the_scalar_check(self, seed):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        xs, ys, k, lam, x = verify._lipschitz_draws(rng, 5_000)
        statistic, bound, passed = verify._lipschitz_rows(xs, ys, k, lam, x)
        for r, (f, x_ref, lam_ref) in enumerate(_reference_lipschitz_instances(seed, 5_000)):
            assert xs[r, : k[r] + 1].tobytes() == f.xs.tobytes()
            assert ys[r, : k[r] + 1].tobytes() == f.ys.tobytes()
            assert (x[r], lam[r]) == (x_ref, lam_ref)
            report = lipschitz_integral_check(f, x_ref, lam_ref)
            assert (statistic[r], bound[r], passed[r]) == (
                report.statistic, report.bound, report.passed
            ), r
        assert set(k.tolist()) == set(range(2, 8))

    def test_hand_made_rows_equal_the_scalar_check(self):
        cases = [
            # (breakpoints, values, lam, x)
            ([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], 2.0, 0.0),  # x = 0
            ([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], 2.0, 1.0),  # x on a breakpoint
            ([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], 2.0, 2.0),  # x the last breakpoint
            ([0.0, 2.0, 3.0], [0.0, 6.0, 6.5], 3.0, 1.0),  # tight: f = lam x on the first piece
            ([0.0, 2.0, 3.0], [0.0, 6.0, 6.5], 3.0, 2.0),
            ([0.0, 0.5, 1.5], [0.0, 0.0, 0.25], 1.0, 1.2),  # k = 2, flat first piece
            (np.cumsum([0.0, 0.3, 0.2, 0.9, 0.1, 0.4, 0.6, 0.5]),
             np.cumsum([0.0, 0.1, 0.2, 0.0, 0.05, 0.7, 0.3, 0.45]), 1.75, 2.95),  # k = 7
            (np.cumsum([0.0, 0.3, 0.2, 0.9, 0.1, 0.4, 0.6, 0.5]),
             np.cumsum([0.0, 0.1, 0.2, 0.0, 0.05, 0.7, 0.3, 0.45]), 1.75, 3.0),
        ]
        for tol in (SURE_TOL, -1e-9):  # a negative tol fails the tight rows
            statistic, bound, passed = verify._lipschitz_rows(*_padded_rows(cases), tol=tol)
            for r, (xs, ys, lam, x) in enumerate(cases):
                report = lipschitz_integral_check(PiecewiseLinear(xs, ys), x, lam, tol=tol)
                assert (statistic[r], bound[r], passed[r]) == (
                    report.statistic, report.bound, report.passed
                ), (tol, r)
            assert passed.all() == (tol > 0)

    @pytest.mark.parametrize(
        "case",
        [
            ([0.0, 1.0], [0.0, -1.0], 2.0, 0.5),  # decreasing
            ([0.0, 1.0], [0.0, 5.0], 1.0, 0.5),  # steeper than lam
            ([0.0, 1.0], [0.5, 1.0], 1.0, 0.5),  # f(0) != 0
            ([0.0, 1.0], [0.0, 1.0], 1.0, 1.5),  # x past the last breakpoint
        ],
        ids=["decreasing", "steep", "f0", "x-outside"],
    )
    def test_rows_breaking_a_precondition_raise(self, case):
        with pytest.raises(PreconditionError):
            lipschitz_integral_check(PiecewiseLinear(case[0], case[1]), case[3], case[2])
        with pytest.raises(InvariantViolationError):
            verify._lipschitz_rows(*_padded_rows([case]))

    def test_fuzz_counts_every_instance(self):
        report = verify.lipschitz_integral_fuzz(300, seed=4)
        assert (report.checker, report.trials, report.statistic, report.passed) == (
            "lipschitz_integral_fuzz", 300, 0.0, True
        )


class TestGspCore:
    def test_worked_example(self):
        # subset {2,3} (0-indexed {1,2}) evaluates to slack 0.5
        assert gsp_core_slack([1.0, 0.5], [3.0, 2.0, 1.0]) == pytest.approx(0.0)

    def test_empty_subset_is_revenue_nonnegativity(self):
        # the mask-0 term reduces to total revenue >= 0
        assert gsp_core_slack([1.0], [2.0]) >= 0.0

    def test_fuzzed_instances(self):
        report = gsp_exhaustive_core_fuzz(instances=800, seed=6)
        assert report.passed

    def test_scrambled_bids_violate(self):
        slack = gsp_core_slack([1.0, 0.5, 0.0], [5.0, 1.0, 10.0], assume_sorted=True)
        assert slack < -1e-9

    def test_size_guard(self):
        with pytest.raises(PreconditionError):
            gsp_core_slack([1.0] * 9, [1.0] * 9)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_batched_slacks_equal_the_scalar_slack(self, n):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(n)))
        for m in range(1, 6):
            rates = -np.sort(-rng.random((200, m)), axis=1)
            bids = rng.uniform(0.0, 3.0, (200, n)) * (rng.random((200, n)) > 0.2)
            bids[::3, 0] = bids[::3, -1]  # ties
            scalar = [gsp_core_slack(tuple(a), b.tolist()) for a, b in zip(rates, bids)]
            assert np.array_equal(verify._gsp_core_slacks(rates, bids), scalar), m

    @pytest.mark.parametrize("seed", [0, 5])
    def test_fuzz_report_equals_the_reference_loop(self, seed):
        assert gsp_exhaustive_core_fuzz(400, seed) == _reference_gsp_fuzz(400, seed)
        assert gsp_exhaustive_core_fuzz(1, seed) == _reference_gsp_fuzz(1, seed)


KINDS = ("first_price", "second_price", "gsp")


class TestMechanismFuzz:
    def test_small_sweep_clean(self):
        for report in fuzz_mechanisms(instances=400, seed=7):
            assert report.passed, report.checker

    def test_reports_every_property_and_the_oracle_replay(self):
        reports = fuzz_mechanisms(instances=1_000, seed=2)
        assert [r.checker for r in reports] == [
            f"{prop}_fuzz[{kind}]"
            for kind in KINDS
            for prop in ("ir", "mbb", "monotone", "core", "oracle")
        ]
        trials = {r.checker: r.trials for r in reports}
        assert trials["core_fuzz[gsp]"] == 1_000
        assert trials["oracle_fuzz[gsp]"] == verify.ORACLE_SAMPLE

    def test_batched_verdicts_equal_scalar_checks(self):
        # 20 blocks of 100 rows per kind, each row checked with the scalar
        # allocate and check_* predicates on its own.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
        tol = SURE_TOL
        held = dict.fromkeys(("ir", "mbb", "monotone", "core"), 0)
        for kind in KINDS:
            for _ in range(20):
                block = verify._fuzz_block(rng, kind, 100, 6)
                mech = block.mechanism
                for row in range(100):
                    bids = block.bids[row].tolist()
                    k = int(block.agent[row])
                    out = auctions.allocate(mech, bids)
                    up = auctions.allocate(mech, block.raised[row].tolist())
                    assert out.allocations == tuple(block.x[row].tolist())
                    assert out.payments == tuple(block.z[row].tolist())
                    assert up.allocations == tuple(block.x_raised[row].tolist())
                    assert up.payments == tuple(block.z_raised[row].tolist())
                    scalar = {
                        "ir": auctions.check_ir(out, bids),
                        "mbb": auctions.check_mbb(
                            mech, k, block.low[row], block.high[row], bids[:k] + bids[k + 1 :]
                        ),
                        "monotone": up.allocations[k] >= out.allocations[k] - tol
                        and up.payments[k] >= out.payments[k] - tol,
                        "core": auctions.check_core(
                            mech,
                            bids,
                            [i for i in range(len(bids)) if block.coalition[row, i]],
                            block.deviation[row].tolist(),
                        ),
                    }
                    for prop, verdict in scalar.items():
                        assert verdict == block.verdicts[prop][row], (kind, prop, row)
                        held[prop] += verdict
        assert held == dict.fromkeys(held, 6_000)

    def test_needs_two_agents(self):
        with pytest.raises(ConfigurationError):
            fuzz_mechanisms(instances=10, max_agents=1)

    def test_block_features(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
        block = verify._fuzz_block(rng, "gsp", 4_000, 6)
        n = block.bids.shape[1]
        assert 0.1 < (block.bids == 0.0).mean() < 0.2
        tied = [len(set(row.tolist())) < n for row in block.bids[block.bids.min(axis=1) > 0]]
        assert 0.2 < np.mean(tied) < 0.4
        assert np.all(block.low <= block.high)
        r = np.arange(len(block.bids))
        assert np.all(block.raised[r, block.agent] >= block.bids[r, block.agent])
        assert all(block.mechanism.feasible.contains(y) for y in block.deviation.tolist())


class TestMechanismFuzzNegativeControls:
    """Deliberately broken kernels patched in for `auctions.outcomes`; each
    must be counted by the checker named."""

    @staticmethod
    def _counts(monkeypatch, broken):
        real = auctions.outcomes
        monkeypatch.setattr(auctions, "outcomes", lambda mech, bids: broken(real, mech, bids))
        return {r.checker: r.statistic for r in fuzz_mechanisms(instances=1_000, seed=3)}

    def test_overcharging_kernel_fails_ir(self, monkeypatch):
        def overcharge(real, mech, bids):
            x, z = real(mech, bids)
            return x, z + x  # one more unit of money per unit won

        counts = self._counts(monkeypatch, overcharge)
        for kind in KINDS:
            assert counts[f"ir_fuzz[{kind}]"] > 0, kind

    def test_highest_index_ties_fail_the_oracle_only(self, monkeypatch):
        def highest_index_wins(real, mech, bids):
            x, z = real(mech, bids[:, ::-1])
            return x[:, ::-1], z[:, ::-1]

        counts = self._counts(monkeypatch, highest_index_wins)
        for kind in KINDS:
            # Still a core auction with monotone bang-per-buck: only the
            # scalar replay sees the changed tie-breaking.
            assert counts[f"oracle_fuzz[{kind}]"] > 0, kind
            for prop in ("ir", "mbb", "monotone", "core"):
                assert counts[f"{prop}_fuzz[{kind}]"] == 0, (kind, prop)

    def test_cheaper_after_raise_fails_monotone(self, monkeypatch):
        def cheaper_when_raised(real, mech, bids):
            x, z = real(mech, bids)
            return x, z * np.exp(-bids)

        counts = self._counts(monkeypatch, cheaper_when_raised)
        for kind in KINDS:
            assert counts[f"monotone_fuzz[{kind}]"] > 0, kind

    def test_third_price_fails_mbb_and_core_only(self, monkeypatch):
        def third_price(real, mech, bids):
            x, _ = real(mech, bids)
            third = np.sort(bids, axis=1)[:, -3:-2] if bids.shape[1] > 2 else 0.0
            return x, x * np.minimum(third, bids)  # rate times min(third bid, own bid)

        counts = self._counts(monkeypatch, third_price)
        for kind in KINDS:
            # Rate times at most the own bid, and weakly rising with it: still
            # IR and monotone, but too cheap for bang-per-buck and the core.
            assert counts[f"mbb_fuzz[{kind}]"] > 0, kind
            assert counts[f"core_fuzz[{kind}]"] > 0, kind
            assert counts[f"ir_fuzz[{kind}]"] == counts[f"monotone_fuzz[{kind}]"] == 0, kind

    def test_positional_third_price_fails_mbb_and_core_only(self, monkeypatch):
        def third_price(real, mech, bids):
            # The real allocation; the agent in place p of the descending
            # bids (ties to the lower index) pays its allocation times the
            # bid in place p + 2: a single slot's winner pays the third
            # highest bid, GSP's slot j its rate times the bid two down.
            x, _ = real(mech, bids)
            order = np.argsort(-bids, axis=1, kind="stable")
            price = np.zeros_like(bids)
            price[:, :-2] = np.take_along_axis(bids, order[:, 2:], axis=1)
            z = np.zeros_like(bids)
            np.put_along_axis(z, order, np.take_along_axis(x, order, axis=1) * price, axis=1)
            return x, z

        counts = self._counts(monkeypatch, third_price)
        for kind in KINDS:
            assert counts[f"mbb_fuzz[{kind}]"] > 0, kind
            assert counts[f"core_fuzz[{kind}]"] > 0, kind
            assert counts[f"ir_fuzz[{kind}]"] == counts[f"monotone_fuzz[{kind}]"] == 0, kind

    def test_infeasible_deviation_is_a_generator_bug(self, monkeypatch):
        monkeypatch.setattr(
            verify, "_feasible_deviations", lambda rng, feasible, rows, n: np.full((rows, n), 2.0)
        )
        with pytest.raises(InvariantViolationError):
            fuzz_mechanisms(instances=10, seed=0)


class TestBenchmarkValueDiagnostic:
    def _uncontested_trace(self, horizon=40):
        model = ValueModel([0.5, 0.5], [[1.0, 0.0], [0.5, 0.0]])
        config = SimulationConfig(
            second_price(),
            (PacedAgent(budget=float(horizon)), PacedAgent(budget=float(horizon))),
            model,
            horizon=horizon,
            seed=9,
        )
        return config, run_simulation(config)

    def test_never_paced_collapses_to_rule_value(self):
        config, trace = self._uncontested_trace()
        rule = np.array([[1.0, 0.0], [0.25, 0.5]])
        # agent 0 never spends (opponent bids 0), so mu stays 0 throughout
        expected = float(
            (rule[trace.scenario_indices, 0] * trace.values[:, 0]).sum()
        )
        assert benchmark_value_diagnostic(trace, rule, 0) == pytest.approx(expected)

    def test_always_paced_collapses_to_target(self):
        config, trace = self._uncontested_trace()
        rule = np.zeros((2, 2))
        fake = trace.multipliers.copy()
        fake[:, 0] = 0.3
        forced = trace.__class__(**{**trace.__dict__, "multipliers": fake})
        rho = float(trace.target_rates[0])
        assert benchmark_value_diagnostic(forced, rule, 0) == pytest.approx(rho * trace.horizon)

    def test_profile_matching_fallback_and_lookup_error(self):
        # A trace without scenario indices (as load_trace builds one) is refused.
        config, trace = self._uncontested_trace()
        bare = trace.__class__(**{**trace.__dict__, "scenario_indices": None})
        rule = np.array([[1.0, 0.0], [0.25, 0.5]])
        with pytest.raises(ConfigurationError):
            benchmark_value_diagnostic(bare, rule, 0)

    def test_high_probability_ceiling_on_replications(self):
        # Both agents paced in the counterexample market: the benchmark rule
        # allocates to agent 2, and the diagnostic stays under its ceiling.
        base = counterexample_scenario(9.0, 400)
        config = SimulationConfig(
            base.mechanism,
            (
                PacedAgent(budget=base.agents[0].budget),
                PacedAgent(budget=base.agents[1].budget),
            ),
            base.value_model,
            horizon=400,
            seed=13,
        )
        rule = solve_ex_ante_optimum(
            config.value_model,
            config.mechanism.feasible,
            [a.budget for a in config.agents],
            config.horizon,
        )
        n, v = config.n_agents, config.value_model.value_cap
        violations = 0
        for trace in replicate(config, 60):
            for k in range(2):
                ceiling = benchmark_value_ceiling(float(trace.target_rates[k]), 400, v, n)
                if benchmark_value_diagnostic(trace, rule.allocations, k) > ceiling:
                    violations += 1
        assert violations == 0


# ---------------------------------------------------------------------------
# References: the per-instance loops the batched checkers replaced, kept as
# their oracles.

_SMALL_SETUP = MartingaleSetup(UniformValues(0.0, 1.0), "always", 10, 1.0, 0.5)


def _reference_concentration(setup, theta, trials, seed):
    """concentration_check as a fresh-array loop drawing with rng.uniform
    and rng.choice."""
    select = verify._selector(setup.selector)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    dist = setup.y_dist
    stat = np.zeros(trials)
    for t in range(setup.horizon):
        x = np.clip(select(t, stat, setup.rho), 0.0, 1.0)
        if isinstance(dist, UniformValues):
            y = rng.uniform(dist.low, dist.high, trials)
        else:
            y = rng.choice(dist.values, size=trials, p=dist.probs)
        stat += x * y + (1.0 - x) * setup.rho
    freq = float((stat >= setup.rho * setup.horizon + theta).mean())
    bound = math.exp(-2.0 * theta**2 / (setup.horizon * setup.v_max**2))
    stderr = math.sqrt(max(freq * (1 - freq), 0.0) / trials)
    return verify.CheckReport(
        "concentration", trials, freq, bound, freq <= bound + MC_SIGMA * stderr,
        {"theta": theta, "stderr": stderr, "mean_y": dist.mean},
    )


def _reference_lipschitz_instances(seed, count):
    """The Lipschitz fuzz's instances (f, x, lam), drawn one at a time."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    for _ in range(count):
        k = int(rng.integers(2, 8))
        xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, k))])
        slopes = rng.uniform(0.0, 2.0, k)
        ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
        lam = float(slopes.max()) if slopes.max() > 0 else 1.0
        yield PiecewiseLinear(xs, ys), float(rng.uniform(0.0, xs[-1])), lam


def _padded_rows(cases):
    """(xs, ys, k, lam, x) rows for _lipschitz_rows from (xs, ys, lam, x)
    cases, each padded past its last breakpoint."""
    xs = np.zeros((len(cases), 8))
    ys = np.zeros((len(cases), 8))
    k = np.array([len(c[0]) - 1 for c in cases])
    for r, (bx, by, _, _) in enumerate(cases):
        xs[r], ys[r] = np.pad(bx, (0, 8 - len(bx)), "edge"), np.pad(by, (0, 8 - len(by)), "edge")
    return xs, ys, k, np.array([c[2] for c in cases]), np.array([c[3] for c in cases])


def _reference_gsp_fuzz(instances, seed):
    """gsp_exhaustive_core_fuzz, one scalar gsp_core_slack per instance."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    worst, violations = math.inf, 0
    for _ in range(instances):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        rates = np.sort(rng.random(m))[::-1]
        slack = gsp_core_slack(tuple(rates), rng.uniform(0.0, 3.0, n).tolist())
        worst = min(worst, slack)
        violations += slack < -SURE_TOL
    return verify.CheckReport(
        "gsp_core_exhaustive", instances, float(violations), 0.0, violations == 0,
        {"min_slack": worst},
    )

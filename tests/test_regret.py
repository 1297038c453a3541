"""Expected spend/value curves, perfect pacing, the surrogate objective,
and dynamic regret of simulated pacing runs."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacesim import (
    EnvironmentStep,
    Mechanism,
    Polymatroid,
    allocate,
    surrogate_objective,
    dynamic_regret_batch,
    expected_curves,
    first_price,
    fit_growth_exponent,
    gsp,
    measure_smoothing,
    perfect_multiplier,
    perfect_sequence,
    second_price,
    simulate_pacing,
    stochastic_value,
    uniform_opponent_env,
    throttled_value_curve,
)
from pacesim.errors import (
    ConfigurationError,
    PreconditionError,
    SmoothingRequiredError,
)
from pacesim.pacing import AgentConfig, compute_bid, init_state
from pacesim.pacing import update as pacing_update
from pacesim import regret
from pacesim.auctions import SingleSlot
from pacesim.cli import main
from pacesim.regret import PacingRun, objective_values
from pacesim.scenarios import load_scenario, regret_environment


def two_atom_env():
    return EnvironmentStep(second_price(), [0.5, 0.5], [1.0, 1.0], [[0.2], [0.8]])


class TestExpectedCurves:
    def test_second_price_two_atoms(self):
        env = two_atom_env()
        assert expected_curves(env, 0.0) == (0.5, 1.0)
        assert expected_curves(env, 0.5) == (pytest.approx(0.1), pytest.approx(0.5))

    def test_huge_multiplier_vanishes(self):
        env = two_atom_env()
        z, v = expected_curves(env, 1e6)
        assert z == pytest.approx(0.0, abs=1e-5)
        assert v == pytest.approx(0.0, abs=1e-5)

    def test_uniform_opponent_closed_forms(self):
        env = uniform_opponent_env()
        mus = np.linspace(0.0, 4.0, 41)
        z, v = env.spend_value(mus)
        assert z == pytest.approx((1.0 + mus) ** -2.0, abs=1e-12)
        assert v == pytest.approx(1.0 / (1.0 + mus), abs=1e-12)

    def test_noised_second_price_single_opponent_closed_form(self):
        # one opponent at d + U[0, eta]: E[pay 1{win}] = (min(b,d+eta)^2-d^2)/(2 eta)
        d, eta = 0.3, 0.4
        env = EnvironmentStep(second_price(), [1.0], [1.0], [[d]], eta=eta)
        for mu in (0.0, 0.2, 0.6, 1.2, 2.5):
            b = 1.0 / (1.0 + mu)
            z, v = expected_curves(env, mu)
            if b <= d:
                expect_z, expect_v = 0.0, 0.0
            else:
                top = min(b, d + eta)
                expect_z = (top**2 - d**2) / (2 * eta)
                expect_v = min((b - d) / eta, 1.0)
            assert z == pytest.approx(expect_z, abs=1e-12)
            assert v == pytest.approx(expect_v, abs=1e-12)

    def test_noised_second_price_many_opponents_vs_quadrature(self):
        # Three opponents with overlapping noise windows.  A midpoint rule
        # over the noise cube resolves the win indicator to half a cell per
        # axis; the piecewise Gauss-Legendre payment integral is then also
        # checked sharply against a dense 1-D trapezoid of the max-bid CDF.
        d = np.array([0.25, 0.4, 0.55])
        eta = 0.3
        env = EnvironmentStep(second_price(), [1.0], [1.0], [d], eta=eta)
        n_cells = 160
        grid = (np.arange(n_cells) + 0.5) / n_cells * eta
        u1, u2, u3 = np.meshgrid(grid, grid, grid, indexing="ij")
        tops = np.maximum.reduce([d[0] + u1, d[1] + u2, d[2] + u3]).ravel()
        cube_tol = 3 * 0.5 * eta / n_cells + 1e-6
        for mu in (0.0, 0.3, 0.8, 1.4):
            b = 1.0 / (1.0 + mu)
            z, v = expected_curves(env, mu)
            win = tops < b
            assert v == pytest.approx(win.mean(), abs=cube_tol)
            assert z == pytest.approx((tops * win).mean(), abs=cube_tol)

            # sharp check of the integration machinery: E[M 1{M<b}]
            # = b F(b) - integral of F, with F = prod of clipped uniforms
            us = np.linspace(0.0, b, 200_001)
            cdf = np.clip((us[:, None] - d) / eta, 0.0, 1.0).prod(axis=1)
            integral = np.trapezoid(cdf, us)
            assert z == pytest.approx(b * cdf[-1] - integral, abs=1e-8)

    def test_curves_monotone_in_multiplier(self):
        mus = np.linspace(0.0, 6.0, 301)
        for env in (
            two_atom_env(),
            uniform_opponent_env(),
            uniform_opponent_env("second_price", low=0.2, width=0.5),
            EnvironmentStep(first_price(), [0.4, 0.6], [1.0, 0.7], [[0.3], [0.5]]),
            EnvironmentStep(gsp([1.0, 0.5]), [1.0], [2.0], [[1.5, 0.6]]),
        ):
            z, v = env.spend_value(mus)
            assert np.all(np.diff(z) <= 1e-12)
            assert np.all(np.diff(v) <= 1e-12)
            assert np.all(z <= v + 1e-12)
            assert z[-1] <= env.value_cap / (1.0 + mus[-1]) + 1e-12

    def test_gsp_smoothing_unsupported(self):
        with pytest.raises(ConfigurationError):
            EnvironmentStep(gsp([1.0, 0.5]), [1.0], [2.0], [[1.5, 0.6]], eta=0.1)


class TestPerfectMultiplier:
    def test_uniform_closed_form_root(self):
        env = uniform_opponent_env()
        mu = perfect_multiplier(env, 0.25, 4.0)
        assert mu == pytest.approx(1.0, abs=1e-6)

    def test_underdemanded_returns_zero(self):
        env = uniform_opponent_env()  # Z(0) = 1
        assert perfect_multiplier(env, 1.5, 4.0) == 0.0

    def test_discontinuous_needs_smoothing(self):
        env = two_atom_env()  # Z steps at the atom crossings
        with pytest.raises(SmoothingRequiredError):
            perfect_multiplier(env, 0.25, 8.0)

    def test_mu_cap_precondition(self):
        with pytest.raises(PreconditionError):
            perfect_multiplier(uniform_opponent_env(), 0.25, 1.0)

    def test_constant_sequence_has_zero_path_length(self):
        env = uniform_opponent_env()
        seq = perfect_sequence([env] * 20, 0.25, 4.0)
        assert seq.path_length == 0.0
        assert np.all(np.abs(seq.residuals) <= 1e-9)

    def test_each_distinct_env_is_evaluated_once(self, monkeypatch):
        quiet = uniform_opponent_env(low=0.0, width=0.5)
        loud = uniform_opponent_env(low=0.5, width=0.5)
        envs = [quiet] * 40 + [loud] * 40 + [quiet] * 40
        rho, mu_cap = 0.3, 1.0 / 0.3
        calls = []
        spend = EnvironmentStep.spend
        monkeypatch.setattr(
            EnvironmentStep, "spend", lambda env, mu: calls.append(env) or spend(env, mu)
        )
        seq = perfect_sequence(envs, rho, mu_cap)
        once = len(calls)
        calls.clear()
        perfect_sequence([quiet, loud], rho, mu_cap)
        assert once == len(calls)
        for t, env in enumerate(envs):
            expected = abs(float(spend(env, np.array([seq.multipliers[t]]))[0]) - rho)
            assert seq.residuals[t] == expected


class TestArtificialObjective:
    def test_constant_spend_curve(self):
        class FlatEnv:
            def spend(self, mu):
                return np.full_like(np.asarray(mu, dtype=float), 0.3)

            def curve_breakpoints(self, mu_max):
                return np.empty(0)

            def spend_integrals(self, grid):
                return 0.3 * np.diff(grid)

        flat = FlatEnv()
        for mu in (0.5, 1.0, 2.0):
            h = surrogate_objective(flat, 0.8, mu)
            assert h == pytest.approx((0.8 - 0.3) * mu, abs=1e-9)

    def test_zero_multiplier_is_zero(self):
        assert surrogate_objective(uniform_opponent_env(), 0.25, 0.0) == 0.0

    def test_uniform_closed_form(self):
        env = uniform_opponent_env()
        for mu in (0.3, 1.0, 2.7, 4.0):
            h = surrogate_objective(env, 0.25, mu)
            assert h == pytest.approx(0.25 * mu - 1.0 + 1.0 / (1.0 + mu), abs=1e-8)

    def test_derivative_matches_drift(self):
        env = uniform_opponent_env()
        hstep = 1e-4
        for mu in (0.2, 1.0, 3.0):
            hi = surrogate_objective(env, 0.25, mu + hstep, tol=1e-12)
            lo = surrogate_objective(env, 0.25, mu - hstep, tol=1e-12)
            z, _ = expected_curves(env, mu)
            assert (hi - lo) / (2 * hstep) == pytest.approx(0.25 - z, abs=1e-6)

    def test_convex_on_grid(self):
        env = uniform_opponent_env("second_price", low=0.1, width=0.8)
        mus = np.linspace(0.0, 4.0, 101)
        h = objective_values(env, 0.3, mus)
        mids = 0.5 * (h[:-2] + h[2:])
        assert np.all(h[1:-1] <= mids + 1e-9)

    def test_vectorized_matches_scalar(self):
        env = uniform_opponent_env()
        mus = np.array([0.1, 0.7, 1.9, 3.3])
        hs = objective_values(env, 0.25, mus)
        for mu, h in zip(mus, hs):
            assert h == pytest.approx(surrogate_objective(env, 0.25, mu), abs=1e-9)

    def test_lipschitz_link_between_spend_and_objective(self):
        # |Z(mu) - Z(mu*)| <= sqrt(2 lambda (H(mu) - H(mu*)))
        env = uniform_opponent_env()
        rho = 0.25
        mu_star = perfect_multiplier(env, rho, 4.0)
        lam = measure_smoothing(env, 4.0).lipschitz
        mus = np.linspace(0.0, 4.0, 81)
        z, _ = env.spend_value(mus)
        h = objective_values(env, rho, mus)
        z_star, _ = expected_curves(env, mu_star)
        h_star = surrogate_objective(env, rho, mu_star)
        gaps = np.sqrt(np.maximum(2.0 * lam * (h - h_star), 0.0))
        assert np.all(np.abs(z - z_star) <= gaps + 1e-6)


class TestWCurve:
    def test_branches(self):
        env = two_atom_env()
        # mu=0: Z=0.5 >= rho=0.25 -> throttled V * rho/Z = 1 * 0.5
        assert throttled_value_curve(env, 0.25, 0.0) == pytest.approx(0.5)
        # mu=0.5: Z=0.1 < rho -> V
        assert throttled_value_curve(env, 0.25, 0.5) == pytest.approx(0.5)
        # high mu: V=0, Z=0 -> 0
        assert throttled_value_curve(env, 0.25, 1e6) == pytest.approx(0.0, abs=1e-6)

    def test_w_never_exceeds_v(self):
        env = uniform_opponent_env()
        mus = np.linspace(0, 4, 101)
        w = throttled_value_curve(env, 0.25, mus)
        _, v = env.spend_value(mus)
        assert np.all(w <= v + 1e-12)


class TestMbbConsequence:
    def test_value_spend_ratio_ordering_on_fuzzed_envs(self):
        # For mu1 <= mu2: V(mu1) Z(mu2) <= Z(mu1) V(mu2) whenever V(mu2) > 0.
        rng = np.random.default_rng(12)
        mus = np.linspace(0.0, 5.0, 41)
        for trial in range(40):
            kind = ["first_price", "second_price"][trial % 2]
            atoms = int(rng.integers(1, 4))
            probs = rng.dirichlet(np.ones(atoms))
            values = rng.uniform(0.1, 2.0, atoms)
            comp = rng.uniform(0.0, 1.5, (atoms, int(rng.integers(1, 3))))
            eta = float(rng.uniform(0.05, 0.8)) if trial % 3 else 0.0
            env = EnvironmentStep(
                second_price() if kind == "second_price" else first_price(),
                probs, values, comp, eta=eta,
            )
            z, v = env.spend_value(mus)
            for i in range(len(mus)):
                for j in range(i, len(mus), 7):
                    if v[j] > 1e-12:
                        assert v[i] * z[j] <= z[i] * v[j] + 1e-9


class TestDynamicRegret:
    def test_unconstrained_agent_has_zero_regret(self):
        env = uniform_opponent_env()  # value 1, spend <= 1 per round
        rho = 1.5  # target rate above any possible spend
        runs = simulate_pacing(env, budget=rho * 50, learning_rate=0.1, mu_cap=1.0,
                               horizon=50, seed=0, replications=3)
        for run in runs:
            [report] = dynamic_regret_batch([run], env, rho, 1.0)
            assert report.value_regret == pytest.approx(0.0, abs=1e-9)
            assert report.sgd_regret == pytest.approx(0.0, abs=1e-9)
            assert np.all(run.multipliers == 0.0)

    def test_switching_environment_path_length(self):
        quiet = uniform_opponent_env(low=0.0, width=0.5)
        loud = uniform_opponent_env(low=0.5, width=0.5)
        envs = [quiet] * 100 + [loud] * 100 + [quiet] * 100
        rho = 0.3
        mu_cap = 1.0 / rho
        seq = perfect_sequence(envs, rho, mu_cap)
        switches = 2
        assert seq.path_length <= mu_cap * switches + 1e-9
        assert seq.path_length > 0

    def test_sgd_regret_under_bound_on_simulation(self):
        env = uniform_opponent_env()
        T = 2000
        runs = simulate_pacing(env, budget=0.25 * T, learning_rate=T**-0.5,
                               mu_cap=4.0, horizon=T, seed=11, replications=5)
        reports = dynamic_regret_batch(runs, env)
        for report in reports:
            assert 0.0 <= report.sgd_regret <= report.sgd_bound
            assert report.path_length == 0.0

    def test_simulation_respects_budget_and_stopping_bound(self):
        env = uniform_opponent_env()
        T = 1500
        eps = T**-0.5
        runs = simulate_pacing(env, budget=0.25 * T, learning_rate=eps,
                               mu_cap=4.0, horizon=T, seed=2, replications=10)
        bound = math.ceil(4.0 / (eps * 0.25) + 1.0 / 0.25)
        for run in runs:
            assert run.payments.sum() <= run.budget + 1e-9
            missed = T - run.stop_round + 1
            assert missed <= bound

    def test_pacing_run_replays_through_scalar_update(self):
        env = uniform_opponent_env()
        run = simulate_pacing(env, budget=50.0, learning_rate=0.05, mu_cap=4.0,
                              horizon=400, seed=19)[0]
        mu = 0.0
        rho = run.target_rate
        for t in range(run.live_rounds):
            assert run.multipliers[t] == mu
            mu = min(max(mu - run.learning_rate * (rho - run.payments[t]), 0.0),
                     run.mu_cap)

    def test_simulate_pacing_deterministic(self):
        env = uniform_opponent_env()
        a = simulate_pacing(env, 25.0, 0.1, 4.0, horizon=100, seed=7)[0]
        b = simulate_pacing(env, 25.0, 0.1, 4.0, horizon=100, seed=7)[0]
        assert np.array_equal(a.multipliers, b.multipliers, equal_nan=True)
        assert np.array_equal(a.payments, b.payments)


class TestStochasticValue:
    def test_never_spending_runs_full_horizon(self):
        env = EnvironmentStep(second_price(), [1.0], [1.0], [[0.0]])
        # opponent bids 0: the agent wins everything and pays nothing
        mean, stderr = stochastic_value(env, 0.5, budget=3.0, horizon=40, replications=8)
        assert mean == pytest.approx(40.0)  # wins every round at value 1, spends nothing
        assert stderr == 0.0

    def test_zero_budget(self):
        env = uniform_opponent_env()
        assert stochastic_value(env, 1.0, budget=0.0, horizon=20) == (0.0, 0.0)
        assert stochastic_value(env, 1.0, budget=5.0, horizon=0) == (0.0, 0.0)

    @pytest.mark.parametrize("name, value", [
        ("mu", -0.5), ("mu", math.nan), ("mu", math.inf), ("budget", math.nan),
        ("budget", math.inf), ("budget", -1.0), ("horizon", -3), ("horizon", 2.5),
        ("replications", -1), ("replications", 0), ("seed", -1), ("seed", 2.5),
        ("replications", None), ("seed", None),
    ])
    def test_rejects_bad_inputs(self, name, value):
        args = {"mu": 0.5, "budget": 3.0, "horizon": 10, "replications": 4, "seed": 0,
                name: value}
        with pytest.raises(ConfigurationError, match=name):
            stochastic_value(uniform_opponent_env(), **args)

    def test_bounded_by_perfect_value(self):
        env = uniform_opponent_env()
        rho, mu_cap, T = 0.25, 4.0, 400
        mu_star = perfect_multiplier(env, rho, mu_cap)
        _, v_star = expected_curves(env, mu_star)
        cap = T * v_star + env.value_cap**2 / rho
        for mu in np.linspace(0.0, mu_cap, 9):
            mean, stderr = stochastic_value(env, float(mu), rho * T, T,
                                            replications=800, seed=int(mu * 10))
            assert mean <= cap + 3.0 * stderr + 1e-9


def test_env_outcome_matches_core_mechanism():
    # The single-agent simulator must price and allocate exactly like the
    # mechanism module, including tie-breaks at every agent position.
    from pacesim.regret import _focal_outcome

    rng = np.random.default_rng(88)
    mechs = [first_price(), second_price(), gsp([1.0, 0.5]), gsp([0.8, 0.6, 0.1])]
    for _ in range(300):
        mech = mechs[rng.integers(len(mechs))]
        n_opp = int(rng.integers(1, 4))
        agent_index = int(rng.integers(0, n_opp + 1))
        comp = rng.uniform(0, 2, n_opp)
        if rng.random() < 0.4:
            comp[rng.integers(n_opp)] = round(float(rng.uniform(0, 2)), 1)
        bid = round(float(rng.uniform(0, 2)), 1) if rng.random() < 0.5 else float(
            rng.uniform(0, 2)
        )
        env = EnvironmentStep(mech, [1.0], [2.0], [comp], agent_index=agent_index)
        x, p = _focal_outcome(env, env._model.profiles, np.array([bid]))
        profile = list(comp)
        profile.insert(agent_index, bid)
        out = allocate(mech, profile)
        assert x[0] == out.allocations[agent_index]
        assert p[0] == out.payments[agent_index]


def _exact_curves_reference(env, mus):
    # Scalar reference: one allocate call per atom and multiplier, summed
    # atom by atom.
    z = np.zeros_like(mus)
    v = np.zeros_like(mus)
    for s in range(env.n_atoms):
        comp = list(env.competing_bids[s])
        for i, m in enumerate(mus):
            profile = comp.copy()
            profile.insert(env.agent_index, env.values[s] / (1.0 + m))
            out = allocate(env.mechanism, profile)
            z[i] += env.probs[s] * out.payments[env.agent_index]
            v[i] += env.probs[s] * env.values[s] * out.allocations[env.agent_index]
    return z, v


def test_exact_curves_match_scalar_allocate_loop():
    rng = np.random.default_rng(19)
    mechs = [
        first_price(),
        second_price(),
        gsp([1.0, 0.5]),
        gsp([0.8, 0.6, 0.1]),
        Mechanism("first_price", Polymatroid((0.9, 0.4))),
    ]
    for _ in range(100):
        mech = mechs[rng.integers(len(mechs))]
        n_opp = int(rng.integers(0, 4))
        atoms = int(rng.integers(1, 5))
        env = EnvironmentStep(
            mech,
            rng.dirichlet(np.ones(atoms)),
            np.round(rng.uniform(0, 2, atoms), 1),
            np.round(rng.uniform(0, 2, (atoms, n_opp)), 1),
            agent_index=int(rng.integers(0, n_opp + 1)),
        )
        # Multipliers on a half grid make bids land on competing bids (ties).
        mus = np.concatenate([[0.0], np.round(rng.uniform(0, 3, 30) * 2) / 2])
        z, v = env.spend_value(mus)
        z_ref, v_ref = _exact_curves_reference(env, mus)
        assert np.array_equal(z, z_ref)
        assert np.array_equal(v, v_ref)


def test_fit_growth_exponent():
    horizons = [1000, 4000, 16000]
    regrets = [5.0 * math.sqrt(t) for t in horizons]
    assert fit_growth_exponent(horizons, regrets) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(PreconditionError):
        fit_growth_exponent([10, 100], [1.0, -2.0])
    for horizons in ([200, 200], [400]):  # no slope to fit
        with pytest.raises(PreconditionError, match="two distinct horizons"):
            fit_growth_exponent(horizons, [1.0] * len(horizons))
    for horizons in ([0, 10], [-10, 10], [10, math.inf], [10, math.nan]):  # no logarithm
        with pytest.raises(PreconditionError, match="horizons must be finite and positive"):
            fit_growth_exponent(horizons, [1.0, 2.0])


def _replay_draws(envs, child):
    # One replication's rounds on its own Philox child: the atom uniforms
    # for all rounds, then the noise for every round and opponent; an atom
    # by a cumulative-probability scan, each competing bid plus eta times
    # its uniform.  Yields each round's value and competing bids.
    T = len(envs)
    rng = np.random.Generator(np.random.Philox(child))
    atom_u = rng.random(T)
    noise = rng.random((T, envs[0].n_opponents))
    for t, env in enumerate(envs):
        atom, cum = env.n_atoms - 1, 0.0
        for s, p in enumerate(env.probs):
            cum += p
            if atom_u[t] < cum:
                atom = s
                break
        comp = [float(c) + (env.eta * float(u) if env.eta > 0 else 0.0)
                for c, u in zip(env.competing_bids[atom], noise[t])]
        yield float(env.values[atom]), comp


def _pacing_reference(envs, budget, learning_rate, mu_cap, seed, replications):
    # Scalar reference: each replication replays its draws and plays each
    # round through the scalar allocate and pacing compute_bid/update.
    T = len(envs)
    cfg = AgentConfig(budget=budget, horizon=T, learning_rate=learning_rate, mu_cap=mu_cap,
                      value_cap=max(env.value_cap for env in envs))
    out = []
    for child in np.random.SeedSequence(seed).spawn(replications):
        rows = {name: np.zeros(T) for name in ("mu", "v", "bid", "x", "z")}
        state = init_state(cfg)
        stop_round = T + 1
        for t, (env, (value, comp)) in enumerate(zip(envs, _replay_draws(envs, child))):
            if state.stopped:
                rows["mu"][t], bid = np.nan, 0.0
            else:
                rows["mu"][t], bid = state.multiplier, compute_bid(state, value)
            comp.insert(env.agent_index, bid)
            outcome = allocate(env.mechanism, comp)
            rows["v"][t], rows["bid"][t] = value, bid
            rows["x"][t] = outcome.allocations[env.agent_index]
            rows["z"][t] = outcome.payments[env.agent_index]
            if not state.stopped:
                state = pacing_update(state, rows["z"][t])
                if state.stopped:
                    stop_round = t + 2
        out.append((rows, stop_round))
    return out


@pytest.mark.parametrize("eta", [0.0, 0.3])
@pytest.mark.parametrize("comp", [[[0.2], [0.9], [0.5]], [[0.2, 0.7], [0.9, 0.1], [0.5, 0.5]]],
                         ids=["one-opponent", "two-opponents"])
@pytest.mark.parametrize("agent_index", [0, 1])
def test_stochastic_value_matches_a_scalar_replay(eta, comp, agent_index):
    # Replication r replays substream r through the scalar allocate: the
    # unclamped bid value/(1 + mu), each round's value won counted up to
    # and including the round on which cumulative spend reaches the budget.
    env = EnvironmentStep(first_price(), [0.2, 0.5, 0.3], [1.0, 0.4, 0.8], comp, eta=eta,
                          agent_index=agent_index)
    mu, budget, T, R, seed = 0.4, 1.0, 40, 5, 23
    totals, stopped = [], 0
    for child in np.random.SeedSequence(seed).spawn(R):
        gains, spent = [], 0.0
        for value, bids in _replay_draws([env] * T, child):
            bids.insert(agent_index, value / (1.0 + mu))
            outcome = allocate(env.mechanism, bids)
            gains.append(outcome.allocations[agent_index] * value if spent < budget else 0.0)
            spent += outcome.payments[agent_index]
        stopped += spent >= budget
        totals.append(np.sum(gains))  # summed as numpy sums a row
    assert stopped > 0  # the budget runs out in some replication
    mean, stderr = stochastic_value(env, mu, budget, T, replications=R, seed=seed)
    assert mean == np.mean(totals)
    assert stderr == np.std(totals, ddof=1) / math.sqrt(R)


_GSP_TWO_OPPONENTS = EnvironmentStep(
    gsp([1.0, 0.6]), [0.3, 0.45, 0.25], [1.0, 1.6, 0.4],
    [[0.5, 0.9], [1.2, 0.2], [0.4, 0.4]], agent_index=1,
)


@pytest.mark.parametrize(
    "envs, budget, learning_rate, mu_cap, runs_out",
    [
        (
            [uniform_opponent_env(low=0.0, width=0.5)] * 100
            + [uniform_opponent_env(low=0.5, width=0.5)] * 100,
            50.0, 0.1, 4.0, False,
        ),
        ([_GSP_TWO_OPPONENTS] * 300, 90.0, 0.06, 8.0, False),
        # mu_cap 0.1 cannot shade bids enough: every run exhausts its budget.
        ([uniform_opponent_env()] * 300, 120.0, 0.05, 0.1, True),
    ],
    ids=["first-price-eta", "gsp-two-opponents-index-1", "budget-runs-out"],
)
def test_simulate_pacing_matches_scalar_reference(envs, budget, learning_rate, mu_cap, runs_out):
    runs = simulate_pacing(envs, budget, learning_rate, mu_cap, seed=31, replications=4)
    reference = _pacing_reference(envs, budget, learning_rate, mu_cap, 31, 4)
    for run, (rows, stop_round) in zip(runs, reference):
        assert np.array_equal(run.multipliers, rows["mu"], equal_nan=True)
        assert np.array_equal(run.values, rows["v"])
        assert np.array_equal(run.bids, rows["bid"])
        assert np.array_equal(run.allocations, rows["x"])
        assert np.array_equal(run.payments, rows["z"])
        assert run.stop_round == stop_round
    if runs_out:
        assert all(run.stop_round <= len(envs) for run in runs)


_SWITCHING = (
    [uniform_opponent_env(low=0.0, width=0.5)] * 100
    + [EnvironmentStep(first_price(), [0.4, 0.6], [1.0, 0.7], [[0.3], [0.5]], eta=0.2)] * 100
    + [uniform_opponent_env(low=0.0, width=0.5)] * 100
)
_RECORD_CASES = pytest.mark.parametrize(
    "envs, budget, learning_rate, mu_cap, runs_out",
    [
        (_SWITCHING, 70.0, 0.1, 4.0, False),
        # mu_cap 0.1 cannot shade bids enough: every run exhausts its budget.
        ([uniform_opponent_env()] * 300, 120.0, 0.05, 0.1, True),
        ([_GSP_TWO_OPPONENTS] * 300, 90.0, 0.06, 8.0, False),
    ],
    ids=["switching", "budget-runs-out", "gsp-two-opponents-index-1"],
)


@_RECORD_CASES
def test_derived_values_and_bids_are_what_the_round_played(
    monkeypatch, envs, budget, learning_rate, mu_cap, runs_out
):
    # Each block's agent column of the values and bids the lockstep round
    # read and wrote, copied as it is played.
    k = envs[0].agent_index
    blocks = []
    real_play = regret._Lockstep.play

    def spy(game, values, bids):
        real_play(game, values, bids)
        blocks.append((values[:, :, k].T.copy(), game.b[: len(values), :, k].T.copy()))

    monkeypatch.setattr(regret._Lockstep, "play", spy)
    runs = simulate_pacing(envs, budget, learning_rate, mu_cap, seed=13, replications=3)
    played_values, played_bids = (np.concatenate(cols, axis=1) for cols in zip(*blocks))
    if runs_out:
        assert all(run.stop_round <= len(envs) for run in runs)
    for r, run in enumerate(runs):
        assert callable(run.__dict__["values"]) and callable(run.__dict__["bids"])
        assert run.values.tobytes() == played_values[r].tobytes()
        assert run.bids.tobytes() == played_bids[r].tobytes()
        assert run.values is run.values and run.bids is run.bids


@_RECORD_CASES
def test_a_copied_run_derives_the_same_bits(envs, budget, learning_rate, mu_cap, runs_out):
    for run in simulate_pacing(envs, budget, learning_rate, mu_cap, seed=13, replications=2):
        copy = PacingRun(**run.__dict__)  # before either derived a field
        for field in ("values", "bids"):
            assert getattr(copy, field).tobytes() == getattr(run, field).tobytes(), field
            assert getattr(copy, field) is not getattr(run, field)


def test_run_shape_and_rates_derive_nothing():
    (run,) = simulate_pacing(uniform_opponent_env(), 120.0, 0.05, 0.1, horizon=300, seed=2)
    assert (run.horizon, run.target_rate) == (300, 0.4)
    assert run.live_rounds < 300
    assert callable(run.__dict__["values"]) and callable(run.__dict__["bids"])


def test_regret_analysis_holds_one_run_at_a_time():
    # Ten times the runs may not raise the analysis's peak by one T-long
    # float64 array per extra run: it reuses its buffers from run to run.
    T = 4000
    env = uniform_opponent_env()
    runs = simulate_pacing(env, 0.25 * T, T**-0.5, 4.0, horizon=T, seed=5, replications=40)
    dynamic_regret_batch(runs[:1], env, 0.25, 4.0)  # the environment's caches, warm
    peaks = []
    for count in (4, 40):
        tracemalloc.start()
        try:
            dynamic_regret_batch(runs[:count], env, 0.25, 4.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < (40 - 4) * 8 * T


def test_simulate_pacing_ignores_what_its_buffers_held(monkeypatch):
    # Every np.empty hands back garbage; the runs must not change a bit.
    envs = [uniform_opponent_env()] * 300
    clean = simulate_pacing(envs, 120.0, 0.05, 0.1, seed=31, replications=4)
    real_empty = np.empty

    def garbage_empty(*args, **kwargs):
        array = real_empty(*args, **kwargs)
        array.fill(7.25e9 if array.dtype.kind == "f" else 1)
        return array

    monkeypatch.setattr(np, "empty", garbage_empty)
    dirty = simulate_pacing(envs, 120.0, 0.05, 0.1, seed=31, replications=4)
    monkeypatch.undo()
    assert all(run.stop_round <= 300 for run in clean)
    for a, b in zip(clean, dirty):
        for field in ("multipliers", "values", "bids", "allocations", "payments"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        assert a.stop_round == b.stop_round


@pytest.mark.parametrize(
    "other",
    [
        uniform_opponent_env(mechanism_kind="second_price"),
        uniform_opponent_env(agent_index=1),
        EnvironmentStep(first_price(), [1.0], [1.0], [[0.2, 0.4]], eta=0.5),
    ],
    ids=["mechanism", "agent-index", "opponent-count"],
)
def test_simulate_pacing_rejects_mixed_environments(other):
    envs = [uniform_opponent_env()] * 5 + [other] * 5
    with pytest.raises(ConfigurationError, match="must share"):
        simulate_pacing(envs, budget=2.5, learning_rate=0.1, mu_cap=4.0)


@pytest.mark.parametrize(
    "change",
    [
        {"budget": -5.0},
        {"learning_rate": math.nan},
        {"mu_cap": math.inf},
        {"replications": -1},
        {"replications": 2.5},
        {"replications": math.nan},
        {"seed": -1},
        {"seed": 2.5},
        {"seed": math.nan},
        {"horizon": 0},
        {"seed": None},
        {"replications": None},
    ],
    ids=["negative-budget", "nan-learning-rate", "inf-mu-cap", "negative-replications",
         "fractional-replications", "nan-replications", "negative-seed", "fractional-seed",
         "nan-seed", "zero-horizon", "none-seed", "none-replications"],
)
def test_simulate_pacing_refuses_what_the_market_engine_refuses(change):
    # The agent goes through PacedAgent and AgentConfig, the market engine's
    # validation layer, so it never plays NaN multipliers.
    settings = dict(budget=2.5, learning_rate=0.1, mu_cap=4.0, horizon=10, seed=0, replications=2)
    with pytest.raises(ConfigurationError):
        simulate_pacing(uniform_opponent_env(), **{**settings, **change})


@pytest.mark.parametrize(
    "probs, values, comp, eta",
    [
        ([math.nan, 1.0], [1.0, 1.0], [[0.2], [0.8]], 0.0),
        ([0.5, 0.5], [1.0, math.nan], [[0.2], [0.8]], 0.0),
        ([0.5, 0.5], [math.inf, 1.0], [[0.2], [0.8]], 0.0),
        ([0.5, 0.5], [1.0, 1.0], [[0.2], [math.inf]], 0.0),
        ([1.0], [1.0], [[0.2]], math.nan),
        ([1.0], [1.0], [[0.2]], math.inf),
    ],
    ids=["nan-prob", "nan-value", "inf-value", "inf-bid", "nan-eta", "inf-eta"],
)
def test_environment_rejects_non_finite_atoms_and_noise(probs, values, comp, eta):
    with pytest.raises(ConfigurationError, match="finite"):
        EnvironmentStep(second_price(), probs, values, comp, eta=eta)


def test_negative_zero_environment_runs_like_positive_zero():
    # -0.0 among the values and competing bids must not reach a run's
    # bids and payments: it is read as 0.0 where the environment is built.
    def env(zero):
        comp = [[zero, 0.3], [zero, zero]]
        return EnvironmentStep(gsp([1.0, 0.5]), [0.5, 0.5], [0.8, zero], comp)

    signed = simulate_pacing(env(-0.0), 20.0, 0.1, 4.0, horizon=60, seed=3, replications=2)
    plain = simulate_pacing(env(0.0), 20.0, 0.1, 4.0, horizon=60, seed=3, replications=2)
    for a, b in zip(signed, plain):
        for field in ("multipliers", "values", "bids", "allocations", "payments"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


# ---------------------------------------------------------------------------
# One curve pass per run: pointwise curves, the per-group formula as an
# oracle, and the refusal of non-finite multipliers


def _atoms(seed, n_atoms, n_opponents):
    """Random probabilities, own values and competing bids."""
    rng = np.random.default_rng(seed)
    probs = rng.random(n_atoms) + 0.1
    values = rng.uniform(0.2, 2.0, n_atoms)
    return probs / probs.sum(), values, rng.uniform(0.0, 1.5, (n_atoms, n_opponents))


POINTWISE_ENVS = {
    **{
        f"noised-{kind}-{opp}opp-{atoms}atoms": lambda kind=kind, opp=opp, atoms=atoms: (
            EnvironmentStep(Mechanism(kind, SingleSlot()), *_atoms(atoms + opp, atoms, opp), eta=0.3)
        )
        for kind in ("first_price", "second_price")
        for opp in (1, 2)
        for atoms in (3, 9)  # from 8 atoms on, sum(axis=0) adds one column pairwise
    },
    "exact-first_price": lambda: EnvironmentStep(first_price(), *_atoms(5, 4, 2)),
    "exact-second_price": lambda: EnvironmentStep(second_price(), *_atoms(6, 9, 1)),
    "exact-gsp": lambda: EnvironmentStep(gsp([1.0, 0.6]), *_atoms(7, 5, 2), agent_index=1),
}


@pytest.mark.parametrize("name", POINTWISE_ENVS)
def test_spend_value_is_pointwise(name):
    # The regret analysis evaluates each run's multipliers, 0 and the
    # breakpoints in one batch: each point's Z and V may not depend on it.
    env = POINTWISE_ENVS[name]()
    breakpoints = env.curve_breakpoints(6.0)
    assert len(breakpoints) > 1
    between = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    mus = np.concatenate([[0.0], breakpoints, between, [0.05, 2.0, 6.0]])
    batch = np.array(env.spend_value(mus))
    single = np.array([[c[0] for c in env.spend_value(np.array([mu]))] for mu in mus]).T
    reversed_ = np.array(env.spend_value(mus[::-1]))[:, ::-1]
    assert batch.tobytes() == single.tobytes()
    assert batch.tobytes() == reversed_.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_multipliers_are_refused(bad, monkeypatch):
    # A NaN or inf multiplier made every quadrature segment split to the
    # depth cap; it must be refused before the surrogate integrals run.
    def no_integrals(*args):
        raise AssertionError("a non-finite multiplier reached the surrogate integrals")

    monkeypatch.setattr(EnvironmentStep, "spend_integrals", no_integrals)
    env = uniform_opponent_env()
    with pytest.raises(PreconditionError, match="finite"):
        objective_values(env, 0.25, np.array([0.5, bad]))
    with pytest.raises(PreconditionError, match="finite"):
        env.spend_value(np.array([0.5, bad]))


def _groups_by_dict(envs):
    """Each distinct environment object, in order of first appearance, with
    its ascending rounds, by a dict keyed on the object's id."""
    groups = {}
    for t, env in enumerate(envs):
        groups.setdefault(id(env), (env, []))[1].append(t)
    return [(env, np.asarray(rounds, dtype=np.int64)) for env, rounds in groups.values()]


def _reference_regrets(runs, envs, rho, mu_cap):
    """Each run's (value regret, SGD regret) with every group's curves
    evaluated on their own: V by spend_value at the multipliers played, H by
    objective_values, and the perfect multiplier's V and H apart."""
    T = len(envs)
    groups = _groups_by_dict(envs)
    perfect = perfect_sequence(envs, rho, mu_cap)
    v_star, h_star = np.empty(T), np.empty(T)
    for env, rounds in groups:
        mu_star = perfect.multipliers[rounds[:1]]
        v_star[rounds] = env.spend_value(mu_star)[1][0]
        h_star[rounds] = objective_values(env, rho, mu_star)[0]
    regrets = []
    for run in runs:
        live = ~np.isnan(run.multipliers)
        v_run, h_run = np.empty(T), np.empty(T)
        for env, rounds in groups:
            played = rounds[live[rounds]]
            if len(played):
                v_run[played] = env.spend_value(run.multipliers[played])[1]
                h_run[played] = objective_values(env, rho, run.multipliers[played])
        regrets.append(
            (float(v_star.sum() - v_run[live].sum()), float((h_run[live] - h_star[live]).sum()))
        )
    return regrets


def _switching_case():
    _agent, envs, params = regret_environment(load_scenario("regret_switching"))
    runs = simulate_pacing(
        envs, params["budget"], params["learning_rate"], params["mu_cap"], seed=5, replications=3
    )
    # Some group's breakpoints fall inside the grid of its multipliers.
    assert any(
        len(env.curve_breakpoints(np.nanmax(run.multipliers[rounds])))
        for run in runs
        for env, rounds in _groups_by_dict(envs)
    )
    return runs, envs, params["target_rate"], params["mu_cap"]


def _sweep_case(kind):
    T = 4000
    env = uniform_opponent_env(kind)
    runs = simulate_pacing(env, 0.25 * T, T**-0.5, 4.0, horizon=T, seed=9, replications=6)
    return runs, [env] * T, 0.25, 4.0


def _hand_built_case():
    # Repeated multipliers and 0 in two noised groups (one of 9 atoms), and
    # a NaN tail from the stop round on that covers the third group.
    a = EnvironmentStep(first_price(), *_atoms(11, 9, 1), eta=0.3)
    b = uniform_opponent_env(low=0.1, width=0.6)
    c = uniform_opponent_env()
    envs = [a] * 4 + [b] * 4 + [c] * 4
    mus = np.array([0.0, 0.7, 0.7, 0.0, 1.3, 0.7, 2.5, 1.3] + [math.nan] * 4)
    zeros = np.zeros(len(mus))
    run = PacingRun(
        multipliers=mus, values=zeros, bids=zeros, allocations=zeros, payments=zeros,
        stop_round=9, budget=3.0, learning_rate=0.1, mu_cap=20.0,
    )
    return [run], envs, 0.25, 20.0


REGRET_CASES = {
    "switching": _switching_case,
    "uniform-sweep": lambda: _sweep_case("first_price"),
    "uniform-sweep-second-price": lambda: _sweep_case("second_price"),
    "hand-built": _hand_built_case,
}


@pytest.mark.parametrize("case", REGRET_CASES)
def test_regret_batch_matches_the_per_group_formula(case):
    runs, envs, rho, mu_cap = REGRET_CASES[case]()
    reports = dynamic_regret_batch(runs, envs, rho, mu_cap)
    got = [(r.value_regret, r.sgd_regret) for r in reports]
    assert got == _reference_regrets(runs, envs, rho, mu_cap)


def test_distinct_groups_interleaved_environments_by_object():
    a, b, c = (uniform_opponent_env(low=low) for low in (0.0, 0.1, 0.0))  # c equals a
    envs = [a, b, a, c, b]
    got = regret._distinct(envs)
    want = _groups_by_dict(envs)
    assert len(got) == len(want) == 3
    for (env, rounds), (want_env, want_rounds) in zip(got, want):
        assert env is want_env
        assert rounds.dtype == np.int64 and rounds.tolist() == want_rounds.tolist()


def test_second_price_regret_command_is_pinned(tmp_path, capsys):
    # Its curves go through the noised second-price payment
    # (_NoisedMax.expected_below), which no golden digest covers.
    argv = ["regret", "regret_first_price_uniform", "--set", "mechanism.type=second_price",
            "-R", "2", "--horizons", "400,800",
            "-o", str(tmp_path / "sp.json"), "--curves", str(tmp_path / "sp.csv")]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    digests = {
        "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
        **{name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("sp.json", "sp.csv")},
    }
    assert digests == {
        "stdout": "acc5d7fafc55e775050a11547605e55c1bf2c86612ea760fd3ebc30946b1d156",
        "sp.json": "3ec5e3787b58dbfceec5640850bad5436176f587f8186dd849bc021201cd1e23",
        "sp.csv": "9b2d296822980100a8481094d69d120e714996f0372d02bfdc95f67261d70e06",
    }


def test_exact_curve_regret_command_is_pinned(tmp_path, capsys):
    # eta = 0: the exact first-price curve, a step function of the bid, in
    # the regret analysis and --curves.  stdout is as before the surrogate
    # integrals took their closed form; the files pin that form.
    argv = ["regret", "regret_first_price_uniform", "--set", "smoothing.eta=0",
            "-R", "2", "--horizons", "400,800",
            "-o", str(tmp_path / "e0.json"), "--curves", str(tmp_path / "e0.csv")]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    digests = {
        "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
        **{name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("e0.json", "e0.csv")},
    }
    assert digests == {
        "stdout": "d06e1393feb23d76dfc20698180ab0ee2c40add841e2d4ea557fbf2d0c8c8bdd",
        "e0.json": "ac944d64fcdbe9b6e650d6106210bece95c8cbc5ef561cbfcc1cd7f917a5ae24",
        "e0.csv": "ab913002e8ed1c7f6654cc6db409c0f9641b1d7fb9ca06a2a32317eb271a946d",
    }


# ---------------------------------------------------------------------------
# The surrogate integrals in closed form, held to adaptive Simpson


def _simpson_segments(f, lo, hi, f_lo, f_hi, tol: float) -> np.ndarray:
    """Adaptive Simpson integral of f over each [lo_i, hi_i], given f there
    as f_lo and f_hi, vectorized across segments; per-segment tolerance is
    allocated by width.  f runs only at points not yet evaluated: a
    segment's midpoint and quarter points, then each half's quarter points."""
    k = len(lo)
    total = np.zeros(k)
    width = hi - lo
    span = float(width.sum())
    if span <= 0:
        return total
    a, b, fa, fb, fm = lo, hi, f_lo, f_hi, None
    m = 0.5 * (a + b)
    owner = np.arange(k)
    seg_tol = tol * width / span
    depth = np.zeros(k, dtype=np.int64)
    while len(a):
        m1 = 0.5 * (a + m)
        m2 = 0.5 * (m + b)
        if fm is None:
            f1, fm, f2 = np.split(f(np.concatenate([m1, m, m2])), 3)
        else:
            f1, f2 = np.split(f(np.concatenate([m1, m2])), 2)
        s1 = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        s2 = (m - a) / 6.0 * (fa + 4.0 * f1 + fm) + (b - m) / 6.0 * (fm + 4.0 * f2 + fb)
        err = np.abs(s2 - s1)
        done = (err <= 15.0 * seg_tol) | (depth >= 28) | (b - a < 1e-14)
        np.add.at(total, owner[done], s2[done] + (s2[done] - s1[done]) / 15.0)
        keep = ~done
        a, fa = np.concatenate([a[keep], m[keep]]), np.concatenate([fa[keep], fm[keep]])
        b, fb = np.concatenate([m[keep], b[keep]]), np.concatenate([fm[keep], fb[keep]])
        m, fm = np.concatenate([m1[keep], m2[keep]]), np.concatenate([f1[keep], f2[keep]])
        owner = np.concatenate([owner[keep], owner[keep]])
        seg_tol = np.concatenate([seg_tol[keep] / 2.0, seg_tol[keep] / 2.0])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])
    return total


def _simpson_objective(env, rho, mus, tol=1e-13):
    """H at each of mus by adaptive Simpson over the grid of 0, mus and the
    breakpoints among them.  At a breakpoint the bid can round to either
    side of its edge, so each segment's end values are read 8 ulps of 1 + mu
    inside it, where the curve is smooth, not at its ends."""
    grid = np.unique(np.concatenate([[0.0], mus]))
    grid = np.unique(np.concatenate([grid, env.curve_breakpoints(float(grid[-1]))]))
    lo, hi = grid[:-1], grid[1:]
    inward = np.minimum(8 * np.spacing(1.0 + hi), (hi - lo) / 2)
    segs = _simpson_segments(env.spend, lo, hi, env.spend(lo + inward), env.spend(hi - inward), tol)
    h = rho * grid - np.concatenate([[0.0], np.cumsum(segs)])
    return h[np.searchsorted(grid, mus)]


INTEGRAL_KINDS = {
    # name: (mechanism, noise widths, agent index, fewest opponents)
    "noised-first_price": (first_price(), (0.05, 1.0), 0, 0),
    "noised-second_price": (second_price(), (0.05, 1.0), 0, 0),
    "exact-first_price": (first_price(), (0.0,), 0, 0),
    "exact-second_price": (second_price(), (0.0,), 0, 0),
    "exact-gsp": (gsp([1.0, 0.6]), (0.0,), 1, 1),  # as test_golden's agent one
}


@st.composite
def _integral_cases(draw, kinds=tuple(INTEGRAL_KINDS)):
    """An environment of 1-3 atoms and at most 4 opponents, whose bids often
    repeat (within an atom too) and meet, and multipliers up to value_cap/rho."""
    mechanism, widths, agent_index, fewest = INTEGRAL_KINDS[draw(st.sampled_from(kinds))]
    atoms = draw(st.integers(1, 3))
    opponents = draw(st.integers(fewest, 4))
    bid = st.sampled_from([0.0, 0.2, 0.45, 1.0]) | st.floats(0.0, 1.5)
    column = st.lists(st.floats(0.0, 2.0) | st.sampled_from([1.0]), min_size=atoms, max_size=atoms)
    values = np.array(draw(column))
    row = st.lists(bid, min_size=opponents, max_size=opponents) | bid.map(lambda d: [d] * opponents)
    comp = draw(st.lists(row, min_size=atoms, max_size=atoms))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=atoms, max_size=atoms)))
    env = EnvironmentStep(mechanism, weights / weights.sum(), values, np.array(comp).reshape(atoms, opponents),
                          eta=draw(st.sampled_from(widths)), agent_index=agent_index)
    rho = 0.25
    mus = draw(st.lists(st.floats(0.0, env.value_cap / rho), min_size=1, max_size=12))
    return env, rho, np.array(mus)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(_integral_cases())
def test_surrogate_integrals_match_adaptive_simpson(case):
    env, rho, mus = case
    h = objective_values(env, rho, mus)
    want = _simpson_objective(env, rho, mus)
    assert np.all(np.abs(h - want) <= 1e-12 * (1.0 + np.abs(want))), np.abs(h - want).max()


def test_a_segment_is_told_by_its_middle_bid():
    # The bid at the breakpoint 1/0.45 - 1 rounds just below the competing
    # bid 0.45, so a segment told by its lower bid would drop all of
    # [1/0.7 - 1, 1/0.45 - 1], where F = (b - 0.45)/0.25.
    env = EnvironmentStep(first_price(), [1.0], [1.0], [[0.45]], eta=0.25)
    edge = 1 / 0.45 - 1
    assert 1.0 / (1.0 + edge) < 0.45
    mus = np.array([edge, 2.0, 3.0])
    spent = math.log(1 / 0.7) + 1.0 - 1.8 * math.log(0.7 / 0.45)
    assert objective_values(env, 0.25, mus) == pytest.approx(0.25 * mus - spent, abs=1e-15, rel=0)


@pytest.mark.parametrize("mechanism", [first_price(), second_price()], ids=["first", "second"])
def test_clustered_bids_are_integrated_to_rounding(mechanism):
    # Four opponents at 1 and eta = 0.05: on (1, 1.05), F = ((b - 1)/0.05)^4
    # has monomials in b up to 1.6e6 while F <= 1; they would cancel to about
    # 1e-10, so a piece that far above 0 is centred.
    env = EnvironmentStep(mechanism, [1.0], [2.0], [[1.0] * 4], eta=0.05)
    mus = np.linspace(0.0, 8.0, 401)
    h = objective_values(env, 0.25, mus)
    np.testing.assert_allclose(h, _simpson_objective(env, 0.25, mus), rtol=0, atol=1e-14)


def test_uniform_objective_is_exact():
    env = uniform_opponent_env()
    mus = np.linspace(0.0, 4.0, 3001)
    h = objective_values(env, 0.25, mus)
    np.testing.assert_allclose(h, 0.25 * mus - 1.0 + 1.0 / (1.0 + mus), rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", POINTWISE_ENVS)
def test_objective_is_zero_at_zero(name):
    env = POINTWISE_ENVS[name]()
    assert surrogate_objective(env, 0.25, 0.0) == 0.0
    assert objective_values(env, 0.25, np.array([2.0, 0.0, 6.0]))[1] == 0.0

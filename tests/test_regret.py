"""Expected spend/value curves, perfect pacing, the surrogate objective,
and dynamic regret of simulated pacing runs."""

import math

import numpy as np
import pytest

from pacesim import (
    EnvironmentStep,
    Mechanism,
    Polymatroid,
    allocate,
    surrogate_objective,
    dynamic_regret,
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
from pacesim.regret import objective_values


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
            report = dynamic_regret(run, env, rho, 1.0)
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


def _pacing_reference(envs, budget, learning_rate, mu_cap, seed, replications):
    # Scalar reference: each replication redraws its atoms and noise from
    # its own Philox child (atom uniforms for all rounds, then noise for
    # every round and opponent) and plays each round through the scalar
    # allocate and pacing compute_bid/update.
    T = len(envs)
    cfg = AgentConfig(budget=budget, horizon=T, learning_rate=learning_rate, mu_cap=mu_cap,
                      value_cap=max(env.value_cap for env in envs))
    out = []
    for child in np.random.SeedSequence(seed).spawn(replications):
        rng = np.random.Generator(np.random.Philox(child))
        atom_u = rng.random(T)
        noise = rng.random((T, envs[0].n_opponents))
        rows = {name: np.zeros(T) for name in ("mu", "v", "bid", "x", "z")}
        state = init_state(cfg)
        stop_round = T + 1
        for t, env in enumerate(envs):
            atom, cum = env.n_atoms - 1, 0.0
            for s, p in enumerate(env.probs):
                cum += p
                if atom_u[t] < cum:
                    atom = s
                    break
            comp = [float(c) + (env.eta * float(u) if env.eta > 0 else 0.0)
                    for c, u in zip(env.competing_bids[atom], noise[t])]
            value = float(env.values[atom])
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

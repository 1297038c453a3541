"""Bundled scenario files and the environment construction for regret runs.

The welfare suite covers two, three, and five agents across second-price,
first-price, and GSP mechanisms at a common horizon; the regret bundle
provides the smoothed first-price environment and a piecewise (switching)
variant.
"""

from __future__ import annotations

import copy
from importlib import resources

import numpy as np

from .config import Scenario, parse_scenario, validate_scenario
from .errors import ConfigurationError, EnvironmentError_
from .regret import EnvironmentStep
from .simulation import PacedAgent, ScriptedAgent

WELFARE_SUITE = (
    "welfare_uncontested_second_price",
    "welfare_symmetric_second_price",
    "welfare_first_price_three",
    "welfare_gsp_five",
    "welfare_contested_paced_pair",
)

BUNDLED = WELFARE_SUITE + (
    "counterexample",
    "regret_first_price_uniform",
    "regret_switching",
)


def scenario_text(name: str) -> str:
    fname = name if name.endswith(".json") else name + ".json"
    ref = resources.files("pacesim.data").joinpath(fname)
    if not ref.is_file():
        raise ConfigurationError(f"no bundled scenario named {name!r}")
    return ref.read_text()


def load_scenario(name: str) -> Scenario:
    return parse_scenario(scenario_text(name))


def _at_horizon(scenario: Scenario, T: int, text: str = "", **fields) -> Scenario:
    """The scenario at horizon T, each budget scaled by T over its own
    horizon (which must be positive, keeping the per-round target), with
    the given top-level fields replaced; errors are anchored in text, the
    scenario's own."""
    if scenario.config.horizon < 1:
        raise ConfigurationError(
            f"regret needs a horizon of at least 1, got {scenario.config.horizon}", ("horizon",)
        )
    doc = copy.deepcopy(scenario.doc)
    doc["horizon"] = T
    for agent_doc in doc["agents"]:
        agent_doc["budget"] = agent_doc["budget"] * T / scenario.config.horizon
    doc.update(fields)
    return validate_scenario(doc, text)


def regret_environment(scenario: Scenario) -> tuple[int, list[EnvironmentStep], dict]:
    """Reconstruct the focal agent's per-round environments from a scenario.

    Requires exactly one paced agent; all opponents must be scripted, since
    only scripted bid processes are reconstructible as per-round
    distributions.  Returns (agent index, one environment per round, agent
    parameters).  Environments are shared objects within each script
    segment, so downstream caches collapse piecewise-constant stretches.
    The perfect multiplier's search needs the agent's mu_cap >= value_cap / rho.
    """
    config = scenario.config
    paced = [k for k, a in enumerate(config.agents) if isinstance(a, PacedAgent)]
    if len(paced) != 1:
        raise EnvironmentError_(
            f"regret analysis needs exactly one paced agent, found {len(paced)}"
        )
    agent = paced[0]
    horizon = config.horizon
    if horizon < 1:
        raise EnvironmentError_("regret analysis needs a positive horizon")
    opponents = [a for k, a in enumerate(config.agents) if k != agent]
    if not all(isinstance(a, ScriptedAgent) for a in opponents):
        raise EnvironmentError_("opponents must be scripted")

    opp_bids = np.column_stack(
        [a.bids_over(horizon) for a in opponents]
    ) if opponents else np.zeros((horizon, 0))
    eta = scenario.smoothing_eta or 0.0
    model = config.value_model

    envs: list[EnvironmentStep] = []
    cache: dict[tuple, EnvironmentStep] = {}
    for t in range(horizon):
        key = tuple(opp_bids[t])
        if key not in cache:
            comp = np.tile(opp_bids[t], (model.support_size, 1))
            cache[key] = EnvironmentStep(
                mechanism=config.mechanism,
                probs=model.probs,
                values=model.profiles[:, agent],
                competing_bids=comp,
                eta=eta,
                agent_index=agent,
            )
        envs.append(cache[key])

    spec = config.agents[agent]
    cfg = config.agent_config(agent)
    floor = envs[0].value_cap / cfg.target_rate
    if cfg.mu_cap < floor:
        raise ConfigurationError(
            f"regret needs mu_cap >= value_cap / rho = {floor}, got {cfg.mu_cap}",
            ("agents", agent, "mu_cap"),
        )
    params = {
        "budget": spec.budget,
        "learning_rate": cfg.learning_rate,
        "mu_cap": cfg.mu_cap,
        "target_rate": cfg.target_rate,
    }
    return agent, envs, params

"""Scenario files: a single JSON document describing one simulation setup.

Sections: mechanism {type, click_rates}, agents (paced {budget,
learning_rate, mu_cap} or scripted {budget, script}), value_model
{support: [{prob, values}]}, horizon, seed, and the optional replications
and smoothing {eta}.  Validation is strict: unknown keys are rejected and
every error carries the best line anchor available from the raw text.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .auctions import FIRST_PRICE, GSP, SECOND_PRICE, Mechanism, Polymatroid, SingleSlot
from .errors import ConfigurationError
from .simulation import (
    PacedAgent,
    ScriptedAgent,
    SimulationConfig,
    ValueModel,
)


class SchemaError(ConfigurationError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


_TOP_KEYS = {"mechanism", "agents", "value_model", "horizon", "seed", "replications", "smoothing"}
_REQUIRED = {"mechanism", "agents", "value_model", "horizon"}


@dataclass(frozen=True)
class Scenario:
    config: SimulationConfig
    replications: int | None
    smoothing_eta: float | None
    doc: dict


def _line_of(text: str, key: str) -> int | None:
    needle = f'"{key}"'
    pos = text.find(needle)
    if pos < 0:
        return None
    return text.count("\n", 0, pos) + 1


def _fail(text: str, key: str, message: str):
    raise SchemaError(message, _line_of(text, key))


def _check_keys(obj: dict, allowed: set, where: str, text: str):
    for key in obj:
        if key not in allowed:
            _fail(text, key, f"unknown key {key!r} in {where}")


def _number(obj, key, where, text, minimum=None, integer=False):
    if key not in obj:
        _fail(text, where, f"{where}.{key} is required")
    return _real(obj[key], f"{where}.{key}", text, key, minimum, integer)


def _real(val, what, text, anchor, minimum=None, integer=False):
    """A JSON number within float range; bools, strings and null are refused."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(text, anchor, f"{what} must be a number")
    if not abs(val) <= sys.float_info.max:
        _fail(text, anchor, f"{what} must be finite, got {val}")
    if integer and int(val) != val:
        _fail(text, anchor, f"{what} must be an integer")
    if minimum is not None and val < minimum:
        _fail(text, anchor, f"{what} must be >= {minimum}")
    return int(val) if integer else float(val)


def _mechanism(doc: dict, text: str) -> Mechanism:
    obj = doc["mechanism"]
    if not isinstance(obj, dict):
        _fail(text, "mechanism", "mechanism must be an object")
    _check_keys(obj, {"type", "click_rates"}, "mechanism", text)
    kind = obj.get("type")
    if kind not in (FIRST_PRICE, SECOND_PRICE, GSP):
        _fail(text, "type", f"mechanism.type must be one of first_price, second_price, gsp")
    rates = obj.get("click_rates")
    if kind == SECOND_PRICE and rates is not None:
        _fail(text, "click_rates", "second_price does not take click_rates")
    if kind == GSP and rates is None:
        _fail(text, "click_rates", "gsp requires click_rates")
    try:
        if rates is None:
            return Mechanism(kind, SingleSlot())
        rates = tuple(_real(a, "a click rate", text, "click_rates") for a in rates)
        return Mechanism(kind, Polymatroid(rates))
    except (ConfigurationError, TypeError, ValueError) as exc:
        _fail(text, "click_rates", f"bad click_rates: {exc}")


def _agents(doc: dict, text: str) -> tuple:
    items = doc["agents"]
    if not isinstance(items, list) or not items:
        _fail(text, "agents", "agents must be a non-empty list")
    specs = []
    for i, obj in enumerate(items):
        where = f"agents[{i}]"
        if not isinstance(obj, dict):
            _fail(text, "agents", f"{where} must be an object")
        if "script" in obj:
            _check_keys(obj, {"budget", "script"}, where, text)
            script = obj["script"]
            if not isinstance(script, dict):
                _fail(text, "script", f"{where}.script must be an object")
            _check_keys(script, {"bid", "schedule"}, f"{where}.script", text)
            budget = _number(obj, "budget", where, text)
            try:
                if "schedule" in script:
                    schedule = tuple(
                        (_real(u, "a round", text, "schedule", integer=True),
                         _real(b, "a bid", text, "schedule"))
                        for u, b in script["schedule"]
                    )
                    specs.append(ScriptedAgent(budget=budget, schedule=schedule))
                else:
                    bid = _number(script, "bid", f"{where}.script", text)
                    specs.append(ScriptedAgent(budget=budget, bid=bid))
            except (ConfigurationError, TypeError, ValueError) as exc:
                _fail(text, "script", f"bad {where}.script: {exc}")
        else:
            _check_keys(obj, {"budget", "learning_rate", "mu_cap"}, where, text)
            budget = _number(obj, "budget", where, text)
            lr, cap = (
                None if obj.get(key) is None else _number(obj, key, where, text)
                for key in ("learning_rate", "mu_cap")
            )
            try:
                specs.append(PacedAgent(budget=budget, learning_rate=lr, mu_cap=cap))
            except ConfigurationError as exc:
                _fail(text, "budget", f"bad {where}: {exc}")
    return tuple(specs)


def _value_model(doc: dict, text: str, n_agents: int) -> ValueModel:
    obj = doc["value_model"]
    if not isinstance(obj, dict):
        _fail(text, "value_model", "value_model must be an object")
    _check_keys(obj, {"support", "labels"}, "value_model", text)
    support = obj.get("support")
    if not isinstance(support, list) or not support:
        _fail(text, "support", "value_model.support must be a non-empty list")
    probs = []
    profiles = []
    for i, point in enumerate(support):
        if not isinstance(point, dict):
            _fail(text, "support", f"support[{i}] must be an object")
        _check_keys(point, {"prob", "values"}, f"support[{i}]", text)
        probs.append(_number(point, "prob", f"support[{i}]", text, minimum=0.0))
        values = point.get("values")
        if not isinstance(values, list) or len(values) != n_agents:
            _fail(
                text,
                "values",
                f"support[{i}].values must list one value per agent ({n_agents})",
            )
        profiles.append([_real(v, f"a support[{i}] value", text, "values") for v in values])
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        _fail(text, "labels", "value_model.labels must be a list")
    try:
        return ValueModel(
            probs=probs,
            profiles=profiles,
            labels=None if labels is None else tuple(str(s) for s in labels),
        )
    except ConfigurationError as exc:
        _fail(text, "support", str(exc))


def validate_scenario(doc: dict, text: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object", 1)
    _check_keys(doc, _TOP_KEYS, "scenario", text)
    for key in _REQUIRED:
        if key not in doc:
            raise SchemaError(f"missing required section {key!r}", 1)
    mechanism = _mechanism(doc, text)
    agents = _agents(doc, text)
    model = _value_model(doc, text, len(agents))
    horizon = _number(doc, "horizon", "scenario", text, minimum=0, integer=True)
    seed = 0
    if "seed" in doc:
        seed = _number(doc, "seed", "scenario", text, minimum=0, integer=True)
    replications = None
    if "replications" in doc:
        replications = _number(doc, "replications", "scenario", text, minimum=1, integer=True)
    eta = None
    if "smoothing" in doc:
        smoothing = doc["smoothing"]
        if not isinstance(smoothing, dict):
            _fail(text, "smoothing", "smoothing must be an object")
        _check_keys(smoothing, {"eta"}, "smoothing", text)
        eta = _number(smoothing, "eta", "smoothing", text, minimum=0.0)
    try:
        config = SimulationConfig(
            mechanism=mechanism,
            agents=agents,
            value_model=model,
            horizon=horizon,
            seed=seed,
        )
    except ConfigurationError as exc:
        raise SchemaError(str(exc), 1)
    return Scenario(config=config, replications=replications, smoothing_eta=eta, doc=doc)


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", exc.lineno)
    return validate_scenario(doc, text)


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply --set dotted-path overrides (e.g. agents.0.budget=50) to a
    parsed document; values are parsed as JSON scalars, falling back to
    strings."""
    for assignment in assignments:
        if "=" not in assignment:
            raise SchemaError(f"override {assignment!r} must look like path=value")
        path, raw = assignment.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer too long to convert
            value = raw
        parts = path.split(".")
        target = doc
        for i, part in enumerate(parts[:-1]):
            key = int(part) if part.lstrip("-").isdigit() else part
            try:
                target = target[key]
            except (KeyError, IndexError, TypeError):
                raise SchemaError(f"override path {path!r} not found at {part!r}")
        last = parts[-1]
        key = int(last) if last.lstrip("-").isdigit() else last
        try:
            target[key]
        except (KeyError, IndexError, TypeError):
            raise SchemaError(f"override path {path!r} not found at {last!r}")
        target[key] = value
    return doc

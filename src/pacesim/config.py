"""Scenario files: a single JSON document describing one simulation setup.

Sections: mechanism {type, click_rates}, agents (paced {budget,
learning_rate, mu_cap} or scripted {budget, script}), value_model
{support: [{prob, values}]}, horizon, seed, and the optional replications
and smoothing {eta}.  Validation is strict: unknown keys are rejected and
every error is anchored at the line of the offending value, found by its
dotted path (say agents.1.learning_rate) in the raw text.
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


_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE  # [ \t\n\r]*


def _line_of(text: str, path: tuple) -> int | None:
    """Line of the value at the dotted path (keys and list indices) in the
    raw JSON text, or of the deepest part of the path the text holds (an
    override may have replaced the rest); None without a text."""
    if not text.strip():
        return None
    pos, found = _SPACE.match(text).end(), None
    try:
        for part in path:  # find member `part` of the object or array at pos
            i, index, found = _SPACE.match(text, pos + 1).end(), 0, None
            while text[pos] in "{[" and text[i] not in "]}":
                key = index
                if text[pos] == "{":
                    key, i = json.decoder.scanstring(text, i + 1)
                    i = _SPACE.match(text, text.index(":", i) + 1).end()
                found, index = (i if key == part else found), index + 1  # the last key counts
                i = _SPACE.match(text, _DECODER.raw_decode(text, i)[1]).end()
                i = _SPACE.match(text, i + (text[i] == ",")).end()
            if found is None:
                break
            pos = found
    except (LookupError, ValueError, RecursionError):  # malformed, or nested too deeply
        if found is not None:  # the member found before the scan stopped
            pos = found
    return text.count("\n", 0, pos) + 1


def _fail(text: str, path: tuple, message: str):
    raise SchemaError(message, _line_of(text, path))


def _check_keys(obj: dict, allowed: set, where: str, text: str, path: tuple):
    for key in obj:
        if key not in allowed:
            _fail(text, path + (key,), f"unknown key {key!r} in {where}")


def _number(obj, key, where, text, path, minimum=None, integer=False):
    if key not in obj:
        _fail(text, path, f"{where}.{key} is required")
    return _real(obj[key], f"{where}.{key}", text, path + (key,), minimum, integer)


def _real(val, what, text, path, minimum=None, integer=False):
    """A JSON number within float range; bools, strings and null are refused."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(text, path, f"{what} must be a number")
    if not abs(val) <= sys.float_info.max:
        _fail(text, path, f"{what} must be finite, got {val}")
    if integer and int(val) != val:
        _fail(text, path, f"{what} must be an integer")
    if minimum is not None and val < minimum:
        _fail(text, path, f"{what} must be >= {minimum}")
    return int(val) if integer else float(val)


def _mechanism(doc: dict, text: str) -> Mechanism:
    obj = doc["mechanism"]
    path = ("mechanism",)
    if not isinstance(obj, dict):
        _fail(text, path, "mechanism must be an object")
    _check_keys(obj, {"type", "click_rates"}, "mechanism", text, path)
    kind = obj.get("type")
    if kind not in (FIRST_PRICE, SECOND_PRICE, GSP):
        _fail(text, path + ("type",), f"mechanism.type must be one of first_price, second_price, gsp")
    rates = obj.get("click_rates")
    path += ("click_rates",)
    if kind == SECOND_PRICE and rates is not None:
        _fail(text, path, "second_price does not take click_rates")
    if kind == GSP and rates is None:
        _fail(text, ("mechanism",), "gsp requires click_rates")
    try:
        if rates is None:
            return Mechanism(kind, SingleSlot())
        rates = tuple(_real(a, "a click rate", text, path + (j,)) for j, a in enumerate(rates))
        return Mechanism(kind, Polymatroid(rates))
    except SchemaError as exc:
        raise SchemaError(f"bad click_rates: {exc}", exc.line)
    except (ConfigurationError, TypeError, ValueError) as exc:
        _fail(text, path, f"bad click_rates: {exc}")


def _agents(doc: dict, text: str) -> tuple:
    items = doc["agents"]
    if not isinstance(items, list) or not items:
        _fail(text, ("agents",), "agents must be a non-empty list")
    specs = []
    for i, obj in enumerate(items):
        where = f"agents[{i}]"
        path = ("agents", i)
        if not isinstance(obj, dict):
            _fail(text, path, f"{where} must be an object")
        if "script" in obj:
            _check_keys(obj, {"budget", "script"}, where, text, path)
            script = obj["script"]
            spath = path + ("script",)
            if not isinstance(script, dict):
                _fail(text, spath, f"{where}.script must be an object")
            _check_keys(script, {"bid", "schedule"}, f"{where}.script", text, spath)
            budget = _number(obj, "budget", where, text, path)
            try:
                if "schedule" in script:
                    seg = spath + ("schedule",)
                    schedule = tuple(
                        (_real(u, "a round", text, seg + (j, 0), integer=True),
                         _real(b, "a bid", text, seg + (j, 1)))
                        for j, (u, b) in enumerate(script["schedule"])
                    )
                    specs.append(ScriptedAgent(budget=budget, schedule=schedule))
                else:
                    bid = _number(script, "bid", f"{where}.script", text, spath)
                    specs.append(ScriptedAgent(budget=budget, bid=bid))
            except SchemaError as exc:
                raise SchemaError(f"bad {where}.script: {exc}", exc.line)
            except ConfigurationError as exc:
                field = path + ("budget",) if str(exc).startswith("budget") else spath
                _fail(text, field, f"bad {where}.script: {exc}")
            except (TypeError, ValueError) as exc:  # a schedule entry that is no pair
                _fail(text, spath + ("schedule",), f"bad {where}.script: {exc}")
        else:
            _check_keys(obj, {"budget", "learning_rate", "mu_cap"}, where, text, path)
            budget = _number(obj, "budget", where, text, path)
            lr, cap = (
                None if obj.get(key) is None else _number(obj, key, where, text, path)
                for key in ("learning_rate", "mu_cap")
            )
            try:
                specs.append(PacedAgent(budget=budget, learning_rate=lr, mu_cap=cap))
            except ConfigurationError as exc:
                _fail(text, path + (str(exc).split()[0],), f"bad {where}: {exc}")  # the field
    return tuple(specs)


def _value_model(doc: dict, text: str, n_agents: int) -> ValueModel:
    obj = doc["value_model"]
    path = ("value_model",)
    if not isinstance(obj, dict):
        _fail(text, path, "value_model must be an object")
    _check_keys(obj, {"support", "labels"}, "value_model", text, path)
    support = obj.get("support")
    if not isinstance(support, list) or not support:
        _fail(text, path + ("support",), "value_model.support must be a non-empty list")
    probs = []
    profiles = []
    for i, point in enumerate(support):
        ppath = path + ("support", i)
        if not isinstance(point, dict):
            _fail(text, ppath, f"support[{i}] must be an object")
        _check_keys(point, {"prob", "values"}, f"support[{i}]", text, ppath)
        probs.append(_number(point, "prob", f"support[{i}]", text, ppath, minimum=0.0))
        values = point.get("values")
        vpath = ppath + ("values",)
        if not isinstance(values, list) or len(values) != n_agents:
            _fail(text, vpath, f"support[{i}].values must list one value per agent ({n_agents})")
        profiles.append(
            [_real(v, f"a support[{i}] value", text, vpath + (j,)) for j, v in enumerate(values)]
        )
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        _fail(text, path + ("labels",), "value_model.labels must be a list")
    try:
        return ValueModel(
            probs=probs,
            profiles=profiles,
            labels=None if labels is None else tuple(str(s) for s in labels),
        )
    except ConfigurationError as exc:
        _fail(text, path + ("support",), str(exc))


def validate_scenario(doc: dict, text: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object", 1)
    _check_keys(doc, _TOP_KEYS, "scenario", text, ())
    for key in _REQUIRED:
        if key not in doc:
            raise SchemaError(f"missing required section {key!r}", 1)
    mechanism = _mechanism(doc, text)
    agents = _agents(doc, text)
    model = _value_model(doc, text, len(agents))
    horizon = _number(doc, "horizon", "scenario", text, (), minimum=0, integer=True)
    seed = 0
    if "seed" in doc:
        seed = _number(doc, "seed", "scenario", text, (), minimum=0, integer=True)
    replications = None
    if "replications" in doc:
        replications = _number(doc, "replications", "scenario", text, (), minimum=1, integer=True)
    eta = None
    if "smoothing" in doc:
        smoothing = doc["smoothing"]
        path = ("smoothing",)
        if not isinstance(smoothing, dict):
            _fail(text, path, "smoothing must be an object")
        _check_keys(smoothing, {"eta"}, "smoothing", text, path)
        eta = _number(smoothing, "eta", "smoothing", text, path, minimum=0.0)
    try:
        config = SimulationConfig(
            mechanism=mechanism,
            agents=agents,
            value_model=model,
            horizon=horizon,
            seed=seed,
        )
    except ConfigurationError as exc:  # anchored at the entry at fault, if it says which
        raise SchemaError(str(exc), _line_of(text, exc.path) or 1)
    return Scenario(config=config, replications=replications, smoothing_eta=eta, doc=doc)


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer too long, or deep nesting
        raise SchemaError(f"invalid JSON: {getattr(exc, 'msg', exc)}", getattr(exc, "lineno", 1))
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
        except RecursionError:
            raise SchemaError(f"override {path!r}: value nested too deeply") from None
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

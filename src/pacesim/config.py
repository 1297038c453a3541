"""Scenario files: a single JSON document describing one simulation setup.

Sections: mechanism {type, click_rates}, agents (paced {budget,
learning_rate, mu_cap} or scripted {budget, script}), value_model
{support: [{prob, values}], labels}, horizon, seed, and the optional
replications and smoothing {eta}.

This module checks the JSON's shape only: objects, lists and numbers (no
bools) where they belong, no unknown or missing key, one value per agent,
numbers a float can hold.  Every rule on a value (finite, sign, range,
integer, order, sum, consistency) lives on the dataclass that holds it,
which raises ConfigurationError with the value's path; `anchored` reports
either kind of error at the line of its path in the raw text.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass

from .auctions import Mechanism, Polymatroid, SingleSlot
from .errors import ConfigurationError
from .simulation import (
    PacedAgent,
    ScriptedAgent,
    SimulationConfig,
    ValueModel,
    _check_number,
)


class SchemaError(ConfigurationError):
    """A scenario error at a line of the document's text (None without one)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


_TOP_KEYS = {"mechanism", "agents", "value_model", "horizon", "seed", "replications", "smoothing"}
_REQUIRED = ("mechanism", "agents", "value_model", "horizon")


@dataclass(frozen=True)
class Scenario:
    """A simulation and the document's run settings, if given: a positive
    integer of replications and a finite, non-negative bid-noise width."""

    config: SimulationConfig
    replications: int | None
    smoothing_eta: float | None
    doc: dict

    def __post_init__(self):
        if self.replications is not None:
            _check_number(self, "replications", positive=True, integer=True)
        _check_number(self, "smoothing_eta", path=("smoothing", "eta"))


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


def _name(path: tuple) -> str:
    """A path as the messages spell it: agents[1].budget."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:] or "scenario"


@contextlib.contextmanager
def anchored(text: str, at: tuple = ()):
    """Raise a ConfigurationError from the block as a SchemaError at the
    line, in the document text, of the value at `at` + the error's path.
    Below the root, the message names the object at `at`."""
    try:
        yield
    except SchemaError:  # anchored in an inner block
        raise
    except ConfigurationError as exc:
        message = f"bad {_name(at)}: {exc}" if at else str(exc)
        raise SchemaError(message, _line_of(text, at + exc.path)) from exc


def _need(ok, path: tuple, message: str) -> None:
    if not ok:
        raise ConfigurationError(f"{_name(path)} {message}", path)


def _object(node, path: tuple, keys) -> dict:
    """node, a JSON object with no key outside keys."""
    _need(isinstance(node, dict), path, "must be an object")
    for key in node:
        if key not in keys:
            raise ConfigurationError(f"unknown key {key!r} in {_name(path)}", path + (key,))
    return node


def _real(val, path: tuple, integer: bool = False):
    """A JSON number a float can hold: a float, or as given if integer."""
    _need(not isinstance(val, bool) and isinstance(val, (int, float)), path, "must be a number")
    try:
        real = float(val)
    except OverflowError:  # an integer beyond float range
        raise ConfigurationError(f"{_name(path)} must be finite, got {val}", path) from None
    return val if integer else real


def _number(obj: dict, key: str, path: tuple, integer: bool = False):
    _need(key in obj, path + (key,), "is required")
    return _real(obj[key], path + (key,), integer)


def _mechanism(obj, text: str) -> Mechanism:
    path = ("mechanism",)
    _object(obj, path, {"type", "click_rates"})
    rates = obj.get("click_rates")
    if rates is not None:
        _need(isinstance(rates, list), path + ("click_rates",), "must be a list")
        rates = tuple(_real(a, path + ("click_rates", j)) for j, a in enumerate(rates))
    with anchored(text, path):
        return Mechanism(obj.get("type"), SingleSlot() if rates is None else Polymatroid(rates))


def _agent(obj, path: tuple, text: str):
    scripted = isinstance(obj, dict) and "script" in obj
    _object(obj, path, {"budget", "script"} if scripted else {"budget", "learning_rate", "mu_cap"})
    fields = {"budget": _number(obj, "budget", path)}
    spath = path + ("script",)
    script = _object(obj["script"], spath, {"bid", "schedule"}) if scripted else {}
    if not scripted:
        for key in ("learning_rate", "mu_cap"):
            fields[key] = None if obj.get(key) is None else _real(obj[key], path + (key,))
    elif "schedule" not in script:
        fields["bid"] = _number(script, "bid", spath)
    else:
        seg, entries = spath + ("schedule",), script["schedule"]
        pairs = isinstance(entries, list) and all(isinstance(e, list) and len(e) == 2 for e in entries)
        _need(pairs, seg, "must be a list of [round, bid] pairs")
        fields["schedule"] = tuple(
            (_real(u, seg + (j, 0), integer=True), _real(b, seg + (j, 1)))
            for j, (u, b) in enumerate(entries)
        )
    with anchored(text, path):
        return (ScriptedAgent if scripted else PacedAgent)(**fields)


def _value_model(obj, n_agents: int, text: str) -> ValueModel:
    path = ("value_model",)
    _object(obj, path, {"support", "labels"})
    support = obj.get("support")
    _need(isinstance(support, list) and support, path + ("support",), "must be a non-empty list")
    probs = []
    profiles = []
    for i, point in enumerate(support):
        ppath = path + ("support", i)
        probs.append(_number(_object(point, ppath, {"prob", "values"}), "prob", ppath))
        values = point.get("values")
        vpath = ppath + ("values",)
        ok = isinstance(values, list) and len(values) == n_agents
        _need(ok, vpath, f"must list one value per agent ({n_agents})")
        profiles.append([_real(v, vpath + (j,)) for j, v in enumerate(values)])
    labels = obj.get("labels")
    _need(labels is None or isinstance(labels, list), path + ("labels",), "must be a list")
    for i, label in enumerate(labels or ()):
        _need(isinstance(label, str), path + ("labels", i), "must be a string")
    with anchored(text, path):
        return ValueModel(
            probs=probs,
            profiles=profiles,
            labels=None if labels is None else tuple(labels),
        )


def validate_scenario(doc, text: str = "") -> Scenario:
    """The Scenario a decoded document describes; text, the document's raw
    JSON if there is one, anchors each error at its line."""
    with anchored(text):
        _object(doc, (), _TOP_KEYS)
        for key in _REQUIRED:
            _need(key in doc, (key,), "is required")
        mechanism = _mechanism(doc["mechanism"], text)
        items = doc["agents"]
        _need(isinstance(items, list) and items, ("agents",), "must be a non-empty list")
        agents = tuple(_agent(obj, ("agents", i), text) for i, obj in enumerate(items))
        model = _value_model(doc["value_model"], len(agents), text)
        config = SimulationConfig(
            mechanism=mechanism,
            agents=agents,
            value_model=model,
            horizon=_real(doc["horizon"], ("horizon",), integer=True),
            seed=_real(doc["seed"], ("seed",), integer=True) if "seed" in doc else 0,
        )
        replications = eta = None
        if "replications" in doc:
            replications = _real(doc["replications"], ("replications",), integer=True)
        if "smoothing" in doc:
            smoothing = _object(doc["smoothing"], ("smoothing",), {"eta"})
            eta = _number(smoothing, "eta", ("smoothing",))
        return Scenario(config=config, replications=replications, smoothing_eta=eta, doc=doc)


def decode_json(text: str):
    """The JSON value in text; invalid JSON is a SchemaError at its line."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer too long, or deep nesting
        raise SchemaError(f"invalid JSON: {getattr(exc, 'msg', exc)}", getattr(exc, "lineno", 1))


def parse_scenario(text: str) -> Scenario:
    return validate_scenario(decode_json(text), text)


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
        target = parent = doc
        for part in path.split("."):
            key = int(part) if part.lstrip("-").isdigit() else part
            members = target if isinstance(target, (dict, list)) else {}  # a scalar has none
            try:
                target, parent = members[key], target
            except (KeyError, IndexError, TypeError):
                raise SchemaError(f"override path {path!r} not found at {part!r}")
        parent[key] = value
    return doc

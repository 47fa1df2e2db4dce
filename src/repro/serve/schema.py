"""Request/response schema for the floorplanning service.

JSON carries every scalar surface: Python's ``json`` emits
``repr``-quality floats and parses them back to the exact same double,
so a reward or coordinate that crosses the wire round-trips bit for
bit — the serve layer's bitwise-parity guarantee needs no side-channel
hex encoding.  Binary surfaces (policy upload) reuse the
:mod:`repro.nn.serialization` payload format — the same sealed,
versioned, integrity-checked bytes the collection workers receive in
the per-epoch weight broadcast.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.report import MethodResult
from repro.experiments.runner import METHOD_ORDER, ExperimentBudget

__all__ = [
    "BadRequest",
    "budget_from_dict",
    "budget_to_dict",
    "breakdown_to_dict",
    "method_result_to_dict",
    "parse_place_request",
    "parse_evaluate_request",
    "parse_rollout_request",
]

#: ExperimentBudget fields that are tuples — JSON turns them into lists
#: on the wire, so decoding must restore them before the (frozen,
#: hash-keyed) dataclass is rebuilt.
_TUPLE_BUDGET_FIELDS = ("position_samples",)

_BUDGET_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ExperimentBudget)
)

#: Budget fields that claim host resources — forked collection
#: workers, a TCP coordinator bound on a chosen address.  They are the
#: operator's to set, never an HTTP client's: a request may only carry
#: their defaults (as every ``budget_to_dict`` output does).
_HOST_BUDGET_FIELDS = ("collect_jobs", "collect_workers", "collect_bind")
_DEFAULT_BUDGET = ExperimentBudget()


class BadRequest(ValueError):
    """Client error: malformed or semantically invalid request body."""


def budget_to_dict(budget: ExperimentBudget) -> dict:
    """JSON-safe budget encoding (the exact ``submit`` wire format)."""
    return dataclasses.asdict(budget)


def budget_from_dict(data: dict) -> ExperimentBudget:
    """Rebuild a budget from its wire encoding.

    Unknown fields are rejected rather than ignored — a typo'd knob
    silently running at its default would poison the memoization key's
    meaning (the caller thinks it asked for something it didn't).  So
    are non-default host-resource fields (:data:`_HOST_BUDGET_FIELDS`).
    """
    if not isinstance(data, dict):
        raise BadRequest("budget must be a JSON object")
    unknown = set(data) - _BUDGET_FIELDS
    if unknown:
        raise BadRequest(f"unknown budget fields {sorted(unknown)!r}")
    decoded = dict(data)
    for name in _TUPLE_BUDGET_FIELDS:
        if name in decoded and isinstance(decoded[name], list):
            decoded[name] = tuple(decoded[name])
    try:
        budget = ExperimentBudget(**decoded)
    except (TypeError, ValueError) as error:
        raise BadRequest(f"invalid budget: {error}") from error
    for name in _HOST_BUDGET_FIELDS:
        if getattr(budget, name) != getattr(_DEFAULT_BUDGET, name):
            raise BadRequest(
                f"budget field {name!r} claims server resources and "
                f"must stay at its default {getattr(_DEFAULT_BUDGET, name)!r}"
            )
    return budget


def breakdown_to_dict(breakdown) -> dict:
    """RewardBreakdown -> JSON."""
    return dataclasses.asdict(breakdown)


def method_result_to_dict(result: MethodResult) -> dict:
    """MethodResult -> JSON.  ``runtime_s`` is wall clock (never part of
    the bitwise-parity surface) but is reported for observability."""
    return {
        "system": result.system,
        "method": result.method,
        "reward": result.reward,
        "wirelength": result.wirelength,
        "temperature_c": result.temperature_c,
        "runtime_s": result.runtime_s,
        "extra": dict(result.extra),
    }


def _require(body: dict, field: str, types, what: str):
    value = body.get(field)
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise BadRequest(f"{field!r} must be {what}")
    return value


def parse_place_request(body: dict) -> dict:
    """Validate a ``POST /v1/place`` body.

    ``{"system": <benchmark name>, "method": <METHOD_ORDER member>,
    "budget": {...}}`` — the budget object is optional and defaults to
    ``ExperimentBudget()``, exactly like the CLI.
    """
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    system = _require(body, "system", str, "a benchmark name string")
    method = _require(body, "method", str, "a method name string")
    if method not in METHOD_ORDER:
        raise BadRequest(
            f"unknown method {method!r}; available: {list(METHOD_ORDER)}"
        )
    budget = budget_from_dict(body.get("budget") or {})
    return {"system": system, "method": method, "budget": budget}


def parse_evaluate_request(body: dict) -> dict:
    """Validate a ``POST /v1/evaluate`` body.

    ``{"system": <name>, "placement": <Placement.as_dict()>,
    "evaluator": "fast"|"hotspot", "budget": {...}}``.
    """
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    system = _require(body, "system", str, "a benchmark name string")
    placement = _require(body, "placement", dict, "a placement object")
    evaluator = body.get("evaluator", "fast")
    if evaluator not in ("fast", "hotspot"):
        raise BadRequest("'evaluator' must be 'fast' or 'hotspot'")
    budget = budget_from_dict(body.get("budget") or {})
    return {
        "system": system,
        "placement": placement,
        "evaluator": evaluator,
        "budget": budget,
    }


def parse_rollout_request(body: dict) -> dict:
    """Validate a ``POST /v1/rollout`` body.

    ``{"policy": <registered name>, "system": <name>, "seed": <int>,
    "greedy": <bool>, "budget": {...}}`` — the budget supplies
    ``grid_size`` (and the warm-cache knobs); the policy's channel
    widths were fixed at registration.
    """
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    policy = _require(body, "policy", str, "a registered policy name")
    system = _require(body, "system", str, "a benchmark name string")
    seed = body.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise BadRequest("'seed' must be an integer")
    greedy = body.get("greedy", False)
    if not isinstance(greedy, bool):
        raise BadRequest("'greedy' must be a boolean")
    budget = budget_from_dict(body.get("budget") or {})
    return {
        "policy": policy,
        "system": system,
        "seed": seed,
        "greedy": greedy,
        "budget": budget,
    }

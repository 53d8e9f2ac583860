"""The sweep spec's rules as a JSON Schema, checked by ``jsonschema``: the
oracle for ``analysis.validate_sweep_spec``, which checks the same rules by
hand and must give the same verdict and the same message for every spec.

The schema's integers are ``graph._is_int``'s (jsonschema alone would take
4.0); the rules a schema does not state (a degree for ``random_regular``, a
finite rate, a positive horizon that is not NaN) follow it in the order the
package checks them.
"""

from __future__ import annotations

from numbers import Real
from sys import float_info

from jsonschema import Draft202012Validator, validators

from erl.analysis import SWEEP_FAMILIES
from erl.epidemic import _POLICY_KINDS
from erl.graph import _is_int

SWEEP_SCHEMA = {
    "type": "object",
    "required": ["family", "sizes", "budget", "policy", "replications", "seed"],
    "additionalProperties": False,
    "properties": {
        "family": {"enum": list(SWEEP_FAMILIES)},
        "sizes": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "budget": {"oneOf": [
            {"type": "number", "minimum": 0},
            {"type": "object", "required": ["per_node"],
             "additionalProperties": False,
             "properties": {"per_node": {"type": "number", "minimum": 0}}},
        ]},
        "policy": {"enum": list(_POLICY_KINDS)},
        "replications": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "horizon": {"type": ["number", "null"]},
        "max_events": {"type": "integer", "minimum": 1},
        "degree": {"type": "integer", "minimum": 0},
        "graph_seed": {"type": "integer", "minimum": 0},
    },
}

_VALIDATOR = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: _is_int(x)))(SWEEP_SCHEMA)


def reference_spec_error(spec) -> str | None:
    """The message ``validate_sweep_spec`` must raise for ``spec``, or None
    if it must accept it."""
    errors = sorted(_VALIDATOR.iter_errors(spec), key=lambda e: list(e.path))
    if errors:
        where = "/".join(str(p) for p in errors[0].path) or "(top level)"
        return f"sweep spec invalid at {where}: {errors[0].message}"
    if spec["family"] == "random_regular" and "degree" not in spec:
        return "sweep spec invalid at degree: required for random_regular"
    budget = spec["budget"]
    where, rate = (("budget/per_node", budget["per_node"])
                   if isinstance(budget, dict) else ("budget", budget))
    if not rate <= float_info.max:
        return f"sweep spec invalid at {where}: {rate!r} is not a finite float"
    horizon = spec.get("horizon")
    if horizon is not None and not (isinstance(horizon, Real) and horizon > 0):
        return (f"sweep spec invalid at horizon: {horizon!r} is not a "
                "positive number")
    return None

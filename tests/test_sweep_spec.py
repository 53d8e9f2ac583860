"""``validate_sweep_spec`` against its JSON Schema oracle, and sweeps that
run with no jsonschema installed."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import erl.analysis
from erl import ErlError
from erl.analysis import SWEEP_FAMILIES, validate_sweep_spec
from erl.epidemic import _POLICY_KINDS

from reference_sweep_spec import reference_spec_error

REQUIRED = ("family", "sizes", "budget", "policy", "replications", "seed")
OPTIONAL = ("horizon", "max_events", "degree", "graph_seed")

SPEC = {"family": "line", "sizes": [4, 6], "budget": 3,
        "policy": "max_cut_drop", "replications": 5, "seed": 9}

small_ints = st.integers(0, 12)
numbers = st.one_of(small_ints, st.floats(0, 50, allow_nan=False))

# values that break some rule of some field, or of none: wrong types,
# numpy scalars, tuples, bools, NaN, the infinities, floats of integral
# value, negatives and integers beyond the float range
ODD_VALUES = [
    "x", "", None, True, False, [], {}, (4, 6), [4, 6.0], [0], [True],
    [np.int64(4)], (np.int64(4),), 4.0, -0.5, -1, 0, 1, 3, 10**400,
    -10**400, math.nan, -math.nan, math.inf, -math.inf, np.int64(3),
    np.int64(-1), np.float64(2.5), np.float64(math.nan), np.bool_(True),
    {"per_node": 0.5}, {"per_node": -1}, {"per_node": math.nan},
    {"per_node": math.inf}, {"per_node": "x"}, {"per_node": 1, "x": 2},
    {"x": 1}, {"per_node": np.int64(2)}, {"per_node": True},
    {"per_node": 10**400}, "line", "random_regular", "moebius",
    "max_cut_drop", "bogus",
]
odd_values = st.sampled_from(ODD_VALUES)

# per field, values at the edges of its rules
EDGES = {key: [low - 1, low, float(low), np.int64(low), True]
         for key, low in [("replications", 0), ("seed", 0), ("max_events", 1),
                          ("degree", 0), ("graph_seed", 0)]}
EDGES.update(
    budget=[0, -0.0, -1e-300, {"per_node": 0}, {"per_node": -1e-300}, {},
            {"per_node": 1, "x": 2}, {"x": 1}, {"per_node": None}, None],
    horizon=[0, -0.0, -1, 1e-300, math.nan, math.inf, -math.inf, None, True,
             np.float64(math.nan), np.int64(0)],
    sizes=[[], [0], [1], [1.0], (1,), [np.int64(1)], [True], [1, -1], None],
    family=["line", "Line", ["line"], None],
    policy=["uniform", "Uniform", ["uniform"], None])


@st.composite
def valid_specs(draw):
    spec = {
        "family": draw(st.sampled_from(SWEEP_FAMILIES)),
        "sizes": draw(st.lists(st.integers(1, 40), max_size=4)),
        "budget": draw(st.one_of(numbers, st.builds(
            lambda x: {"per_node": x}, numbers))),
        "policy": draw(st.sampled_from(list(_POLICY_KINDS))),
        "replications": draw(small_ints),
        "seed": draw(st.integers(0, 2**70)),
    }
    if spec["family"] == "random_regular" or draw(st.booleans()):
        spec["degree"] = draw(small_ints)
    for key, values in [("horizon", st.one_of(st.none(), st.floats(
                            0.5, 1e6), st.just(math.inf))),
                        ("max_events", st.integers(1, 10**6)),
                        ("graph_seed", small_ints)]:
        if draw(st.booleans()):
            spec[key] = draw(values)
    return spec


@st.composite
def mutated_specs(draw):
    spec = draw(valid_specs())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["set", "set", "set", "size", "size",
                                     "drop", "extra"]))
        if kind == "set":
            key = draw(st.sampled_from(REQUIRED + OPTIONAL))
            spec[key] = draw(st.one_of(odd_values, st.sampled_from(EDGES[key])))
        elif kind == "size" and isinstance(spec.get("sizes"), list):
            sizes = list(spec["sizes"])
            sizes.insert(draw(st.integers(0, len(sizes))), draw(odd_values))
            spec["sizes"] = sizes
        elif kind == "drop" and spec:
            del spec[draw(st.sampled_from(sorted(spec, key=str)))]
        elif kind == "extra":
            spec[draw(st.sampled_from(["bogus", "Sizes", "zzz", "a", 7]))] = 1
    return spec


def check_error(spec):
    try:
        validate_sweep_spec(spec)
    except ErlError as exc:
        return str(exc)
    return None


@settings(derandomize=True, max_examples=500, deadline=None)
@given(mutated_specs())
@example({"family": "line", "sizes": (4,), "budget": {"per_node": 1, "x": 1},
          "policy": "uniform", "replications": True, "seed": np.int64(1),
          "zzz": 1, "bogus": 2})
@example([SPEC])
@example(tuple(SPEC))
@example(None)
@example("spec")
def test_matches_schema_oracle(spec):
    assert check_error(spec) == reference_spec_error(spec)


@pytest.mark.parametrize("base", [
    SPEC, dict(SPEC, family="random_regular", degree=3, graph_seed=1,
               budget={"per_node": 0.5}, horizon=2.5, max_events=100)],
    ids=["line", "random_regular"])
def test_every_field_edge_matches_schema_oracle(base):
    """Each field set to each edge and odd value, dropped, or joined by an
    extra key, one change at a time."""
    specs = [dict(base, **{key: value}) for key in REQUIRED + OPTIONAL
             for value in EDGES[key] + ODD_VALUES]
    specs += [{k: v for k, v in base.items() if k != key} for key in base]
    specs += [dict(base, **{extra: 1}) for extra in ["bogus", "Sizes", ""]]
    verdicts = set()
    for spec in specs:
        verdict = check_error(spec)
        assert verdict == reference_spec_error(spec), spec
        verdicts.add(verdict)
    # acceptances and many distinct refusals: the comparison tests something
    assert None in verdicts and len(verdicts) > 100


def run_without_jsonschema(code: str, tmp_path) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter where ``import jsonschema``
    fails, as it does where jsonschema is not installed."""
    src = str(Path(erl.analysis.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.modules['jsonschema'] = None; "
         + code], capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path))


def test_sweep_runs_without_jsonschema(tmp_path):
    proc = run_without_jsonschema(
        "from erl import extinction_sweep, sweep_to_csv; "
        f"print(sweep_to_csv(extinction_sweep({SPEC!r})), end='')", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == erl.analysis.sweep_to_csv(
        erl.analysis.extinction_sweep(SPEC))


@pytest.mark.parametrize("spec,code", [(SPEC, 0), (dict(SPEC, seed=-1), 2)],
                         ids=["valid", "refused"])
def test_cli_sweep_runs_without_jsonschema(tmp_path, spec, code):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    proc = run_without_jsonschema(
        "from erl.cli import main; sys.exit(main(['sweep', '--spec', "
        "'spec.json', '--out', 'a.csv']))", tmp_path)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == ("error: sweep spec invalid at seed: -1 is less "
                               "than the minimum of 0\n")
    else:
        assert (tmp_path / "a.csv").read_text() == erl.analysis.sweep_to_csv(
            erl.analysis.extinction_sweep(spec))

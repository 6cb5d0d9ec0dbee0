"""Property-based tests (hypothesis) for the scenario loader.

Every committed scenario is mutated the ways a hand-edited file goes
wrong: a value replaced by another JSON type, a key dropped, an unknown
key added, a block wrapped in a list.  Each mutant either loads, and
then round-trips through ``to_dict`` unchanged, or raises one
``ValueError`` that names a field: a key on the mutated path, or, for a
rule across fields (EDF needs a deadline), any key of the schema.  Any
other exception type fails.  Loading only: nothing is simulated.
"""

import copy
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.serve.scenario import SCENARIOS_DIR, Scenario

_SETTINGS = dict(max_examples=100, deadline=None)

_FILES = sorted(SCENARIOS_DIR.glob("*.json")) + sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "scenarios")
    .glob("*.json"))
_DOCS = [json.loads(path.read_text(encoding="utf-8")) for path in _FILES]

_UNKNOWN_KEY = "zz_unknown"

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([10 ** 400, -(10 ** 400)]) | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner,
                                     max_size=3)),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (path, value) below ``node``, parents before children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


#: every key the committed documents use
_KEYS = {key for doc in _DOCS for path, _ in _paths(doc)
         for key in path if isinstance(key, str)}


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def _mutants(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_DOCS)))
    paths = list(_paths(doc))
    op = draw(st.sampled_from(("replace", "drop", "add", "wrap")))
    if op == "add":
        objects = [()] + [p for p, v in paths if isinstance(v, dict)]
        path = draw(st.sampled_from(objects))
        target = _parent(doc, path + (None,))
        target[_UNKNOWN_KEY] = draw(_JSON)
        return doc, path + (_UNKNOWN_KEY,)
    if op == "wrap":
        path = draw(st.sampled_from(
            [p for p, v in paths if isinstance(v, dict)]))
        _parent(doc, path)[path[-1]] = [_parent(doc, path)[path[-1]]]
        return doc, path
    path = draw(st.sampled_from([p for p, _ in paths]))
    if op == "drop":
        del _parent(doc, path)[path[-1]]
    else:
        _parent(doc, path)[path[-1]] = draw(_JSON)
    return doc, path


@settings(**_SETTINGS)
@given(_mutants())
def test_mutants_load_or_name_a_field(mutant):
    doc, path = mutant
    try:
        scenario = Scenario.from_dict(doc)
    except ValueError as exc:
        names = _KEYS.union(key for key in path if isinstance(key, str))
        assert any(name in str(exc) for name in names), (path, str(exc))
    else:
        assert Scenario.from_dict(scenario.to_dict()) == scenario

"""The shipped JSON schemas and document validation against them."""

import collections
import copy
import random
from importlib import resources

import jsonschema
import pytest
from jsonschema.validators import validator_for

from coherence_speed import schemas
from coherence_speed.schemas import _fits, load_schema, parse_json, validate_document

SHIPPED = sorted(p.name for p in (resources.files("coherence_speed") / "schemas").iterdir()
                 if p.name.endswith(".schema.json"))


def test_both_schemas_ship():
    assert SHIPPED == ["channel.schema.json", "config.schema.json"]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_schema_is_valid_against_its_metaschema(name):
    # validate_document trusts the schema files, so their validity is checked here
    schema = load_schema(name)
    validator_for(schema).check_schema(schema)


INVALID = [
    ("config.schema.json", {"sweep": {"state": "plus"}}),             # missing spectrum
    ("config.schema.json", {"seed": "zero"}),                          # wrong type
    ("config.schema.json", {"qsl": {"spectrum": [0, 1], "steps": 3}}), # unknown key
    ("config.schema.json", {"jobs": 2}),                               # removed key
    ("channel.schema.json", {"kraus": [[[[1.0, 0.0, 0.0]]]]}),         # bad Kraus entry
    ("channel.schema.json", {"kraus": [[1.0, 0.0]]}),                  # bad Kraus shape
]


@pytest.mark.parametrize("name, doc", INVALID)
def test_errors_match_jsonschema_validate(name, doc):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, load_schema(name))
    with pytest.raises(jsonschema.ValidationError) as got:
        validate_document(doc, name)
    assert got.value.message == want.value.message
    assert got.value.json_path == want.value.json_path
    assert type(got.value) is type(want.value)


def test_every_call_validates_its_document():
    validate_document({"seed": 1}, "config.schema.json")
    validate_document({"kraus": [[[[1.0, 0.0]]]]}, "channel.schema.json")
    for _ in range(2):
        with pytest.raises(jsonschema.ValidationError):
            validate_document({"seed": "one"}, "config.schema.json")


# valid documents the mutations start from: every section, state form and axis form
VALID = {
    "config.schema.json": [
        {"seed": 3, "tolerance": 1e-9, "out": "r.csv", "format": "json",
         "verify": {"suite": "thm1", "dim": 4, "trials": 2}},
        {"sweep": {"spectrum": [0.0, 0.7, 1.9], "state": "plus", "t_start": 0, "t_stop": 2.5,
                   "t_steps": 21, "brute_force": True}},
        {"sweep": {"spectrum": [0, 1, 2, 3], "state": {"density_rank": 2}}},
        {"battery": {"epsilon": 1.0, "eta_max": 0.5, "pulse": "sin4", "tau": 3.0, "dt": 0.05,
                     "axis": [0.0, 0.6, 0.8], "state": {"haar": True}}},
        {"battery": {"axis": "rotating-xy", "state": {"amplitudes": [[0.6, 0], [0, 0.8]]}}},
        {"channel": {"channel": {"path": "c.json"}, "env_dim": 3, "state": "maximally-coherent"}},
        {"channel": {"channel": "qutrit-equality"}},
        {"qsl": {"spectrum": [1000000.0, 1000000.001], "t_steps": 5, "state": "ground"}},
    ],
    "channel.schema.json": [
        {"label": "x", "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
        {"kraus": [[[[0.6, 0.0]]], [[[0.0, 0.8]]]]},
    ],
}
# replacement values: booleans, integral floats, bounds, text parse_json leaves, other shapes
ATOMS = [True, False, None, 0, 1, -1, 2, 16, 17, 1.0, 0.0, -0.0, 0.5, -0.5, 16.0, 1e300, "NaN",
         "1e999", "Infinity", "x", "plus", "z", "sin2", "csv", "qutrit-equality", [], {},
         [0, 1], [0.0, 1.0, 2.0], [[1, 0]], {"haar": 1}, {"haar": True}, {"amplitudes": [[1, 0]]},
         {"density_rank": 0}, {"density_rank": 1}, {"path": "p"}, [[[[1.0, 0.0]]]], [1.0, 0.0, 0.0]]
KEYS = ["seed", "state", "spectrum", "steps", "haar", "kraus", "label", "path", "dim", "jobs",
        "t_steps", "amplitudes", "axis", "density_rank", "channel"]


def _accepts(doc, name) -> bool:
    schema = load_schema(name)
    try:
        return _fits(schema, doc, schema)
    except KeyError:
        return False


def _is_valid(doc, name) -> bool:
    schema = load_schema(name)
    return validator_for(schema)(schema).is_valid(doc)


def _nodes(node):
    yield node
    for child in node.values() if isinstance(node, dict) else node if isinstance(node, list) else ():
        yield from _nodes(child)


def _mutant(doc, rng):
    """doc with one to three random edits: a value replaced, a key or item dropped or added."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        parents = [n for n in _nodes(doc) if isinstance(n, (dict, list)) and n]
        if not parents:
            break
        parent = rng.choice(parents)
        key = rng.choice(list(parent) if isinstance(parent, dict) else range(len(parent)))
        edit = rng.random()
        if edit < 0.6:
            parent[key] = copy.deepcopy(rng.choice(ATOMS))
        elif edit < 0.8:
            del parent[key]
        elif isinstance(parent, dict):
            parent[rng.choice(KEYS)] = copy.deepcopy(rng.choice(ATOMS))
        else:
            parent.append(copy.deepcopy(parent[key]))
    return doc


@pytest.mark.parametrize("name", SHIPPED)
def test_the_check_accepts_exactly_the_mutants_jsonschema_accepts(name):
    # soundness: no document jsonschema rejects is accepted without it; and every valid
    # mutant is accepted, so a valid document never needs jsonschema
    rng = random.Random(44)
    verdicts = collections.Counter()
    for _ in range(2000):
        doc = _mutant(rng.choice(VALID[name]), rng)
        verdicts[_accepts(doc, name), _is_valid(doc, name)] += 1
    assert verdicts[True, False] == 0 and verdicts[False, True] == 0, verdicts
    assert verdicts[True, True] > 100 and verdicts[False, False] > 1000, verdicts


EDGES = [
    ("config.schema.json", {"seed": True}, False),                     # true as an integer
    ("config.schema.json", {"tolerance": True}, False),                # true as a number
    ("config.schema.json", {"sweep": {"spectrum": [0, True]}}, False),
    ("channel.schema.json", {"kraus": [[[[True, 0.0]]]]}, False),
    ("config.schema.json", {"seed": 1.0}, True),                       # 1.0 is an integer
    ("config.schema.json", {"verify": {"dim": 16.0}}, True),
    ("config.schema.json", {"verify": {"dim": 2.5}}, False),
    ("config.schema.json", {"sweep": {"spectrum": [0, 1], "state": {"haar": 1}}}, False),
    ("config.schema.json", {"sweep": {"spectrum": [0, 1], "state": {"haar": 1.0}}}, False),
    ("config.schema.json", {"sweep": {"spectrum": [0, 1], "state": {"haar": True}}}, True),
    ("config.schema.json", parse_json('{"tolerance": NaN}'), False),   # text parse_json leaves
    ("config.schema.json", parse_json('{"battery": {"dt": 1e999}}'), False),
    ("config.schema.json", parse_json('{"qsl": {"spectrum": [0, -Infinity]}}'), False),
    ("channel.schema.json", parse_json('{"kraus": [[[[NaN, 0.0]]]]}'), False),
    ("channel.schema.json", parse_json('{"kraus": [[[[1e999, 0.0]]]]}'), False),
    ("config.schema.json", {"battery": {"state": {"haar": True, "seed": 1}}}, False),  # extra keys
    ("config.schema.json", {"verify": {"suite": "thm1", "jobs": 2}}, False),
    ("channel.schema.json", {"kraus": [[[[1.0, 0.0]]]], "extra": 1}, False),
    ("config.schema.json", {"battery": {"axis": [0, 0, 1, 0]}}, False),
    ("config.schema.json", {"tolerance": 0}, False),
    ("config.schema.json", {"verify": {"dim": 17}}, False),
] + [(name, doc, False) for name, doc in INVALID]


@pytest.mark.parametrize("name, doc, valid", EDGES)
def test_the_check_judges_each_edge_as_jsonschema_does(name, doc, valid):
    assert _is_valid(doc, name) is valid
    assert _accepts(doc, name) is valid


def test_the_check_reads_its_keywords_beyond_the_shipped_uses():
    # oneOf fails a value two branches accept; a list of types, additionalProperties
    # true and boolean subschemas read as jsonschema reads them
    schema = {"type": "object", "additionalProperties": True, "properties": {
        "x": {"oneOf": [{"type": "number"}, {"type": "integer"}]},
        "y": {"type": ["string", "null"]}, "z": False, "w": True}}
    docs = [{"x": 1}, {"x": 1.0}, {"x": 1.5}, {"x": True}, {"y": None}, {"y": "a"}, {"y": 0},
            {"z": 0}, {"w": [0]}, {"v": 0}]
    assert [_fits(schema, doc, schema) for doc in docs] == [
        validator_for(schema)(schema).is_valid(doc) for doc in docs] == [
        False, False, True, False, True, True, False, False, True, True]


def test_a_keyword_outside_the_check_leaves_every_document_to_jsonschema(monkeypatch):
    schema = {"$schema": "https://json-schema.org/draft/2020-12/schema", "type": "object",
              "properties": {"label": {"type": "string", "pattern": "^a"}}}
    monkeypatch.setattr(schemas, "load_schema", lambda name: schema)
    schemas._validator.cache_clear()
    try:
        for label in ("abc", "xyz"):        # valid and invalid: the check accepts neither
            with pytest.raises(KeyError):
                _fits(schema, {"label": label}, schema)
        validate_document({"label": "abc"}, "pattern.schema.json")
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate({"label": "xyz"}, schema)
        with pytest.raises(jsonschema.ValidationError) as got:
            validate_document({"label": "xyz"}, "pattern.schema.json")
        assert (got.value.message, got.value.json_path) == (want.value.message,
                                                            want.value.json_path)
    finally:
        schemas._validator.cache_clear()


def _keywords(schema):
    """Every keyword of a schema and its subschemas (property and $defs names excluded)."""
    found = set(schema)
    for key, value in schema.items():
        subs = (value.values() if key in ("properties", "$defs") else value
                if key in ("oneOf", "prefixItems") else [value] if key == "items" else [])
        for sub in subs:
            found |= _keywords(sub)
    return found


def test_the_check_reads_every_keyword_of_the_shipped_schemas():
    # a schema edit that adds a keyword shows up here, not as every document quietly
    # going to jsonschema
    assert set().union(*(_keywords(load_schema(name)) for name in SHIPPED)) == schemas._KEYWORDS

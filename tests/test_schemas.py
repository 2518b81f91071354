"""The shipped JSON schemas and document validation against them."""

from importlib import resources

import jsonschema
import pytest
from jsonschema.validators import validator_for

from coherence_speed.schemas import load_schema, validate_document

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

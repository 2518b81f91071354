"""JSON schema loading and validation for config and channel documents."""

from __future__ import annotations

import contextlib
import json
import math
import operator
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import DimensionMismatch


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    # the schemas/ data directory is addressed through the package root:
    # it shares its name with this module, so it is not importable itself
    text = (resources.files("coherence_speed") / "schemas" / name).read_text("utf-8")
    return json.loads(text)


@lru_cache(maxsize=None)
def _validator(name: str):
    from jsonschema.validators import validator_for    # not at import: the CLI loads without it
    schema = load_schema(name)
    return validator_for(schema)(schema)


def _finite_or_text(text: str):
    return text if math.isinf(value := float(text)) else value


def _int_or_text(text: str):
    return text if math.isinf(float(text)) else int(text)


def parse_json(text: str):
    """json.loads, but NaN, Infinity and a literal past the float range stay text.

    Past the float range means 1e999, or an integer literal of magnitude
    1.8e308 or more, which is kept as text before ``int`` is tried (so a
    5,000-digit one meets no digit limit).  The schemas type every number
    "number" or "integer", so each of these fails there with its JSON path.
    """
    return json.loads(text, parse_constant=str, parse_float=_finite_or_text,
                      parse_int=_int_or_text)


_DRAFT = "https://json-schema.org/draft/2020-12/schema"
_KEYWORDS = frozenset({"$schema", "title", "$defs", "$ref", "type", "enum", "const", "oneOf",
                       "properties", "required", "additionalProperties", "items", "prefixItems",
                       "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum"})
_KINDS = {dict: "object", list: "array", str: "string", bool: "boolean", int: "integer",
          float: "number", type(None): "null"}
_FAILS = {"minimum": operator.lt, "maximum": operator.gt, "exclusiveMinimum": operator.le,
          "minItems": operator.lt, "maxItems": operator.gt}     # jsonschema's, so NaN passes


def _equal(a, b) -> bool:
    # jsonschema's equality with a scalar b: 1 equals 1.0, and true only true
    if isinstance(b, (list, dict)):
        raise KeyError(b)
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _fits(schema, doc, root: dict) -> bool:
    """jsonschema's verdict on doc, for the keywords and JSON types the shipped schemas use.

    Raises KeyError on anything else (another keyword or draft, a $ref outside
    $defs, a value of no JSON type), which leaves the document to jsonschema.
    """
    if isinstance(schema, bool):
        return schema
    if schema.keys() - _KEYWORDS or schema.get("$schema", _DRAFT) != _DRAFT:
        raise KeyError(schema)
    kind = _KINDS[type(doc)]
    if kind == "number" and doc.is_integer():
        kind = "integer"        # as jsonschema reads 1.0
    number, array, obj = kind in ("integer", "number"), kind == "array", kind == "object"
    for key, value in schema.items():
        match key:
            case "$schema" | "title" | "$defs":
                ok = True
            case "type":
                types = [value] if isinstance(value, str) else value
                ok = kind in types or number and "number" in types
            case "enum" | "const":
                ok = any(_equal(doc, each) for each in (value if key == "enum" else [value]))
            case "oneOf":
                ok = sum(_fits(each, doc, root) for each in value) == 1
            case "$ref" if value.startswith("#/$defs/"):
                ok = _fits(root["$defs"][value[len("#/$defs/"):]], doc, root)
            case "properties":
                ok = not obj or all(_fits(sub, doc[name], root)
                                    for name, sub in value.items() if name in doc)
            case "required":
                ok = not obj or all(name in doc for name in value)
            case "additionalProperties" if isinstance(value, bool):
                ok = not obj or value or doc.keys() <= schema.get("properties", {}).keys()
            case "items":
                ok = not array or all(_fits(value, each, root)
                                      for each in doc[len(schema.get("prefixItems", ())):])
            case "prefixItems":
                ok = not array or all(_fits(sub, each, root) for sub, each in zip(value, doc))
            case "minItems" | "maxItems":
                ok = not array or not _FAILS[key](len(doc), value)
            case "minimum" | "maximum" | "exclusiveMinimum":
                ok = not number or not _FAILS[key](doc, value)
            case _:
                raise KeyError(value)       # a $ref elsewhere, additionalProperties as a schema
        if not ok:
            return False
    return True


def validate_document(doc: dict, schema_name: str) -> None:
    """Raise jsonschema.ValidationError with a JSON-path diagnostic on failure.

    Every document is validated on every call.  One that ``_fits`` accepts
    passes without importing jsonschema; jsonschema judges any other and raises
    the best match of all errors, as ``jsonschema.validate`` picks it.  The
    shipped schemas are package data, so their own validity against the
    metaschema is checked by the test suite, not here: each schema is
    compiled into a validator once per process.
    """
    schema = load_schema(schema_name)
    with contextlib.suppress(KeyError):     # outside what _fits reads
        if _fits(schema, doc, schema):
            return
    from jsonschema.exceptions import best_match
    error = best_match(_validator(schema_name).iter_errors(doc))
    if error is not None:
        raise error


def _complex_array(pairs) -> np.ndarray:
    """The schemas' nested [re, im] pairs as one complex array; DimensionMismatch if ragged."""
    try:
        parts = np.array(pairs, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch("[re, im] pairs are not nested to one shape") from exc
    return parts.view(complex)[..., 0]

"""JSON schema loading and validation for config and channel documents."""

from __future__ import annotations

import json
import math
from functools import lru_cache
from importlib import resources

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .errors import DimensionMismatch


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    # the schemas/ data directory is addressed through the package root:
    # it shares its name with this module, so it is not importable itself
    text = (resources.files("coherence_speed") / "schemas" / name).read_text("utf-8")
    return json.loads(text)


@lru_cache(maxsize=None)
def _validator(name: str):
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


def validate_document(doc: dict, schema_name: str) -> None:
    """Raise jsonschema.ValidationError with a JSON-path diagnostic on failure.

    Every document is validated on every call.  The error raised is the
    best match of all errors, as ``jsonschema.validate`` picks it.  The
    shipped schemas are package data, so their own validity against the
    metaschema is checked by the test suite, not here: each schema is
    compiled into a validator once per process.
    """
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

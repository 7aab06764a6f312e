"""Payload validation for the JSON Schema subset the shipped schemas use.

``compile_schema`` turns a schema into one check function, once per schema.
The check accepts and rejects what ``jsonschema.validate`` does under draft
2020-12, for the keywords in ``KEYWORDS`` and the type names in ``TYPES``;
any other keyword or type name fails to compile, so a schema edit cannot be
ignored silently.  An integer leaf schema (``type`` integer, with or
without ``minimum``) is one closure that tests ``type(v) is int`` first and
sends any other value through the same checks; an array or object schema of
that one type is one container check that also tests the type.  A
violation raises ``jsonschema.ValidationError`` whose message starts with
the failing path.  The tests hold this module to ``jsonschema.validate``
itself.
"""

from __future__ import annotations

import math
import re
import reprlib

from jsonschema import ValidationError

DRAFT = "https://json-schema.org/draft/2020-12/schema"
KEYWORDS = {"$schema", "$id", "type", "properties", "required", "additionalProperties",
            "items", "minimum", "enum", "pattern", "oneOf", "minItems", "maxItems"}
TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    # a float with an integral value is an integer, a bool is not
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}
_INTEGER_LEAF = {"$schema", "$id", "type", "minimum"}


class _Invalid(Exception):
    """A violation on its way up; each enclosing array or object adds its key to ``path``."""

    def __init__(self, value, reason):
        super().__init__(f"{reprlib.repr(value)} {reason}")
        self.path = []


def _accept(v):
    pass


def _reject(v):
    raise _Invalid(v, "is not allowed here")


def _checks(schema: dict):
    """One closure per keyword group of ``schema``; each raises _Invalid."""
    if not schema.keys() <= KEYWORDS:
        raise ValueError(f"unsupported schema keywords {sorted(schema.keys() - KEYWORDS)}")
    if schema.get("$schema", DRAFT) != DRAFT:
        raise ValueError(f"unsupported $schema {schema['$schema']!r}")
    is_array = schema.keys() & {"items", "minItems", "maxItems"}
    is_object = schema.keys() & {"properties", "required", "additionalProperties"}
    # an array or object check of its one type tests the type itself
    kind = schema.get("type")
    own_type = (kind in ("array", ["array"]) and is_array
                or kind in ("object", ["object"]) and is_object)
    if "type" in schema and not own_type:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not set(names) <= TYPES.keys():
            raise ValueError(f"unsupported type in {names}")
        tests = [TYPES[name] for name in names]
        test = tests[0] if len(tests) == 1 else lambda v: any(t(v) for t in tests)

        def check_type(v):
            if not test(v):
                raise _Invalid(v, f"is not of type {' or '.join(names)}")
        yield check_type
    if "enum" in schema:
        members = schema["enum"]
        if not all(m is None or isinstance(m, (str, int, float)) for m in members):
            raise ValueError(f"unsupported enum {members}: scalars only")
        strings = {m for m in members if isinstance(m, str)}

        def check_enum(v):   # True is not 1, but 1.0 is 1
            if not (v in strings if type(v) is str else any(
                    v is m if isinstance(v, bool) or isinstance(m, bool) else v == m
                    for m in members)):
                raise _Invalid(v, f"is not one of {members}")
        yield check_enum
    if "minimum" in schema:
        low = schema["minimum"]

        def check_minimum(v):
            if isinstance(v, (int, float)) and not isinstance(v, bool) and v < low:
                raise _Invalid(v, f"is less than the minimum of {low}")
        yield check_minimum
    if "pattern" in schema:
        regex = re.compile(schema["pattern"])

        def check_pattern(v):
            if isinstance(v, str) and not regex.search(v):
                raise _Invalid(v, f"does not match {regex.pattern!r}")
        yield check_pattern
    if is_array:
        item = _compile(schema.get("items", True))
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", float("inf"))

        def check_array(v):
            if not isinstance(v, list):
                if own_type:
                    raise _Invalid(v, "is not of type array")
                return
            if not lo <= len(v) <= hi:
                raise _Invalid(v, f"has {len(v)} items, not {lo} to {hi}")
            try:
                for i, x in enumerate(v):
                    item(x)
            except _Invalid as exc:
                exc.path.append(i)
                raise
        yield check_array
    if is_object:
        props = {k: _compile(s) for k, s in schema.get("properties", {}).items()}
        other = _compile(schema.get("additionalProperties", True))
        required = schema.get("required", ())

        def check_object(v):
            if not isinstance(v, dict):
                if own_type:
                    raise _Invalid(v, "is not of type object")
                return
            for key in required:
                if key not in v:
                    raise _Invalid(v, f"lacks the required property {key!r}")
            try:
                for key, x in v.items():
                    props.get(key, other)(x)
            except _Invalid as exc:
                exc.path.append(key)
                raise
        yield check_object
    if "oneOf" in schema:
        branches = [_compile(s) for s in schema["oneOf"]]

        def check_one_of(v):
            passed = 0
            for branch in branches:
                try:
                    branch(v)
                    passed += 1
                except _Invalid:
                    pass
            if passed != 1:
                raise _Invalid(v, f"matches {passed} oneOf branches, not exactly 1")
        yield check_one_of


def _compile(schema):
    """Check function for ``schema`` (a dict or a bool); it raises _Invalid."""
    if isinstance(schema, bool):
        return _accept if schema else _reject
    checks = list(_checks(schema))
    if len(checks) <= 1:
        check_all = checks[0] if checks else _accept
    else:
        def check_all(v):
            for check in checks:
                check(v)
    if schema.get("type") == "integer" and schema.keys() <= _INTEGER_LEAF:
        low = schema.get("minimum", -math.inf)

        def check_integer(v):   # anything but an int at or above the minimum takes the long way
            if type(v) is not int or v < low:
                check_all(v)
        return check_integer
    return check_all


def compile_schema(schema: dict):
    """Validator for ``schema``; it raises ``jsonschema.ValidationError`` naming the failing path."""
    check = _compile(schema)

    def validate(instance) -> None:
        try:
            check(instance)
        except _Invalid as exc:
            path = exc.path[::-1]
            where = "$" + "".join(f"[{k!r}]" for k in path)
            raise ValidationError(f"{where}: {exc}", path=path) from None
    return validate

"""The in-package schema validator on hand-made schemas, against
``jsonschema.validate`` as the oracle, and its load-time guard."""

import jsonschema
import pytest

from aci3.schemacheck import _checks, compile_schema

DRAFT = "https://json-schema.org/draft/2020-12/schema"


class IntSubclass(int):
    pass


# the edges of "integer": bools, integral and special floats, big ints, int subclasses
NEAR_INTEGERS = [True, False, 1.0, -0.0, 2.5, float("nan"), float("inf"), -float("inf"),
                 2**80, -2**80, IntSubclass(3), IntSubclass(-3), 0, -1, "1", None, [1]]

CASES = [
    ({"type": "integer"}, [1, -3, 2**70, 1.0, 1.5, True, "1", None, []]),
    ({"type": ["integer", "null"]}, [None, 1, 1.0, False, "x"]),
    ({"type": "boolean"}, [True, False, 0, 1, None]),
    ({"type": "string"}, ["", "a", 1, None]),
    ({"type": "array"}, [[], [1], (1,), {}, "ab"]),
    ({"type": "object"}, [{}, {"a": 1}, [], None]),
    ({"minimum": 0}, [0, 1, -1, -0.5, -1.0, "x", None, [-1]]),
    ({"minimum": 2}, [True, False, 1, 2, 1.5]),                       # bools are not numbers
    ({"minimum": 1, "type": "integer"}, [1, 0, 1.0, 0.0, True]),
    ({"enum": ["couple", "ah"]}, ["ah", "AH", 1, True, None]),
    ({"enum": [1, None]}, [1, 1.0, True, False, 0, None, "1"]),     # True is not 1
    ({"enum": [False]}, [False, 0, 0.0, True, None]),
    ({"enum": [0, True]}, [0, 0.0, False, True, 1]),
    ({"pattern": "^[0-9a-f]{4}$"}, ["abcd", "abcg", "abcd\n", "xabcd", 5, None]),
    ({"pattern": "b"}, ["abc", "ac"]),
    ({"items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
     [[1, 2], [1], [1, 2, 3], [1, "x"], [], "ab", (1, 2), {"a": 1}]),
    ({"items": {"items": {"minimum": 0}}}, [[[0, 1], []], [[0], [-1]], [1, [2]]]),
    ({"oneOf": [{"type": "null"}, {"type": "array", "items": {"minimum": 1}}]},
     [None, [], [1, 2], [0], "x", 1]),
    ({"oneOf": [{}, {"type": "integer"}]}, [1, "x", None]),             # both match
    ({"oneOf": [{"minimum": 2}, {"type": "integer"}]}, [1, 3, 2.5, "x"]),
    ({"type": "object", "properties": {"a": {"type": "integer"}}, "required": ["a"],
      "additionalProperties": False},
     [{"a": 1}, {"a": "x"}, {}, {"a": 1, "b": 2}, [1], None]),
    ({"additionalProperties": {"type": "string"}, "properties": {"n": {}}},
     [{"x": "y"}, {"x": 1}, {"n": 1}, {}, "s"]),
    ({"required": ["a", "b"]}, [{"a": 1, "b": 2}, {"a": 1}, [], "ab"]),
    ({"properties": {"p": {"type": "integer"}}}, [{"p": 1}, {"p": None}, {"q": None}]),
    ({}, [None, 1, "x", [], {}]),
    ({"type": "integer"}, NEAR_INTEGERS),
    ({"type": "integer", "minimum": 0}, NEAR_INTEGERS),
    ({"type": "array", "items": {"type": "integer"}}, [[1], [], "ab", {}, None, [1.5]]),
    ({"type": ["array"], "maxItems": 1}, [[1], [1, 2], (1,), "a"]),
    ({"type": "object", "required": ["a"]}, [{"a": 1}, {}, [], "a", None]),
    ({"type": ["array", "null"], "items": {"minimum": 0}}, [None, [0], [-1], "x"]),
    ({"enum": ["a", 1, None]}, ["a", "b", 1, 1.0, True, None, ""]),
]


def message(validate, instance):
    """The violation message, or None for a valid instance."""
    try:
        validate(instance)
    except jsonschema.ValidationError as exc:
        return str(exc)
    return None


def accepts(validate, instance) -> bool:
    return message(validate, instance) is None


@pytest.mark.parametrize("schema, instances", CASES, ids=str)
def test_agrees_with_jsonschema(schema, instances):
    schema = dict(schema, **{"$schema": DRAFT})
    check = compile_schema(schema)
    for instance in instances:
        want = accepts(lambda v: jsonschema.validate(v, schema), instance)
        assert accepts(check, instance) == want, instance


@pytest.mark.parametrize("schema", [{"type": "integer"}, {"type": "integer", "minimum": 0}],
                         ids=str)
def test_integer_leaf_messages(schema):
    # an integer leaf compiles into one fused closure; a type list takes the
    # keyword checks one by one, and both must say the same
    fused = compile_schema(schema)
    reference = compile_schema(dict(schema, type=["integer"]))
    for value in NEAR_INTEGERS:
        assert message(fused, value) == message(reference, value), value


@pytest.mark.parametrize("schema, value, reason", [
    ({"type": "array", "items": {"type": "integer"}}, {"a": 1}, "is not of type array"),
    ({"type": "object", "required": ["a"]}, [1], "is not of type object"),
    ({"type": ["array", "null"], "items": {}}, "x", "is not of type array or null"),
], ids=str)
def test_container_type_messages(schema, value, reason):
    # an array or object schema of one type tests the type in its container check
    assert message(compile_schema(schema), value).endswith(f" {reason}")


@pytest.mark.parametrize("schema, checks", [
    ({"type": "array", "items": {}}, ["check_array"]),
    ({"type": "object", "required": []}, ["check_object"]),
    ({"type": ["array", "null"], "items": {}}, ["check_type", "check_array"]),
    ({"type": "array"}, ["check_type"]),
], ids=str)
def test_one_type_test_per_container(schema, checks):
    assert [check.__name__ for check in _checks(schema)] == checks


def test_error_names_the_failing_path():
    check = compile_schema({"properties": {"tables": {"items": {"properties": {
        "levels": {"items": {"items": {"minimum": 0}}}}}}}})
    with pytest.raises(jsonschema.ValidationError) as exc:
        check({"tables": [{"levels": [[0]]}, {"levels": [[0], [1, -2]]}]})
    assert str(exc.value).startswith("$['tables'][1]['levels'][1][1]: -2 ")
    assert list(exc.value.path) == ["tables", 1, "levels", 1, 1]


@pytest.mark.parametrize("schema, what", [
    ({"format": "date"}, "format"),
    ({"properties": {"a": {"type": "integer", "maximum": 3}}}, "maximum"),
    ({"items": {"uniqueItems": True}}, "uniqueItems"),
    ({"oneOf": [{"const": 1}]}, "const"),
    ({"additionalProperties": {"patternProperties": {}}}, "patternProperties"),
    ({"type": "number"}, "number"),
    ({"type": ["integer", "float"]}, "float"),
    ({"enum": [[1]]}, "scalars"),
    ({"$schema": "http://json-schema.org/draft-07/schema#"}, "draft-07"),
])
def test_unsupported_schemas_fail_to_load(schema, what):
    with pytest.raises(ValueError, match=what):
        compile_schema(schema)

"""The JSONL sink's template encoder is ``json.dumps`` of the decoded
event, byte for byte, for any shape and any value (docs/observability.md,
"What observation costs")."""

import json
import math

from hypothesis import given
from hypothesis import strategies as st

from repro.obs import tracer as tracer_module
from repro.obs.tracer import decode, encode

# text with the characters JSON escapes: quotes, backslashes, control
# characters, non-ASCII (and the % a template must not read as a slot)
texts = st.text(alphabet=st.characters(), max_size=12) | st.sampled_from(
    ["", '"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f", "é ü 中 😀",
     "100%", "%d%s%r%%"])
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, 1e-05, 1e16, 0.1, math.nan, math.inf, -math.inf])
ints = st.integers() | st.sampled_from([0, -1, 2 ** 63, -(2 ** 100),
                                        10 ** 30])
scalars = st.none() | st.booleans() | ints | floats | texts
values = scalars | st.lists(scalars, max_size=4)
ids = st.none() | st.integers(min_value=0, max_value=10 ** 9)


@st.composite
def records(draw):
    """One record over a freshly interned shape: a name, distinct keys,
    a tail (the ids an ingested event carries after its attributes)
    and one value per key."""
    name = draw(texts)
    keys = tuple(draw(st.lists(texts, unique=True, max_size=6)))
    tail = draw(st.sampled_from([(), ("span",), ("parent",)]))
    shape_id = tracer_module._shape(name, keys, tail)
    head = (shape_id, draw(st.integers(min_value=0)),
            draw(st.integers(min_value=0, max_value=2 ** 62)),
            draw(ids), draw(ids))
    return head + tuple(draw(values) for _ in keys)


def dumps(record) -> str:
    return json.dumps(decode(record), separators=(",", ":"),
                      default=str) + "\n"


@given(records())
def test_a_record_encodes_to_json_dumps_of_its_event(record):
    assert encode([record]) == dumps(record)


@given(st.lists(records(), max_size=8))
def test_a_chunk_is_its_records_one_line_each(chunk):
    assert encode(chunk) == "".join(dumps(record) for record in chunk)


def test_one_shape_takes_a_template_per_value_types():
    shape_id = tracer_module.shape("encoder.kinds", "value")
    chunk = [(shape_id, seq, 1000 * seq, None, None, value)
             for seq, value in enumerate([1, True, None, 1.5, math.nan,
                                          "s", [1, "x"], {"k": 2}])]
    assert encode(chunk) == "".join(dumps(record) for record in chunk)
    # int, bool, None, float (finite and not), str, list, dict
    assert len(tracer_module._TEMPLATES[shape_id]) == 7

"""Exact JSON round-trips and the rejection of lossy number forms."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixquant.distributions import Normal, Piecewise, Uniform
from mixquant.mixture import MixtureSpec
from mixquant.serialization import (
    SpecParseError,
    exact_number_to_string,
    extended_to_string,
    parse_distribution,
    parse_exact_number,
    parse_mixture,
    serialize_mixture,
)

from reference import ref_parse_exact_number

# ---------------------------------------------------------------------------
# exact number strings
# ---------------------------------------------------------------------------


def test_exact_number_parsing():
    assert parse_exact_number(3) == 3
    assert parse_exact_number("0.375") == F(3, 8)
    assert parse_exact_number("-1.25") == F(-5, 4)
    assert parse_exact_number("1/3") == F(1, 3)
    assert parse_exact_number("-7/2") == F(-7, 2)
    assert parse_exact_number(".5") == F(1, 2)


@pytest.mark.parametrize(
    "bad",
    [0.25, "1e-3", "2E5", "nan", "inf", "1/0", "", "abc", True, None, [1]],
)
def test_exact_number_rejections(bad):
    with pytest.raises(SpecParseError):
        parse_exact_number(bad)


def _parsed(parse, value, rejection):
    """``("value", type, number)``, or ``("rejected", message)`` when ``parse``
    raises ``rejection``."""
    try:
        number = parse(value)
    except rejection as exc:
        return "rejected", str(exc)
    return "value", type(number), number


@settings(max_examples=500)
@given(st.text(alphabet="0123456789+-./e _\t", max_size=12))
@example("1/0")
@example("-0/0")
@example(".5")
@example("5.")
@example("+07")
@example("1e3")
@example(" -12/08 ")
@example("1_000")
@example("\u0663/\u0664")
@example("1" * 5000)
@example("1" * 5000 + "/3")
def test_exact_number_parsing_matches_the_reference_rule(text):
    # The package must reject with SpecParseError exactly where the
    # reference rejects, with the same message, and agree on every value.
    expected = _parsed(ref_parse_exact_number, text, ValueError)
    assert _parsed(parse_exact_number, text, SpecParseError) == expected


def test_exact_number_rendering():
    assert exact_number_to_string(F(3, 8)) == "0.375"
    assert exact_number_to_string(F(-5, 4)) == "-1.25"
    assert exact_number_to_string(F(1, 3)) == "1/3"
    assert exact_number_to_string(F(7)) == "7"
    assert exact_number_to_string(F(1, 20)) == "0.05"


@given(
    st.fractions(
        min_value=F(-1000), max_value=F(1000), max_denominator=10_000
    )
)
def test_number_strings_round_trip(value):
    assert parse_exact_number(exact_number_to_string(value)) == value


def test_extended_real_rendering():
    assert extended_to_string(F(1, 2)) == "0.5"
    assert extended_to_string(float("inf")) == "inf"
    assert extended_to_string(float("-inf")) == "-inf"
    assert extended_to_string(1.25) == "1.25"


# ---------------------------------------------------------------------------
# distribution and mixture documents
# ---------------------------------------------------------------------------


def _sample_mixture() -> MixtureSpec:
    x = Piecewise(
        atoms=[(F(-3, 2), F(1, 3)), (F(1, 2), F(1, 6))],
        segments=[(0, F(1, 4), F(1, 4)), (2, 3, F(1, 4))],
    )
    y = Piecewise(atoms=[(F(5), 1)])
    return MixtureSpec(F(2, 7), x, y)


def test_mixture_document_round_trip_is_exact():
    m = _sample_mixture()
    doc = serialize_mixture(m)
    text = json.dumps(doc)
    back = parse_mixture(json.loads(text))
    assert back.q == m.q
    assert back.x.atoms == m.x.atoms and back.x.segments == m.x.segments
    assert back.y.atoms == m.y.atoms and back.y.segments == m.y.segments


def test_serialized_numbers_prefer_decimal_form():
    doc = serialize_mixture(_sample_mixture())
    assert doc["q"] == "2/7"
    assert doc["X"]["atoms"][0] == ["-1.5", "1/3"]
    assert doc["X"]["segments"][0] == ["0", "0.25", "0.25"]


def test_parametric_documents_round_trip():
    m = MixtureSpec(F(1, 2), Normal(0.5, 1.5), Uniform(-1.0, 2.0))
    back = parse_mixture(serialize_mixture(m))
    assert back.x == Normal(0.5, 1.5)
    assert back.y == Uniform(-1.0, 2.0)


def test_parse_rejects_raw_floats_in_piecewise():
    doc = {"kind": "piecewise", "atoms": [[0.5, "1"]], "segments": []}
    with pytest.raises(SpecParseError, match="decimal string"):
        parse_distribution(doc)


def test_parse_rejects_unknown_kind_and_fields():
    with pytest.raises(SpecParseError, match="unknown distribution kind"):
        parse_distribution({"kind": "beta", "a": 1, "b": 2})
    with pytest.raises(SpecParseError, match="unknown fields"):
        parse_distribution({"kind": "normal", "mu": 0, "sigma": 1, "tail": 2})
    with pytest.raises(SpecParseError, match="unknown fields"):
        parse_distribution({"kind": "piecewise", "atoms": [], "mass": []})


def test_parse_rejects_missing_fields_and_bad_shapes():
    with pytest.raises(SpecParseError, match="missing fields"):
        parse_mixture({"q": "0.5", "X": {"kind": "uniform", "a": 0, "b": 1}})
    with pytest.raises(SpecParseError, match="missing fields"):
        parse_distribution({"kind": "normal", "mu": 0})
    with pytest.raises(SpecParseError, match="pair"):
        parse_distribution({"kind": "piecewise", "atoms": [[1]], "segments": []})
    with pytest.raises(SpecParseError, match="triple"):
        parse_distribution({"kind": "piecewise", "atoms": [], "segments": [[0, 1]]})
    with pytest.raises(SpecParseError, match="object"):
        parse_mixture([1, 2, 3])


def test_parse_rejects_invalid_content_with_context():
    doc = {
        "q": "0.5",
        "X": {"kind": "piecewise", "atoms": [["0", "0.5"]], "segments": []},
        "Y": {"kind": "uniform", "a": 0, "b": 1},
    }
    with pytest.raises(SpecParseError, match="invalid piecewise"):
        parse_mixture(doc)
    with pytest.raises(SpecParseError, match="q must lie"):
        parse_mixture({"q": "1.5", "X": doc["Y"], "Y": doc["Y"]})
    with pytest.raises(SpecParseError, match="unknown fields"):
        parse_mixture({"q": "0.5", "X": doc["Y"], "Y": doc["Y"], "Z": doc["Y"]})


def test_parse_rejects_invalid_parametric_parameters():
    with pytest.raises(SpecParseError, match="invalid normal"):
        parse_distribution({"kind": "normal", "mu": 0, "sigma": -1})
    with pytest.raises(SpecParseError, match="invalid uniform"):
        parse_distribution({"kind": "uniform", "a": 2, "b": 1})

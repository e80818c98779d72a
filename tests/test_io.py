"""Exact JSON round-trips and the rejection of lossy number forms."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixquant.distributions import Exponential, LogNormal, Normal, Piecewise, Uniform
from mixquant.mixture import MixtureSpec
from mixquant.serialization import (
    SpecParseError,
    exact_number_to_string,
    extended_to_string,
    parse_distribution,
    parse_exact_number,
    parse_mixture,
    serialize_distribution,
    serialize_mixture,
)

from reference import ref_parse_exact_number
from test_distributions import spoiled_parameters

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
    [
        0.25, "1e-3", "2E5", "nan", "inf", "1/0", "", "abc", True, None, [1],
        # Digits of other scripts: serialization writes ASCII only.
        "\u0663", "\u0661/\u0662", "\u0660.\u0665", "1\u0669",
    ],
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


@pytest.mark.parametrize(
    "d",
    [
        Uniform(-1.5, 2.0),
        Normal(0.5, 1.5),
        Exponential(0.25),
        LogNormal(-2.0, 0.75),
        Piecewise(atoms=[(F(1, 3), F(1, 2))], segments=[(0, F(1, 4), F(1, 2))]),
    ],
    ids=lambda d: type(d).__name__,
)
def test_every_family_document_round_trips(d):
    doc = serialize_distribution(d)
    assert doc["kind"] == type(d).__name__.lower()
    back = parse_distribution(json.loads(json.dumps(doc)))
    assert back == d and type(back) is type(d)
    assert serialize_distribution(back) == doc


def test_parametric_documents_list_the_class_fields_in_order():
    assert list(serialize_distribution(Uniform(0.0, 1.0))) == ["kind", "a", "b"]
    assert list(serialize_distribution(Normal(0.0, 1.0))) == ["kind", "mu", "sigma"]
    assert list(serialize_distribution(Exponential(2.0))) == ["kind", "rate"]
    assert list(serialize_distribution(LogNormal(0.0, 1.0))) == ["kind", "mu", "sigma"]


@pytest.mark.parametrize("cls, params", spoiled_parameters())
def test_parse_rejects_non_finite_parameters(cls, params):
    # As a Python float and as the string JSON can carry.
    for spell in (float, str):
        literal = {"kind": cls.__name__.lower(), **{k: spell(v) for k, v in params.items()}}
        with pytest.raises(SpecParseError, match="finite"):
            parse_distribution(literal)


_UNIT = {"kind": "uniform", "a": 0, "b": 1}
_RAW_FLOAT = "raw JSON floats are not exact; write the number as a decimal string"


def _piecewise(atoms, segments=()):
    return {"kind": "piecewise", "atoms": atoms, "segments": list(segments)}


@pytest.mark.parametrize(
    "parse, doc, message",
    [
        (parse_distribution, _piecewise([[0.5, "1"]]), f"atom 0 location: {_RAW_FLOAT}"),
        (
            parse_distribution,
            _piecewise([["0", "1"]], [["0", 1.5, "1"]]),
            f"segment 0 right: {_RAW_FLOAT}",
        ),
        (parse_distribution, {"kind": "beta", "a": 1, "b": 2}, "unknown distribution kind 'beta'"),
        (parse_distribution, {"a": 0, "b": 1}, "unknown distribution kind None"),
        (parse_distribution, [1], "distribution literal must be an object, got list"),
        (
            parse_distribution,
            {"kind": "normal", "mu": 0, "sigma": 1, "tail": 2},
            "normal literal has unknown fields ['tail']",
        ),
        (
            parse_distribution,
            {"kind": "piecewise", "atoms": [], "mass": []},
            "piecewise literal has unknown fields ['mass']",
        ),
        (
            parse_distribution,
            {"kind": "normal", "mu": 0},
            "normal literal is missing fields ['sigma']",
        ),
        (parse_distribution, {"kind": "uniform"}, "uniform literal is missing fields ['a', 'b']"),
        (parse_distribution, _piecewise([[1]]), "atom 0 must be a [location, mass] pair"),
        (
            parse_distribution,
            _piecewise([], [[0, 1]]),
            "segment 0 must be a [left, right, rise] triple",
        ),
        (parse_distribution, _piecewise("x"), "piecewise atoms/segments must be arrays"),
        # With several bad rows, the first one in order is reported.
        (parse_distribution, _piecewise([["0", 0.5], [1]]), f"atom 0 mass: {_RAW_FLOAT}"),
        (
            parse_distribution,
            _piecewise([["0", "1/2"], [1]]),
            "atom 1 must be a [location, mass] pair",
        ),
        (
            parse_distribution,
            _piecewise([["0", "1"]], [["0", "1", "1"], ["2", "3e1", "1"], [1]]),
            "segment 1 right: '3e1' is not a plain decimal or n/d ratio "
            "(scientific notation is rejected)",
        ),
        (
            parse_distribution,
            {"kind": "normal", "mu": True, "sigma": 1},
            "normal mu: expected a number, got True",
        ),
        (
            parse_distribution,
            {"kind": "normal", "mu": [0], "sigma": 1},
            "normal mu: expected a number, got list",
        ),
        (
            parse_distribution,
            {"kind": "normal", "mu": "abc", "sigma": 1},
            "normal mu: cannot parse 'abc' as a number",
        ),
        (
            parse_distribution,
            {"kind": "normal", "mu": "\u0663", "sigma": 1},
            "normal mu: '\u0663' is not a plain number (ASCII digits, no underscores)",
        ),
        (
            parse_distribution,
            {"kind": "normal", "mu": 0, "sigma": "1_0"},
            "normal sigma: '1_0' is not a plain number (ASCII digits, no underscores)",
        ),
        (parse_mixture, [1, 2, 3], "mixture document must be an object, got list"),
        (parse_mixture, {"q": "0.5", "X": _UNIT}, "mixture document is missing fields ['Y']"),
        (parse_mixture, {"Z": 1}, "mixture document is missing fields ['q', 'X', 'Y']"),
        (
            parse_mixture,
            {"q": "0.5", "X": _UNIT, "Y": _UNIT, "Z": _UNIT},
            "mixture document has unknown fields ['Z']",
        ),
        (
            parse_mixture,
            {"q": "1.5", "X": _UNIT, "Y": _UNIT},
            "mixing weight q must lie in [0, 1], got 3/2",
        ),
        (parse_mixture, {"q": 0.5, "X": _UNIT, "Y": _UNIT}, f"mixing weight q: {_RAW_FLOAT}"),
        (
            parse_mixture,
            {"q": "\u0661/\u0662", "X": _UNIT, "Y": _UNIT},
            "mixing weight q: '\u0661/\u0662' is not a plain decimal or n/d ratio "
            "(scientific notation is rejected)",
        ),
        (
            parse_mixture,
            {"q": "0.5", "X": _piecewise([["\u0663", "1"]]), "Y": _UNIT},
            "atom 0 location: '\u0663' is not a plain decimal or n/d ratio "
            "(scientific notation is rejected)",
        ),
        (
            parse_mixture,
            {"q": "0.5", "X": _piecewise([["0", "0.5"]]), "Y": _UNIT},
            "invalid piecewise literal: atom masses plus segment rises must equal 1, got 1/2",
        ),
        # The family range checks name finiteness too, since they also
        # reject infinities and NaN.
        (
            parse_distribution,
            {"kind": "normal", "mu": 0, "sigma": -1},
            "invalid normal literal: normal needs finite mu and finite sigma > 0, "
            "got mu=0.0, sigma=-1.0",
        ),
        (
            parse_distribution,
            {"kind": "uniform", "a": 2, "b": 1},
            "invalid uniform literal: uniform needs finite a < b, got [2.0, 1.0]",
        ),
        # Equal strings parse once per literal, but only strings: JSON true
        # equals 1 as a key and is still rejected, and a string that failed
        # is reported again where it first stands.
        (
            parse_distribution,
            _piecewise([[1, "1/2"], ["2", True]]),
            "atom 1 mass: expected a number, got True",
        ),
        (
            parse_distribution,
            _piecewise([["0", "1/2"], ["1e0", "1/2"]], [["1e0", "2", "1"]]),
            "atom 1 location: '1e0' is not a plain decimal or n/d ratio "
            "(scientific notation is rejected)",
        ),
    ],
)
def test_malformed_literal_messages(parse, doc, message):
    with pytest.raises(SpecParseError) as caught:
        parse(doc)
    assert str(caught.value) == message


def test_equal_number_strings_parse_to_one_fraction():
    # A shared end arrives as one object, so the mixture walk tells it by
    # identity instead of comparing two equal Fractions.
    d = parse_distribution(
        _piecewise([["1", "1/4"]], [["0", "1", "1/4"], ["1", "2", "1/2"]])
    )
    (_, right, rise), (left, _, _) = d.segments
    (loc, mass), = d.atoms
    assert right is left and loc is left and rise is mass
    again = parse_distribution(_piecewise([["1", "1"]]))
    assert again.atoms[0][0] == left and again.atoms[0][0] is not left


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

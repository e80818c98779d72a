"""Exact JSON documents for mixtures and distributions.

A mixture document is ``{"q": <number>, "X": <distribution>, "Y":
<distribution>}``.  A distribution literal carries a ``kind`` drawn from
piecewise/uniform/normal/exponential/lognormal; piecewise literals list
``atoms`` as [location, mass] pairs and ``segments`` as [left, right, rise]
triples.

Numbers in piecewise literals (and the weight q) must be decimal strings,
integers, or "n/d" ratio strings; they parse exactly into rationals, and
scientific notation or raw JSON floats are rejected so no precision is lost
silently.  Serialization emits a plain decimal string whenever the rational
is decimal-representable and the "n/d" form otherwise, making parse and
serialize exact inverses.  Parametric parameters are ordinary floats, named
as the family class's fields; the class's constructor checks their range,
non-finite values included.
"""

from __future__ import annotations

import re
from dataclasses import fields
from fractions import Fraction

from .distributions import (
    Distribution,
    Exponential,
    LogNormal,
    NEG_INF,
    Normal,
    POS_INF,
    Piecewise,
    Uniform,
)
from .mixture import MixtureSpec

__all__ = [
    "SpecParseError",
    "parse_exact_number",
    "exact_number_to_string",
    "extended_to_string",
    "parse_distribution",
    "serialize_distribution",
    "parse_mixture",
    "serialize_mixture",
]

#: Each parametric family's document kind; its fields are the class's fields.
_FAMILIES = {cls.__name__.lower(): cls for cls in (Uniform, Normal, Exponential, LogNormal)}

# An integer or "n/d" ratio (groups: signed numerator, denominator), or a
# decimal with a point (no groups), in the ASCII digits serialization writes.
_EXACT_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?|[+-]?(?:\d+\.\d*|\.\d+)", re.ASCII)


class SpecParseError(ValueError):
    """A mixture document is malformed or loses exactness."""


def parse_exact_number(value, where: str = "number") -> Fraction:
    """Exact rational from an int, decimal string, or "n/d" ratio string."""
    if isinstance(value, bool):
        raise SpecParseError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SpecParseError(
            f"{where}: raw JSON floats are not exact; write the number as a decimal string"
        )
    if isinstance(value, str):
        text = value.strip()
        match = _EXACT_RE.fullmatch(text)
        if match:
            num, den = match.groups()
            try:
                if num is None:
                    return Fraction(text)
                if den is None:
                    return Fraction(int(num))
                return Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError) as exc:
                raise SpecParseError(f"{where}: cannot parse {value!r}: {exc}") from None
        raise SpecParseError(
            f"{where}: {value!r} is not a plain decimal or n/d ratio "
            "(scientific notation is rejected)"
        )
    raise SpecParseError(f"{where}: expected a number, got {type(value).__name__}")


def exact_number_to_string(value: Fraction) -> str:
    """Minimal exact string: decimal when the denominator is 2^a * 5^b, else n/d."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    den = value.denominator
    if den == 1:
        return str(value.numerator)
    reduced = den
    twos = fives = 0
    while reduced % 2 == 0:
        reduced //= 2
        twos += 1
    while reduced % 5 == 0:
        reduced //= 5
        fives += 1
    if reduced != 1:
        return f"{value.numerator}/{den}"
    k = max(twos, fives)
    scaled = abs(value.numerator) * 10**k // den
    digits = str(scaled).rjust(k + 1, "0")
    sign = "-" if value.numerator < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def extended_to_string(value) -> str:
    """Exact string form of an extended real (Fractions exact, floats repr)."""
    if isinstance(value, Fraction):
        return exact_number_to_string(value)
    value = float(value)
    if value == POS_INF:
        return "inf"
    if value == NEG_INF:
        return "-inf"
    return repr(value)


def _parse_float(value, where: str) -> float:
    """A float parameter; the family's constructor checks its range."""
    if isinstance(value, bool):
        raise SpecParseError(f"{where}: expected a number, got {value!r}")
    if not isinstance(value, (int, float, str)):
        raise SpecParseError(f"{where}: expected a number, got {type(value).__name__}")
    # float() also reads other scripts' digits and underscores; exact numbers
    # take neither, so parameters do not either.
    if isinstance(value, str) and (not value.isascii() or "_" in value):
        raise SpecParseError(
            f"{where}: {value!r} is not a plain number (ASCII digits, no underscores)"
        )
    try:
        return float(value.strip() if isinstance(value, str) else value)
    except (ValueError, OverflowError):
        raise SpecParseError(f"{where}: cannot parse {value!r} as a number") from None


def _check_fields(obj: dict, what: str, required: tuple[str, ...], optional=("kind",)) -> None:
    """Every required field present, and none beyond ``required + optional``."""
    missing = [name for name in required if name not in obj]
    if missing:
        raise SpecParseError(f"{what} is missing fields {missing}")
    extra = set(obj).difference(required, optional)
    if extra:
        raise SpecParseError(f"{what} has unknown fields {sorted(extra)}")


def _parse_rows(
    raw: list, row: str, names: tuple[str, ...], shape: str, numbers: dict[str, Fraction]
) -> list[tuple]:
    """Exact rows of a piecewise literal, each a list of one number per name.

    Each distinct string is parsed once, through ``numbers``, which the
    literal's rows share, so equal numbers arrive as one ``Fraction``, and
    the rows reader of a build and of a mixture walk
    (``distributions._read_rows``) converts a shared end once.  Only strings
    are keys (JSON ``true`` equals ``1`` as a key and must still be
    rejected), and only parsed ones are stored.  A row that fails to parse
    is read again with labels, so the message names the row and field;
    well-formed rows build no labels.
    """

    def parse(value) -> Fraction:
        if value.__class__ is not str:
            return parse_exact_number(value)
        number = numbers.get(value)
        if number is None:
            number = numbers[value] = parse_exact_number(value)
        return number

    width = len(names)
    rows = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != width:
            raise SpecParseError(f"{row} {i} must be a [{', '.join(names)}] {shape}")
        try:
            rows.append(tuple(map(parse, entry)))
        except SpecParseError:
            labels = [f"{row} {i} {name}" for name in names]
            rows.append(tuple(map(parse_exact_number, entry, labels)))  # raises, with the label
    return rows


def parse_distribution(obj) -> Distribution:
    """Distribution from a literal object; exact for piecewise literals."""
    if not isinstance(obj, dict):
        raise SpecParseError(f"distribution literal must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "piecewise":
        _check_fields(obj, "piecewise literal", (), ("kind", "atoms", "segments"))
        atoms_raw = obj.get("atoms", [])
        segments_raw = obj.get("segments", [])
        if not isinstance(atoms_raw, list) or not isinstance(segments_raw, list):
            raise SpecParseError("piecewise atoms/segments must be arrays")
        numbers: dict[str, Fraction] = {}
        atoms = _parse_rows(atoms_raw, "atom", ("location", "mass"), "pair", numbers)
        segments = _parse_rows(
            segments_raw, "segment", ("left", "right", "rise"), "triple", numbers
        )
        try:
            return Piecewise(atoms, segments)
        except ValueError as exc:
            raise SpecParseError(f"invalid piecewise literal: {exc}") from None
    cls = _FAMILIES.get(kind)
    if cls is None:
        raise SpecParseError(f"unknown distribution kind {kind!r}")
    names = tuple(f.name for f in fields(cls))
    _check_fields(obj, f"{kind} literal", names)
    params = [_parse_float(obj[name], f"{kind} {name}") for name in names]
    try:
        return cls(*params)
    except ValueError as exc:
        raise SpecParseError(f"invalid {kind} literal: {exc}") from None


def serialize_distribution(d: Distribution) -> dict:
    """Literal object for a distribution; inverse of ``parse_distribution``."""
    if isinstance(d, Piecewise):
        return {
            "kind": "piecewise",
            "atoms": [
                [exact_number_to_string(loc), exact_number_to_string(mass)]
                for loc, mass in d.atoms
            ],
            "segments": [
                [
                    exact_number_to_string(left),
                    exact_number_to_string(right),
                    exact_number_to_string(rise),
                ]
                for left, right, rise in d.segments
            ],
        }
    kind = type(d).__name__.lower()
    if _FAMILIES.get(kind) is not type(d):
        raise ValueError(f"cannot serialize distribution type {type(d).__name__}")
    return {"kind": kind, **{f.name: getattr(d, f.name) for f in fields(d)}}


def parse_mixture(doc) -> MixtureSpec:
    """MixtureSpec from a mixture document."""
    if not isinstance(doc, dict):
        raise SpecParseError(f"mixture document must be an object, got {type(doc).__name__}")
    _check_fields(doc, "mixture document", ("q", "X", "Y"), ())
    q = parse_exact_number(doc["q"], "mixing weight q")
    if not 0 <= q <= 1:
        raise SpecParseError(f"mixing weight q must lie in [0, 1], got {q}")
    return MixtureSpec(q, parse_distribution(doc["X"]), parse_distribution(doc["Y"]))


def serialize_mixture(m: MixtureSpec) -> dict:
    """Mixture document for a spec; inverse of ``parse_mixture``."""
    return {
        "q": exact_number_to_string(m.q),
        "X": serialize_distribution(m.x),
        "Y": serialize_distribution(m.y),
    }

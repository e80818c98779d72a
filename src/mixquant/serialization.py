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
serialize exact inverses.  Parametric parameters are ordinary floats and
must be finite.
"""

from __future__ import annotations

import math
import re
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

# An integer or "n/d" ratio (groups: signed numerator, denominator), or a
# decimal with a point (no groups).
_EXACT_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?|[+-]?(?:\d+\.\d*|\.\d+)")


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
    """A finite float parameter; infinities and NaN are rejected."""
    if isinstance(value, bool):
        raise SpecParseError(f"{where}: expected a number, got {value!r}")
    if not isinstance(value, (int, float, str)):
        raise SpecParseError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        number = float(value.strip() if isinstance(value, str) else value)
    except (ValueError, OverflowError):
        raise SpecParseError(f"{where}: cannot parse {value!r} as a number") from None
    if not math.isfinite(number):
        raise SpecParseError(f"{where}: expected a finite number, got {value!r}")
    return number


def _require_fields(obj: dict, kind: str, fields: tuple[str, ...]) -> None:
    missing = [name for name in fields if name not in obj]
    if missing:
        raise SpecParseError(f"{kind} literal is missing fields {missing}")
    extra = set(obj) - set(fields) - {"kind"}
    if extra:
        raise SpecParseError(f"{kind} literal has unknown fields {sorted(extra)}")


def parse_distribution(obj) -> Distribution:
    """Distribution from a literal object; exact for piecewise literals."""
    if not isinstance(obj, dict):
        raise SpecParseError(f"distribution literal must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "piecewise":
        allowed = ("atoms", "segments")
        extra = set(obj) - set(allowed) - {"kind"}
        if extra:
            raise SpecParseError(f"piecewise literal has unknown fields {sorted(extra)}")
        atoms_raw = obj.get("atoms", [])
        segments_raw = obj.get("segments", [])
        if not isinstance(atoms_raw, list) or not isinstance(segments_raw, list):
            raise SpecParseError("piecewise atoms/segments must be arrays")
        atoms = []
        for i, entry in enumerate(atoms_raw):
            if not isinstance(entry, list) or len(entry) != 2:
                raise SpecParseError(f"atom {i} must be a [location, mass] pair")
            atoms.append(
                (
                    parse_exact_number(entry[0], f"atom {i} location"),
                    parse_exact_number(entry[1], f"atom {i} mass"),
                )
            )
        segments = []
        for i, entry in enumerate(segments_raw):
            if not isinstance(entry, list) or len(entry) != 3:
                raise SpecParseError(f"segment {i} must be a [left, right, rise] triple")
            segments.append(
                (
                    parse_exact_number(entry[0], f"segment {i} left"),
                    parse_exact_number(entry[1], f"segment {i} right"),
                    parse_exact_number(entry[2], f"segment {i} rise"),
                )
            )
        try:
            return Piecewise(atoms, segments)
        except ValueError as exc:
            raise SpecParseError(f"invalid piecewise literal: {exc}") from None
    if kind == "uniform":
        _require_fields(obj, kind, ("a", "b"))
        cls, names = Uniform, ("a", "b")
    elif kind == "normal":
        _require_fields(obj, kind, ("mu", "sigma"))
        cls, names = Normal, ("mu", "sigma")
    elif kind == "exponential":
        _require_fields(obj, kind, ("rate",))
        cls, names = Exponential, ("rate",)
    elif kind == "lognormal":
        _require_fields(obj, kind, ("mu", "sigma"))
        cls, names = LogNormal, ("mu", "sigma")
    else:
        raise SpecParseError(f"unknown distribution kind {kind!r}")
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
    if isinstance(d, Uniform):
        return {"kind": "uniform", "a": d.a, "b": d.b}
    if isinstance(d, Normal):
        return {"kind": "normal", "mu": d.mu, "sigma": d.sigma}
    if isinstance(d, Exponential):
        return {"kind": "exponential", "rate": d.rate}
    if isinstance(d, LogNormal):
        return {"kind": "lognormal", "mu": d.mu, "sigma": d.sigma}
    raise ValueError(f"cannot serialize distribution type {type(d).__name__}")


def parse_mixture(doc) -> MixtureSpec:
    """MixtureSpec from a mixture document."""
    if not isinstance(doc, dict):
        raise SpecParseError(f"mixture document must be an object, got {type(doc).__name__}")
    missing = [name for name in ("q", "X", "Y") if name not in doc]
    if missing:
        raise SpecParseError(f"mixture document is missing fields {missing}")
    extra = set(doc) - {"q", "X", "Y"}
    if extra:
        raise SpecParseError(f"mixture document has unknown fields {sorted(extra)}")
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

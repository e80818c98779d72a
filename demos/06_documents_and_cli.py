"""Mixture documents and the command-line interface.

Mixtures serialize to JSON documents whose numbers are decimal or "n/d"
strings, so parse and serialize are exact inverses (raw JSON floats are
rejected rather than silently rounded).  The CLI reads those documents and
exposes the quantile, the classifier, curve tabulation, and the randomized
verifier; output is byte-deterministic for a fixed invocation.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

from mixquant import MixtureSpec, Piecewise, parse_mixture, serialize_mixture
from mixquant.cli import main

m = MixtureSpec(
    F(1, 3),
    Piecewise(atoms=[(F(1, 2), F(1, 4))], segments=[(-1, 0, F(3, 4))]),
    Piecewise.uniform(0, 2),
)

doc = serialize_mixture(m)
text = json.dumps(doc, indent=2)
print("serialized document:")
print(text)

back = parse_mixture(json.loads(text))
assert back.q == m.q and back.x.atoms == m.x.atoms
print("round-trip is exact")

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    spec_path = workdir / "mixture.json"
    spec_path.write_text(text, encoding="utf-8")

    print()
    print("$ mixquant quantile --spec mixture.json --p 0.5")
    code = main(["quantile", "--spec", str(spec_path), "--p", "0.5"])
    assert code == 0

    print()
    print("$ mixquant --format machine classify --spec mixture.json --p 0.5")
    code = main(["--format", "machine", "classify", "--spec", str(spec_path), "--p", "0.5"])
    assert code == 0

    print()
    curve_path = workdir / "curve.csv"
    print("$ mixquant curve --spec mixture.json --from -2 --to 3 --steps 6 --out curve.csv")
    code = main(
        [
            "curve", "--spec", str(spec_path), "--from", "-2", "--to", "3",
            "--steps", "6", "--out", str(curve_path),
        ]
    )
    assert code == 0
    print(curve_path.read_text(encoding="utf-8"))

    print("$ mixquant verify --count 40 --seed 11   (tail of the output)")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["verify", "--count", "40", "--seed", "11"])
    assert code == 0
    for line in buffer.getvalue().splitlines()[-8:]:
        print(line)

    print()
    print("exit codes: 0 ok, 1 verification failures, 2 malformed spec,")
    print("3 domain error, 4 internal contradiction, 5 unwritable output")
    bad = workdir / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["quantile", "--spec", str(bad), "--p", "0.5"]) == 2
    assert main(["quantile", "--spec", str(spec_path), "--p", "1.5"]) == 3

"""Command-line interface: outputs, exit codes, determinism."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mixquant.cli import main
from mixquant.distributions import Piecewise
from mixquant.mixture import MixtureSpec
from mixquant.serialization import exact_number_to_string, extended_to_string, serialize_mixture
from mixquant.split import QuantileSolution
from reference import ref_cdf, ref_merged, ref_quantile
from test_distributions import FAR_LAW, rational_piecewise_dists

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FRESH_MAIN = "import sys; from mixquant.cli import main; sys.exit(main(sys.argv[1:]))"

TWO_ATOMS = {
    "q": "0.5",
    "X": {"kind": "piecewise", "atoms": [["0", "1"]], "segments": []},
    "Y": {"kind": "piecewise", "atoms": [["1", "1"]], "segments": []},
}

# Both CDFs jump off a plateau at the shared lowest atom: cell (4d).
SHARED_LOWEST_ATOM = {
    "q": "0.5",
    "X": {"kind": "piecewise", "atoms": [["0", "1"]], "segments": []},
    "Y": {"kind": "piecewise", "atoms": [["0", "0.5"], ["3", "0.5"]], "segments": []},
}

NORMAL_PAIR = {
    "q": "0.3",
    "X": {"kind": "normal", "mu": 0, "sigma": 1},
    "Y": {"kind": "normal", "mu": 1, "sigma": 1},
}


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------


def test_quantile_text_output(spec_file, capsys):
    code = main(["quantile", "--spec", spec_file(TWO_ATOMS), "--p", "0.25"])
    assert code == 0
    assert capsys.readouterr().out == (
        "s_p = 0\n"
        "alpha_star = 0.5\n"
        "beta_star = 0\n"
        "x_attains = true\n"
        "y_attains = false\n"
        "clamped = false\n"
    )


def test_quantile_machine_output(spec_file, capsys):
    code = main(
        ["--format", "machine", "quantile", "--spec", spec_file(TWO_ATOMS), "--p", "0.25"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "s_p": "0",
        "alpha_star": "0.5",
        "beta_star": "0",
        "x_attains": True,
        "y_attains": False,
        "clamped": False,
    }


def test_quantile_on_a_mixed_pair_answers_at_the_atom(spec_file, capsys):
    # X's atom at 0 holds the level: s_p = 0, reached at the exact end alpha = 1/5.
    doc = {
        "q": "0.5",
        "X": {
            "kind": "piecewise",
            "atoms": [["0", "1/5"]],
            "segments": [["5/4", "2", "2/5"], ["2", "11/4", "2/5"]],
        },
        "Y": {"kind": "normal", "mu": 2.0009366731385736, "sigma": 1.4825307706491733},
    }
    assert main(["quantile", "--spec", spec_file(doc), "--p", "0.1"]) == 0
    assert capsys.readouterr().out.startswith("s_p = 0\n")


def test_quantile_prints_an_exact_range_end_exactly(spec_file, capsys):
    # Touching float Uniforms at q = p = 1/2: alpha* is the exact end 1.
    doc = {
        "q": "0.5",
        "X": {"kind": "uniform", "a": 0, "b": 1},
        "Y": {"kind": "uniform", "a": 1, "b": 2},
    }
    spec = spec_file(doc)
    assert main(["quantile", "--spec", spec, "--p", "0.5"]) == 0
    assert capsys.readouterr().out == (
        "s_p = 1.0\n"
        "alpha_star = 1\n"
        "beta_star = 0\n"
        "x_attains = true\n"
        "y_attains = false\n"
        "clamped = false\n"
    )
    assert main(["--format", "machine", "quantile", "--spec", spec, "--p", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["s_p"], doc["alpha_star"], doc["beta_star"]) == ("1.0", "1", "0")


def test_quantile_output_is_byte_deterministic(spec_file, capsys):
    argv = ["quantile", "--spec", spec_file(NORMAL_PAIR), "--p", "0.9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_text_output(spec_file, capsys):
    code = main(["classify", "--spec", spec_file(TWO_ATOMS), "--p", "0.25"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "cell = 4b"
    assert out[1] == "s_p = 0"
    assert all(line.endswith("ok") for line in out if line.startswith("relation"))


def test_classify_machine_output(spec_file, capsys):
    code = main(
        ["--format", "machine", "classify", "--spec", spec_file(TWO_ATOMS), "--p", "0.25"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cell"] == "4b"
    assert all(holds for _, holds in doc["relations"])


def test_classify_shared_lowest_atom_text_output(spec_file, capsys):
    code = main(["classify", "--spec", spec_file(SHARED_LOWEST_ATOM), "--p", "0.25"])
    assert code == 0
    assert capsys.readouterr().out == (
        "cell = 4d/F_S(sp-)<p\n"
        "s_p = 0\n"
        "f_flat_witness = -1\n"
        "g_flat_witness = -1\n"
        "relation s_p > Qx(alpha_star) [alpha_star = F(s_p-)]: ok\n"
        "relation s_p = Qy(beta_star) [beta_star > G(s_p-)]: ok\n"
    )


def test_classify_shared_lowest_atom_machine_output(spec_file, capsys):
    spec = spec_file(SHARED_LOWEST_ATOM)
    code = main(["--format", "machine", "classify", "--spec", spec, "--p", "0.25"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"cell":"4d/F_S(sp-)<p","f_flat_witness":"-1","g_flat_witness":"-1",'
        '"relations":[["s_p > Qx(alpha_star) [alpha_star = F(s_p-)]",true],'
        '["s_p = Qy(beta_star) [beta_star > G(s_p-)]",true]],"s_p":"0"}\n'
    )


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def test_curve_writes_exact_tables(spec_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(
        [
            "curve",
            "--spec",
            spec_file(TWO_ATOMS),
            "--from",
            "-1",
            "--to",
            "2",
            "--steps",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == (
        "x,F,G,FS\n"
        "-1,0,0,0\n"
        "0,1,0,0.5\n"
        "1,1,1,1\n"
        "2,1,1,1\n"
        "\n"
        "p,Qx,Qy,QS\n"
        "0.2,0,1,0\n"
        "0.4,0,1,0\n"
        "0.6,0,1,1\n"
        "0.8,0,1,1\n"
    )
    assert "wrote" in capsys.readouterr().out


def test_curve_walks_an_exact_mixture_once_and_never_merges(
    spec_file, tmp_path, walk_counter, merge_counter
):
    doc = {
        "q": "1/3",
        "X": {"kind": "piecewise", "atoms": [["0", "1/4"]], "segments": [["0", "2", "3/4"]]},
        "Y": {"kind": "piecewise", "atoms": [["1", "1/2"]], "segments": [["-1", "1", "1/2"]]},
    }
    argv = ["curve", "--spec", spec_file(doc), "--from", "-2", "--to", "3", "--steps", "16"]
    assert main(argv + ["--out", str(tmp_path / "curve.csv")]) == 0
    assert len(walk_counter) == 1
    assert merge_counter == []


def test_curve_reads_each_component_cdf_once_per_row(spec_file, tmp_path, monkeypatch):
    calls = []
    real = Piecewise.cdf

    def counting(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(Piecewise, "cdf", counting)
    argv = ["curve", "--spec", spec_file(TWO_ATOMS), "--from", "-2", "--to", "3", "--steps", "16"]
    assert main(argv + ["--out", str(tmp_path / "curve.csv")]) == 0
    assert len(calls) == 2 * 16


# ---------------------------------------------------------------------------
# a lone component (q in {0, 1})
# ---------------------------------------------------------------------------

_PIECES = {
    "kind": "piecewise",
    "atoms": [["0", "1/4"], ["2", "1/4"]],
    "segments": [["0", "1", "1/2"]],
}
_AT_FIVE = {"kind": "piecewise", "atoms": [["5", "1"]], "segments": []}
_NORMAL = {"kind": "normal", "mu": 0, "sigma": 1}

#: q in {0, 1} documents, each with the stdout of ``quantile --p 0.25`` in
#: text and machine form and the table of ``curve --from -1 --to 2 --steps 3``.
LONE_DOCUMENTS = {
    "exact-q1": (
        {"q": "1", "X": _PIECES, "Y": _AT_FIVE},
        "s_p = 0\nalpha_star = 0.25\nbeta_star = 0.25\n"
        "x_attains = true\ny_attains = false\nclamped = false\n",
        '{"alpha_star":"0.25","beta_star":"0.25","clamped":false,'
        '"s_p":"0","x_attains":true,"y_attains":false}\n',
        "x,F,G,FS\n-1,0,0,0\n0.5,0.5,0,0.5\n2,1,0,1\n\n"
        "p,Qx,Qy,QS\n0.25,0,5,0\n0.5,0.5,5,0.5\n0.75,1,5,1\n",
    ),
    "exact-q0": (
        {"q": "0", "X": _AT_FIVE, "Y": _PIECES},
        "s_p = 0\nalpha_star = 0.25\nbeta_star = 0.25\n"
        "x_attains = false\ny_attains = true\nclamped = false\n",
        '{"alpha_star":"0.25","beta_star":"0.25","clamped":false,'
        '"s_p":"0","x_attains":false,"y_attains":true}\n',
        "x,F,G,FS\n-1,0,0,0\n0.5,0,0.5,0.5\n2,0,1,1\n\n"
        "p,Qx,Qy,QS\n0.25,5,0,0\n0.5,5,0.5,0.5\n0.75,5,1,1\n",
    ),
    "parametric-q1": (
        {"q": "1", "X": _NORMAL, "Y": {"kind": "exponential", "rate": 2}},
        "s_p = -0.6744897501960817\nalpha_star = 0.25\nbeta_star = 0.25\n"
        "x_attains = true\ny_attains = false\nclamped = false\n",
        '{"alpha_star":"0.25","beta_star":"0.25","clamped":false,'
        '"s_p":"-0.6744897501960817","x_attains":true,"y_attains":false}\n',
        "x,F,G,FS\n"
        "-1,0.15865525393145707,0.0,0.15865525393145707\n"
        "0.5,0.6914624612740131,0.6321205588285577,0.6914624612740131\n"
        "2,0.9772498680518208,0.9816843611112658,0.9772498680518208\n\n"
        "p,Qx,Qy,QS\n"
        "0.25,-0.6744897501960817,0.14384103622589045,-0.6744897501960817\n"
        "0.5,0.0,0.34657359027997264,0.0\n"
        "0.75,0.6744897501960817,0.6931471805599453,0.6744897501960817\n",
    ),
    "mixed-q0": (
        {"q": "0", "X": _PIECES, "Y": _NORMAL},
        "s_p = -0.6744897501960817\nalpha_star = 0.25\nbeta_star = 0.25\n"
        "x_attains = false\ny_attains = true\nclamped = false\n",
        '{"alpha_star":"0.25","beta_star":"0.25","clamped":false,'
        '"s_p":"-0.6744897501960817","x_attains":false,"y_attains":true}\n',
        "x,F,G,FS\n"
        "-1,0,0.15865525393145707,0.15865525393145707\n"
        "0.5,0.5,0.6914624612740131,0.6914624612740131\n"
        "2,1,0.9772498680518208,0.9772498680518208\n\n"
        "p,Qx,Qy,QS\n"
        "0.25,0,-0.6744897501960817,-0.6744897501960817\n"
        "0.5,0.5,0.0,0.0\n"
        "0.75,1,0.6744897501960817,0.6744897501960817\n",
    ),
    "mixed-q1": (
        {"q": "1", "X": _PIECES, "Y": _NORMAL},
        "s_p = 0\nalpha_star = 0.25\nbeta_star = 0.25\n"
        "x_attains = true\ny_attains = false\nclamped = false\n",
        '{"alpha_star":"0.25","beta_star":"0.25","clamped":false,'
        '"s_p":"0","x_attains":true,"y_attains":false}\n',
        "x,F,G,FS\n"
        "-1,0,0.15865525393145707,0.0\n"
        "0.5,0.5,0.6914624612740131,0.5\n"
        "2,1,0.9772498680518208,1.0\n\n"
        "p,Qx,Qy,QS\n"
        "0.25,0,-0.6744897501960817,0\n"
        "0.5,0.5,0.0,0.5\n"
        "0.75,1,0.6744897501960817,1\n",
    ),
}


@pytest.mark.parametrize("name", LONE_DOCUMENTS)
def test_lone_component_outputs_are_pinned(name, spec_file, tmp_path, capsys):
    doc, quantile_text, quantile_machine, table = LONE_DOCUMENTS[name]
    spec = spec_file(doc)
    out = str(tmp_path / "curve.csv")
    curve = ["curve", "--spec", spec, "--from", "-1", "--to", "2", "--steps", "3", "--out", out]
    expected = {
        "text": (quantile_text, f"wrote {out} (3 x-rows, 3 p-rows)\n"),
        "machine": (quantile_machine, json.dumps({"out": out, "rows": 8}) + "\n"),
    }
    for fmt, (quantile_out, curve_out) in expected.items():
        assert main(["--format", fmt, "quantile", "--spec", spec, "--p", "0.25"]) == 0
        assert capsys.readouterr().out == quantile_out
        assert main(["--format", fmt, "classify", "--spec", spec, "--p", "0.25"]) == 3
        assert capsys.readouterr().out == ""
        assert main(["--format", fmt, *curve]) == 0
        assert capsys.readouterr().out == curve_out
        with open(out, encoding="utf-8") as handle:
            assert handle.read() == table


def _adjacent_units(rng, features, offset):
    """Adjacent unit segments from ``offset``, a tenth of the features atoms
    on distinct segment ends, with random exact weights: the raw feature
    lists and the document literal."""
    n_seg, n_atoms = features - features // 10, features // 10
    draws = [rng.randint(1, 9) for _ in range(features)]
    total = sum(draws)
    weights = [F(d, total) for d in draws]
    ends = rng.sample(range(n_seg + 1), n_atoms)
    raw = SimpleNamespace(
        atoms=sorted((offset + e, weights[n_seg + j]) for j, e in enumerate(ends)),
        segments=[(offset + i, offset + i + 1, weights[i]) for i in range(n_seg)],
    )
    literal = {
        "kind": "piecewise",
        "atoms": [[exact_number_to_string(v) for v in atom] for atom in raw.atoms],
        "segments": [[exact_number_to_string(v) for v in seg] for seg in raw.segments],
    }
    return raw, literal


def _reference_curve(q, x, y, lo, hi, steps):
    """The curve table from the naive CDF, quantile and merge."""
    atoms, segments = ref_merged(SimpleNamespace(q=q, x=x, y=y))
    merged = SimpleNamespace(atoms=atoms, segments=segments)
    rows = ["x,F,G,FS"]
    for i in range(steps):
        t = lo + (hi - lo) * F(i, steps - 1)
        f, g = ref_cdf(x, t), ref_cdf(y, t)
        rows.append(",".join(extended_to_string(v) for v in (t, f, g, q * f + (1 - q) * g)))
    rows += ["", "p,Qx,Qy,QS"]
    for j in range(1, steps + 1):
        p = F(j, steps + 1)
        values = (p, ref_quantile(x, p), ref_quantile(y, p), ref_quantile(merged, p))
        rows.append(",".join(extended_to_string(v) for v in values))
    return "\n".join(rows) + "\n"


def test_curve_on_a_wide_document_matches_the_reference(
    spec_file, tmp_path, walk_counter, merge_counter
):
    rng = random.Random(60)
    x, x_literal = _adjacent_units(rng, 60, F(0))
    y, y_literal = _adjacent_units(rng, 60, F(1, 3))
    doc = {"q": "2/5", "X": x_literal, "Y": y_literal}
    out = tmp_path / "curve.csv"
    argv = ["curve", "--spec", spec_file(doc), "--from", "-1", "--to", "61", "--steps", "16"]
    assert main(argv + ["--out", str(out)]) == 0
    assert len(walk_counter) == 1
    assert merge_counter == []
    expected = _reference_curve(F(2, 5), x, y, F(-1), F(61), 16)
    assert out.read_text(encoding="utf-8") == expected


def _assert_curve_matches_the_reference(spec_file, out, q, x, y, steps):
    """``curve`` over the joint support, widened on each side by a third of
    its width (of its end, or by 1, where it is one point), equals
    ``_reference_curve``."""
    ends = [*x.support_bounds(), *y.support_bounds()]
    lo, hi = min(ends), max(ends)
    pad = (hi - lo) / 3 or abs(lo) or 1
    lo, hi = lo - pad, hi + pad
    argv = [
        "curve", "--spec", spec_file(serialize_mixture(MixtureSpec(q, x, y))),
        f"--from={exact_number_to_string(lo)}", f"--to={exact_number_to_string(hi)}",
        "--steps", str(steps), "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8") == _reference_curve(q, x, y, lo, hi, steps)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    rational_piecewise_dists(),
    rational_piecewise_dists(),
    st.sampled_from([F(2, 7), F(9, 11)]),
    st.integers(2, 9),
)
def test_curve_matches_the_reference_off_the_lattice(spec_file, tmp_path, capsys, x, y, q, steps):
    _assert_curve_matches_the_reference(spec_file, tmp_path / "curve.csv", q, x, y, steps)
    capsys.readouterr()


def test_curve_matches_the_reference_past_the_float_range(spec_file, tmp_path):
    near = Piecewise(atoms=[(F(-1, 3), F(1, 2))], segments=[(F(-2, 7), F(5, 3), F(1, 2))])
    for x, y in ((FAR_LAW, near), (near, FAR_LAW)):
        _assert_curve_matches_the_reference(spec_file, tmp_path / "curve.csv", F(2, 7), x, y, 7)


#: ``curve --from -1 --to 2 --steps 4`` on piecewise X with Normal Y, and
#: swapped: the piecewise side's F or G is exact, FS and QS are floats.
MIXED_CURVES = {
    "piecewise-normal": (
        {"q": "1/3", "X": _PIECES, "Y": _NORMAL},
        "x,F,G,FS\n"
        "-1,0,0.15865525393145707,0.10577016928763805\n"
        "0,0.25,0.5,0.41666666666666663\n"
        "1,0.75,0.8413447460685429,0.8108964973790286\n"
        "2,1,0.9772498680518208,0.9848332453678805\n\n"
        "p,Qx,Qy,QS\n"
        "0.2,0,-0.8416212335729142,-0.5244005127080409\n"
        "0.4,0.3,-0.2533471031357998,-0.0\n"
        "0.6,0.7,0.2533471031357998,0.43178922418542864\n"
        "0.8,2,0.8416212335729144,0.9670440382861982\n",
    ),
    "normal-piecewise": (
        {"q": "2/3", "X": _NORMAL, "Y": _PIECES},
        "x,F,G,FS\n"
        "-1,0.15865525393145707,0,0.10577016928763805\n"
        "0,0.5,0.25,0.41666666666666663\n"
        "1,0.8413447460685429,0.75,0.8108964973790286\n"
        "2,0.9772498680518208,1,0.9848332453678805\n\n"
        "p,Qx,Qy,QS\n"
        "0.2,-0.8416212335729142,0,-0.5244005127080408\n"
        "0.4,-0.2533471031357998,0.3,-0.0\n"
        "0.6,0.2533471031357998,0.7,0.43178922418542864\n"
        "0.8,0.8416212335729144,2,0.9670440382861982\n",
    ),
}


@pytest.mark.parametrize("name", MIXED_CURVES)
def test_two_sided_mixed_curve_tables_are_pinned(name, spec_file, tmp_path):
    doc, table = MIXED_CURVES[name]
    out = tmp_path / "curve.csv"
    argv = ["curve", "--spec", spec_file(doc), "--from", "-1", "--to", "2", "--steps", "4"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == table


def test_curve_rejects_a_bad_grid(spec_file, tmp_path):
    spec = spec_file(TWO_ATOMS)
    out = str(tmp_path / "curve.csv")
    args = ["curve", "--spec", spec, "--out", out, "--steps"]
    assert main(args + ["1", "--from", "0", "--to", "1"]) == 3
    assert main(args + ["4", "--from", "1", "--to", "0"]) == 3


def test_curve_unwritable_output_path(spec_file, tmp_path):
    code = main(
        [
            "curve",
            "--spec",
            spec_file(TWO_ATOMS),
            "--from",
            "0",
            "--to",
            "1",
            "--steps",
            "3",
            "--out",
            str(tmp_path / "missing_dir" / "curve.csv"),
        ]
    )
    assert code == 5


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_small_run_passes(spec_file, capsys):
    code = main(
        ["--format", "machine", "verify", "--count", "25", "--seed", "20240811"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 25
    assert doc["failures"] == []
    assert sum(doc["census"].values()) == 25


def test_verify_machine_output_is_pinned(capsys):
    # The default output must stay byte-identical (acceptance criterion 9):
    # the sha256 of 2,000 instances' machine output, as printed.
    assert main(["--format", "machine", "verify", "--count", "2000", "--seed", "1"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "190cca992c6a672c7470f0965fe60a16d43d404c3f6d85a54c58ca52f67a0fc4"


def test_verify_text_mode_prints_census(capsys):
    code = main(["verify", "--count", "10", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "census:" in out and "failures: 0" in out


def planted_failure(monkeypatch):
    """Make instance 1 of a serial run fail its cross-check; pool workers
    import the module afresh and would not see the patch."""
    verification = sys.modules["mixquant.verification"]
    cross_check = verification.cross_check
    calls = []

    def failing_once(m, p, grid_cfg=None):
        report = cross_check(m, p, grid_cfg)
        calls.append(None)
        if len(calls) == 2:
            report = dataclasses.replace(report, failures=("planted failure",))
        return report

    monkeypatch.setattr(verification, "cross_check", failing_once)


def test_verify_lists_its_failures_and_exits_1(capsys, monkeypatch):
    planted_failure(monkeypatch)
    assert main(["verify", "--count", "3", "--seed", "1", "--jobs", "1"]) == 1
    out = capsys.readouterr().out
    assert "[00001] cell=" in out and "FAIL: planted failure" in out
    assert "failures: 1\n  [00001] planted failure\n" in out


def test_verify_machine_output_lists_its_failures(capsys, monkeypatch):
    planted_failure(monkeypatch)
    code = main(["--format", "machine", "verify", "--count", "3", "--seed", "1", "--jobs", "1"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == [[1, ["planted failure"]]]
    assert sum(doc["census"].values()) == 3


def test_verify_rejects_bad_counts(capsys):
    assert main(["verify", "--count", "0", "--seed", "1"]) == 3
    assert main(["verify", "--count", "5", "--seed", "1", "--jobs", "0"]) == 3


# ---------------------------------------------------------------------------
# error exit codes
# ---------------------------------------------------------------------------


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["quantile", "--spec", str(bad), "--p", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_field_exits_2(spec_file):
    doc = dict(TWO_ATOMS, extra=1)
    assert main(["quantile", "--spec", spec_file(doc), "--p", "0.5"]) == 2


def test_missing_file_exits_2(tmp_path):
    path = str(tmp_path / "nope.json")
    assert main(["quantile", "--spec", path, "--p", "0.5"]) == 2


@pytest.mark.parametrize(
    "component",
    [
        {"kind": "uniform", "a": "-inf", "b": 1},
        {"kind": "normal", "mu": "inf", "sigma": 1},
        {"kind": "exponential", "rate": "inf"},
        {"kind": "normal", "mu": "nan", "sigma": 1},
        # Finite parameters whose width or scale is not.
        {"kind": "uniform", "a": "-1e308", "b": "1e308"},
        {"kind": "exponential", "rate": "1e-310"},
    ],
)
def test_non_finite_parameter_exits_2(spec_file, capsys, component):
    doc = {"q": "0.5", "X": component, "Y": {"kind": "normal", "mu": 0, "sigma": 1}}
    assert main(["quantile", "--spec", spec_file(doc), "--p", "0.5"]) == 2
    assert "finite" in capsys.readouterr().err


def test_out_of_range_level_exits_3(spec_file, capsys):
    spec = spec_file(TWO_ATOMS)
    assert main(["quantile", "--spec", spec, "--p", "1.5"]) == 3
    assert main(["quantile", "--spec", spec, "--p", "0"]) == 3
    assert "error:" in capsys.readouterr().err


def test_level_below_float_resolution_exits_3(spec_file, capsys):
    # 1 - 10**-20 rounds to 1.0, which the float route cannot tell from 1.
    spec = spec_file(NORMAL_PAIR)
    for command in ("quantile", "classify"):
        assert main([command, "--spec", spec, "--p", "0.99999999999999999999"]) == 3
        assert "float resolution" in capsys.readouterr().err


def test_lognormal_quantile_beyond_the_float_range_exits_3(spec_file, tmp_path, capsys):
    doc = dict(NORMAL_PAIR, X={"kind": "lognormal", "mu": 800, "sigma": 1})
    spec = spec_file(doc)
    out = str(tmp_path / "curve.csv")
    for argv in (
        ["quantile", "--spec", spec, "--p", "0.5"],
        ["curve", "--spec", spec, "--from", "0", "--to", "1", "--steps", "3", "--out", out],
    ):
        assert main(argv) == 3
        assert "float range" in capsys.readouterr().err


def test_normal_quantile_beyond_the_float_range_exits_3(spec_file, capsys):
    doc = dict(NORMAL_PAIR, q="0.5", X={"kind": "normal", "mu": "1e308", "sigma": "1e308"})
    for command in ("quantile", "classify"):
        assert main([command, "--spec", spec_file(doc), "--p", "0.99"]) == 3
        assert "float range" in capsys.readouterr().err


def test_infinite_answer_below_level_one_exits_3(spec_file, capsys):
    # The exponential quantile overflows to +inf at 0.999 without raising.
    x = {"kind": "piecewise", "atoms": [], "segments": [["0", "1", "1"]]}
    y = {"kind": "exponential", "rate": 6e-309}
    for doc in ({"q": "1/2", "X": x, "Y": y}, {"q": "1", "X": y, "Y": x}):
        assert main(["quantile", "--spec", spec_file(doc), "--p", "0.999"]) == 3
        assert "float range" in capsys.readouterr().err


def test_curve_component_quantile_of_inf_below_level_one_exits_3(spec_file, tmp_path, capsys):
    # At p = 3/4 the exponential quantile overflows to +inf, in the Qy column
    # and, swapped, in the Qx column; the mixture's own quantile is finite.
    x = {"kind": "piecewise", "atoms": [], "segments": [["0", "1", "1"]]}
    y = {"kind": "exponential", "rate": 6e-309}
    for doc in ({"q": "1/2", "X": x, "Y": y}, {"q": "1/2", "X": y, "Y": x}):
        out = tmp_path / "curve.csv"
        argv = ["curve", "--spec", spec_file(doc), "--from", "0", "--to", "1", "--steps", "3"]
        assert main(argv + ["--out", str(out)]) == 3
        assert "float range" in capsys.readouterr().err
        assert not out.exists()


def test_piecewise_atom_past_the_float_range(spec_file, tmp_path, capsys):
    # The split answers the atom at 10**400 exactly; curve's direct inversion
    # has no float for it and exits 3.
    doc = {
        "q": "0.5",
        "X": {"kind": "piecewise", "atoms": [["0", "0.5"], [str(10**400), "0.5"]], "segments": []},
        "Y": {"kind": "normal", "mu": 0, "sigma": 1},
    }
    spec = spec_file(doc)
    assert main(["quantile", "--spec", spec, "--p", "0.9"]) == 0
    assert capsys.readouterr().out.startswith(f"s_p = {10**400}\n")
    out = str(tmp_path / "curve.csv")
    argv = ["curve", "--spec", spec, "--from", "-1", "--to", "1", "--steps", "3", "--out", out]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_curve_past_the_float_range_of_a_parametric_side_exits_3(spec_file, tmp_path, capsys):
    # The grid reaches 10**400, where the normal CDF has no float argument.
    doc = {
        "q": "1/2",
        "X": {"kind": "normal", "mu": 0, "sigma": 1},
        "Y": {"kind": "piecewise", "atoms": [["0", "1"]], "segments": []},
    }
    out = str(tmp_path / "curve.csv")
    argv = ["curve", "--spec", spec_file(doc), "--from", "0", "--to", str(10**400)]
    assert main(argv + ["--steps", "3", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "float range" in err


def test_non_ascii_digits_exit_2(spec_file, capsys):
    arabic_q = spec_file(dict(TWO_ATOMS, q="\u0661/\u0662"))
    assert main(["quantile", "--spec", arabic_q, "--p", "0.5"]) == 2
    assert main(["quantile", "--spec", spec_file(TWO_ATOMS), "--p", "\u0660.\u0665"]) == 2
    assert "not a plain decimal" in capsys.readouterr().err
    for mu, sigma in (("\u0663", 1), (0, "1_0")):
        spec = spec_file(dict(NORMAL_PAIR, X={"kind": "normal", "mu": mu, "sigma": sigma}))
        assert main(["quantile", "--spec", spec, "--p", "0.5"]) == 2
        assert "not a plain number" in capsys.readouterr().err


def test_contradiction_exits_4(spec_file, capsys, monkeypatch):
    # Both components put 1/2 at 0 and 1/2 at 3.  A solver answer of s_p = 3
    # for p = 1/4 lands in (4d) with F_S(s_p-) = 1/2 above p, which no
    # correct quantile can do.
    def wrong_split(m, p):
        return QuantileSolution(F(3), F(1, 4), F(1, 4), True, True, False)

    monkeypatch.setattr(sys.modules["mixquant.classify"], "split_quantile", wrong_split)
    spec = spec_file(dict(SHARED_LOWEST_ATOM, X=SHARED_LOWEST_ATOM["Y"]))
    assert main(["classify", "--spec", spec, "--p", "0.25"]) == 4
    assert capsys.readouterr().err == (
        "internal contradiction: mixture CDF left limit 1/2 exceeds p=1/4 at s_p=3\n"
    )


def test_repeated_main_calls_print_what_fresh_calls_print(spec_file, tmp_path, capsys):
    # One process parses every argv with the same parser; no call may see
    # what an earlier one left behind (the last call must fall back to text).
    spec = spec_file(TWO_ATOMS)
    out = tmp_path / "curve.csv"
    calls = [
        ["--format", "machine", "quantile", "--spec", spec, "--p", "0.25"],
        ["classify", "--spec", spec, "--p", "0.25"],
        ["curve", "--spec", spec, "--from", "-1", "--to", "2", "--steps", "4", "--out", str(out)],
        ["quantile", "--spec", spec, "--p"],
        ["quantile", "--spec", spec, "--p", "0.75"],
    ]
    fresh = []
    for argv in calls:
        run = subprocess.run(
            [sys.executable, "-c", FRESH_MAIN, *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=120,
        )
        fresh.append((run.returncode, run.stdout, run.stderr))
    fresh_curve = out.read_text(encoding="utf-8")
    out.unlink()

    repeated = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        repeated.append((code, captured.out, captured.err))
    assert [code for code, _, _ in repeated] == [0, 0, 0, 2, 0]
    assert repeated == fresh
    assert out.read_text(encoding="utf-8") == fresh_curve


@pytest.mark.parametrize("module", ["mixquant", "mixquant.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path, capsys):
    # Both module forms print what main prints, and exit with its code.
    runs = [
        (["verify", "--count", "5", "--seed", "1"], 0),
        (["--format", "machine", "verify", "--count", "5", "--seed", "1"], 0),
        (["quantile", "--spec", str(tmp_path / "missing.json"), "--p", "0.5"], 2),
    ]
    for argv, code in runs:
        run = subprocess.run(
            [sys.executable, "-m", module, *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert main(argv) == code
        captured = capsys.readouterr()
        assert (run.returncode, run.stdout, run.stderr) == (code, captured.out, captured.err)
        assert run.stdout or run.stderr


def test_bad_usage_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()

"""End-to-end command-line checks: exit codes, schema-valid JSON, file output."""
from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

import spectorus.cli as cli
import spectorus.geomlab as geomlab
import spectorus.searchkit as searchkit
import spectorus.spectra as spectra
from spectorus.cli import _max_precision_bits, main
from spectorus.intpoly import IntPolynomial
from spectorus.rootcert import DEFAULT_PRECISION_CEILING, PrecisionExhausted
from spectorus.spectra import UNDECIDED, SpectralProfile, classify

DEG5 = "x^5 - 2x^4 + x^3 - x^2 + x - 1"
SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / name) as fh:
        schema = json.load(fh)
    jsonschema.Draft7Validator.check_schema(schema)
    return schema


def run_cli(argv, capsys):
    # handled paths return an int; parser.error raises SystemExit(3)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------- exit codes

def test_certify_accepted_exits_zero(capsys):
    code, out, _ = run_cli(["certify", "x^3 - x - 1"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert payload["accepted"] is True
    assert payload["certification"] == "ExactQ2"
    assert payload["q"] == 2


def test_certify_rejected_exits_one(capsys):
    code, out, _ = run_cli(["certify", "x^4 - 2x^3 + x - 1"], capsys)
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert payload["accepted"] is False
    assert payload["reason"] == "wrong_constant_term"


def test_certify_gl_flag_changes_rejection_reason(capsys):
    code, out, _ = run_cli(["certify", "x^4 - 2x^3 + x - 1", "--gl"], capsys)
    assert code == 1
    assert json.loads(out)["reason"] == "modulus_separation"


def test_certify_undecided_exits_two(capsys, monkeypatch):
    def stub(P, **kwargs):
        return SpectralProfile(
            poly=P, q=P.degree - 1, certification=UNDECIDED,
            reason="precision_ceiling", detail=None,
        )

    monkeypatch.setattr(cli, "classify", stub)
    code, out, _ = run_cli(["certify", "x^2 - 3x + 1"], capsys)
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert payload["certification"] == "Undecided"


def test_certify_genuine_undecided_at_float_rung_ceiling(capsys, monkeypatch):
    # the float rung cannot certify these roots; the default ceiling can.
    # The exact disk count decides at any ceiling
    poly = "x^4 - 781790x^3 - 280801x^2 - 595706x + 1"
    argv = ["certify", poly, "--max-precision-bits", "53"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    assert json.loads(out)["reason"] == "modulus_separation"
    monkeypatch.setattr(spectra, "_disk_radius", lambda P, q: None)
    code, out, _ = run_cli(argv, capsys)
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert payload["certification"] == "Undecided"
    assert payload["reason"] == "precision_ceiling"
    code, out, _ = run_cli(["certify", poly], capsys)
    assert code == 1
    assert json.loads(out)["reason"] == "modulus_separation"


@pytest.mark.parametrize("command", ["certify", "replay", "build", "factor"])
def test_comma_form_starting_with_minus_is_a_polynomial(command, capsys):
    code, out, err = run_cli([command, "-1,-1,0,1"], capsys)
    assert (code, out) == run_cli([command, "--", "-1,-1,0,1"], capsys)[:2]
    assert code == 0 and out and err == ""


def test_comma_form_starting_with_minus_keeps_later_flags(capsys):
    code, out, _ = run_cli(["certify", "-1,-1,0,1", "--force-interval"], capsys)
    assert code == 0
    assert json.loads(out)["certification"] == "IntervalCertified"
    assert run_cli(["verify-ot", "--s", "-1"], capsys)[0] == 3


def test_unparseable_polynomial_exits_three(capsys):
    code, _, err = run_cli(["certify", "x^^2"], capsys)
    assert code == 3
    assert "cannot parse polynomial" in err


@pytest.mark.parametrize(
    "text",
    [
        "x^3 - " + "9" * 5000 + "x^2 - 1",  # beyond the int-string digit limit
        "x^" + "9" * 5000 + " - 1",
        "-1, " + "9" * 5000 + ", 0, 1",
        "x^1001 - x - 1",  # above the degree cap
        ",".join(["1"] + ["0"] * 1001 + ["1"]),
    ],
    ids=["coefficient", "exponent", "comma-coefficient", "degree", "comma-degree"],
)
def test_oversized_polynomial_text_exits_three(text, capsys):
    code, out, err = run_cli(["certify", text], capsys)
    assert code == 3
    assert out == ""
    assert "cannot parse polynomial" in err
    assert "Traceback" not in err and "9" * 100 not in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["search", "--degree", "2"],
        ["search", "--degree", "two", "--bound", "3"],
        ["verify-ot"],
    ],
)
def test_usage_errors_exit_three(argv, capsys):
    code, _, _ = run_cli(argv, capsys)
    assert code == 3


def test_semantic_errors_print_the_subcommand_usage(capsys):
    code, out, err = run_cli(["verify-ot", "--s", "-1"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("usage: spectorus verify-ot ")
    assert "spectorus verify-ot: error: --s and --samples must be positive" in err
    code, _, err = run_cli(["certify", "x - 2"], capsys)
    assert code == 3
    assert err.startswith("usage: spectorus certify ")


def test_certify_cubic_honours_the_precision_ceiling(capsys):
    # the accepted cubic's pair is isolated to radius 1e-24: not at 53 bits
    code, out, _ = run_cli(["certify", "x^3 - x - 1", "--max-precision-bits", "53"], capsys)
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert (payload["certification"], payload["reason"]) == ("Undecided", "precision_ceiling")
    code, out, _ = run_cli(["certify", "x^3 - x - 1", "--max-precision-bits", "120"], capsys)
    assert (code, out) == run_cli(["certify", "x^3 - x - 1"], capsys)[:2]


def test_semantic_argument_errors_exit_three(capsys):
    # valid syntax, but the library rejects the value
    assert run_cli(["certify", "x - 2"], capsys)[0] == 3
    assert run_cli(["certify", "2x^2 - 1"], capsys)[0] == 3
    assert run_cli(["search", "--degree", "1", "--bound", "1"], capsys)[0] == 3
    assert run_cli(["search", "--degree", "2", "--bound", "0"], capsys)[0] == 3
    assert run_cli(["verify-ot", "--s", "0"], capsys)[0] == 3
    assert run_cli(["factor", "x^2 - 1", "--max-degree", "0"], capsys)[0] == 3


# ---------------------------------------------------------------- search

def test_search_stdout_schema_and_worker_determinism(capsys):
    code1, out1, err1 = run_cli(["search", "--degree", "2", "--bound", "4"], capsys)
    code3, out3, _ = run_cli(
        ["search", "--degree", "2", "--bound", "4", "--workers", "3"], capsys
    )
    assert code1 == code3 == 0
    assert out1 == out3
    payload = json.loads(out1)
    jsonschema.validate(payload, load_schema("search_report.schema.json"))
    assert payload["candidate_count"] == 9
    assert "search degree=2 bound=4" in err1


def test_search_output_and_csv_files(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "table.csv"
    code, out, _ = run_cli(
        [
            "search", "--degree", "2", "--bound", "4",
            "--output", str(report_path), "--csv", str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    payload = json.loads(report_path.read_text())
    jsonschema.validate(payload, load_schema("search_report.schema.json"))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "coefficients,q,lambda,certification"
    assert len(lines) == 1 + len(payload["accepted"])


def test_search_cross_check_writes_stderr_summary(capsys):
    code, _, err = run_cli(
        ["search", "--degree", "2", "--bound", "3", "--cross-check"], capsys
    )
    assert code == 0
    assert "cross-check: 0 discrepancies, 0 forbidden" in err


def test_search_undecided_exits_two(capsys, monkeypatch):
    target = IntPolynomial((1, -3, 1))
    real_classify = searchkit.classify

    def stub(P, **kwargs):
        if P == target:
            return SpectralProfile(
                poly=P, q=P.degree - 1, certification=UNDECIDED,
                reason="precision_ceiling", detail=None,
            )
        return real_classify(P, **kwargs)

    monkeypatch.setattr(searchkit, "classify", stub)
    code, out, _ = run_cli(["search", "--degree", "2", "--bound", "3"], capsys)
    assert code == 2
    assert json.loads(out)["undecided"] == [target.to_json()]


# ---------------------------------------------------------------- certify options

def test_certify_force_interval_route(capsys):
    code, out, _ = run_cli(["certify", "x^2 - 3x + 1", "--force-interval"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["certification"] == "IntervalCertified"
    assert payload["lambda"] == pytest.approx(2.618033988749895, abs=1e-9)


def test_certify_accepts_precision_flag(capsys):
    code, out, _ = run_cli(
        ["certify", "x^2 - 3x + 1", "--max-precision-bits", "128"], capsys
    )
    assert code == 0
    assert json.loads(out)["accepted"] is True


def test_certify_output_file(tmp_path, capsys):
    path = tmp_path / "profile.json"
    code, out, _ = run_cli(["certify", "x^2 - 3x + 1", "--output", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["accepted"] is True


# ---------------------------------------------------------------- replay

def test_replay_accepted_polynomial(capsys):
    code, out, _ = run_cli(["replay", "x^2 - 3x + 1"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("replay.schema.json"))
    assert payload["replay"]["identity_holds"] is True
    assert payload["replay"]["contradiction"] is None
    assert payload["profile"]["accepted"] is True


def test_replay_rejected_polynomial_still_reports(capsys):
    code, out, _ = run_cli(["replay", "x^2 - x + 1"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("replay.schema.json"))
    assert payload["profile"]["accepted"] is False


# ---------------------------------------------------------------- build

def test_build_accepted_polynomial(capsys):
    code, out, _ = run_cli(["build", "x^2 - 3x + 1"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("build.schema.json"))
    assert payload["model"]["q"] == 1
    assert payload["certificate"]["residual_orthogonality"] <= 1e-12
    assert payload["certificate"]["lambda"] == pytest.approx(2.618033988749895)


def test_build_rejected_polynomial_exits_one(capsys):
    code, out, _ = run_cli(["build", "x^2 - x + 1"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "rejected"


# ---------------------------------------------------------------- verify-torus

def test_verify_torus_passes_all_gates(capsys):
    code, out, _ = run_cli(
        ["verify-torus", "x^2 - 3x + 1", "--samples", "5", "--seed", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("torus_report.schema.json"))
    assert all(payload["passes"].values())
    assert payload["deck_samples"] == 5


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_torus_refuses_no_samples(samples, capsys):
    code, out, err = run_cli(["verify-torus", "x^2 - 3x + 1", "--samples", samples], capsys)
    assert code == 3 and out == ""
    assert err.startswith("usage: spectorus verify-torus ")
    assert "--samples must be positive" in err


def test_verify_torus_classifies_once(capsys, monkeypatch):
    calls = []

    def counting(P, **kwargs):
        calls.append(P)
        return classify(P, **kwargs)

    monkeypatch.setattr(cli, "classify", counting)
    monkeypatch.setattr(geomlab, "classify", counting)
    code, _, _ = run_cli(["verify-torus", "x^2 - 3x + 1", "--samples", "3"], capsys)
    assert code == 0
    assert len(calls) == 1


def test_verify_torus_rejected_polynomial_exits_one(capsys):
    code, out, _ = run_cli(["verify-torus", "x^2 - x + 1"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "rejected"


# ---------------------------------------------------------------- verify-ot

def test_verify_ot_passes_all_gates(capsys):
    code, out, _ = run_cli(
        ["verify-ot", "--s", "1", "--samples", "5", "--seed", "0"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("ot_report.schema.json"))
    assert all(payload["passes"].values())
    assert payload["s"] == 1


@pytest.mark.parametrize("step", ["0", "-1e-4", "1", "1e300", "inf", "nan"])
def test_verify_ot_refuses_steps_outside_the_half_plane(step, capsys):
    argv = ["verify-ot", "--s", "1", "--samples", "2", "--step-rel", step]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("usage: spectorus verify-ot ")
    assert "0 < step_rel < 1" in err and "Traceback" not in err


def test_verify_ot_seed_determinism(capsys):
    argv = ["verify-ot", "--s", "2", "--samples", "4", "--seed", "7"]
    _, out_a, _ = run_cli(argv, capsys)
    _, out_b, _ = run_cli(argv, capsys)
    assert out_a == out_b


# ---------------------------------------------------------------- factor

def test_factor_composite(capsys):
    code, out, _ = run_cli(["factor", "x^4 - 1"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("factor.schema.json"))
    assert payload["irreducible"] is False
    assert sorted(payload["rendered"]) == sorted(["x - 1", "x + 1", "x^2 + 1"])


def test_factor_lists_x_in_the_order_of_the_other_factors(capsys):
    code, out, _ = run_cli(["factor", "x^5 - 2x^3 - 8x"], capsys)
    assert code == 0
    assert json.loads(out)["rendered"] == ["x - 2", "x", "x + 2", "x^2 + 2"]


def test_factor_irreducible(capsys):
    code, out, _ = run_cli(["factor", "x^3 - x - 1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["irreducible"] is True
    assert payload["factors"] == [payload["poly"]]


# ---------------------------------------------------------------- environment

def test_precision_env_var(monkeypatch):
    monkeypatch.delenv("SPECTORUS_MAX_PRECISION", raising=False)
    assert _max_precision_bits() == DEFAULT_PRECISION_CEILING
    monkeypatch.setenv("SPECTORUS_MAX_PRECISION", "4096")
    assert _max_precision_bits() == 4096
    assert _max_precision_bits(0) == 0  # a given flag wins, even a falsy one
    monkeypatch.setenv("SPECTORUS_MAX_PRECISION", "not-a-number")
    with pytest.raises(ValueError):
        _max_precision_bits()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", DEG5, "--max-precision-bits", "0"],
        ["certify", DEG5, "--max-precision-bits", "-10"],
        ["certify", DEG5, "--max-precision-bits", "52"],
        ["search", "--degree", "4", "--bound", "1", "--max-precision-bits", "52"],
    ],
)
def test_precision_ceiling_below_first_rung_is_usage_error(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 3
    assert out == ""


def test_precision_env_var_garbage_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SPECTORUS_MAX_PRECISION", "abc")
    code, out, err = run_cli(["certify", DEG5], capsys)
    assert code == 3
    assert out == ""
    assert "SPECTORUS_MAX_PRECISION" in err


def test_precision_exhaustion_exits_undecided(capsys, monkeypatch):
    # exit 1 would claim a certified rejection; an escaping
    # PrecisionExhausted proved nothing, so it is undecided
    def stub(P, **kwargs):
        raise PrecisionExhausted("could not certify roots below 4096 bits")

    monkeypatch.setattr(cli, "classify", stub)
    code, out, err = run_cli(["certify", "x^3 - x - 1"], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("a", ["10000000000000000", "1000000000000000000000000"])
def test_certify_cubic_with_coincident_float_seeds_is_accepted(a, capsys):
    # eigvals seeds the conjugate pair of this cubic as two exact zeros
    code, out, _ = run_cli(["certify", f"x^3 - {a}x^2 - 1"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert payload["certification"] == "ExactQ2"
    assert len(payload["small_roots"]) == 2


BEYOND_FLOATS = "7" * 400  # about 7.8e399, past the largest double


@pytest.mark.parametrize(
    "argv, verdicts",
    [
        (["certify", f"x^3 - {BEYOND_FLOATS}x^2 - 1"], {"ExactQ2", "Undecided"}),
        (["certify", f"x^5 - {BEYOND_FLOATS}x^4 + x^2 - 1"], {"Rejected", "Undecided"}),
        (["certify", f"x^4 - {BEYOND_FLOATS}x^3 + x^2 - 1", "--gl"], {"Rejected", "Undecided"}),
        # coefficients that fit a double but float roots that do not
        (["certify", f"x^5 - {'7' * 150}x^4 + x^2 - 1", "--max-precision-bits", "53"],
         {"Rejected", "Undecided"}),
    ],
    ids=["q2-accepted", "degree-5", "gl-quartic", "float-roots-overflow"],
)
def test_certify_beyond_the_float_range_ends_in_a_verdict(argv, verdicts, capsys):
    # without float seeds the isolation starts from mpmath.polyroots
    code, out, err = run_cli(argv, capsys)
    assert err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert payload["certification"] in verdicts
    assert code == {"Rejected": 1, "Undecided": 2}.get(payload["certification"], 0)
    if payload["certification"] == "Undecided":
        assert payload["reason"] == "precision_ceiling"

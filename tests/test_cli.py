"""End-to-end command-line checks: exit codes, schema-valid JSON, file output."""
from __future__ import annotations

import json
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spectorus.cli as cli
import spectorus.geomlab as geomlab
import spectorus.searchkit as searchkit
import spectorus.spectra as spectra
from spectorus.cli import _max_precision_bits, main
from spectorus.intpoly import IntPolynomial
from spectorus.rootcert import DEFAULT_PRECISION_CEILING
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


def test_certify_genuine_undecided_at_float_rung_ceiling(capsys):
    # the exact disk search decides at any ceiling
    argv = ["certify", "x^4 - 781790x^3 - 280801x^2 - 595706x + 1"]
    code, out, _ = run_cli([*argv, "--max-precision-bits", "53"], capsys)
    assert code == 1
    assert json.loads(out)["reason"] == "modulus_separation"
    # the float rung cannot isolate the accepted cubic's pair to 1e-24; the
    # default ceiling can
    argv = ["certify", "x^3 - 2x^2 - 1"]
    code, out, _ = run_cli([*argv, "--max-precision-bits", "53"], capsys)
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert payload["certification"] == "Undecided"
    assert payload["reason"] == "precision_ceiling"
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["certification"] == "ExactQ2"


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


def test_precision_exhaustion_exits_undecided(capsys, monkeypatch):
    # exit 1 would claim a certified rejection; enclosures not found below
    # the ceiling prove nothing, so the verdict is undecided
    monkeypatch.setattr(spectra, "isolate_roots", lambda *args: None)
    code, out, err = run_cli(["certify", "x^3 - x - 1"], capsys)
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert (payload["certification"], payload["reason"]) == ("Undecided", "precision_ceiling")
    assert "Traceback" not in err

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


def test_search_cross_check_above_degree_six_is_a_usage_error(capsys, tmp_path):
    # refused before the search runs: no report, no summary, no traceback
    report = tmp_path / "report.json"
    argv = ["search", "--degree", "7", "--bound", "1", "--cross-check", "--output", str(report)]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("usage: spectorus search ") and err.count("usage:") == 1
    assert err.endswith("spectorus search: error: --cross-check supports degree <= 6\n")
    assert not report.exists()


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


def test_verify_torus_refuses_a_negative_seed(capsys):
    code, out, err = run_cli(["verify-torus", "x^2 - 3x + 1", "--seed", "-1"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("usage: spectorus verify-torus ")
    assert "--seed must be non-negative" in err


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


@pytest.mark.parametrize(
    "poly",
    [
        *(f"x^2 - 1{'0' * zeros}x + 1" for zeros in (3, 6, 9, 12, 20, 40)),
        "x^3 - 1000000x^2 - 1",
        "x^3 - 1000000000x^2 + 3x - 1",
        *(f"x^3 - 1{'0' * zeros}x^2 - 1" for zeros in (20, 40)),
    ],
)
def test_verify_torus_lambda_ladder(poly, capsys):
    # the frame matrix is exact before it is rounded, so the deck deviation
    # measures the geometry and not the size of A; the enclosures' bits grow
    # with the coefficients, so the residual gates hold at lambda = 1e20
    code, out, err = run_cli(["verify-torus", poly, "--samples", "20"], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert all(payload["passes"].values())
    assert payload["deck_max_rel_deviation"] <= 1e-14
    code, out, err = run_cli(["build", poly], capsys)
    assert (code, err) == (0, "")
    q = payload["q"]
    identity = [[float(i == j) for j in range(q)] for i in range(q)]
    assert json.loads(out)["certificate"]["b"] == identity


def _int64_companion(P):
    A = np.zeros((P.degree, P.degree), dtype=np.int64)
    A[1:, :-1] = np.eye(P.degree - 1, dtype=np.int64)
    A[:, -1] = [-c for c in P.coeffs[:-1]]
    return A


@pytest.mark.parametrize("verb", ["build", "verify-torus"])
@pytest.mark.parametrize("zeros", [20, 40])
@pytest.mark.parametrize("exact", [False, True], ids=["int64-companion", "exact-companion"])
def test_geometry_beyond_float_reach_exits_undecided(verb, zeros, exact, capsys, monkeypatch):
    # certify accepts X^3 - (10**zeros)X^2 - 1. A fixed-width int64 companion
    # overflows; the exact companion holds it, and with enclosures of fixed
    # width (no bits that grow with the coefficients) the center c of the
    # expanding root is too coarse: the residual A*Eu - c*Eu, about
    # P(c) ~ 1e-46 * lambda^2, misses the 1e-8 gate
    if exact:
        monkeypatch.setattr(spectra, "_extra_bits", lambda bound: 0)
    else:
        monkeypatch.setattr(geomlab, "companion", _int64_companion)
    code, out, err = run_cli([verb, f"x^3 - 1{'0' * zeros}x^2 - 1"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"spectorus {verb}: undecided: ")
    assert ("C long" in err) != exact and ("eigenvector residual" in err) == exact


@pytest.mark.parametrize("verb", ["build", "verify-torus"])
def test_quadratic_with_a_wide_small_enclosure_exits_undecided(verb, capsys, monkeypatch):
    # certify accepts X^2 - 10**40 X + 1; with enclosures of fixed width
    # (radius about 2e-43) the small one is too wide next to 1/lambda = 1e-40
    # for the residual gate
    monkeypatch.setattr(spectra, "_extra_bits", lambda bound: 0)
    code, out, err = run_cli([verb, f"x^2 - 1{'0' * 40}x + 1"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"spectorus {verb}: undecided: ")
    assert "eigenvector residual" in err


@pytest.mark.parametrize("verb", ["build", "verify-torus"])
@pytest.mark.parametrize("sevens", [150, 200])
def test_geometry_past_the_float_range_of_lambda_powers_exits_undecided(verb, sevens, capsys):
    # certify accepts X^3 - SX^2 - 1, but phi(t/lambda) = (t/lambda)**6 in
    # the deck map would underflow, and the frame's norms would overflow
    code, out, err = run_cli([verb, f"x^3 - {'7' * sevens}x^2 - 1"], capsys)
    assert (code, out) == (2, "")
    assert err == f"spectorus {verb}: undecided: the float geometry failed: lambda**6 leaves the float range\n"


HUGE_LAMBDA = f"x^2 - 1{'0' * 400}x"  # lambda about 1e400, past the largest double
BEYOND_FLOATS = "7" * 400  # about 7.8e399, past the largest double


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", f"{HUGE_LAMBDA} + 1"],
        ["certify", f"{HUGE_LAMBDA} - 1", "--gl"],
        ["replay", f"{HUGE_LAMBDA} + 1"],
        ["build", f"{HUGE_LAMBDA} + 1"],
        ["verify-torus", f"{HUGE_LAMBDA} + 1"],
        # an ExactQ2 acceptance: lambda fits a double, its square alpha does not
        ["certify", f"x^3 - {BEYOND_FLOATS}x^2 - 1"],
    ],
    ids=["certify", "certify-gl", "replay", "build", "verify-torus", "certify-q2"],
)
def test_lambda_beyond_the_float_range_is_a_usage_error(argv, capsys):
    # the reports carry lambda and lambda**q as doubles; exit 1 would claim a rejection
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err == f"spectorus {argv[0]}: error: lambda**q is beyond the float range\n"


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


def test_factor_beyond_the_work_budget_exits_three(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["factor", "x^8 - 1000x^7 + 3x^4 - x + 1"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "candidate divisors of degree 3 exceed" in err


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


@pytest.mark.parametrize("verb", ["replay", "build", "verify-torus"])
def test_precision_env_var_garbage_is_usage_error_in_every_classifying_verb(
    verb, monkeypatch, capsys
):
    monkeypatch.setenv("SPECTORUS_MAX_PRECISION", "abc")
    code, out, err = run_cli([verb, "x^2 - 3x + 1"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"usage: spectorus {verb} ")
    assert "SPECTORUS_MAX_PRECISION must be an integer" in err


@pytest.mark.parametrize(
    "verb, code", [("certify", 2), ("replay", 0), ("build", 2), ("verify-torus", 2)]
)
def test_precision_env_var_bounds_every_classifying_verb(verb, code, monkeypatch, capsys):
    # the pair of the accepted cubic needs a rung past 60 bits
    monkeypatch.setenv("SPECTORUS_MAX_PRECISION", "60")
    got, out, _ = run_cli([verb, "x^3 - x - 1"], capsys)
    payload = json.loads(out)
    assert got == code
    assert payload.get("profile", payload)["certification"] == "Undecided"


@pytest.mark.parametrize(
    "a",
    ["10000000000000000", "1000000000000000000000000", pytest.param("7" * 200, id="200-sevens")],
)
def test_certify_cubic_with_coincident_float_seeds_is_accepted(a, capsys):
    # the companion eigenvalues give the conjugate pair of this cubic as two
    # exact zeros; the quadratic factor left by the real root gives it exactly
    code, out, _ = run_cli(["certify", f"x^3 - {a}x^2 - 1"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert payload["certification"] == "ExactQ2"
    assert len(payload["small_roots"]) == 2


@pytest.mark.parametrize(
    "argv, verdicts",
    [
        (["certify", f"x^5 - {BEYOND_FLOATS}x^4 + x^2 - 1"], {"Rejected", "Undecided"}),
        (["certify", f"x^4 - {BEYOND_FLOATS}x^3 + x^2 - 1", "--gl"], {"Rejected"}),
        # coefficients that fit a double but float roots that do not
        (["certify", f"x^5 - {'7' * 150}x^4 + x^2 - 1", "--max-precision-bits", "53"],
         {"Rejected", "Undecided"}),
    ],
    ids=["degree-5", "gl-quartic", "float-roots-overflow"],
)
def test_certify_beyond_the_float_range_ends_in_a_verdict(argv, verdicts, capsys):
    # degree >= 4 needs no float roots
    code, out, err = run_cli(argv, capsys)
    assert err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("profile.schema.json"))
    assert payload["certification"] in verdicts
    assert code == {"Rejected": 1, "Undecided": 2}.get(payload["certification"], 0)
    if payload["certification"] == "Undecided":
        assert payload["reason"] == "precision_ceiling"

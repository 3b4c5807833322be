"""What a cold start loads: the package's lazy exports and the CLI's per-verb imports.

The subprocess checks run the CLI as `python -m spectorus.cli` does, in a
fresh interpreter, and report which of the heavy modules it left loaded.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import spectorus
from spectorus import rootcert
from spectorus.intpoly import parse_poly
from spectorus.spectra import classify

SRC = Path(spectorus.__file__).resolve().parents[1]
HEAVY = (
    "multiprocessing",
    "mpmath",
    "numpy",
    "spectorus.geomlab",
    "spectorus.otkahler",
    "spectorus.searchkit",
)

PROBE = f"""
import io, json, runpy, sys
argv = json.loads(sys.argv[1])
stdout, sys.stdout = sys.stdout, io.StringIO()
sys.argv = ["spectorus", *argv]
code = None
try:
    runpy.run_module("spectorus.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
loaded = [m for m in {HEAVY!r} if m in sys.modules]
stdout.write(json.dumps({{"exit": code, "loaded": loaded}}))
"""


def _fresh(code: str, *args: str) -> str:
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return proc.stdout


def _cold_cli(*argv: str) -> dict:
    return json.loads(_fresh(PROBE, json.dumps(argv)))


@pytest.mark.parametrize(
    "poly, code",
    [
        ("x^2 - 3x + 1", 0),  # exact q = 1 acceptance
        ("x^3 - x^2 + x - 1", 1),  # exact q = 2 rejection: root at 1
        ("x^4 - 2x^3 + x - 1", 1),  # wrong constant term
        ("x^5 - x^4 + 2x - 1", 1),  # P(1) sign screen
        ("x^5 - x^4 - 1", 1),  # disk search: modulus_separation
    ],
)
def test_cold_certify_loads_no_heavy_module(poly, code):
    assert _cold_cli("certify", poly) == {"exit": code, "loaded": []}


@pytest.mark.parametrize(
    "argv, code",
    [
        (("x^2 - 7x - 1", "--gl"), 0),  # q = 1 past the counts: closed form
        (("x^2 - 7x + 1", "--force-interval"), 0),
        (("x^3 - 3x^2 - x + 1", "--gl"), 1),  # three real roots: disk search
    ],
)
def test_cold_certify_past_the_counts_loads_no_heavy_module(argv, code):
    assert _cold_cli("certify", *argv) == {"exit": code, "loaded": []}


def test_cold_certify_of_an_accepted_cubic_loads_no_numpy():
    # the conjugate pair comes in closed form from the quadratic factor
    for poly in (
        "x^3 - x - 1",
        "x^3 - 2x^2 - 1",
        "x^3 - 10000000000000000x^2 - 1",
        f"x^3 - {'7' * 200}x^2 - 1",
    ):
        assert _cold_cli("certify", poly) == {"exit": 0, "loaded": []}


NO_MPMATH = """
import json, sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from spectorus.cli import main
sys.exit(main(json.loads(sys.argv[1])))
"""


@pytest.mark.parametrize("a", ["10000000000000000", "7" * 200], ids=["1e16", "200-sevens"])
def test_certify_runs_without_mpmath(a):
    payload = json.loads(_fresh(NO_MPMATH, json.dumps(["certify", f"x^3 - {a}x^2 - 1"])))
    assert payload["certification"] == "ExactQ2"
    assert len(payload["small_roots"]) == 2


NO_NUMPY = """
import io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from spectorus.cli import main
stdout, sys.stdout = sys.stdout, io.StringIO()
code = main(json.loads(sys.argv[1]))
stdout.write(json.dumps({"exit": code, "profile": json.loads(sys.stdout.getvalue())}))
"""


@pytest.mark.parametrize(
    "poly, certification, code",
    [
        ("x^2 - 3x + 1", "ExactQ1", 0),
        ("x^3 - x - 1", "ExactQ2", 0),
        ("x^3 - 10000000000000000x^2 - 1", "ExactQ2", 0),  # a kept-fault cubic
        (f"x^3 - {'7' * 200}x^2 - 1", "ExactQ2", 0),
        ("x^5 - x^4 - 1", "Rejected", 1),  # disk search: modulus_separation
    ],
    ids=["q1", "plastic", "kept-fault", "200-sevens", "disk"],
)
def test_certify_runs_without_numpy(poly, certification, code):
    payload = json.loads(_fresh(NO_NUMPY, json.dumps(["certify", poly])))
    assert payload["exit"] == code
    assert payload["profile"]["certification"] == certification
    if certification == "ExactQ2":
        assert len(payload["profile"]["small_roots"]) == 2


def test_cold_factor_loads_no_heavy_module():
    assert _cold_cli("factor", "x^4 - 1") == {"exit": 0, "loaded": []}


def test_importing_the_package_imports_no_submodule():
    probe = """
import json, sys
import spectorus
before = sorted(m for m in sys.modules if m.startswith("spectorus."))
spectorus.search, spectorus.spectra.classify
after = sorted(m for m in sys.modules if m.startswith("spectorus."))
print(json.dumps([before, "spectorus.searchkit" in after, "spectorus.geomlab" in after]))
"""
    assert json.loads(_fresh(probe)) == [[], True, False]


# ---------------------------------------------------------------- lazy exports

def test_every_export_resolves():
    assert len(spectorus.__all__) == len(set(spectorus.__all__)) == 44
    for name in spectorus.__all__:
        getattr(spectorus, name)
    assert spectorus.classify is spectorus.spectra.classify
    assert spectorus.__version__ == "0.1.0"


def test_exports_are_listed_by_dir():
    assert set(spectorus.__all__) <= set(dir(spectorus))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from spectorus import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(spectorus.__all__)


def test_unknown_attributes_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spectorus.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="no_such_name"):
        rootcert.no_such_name  # noqa: B018
    assert not hasattr(spectorus, "cli_main")
    for name in ("NotSquarefree", "PrecisionExhausted", "isolate_roots", "resultant"):
        with pytest.raises(AttributeError, match=name):
            getattr(spectorus, name)


# ---------------------------------------------------------------- no numpy, no mpmath

class _Alias:
    """Stands in for a module alias: overrides some attributes, forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def test_root_finding_reads_numpy_and_mpmath_through_the_module_aliases(monkeypatch):
    import mpmath
    import numpy

    assert rootcert.np is numpy and rootcert.mpmath is mpmath
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    eigvals = counting("eigvals", numpy.linalg.eigvals)
    monkeypatch.setattr(rootcert, "np", _Alias(numpy, linalg=_Alias(numpy.linalg, eigvals=eigvals)))
    monkeypatch.setattr(
        rootcert, "mpmath", _Alias(mpmath, polyroots=counting("polyroots", mpmath.polyroots))
    )
    # the aliases resolve, so the benchmark tracer can proxy them; the pair
    # comes from the quadratic factor, and nothing calls numpy or mpmath
    profile = classify(parse_poly("x^3 - 10000000000000000x^2 - 1"))
    assert len(profile.small_roots) == 2
    assert calls == {}  # no eigvals, no polyroots

"""Every attribute that perfbench/tracer.py wraps still exists in its owner module.

The traced benchmark swaps these attributes by name, so a rename or prune in
src/ that drops one breaks the benchmark. This check catches that in the unit
suite instead of only in the benchmark's own selftest.
"""
from __future__ import annotations

import importlib.util
from functools import reduce
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("owner, attr, span", tracer.PATCHES)
def test_patch_target_resolves(owner, attr, span):
    assert callable(getattr(tracer._resolve(owner), attr))


@pytest.mark.parametrize("owner, alias, dotted, span", tracer.PROXIES)
def test_proxy_target_resolves(owner, alias, dotted, span):
    target = getattr(tracer._resolve(owner), alias)
    assert callable(reduce(getattr, dotted.split("."), target))

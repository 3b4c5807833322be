"""Per-layer tracing by replacing module attributes in the benchmark process.

Each wrapped name is a call that crosses a module boundary of spectorus (or
an intra-module call whose cost a layer metric names). The wrapper records a
span per call and aggregates it at once: call count and self time, which is
the span's duration minus the time its wrapped child spans cover. Nothing in
`src/` is edited; `install()` swaps the attributes and `uninstall()` puts the
originals back.
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (owner module, attribute, span name). The owner is the module whose code
# makes the call, because `from x import f` binds f in the caller.
PATCHES = (
    ("spectorus.spectra", "discriminant", "intpoly.discriminant"),
    ("spectorus.spectra", "power_transform", "intpoly.power_transform"),
    ("spectorus.rootcert", "dyadic_eval", "exactnum.dyadic_eval"),
    ("spectorus.spectra", "nth_root_bounds", "exactnum.nth_root_bounds"),
    ("spectorus.spectra", "bisect_root_dyadic", "exactnum.bisect_root_dyadic"),
    ("spectorus.spectra", "sqrt_bounds", "exactnum.sqrt_bounds"),
    ("spectorus.spectra", "frac_to_decimal", "exactnum.frac_to_decimal"),
    ("spectorus.spectra", "sturm_chain", "rootcert.sturm_chain"),
    ("spectorus.spectra", "variations_at", "rootcert.variations_at"),
    ("spectorus.spectra", "isolate_roots", "rootcert.isolate_roots"),
    ("spectorus.spectra", "classify", "spectra.classify"),
    ("spectorus.searchkit", "classify", "spectra.classify"),
    ("spectorus.geomlab", "classify", "spectra.classify"),
    ("spectorus.spectra", "exact_test_q1", "spectra.exact_test_q1"),
    ("spectorus.spectra", "exact_test_q2", "spectra.exact_test_q2"),
    ("spectorus.searchkit", "replay_case_even", "spectra.replay"),
    ("spectorus.searchkit", "replay_case_odd", "spectra.replay"),
    ("spectorus.searchkit", "search", "searchkit.search"),
    ("spectorus.searchkit.SearchReport", "canonical_json", "searchkit.canonical_json"),
    ("spectorus.searchkit", "cross_check", "searchkit.cross_check"),
    ("spectorus.geomlab", "build_certificate", "geomlab.build_certificate"),
    ("spectorus.geomlab", "deck_pullback_check", "geomlab.deck_pullback_check"),
    ("spectorus.geomlab", "curvature_check", "geomlab.curvature_check"),
    ("spectorus.otkahler", "wirtinger_hessian", "otkahler.wirtinger_hessian"),
    ("spectorus.otkahler", "check_first_derivatives", "otkahler.check_first_derivatives"),
    ("spectorus.otkahler", "check_metric", "otkahler.check_metric"),
    ("spectorus.otkahler", "check_ricci", "otkahler.check_ricci"),
    ("spectorus.otkahler", "check_ricci_u_route", "otkahler.check_ricci_u_route"),
    ("spectorus.otkahler", "check_flat_factor", "otkahler.check_flat_factor"),
    ("spectorus.otkahler", "exact_determinant_identity", "otkahler.exact_identities"),
    ("spectorus.otkahler", "scaling_law_exact", "otkahler.exact_identities"),
)

# third-party calls reached through a module-global alias: (owner module,
# alias, dotted path inside the alias, span name)
PROXIES = (
    ("spectorus.rootcert", "np", "linalg.eigvals", "numpy.eigvals"),
    ("spectorus.rootcert", "mpmath", "polyval", "mpmath.polyval"),
    ("spectorus.searchkit", "np", "roots", "numpy.roots"),
)

# rejection details written by the +-1 sign screens of the interval route
_SCREEN_DETAILS = (
    "root at 1",
    "root at -1",
    "even number of real roots above 1",
    "odd number of real roots below -1",
)


class _Proxy:
    """Stands in for a module alias; overrides some attributes, forwards the rest."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _resolve(path: str):
    """Import 'pkg.mod' or 'pkg.mod.Class' and return the object."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def exit_stage(profile, args, kwargs) -> str:
    """Which stage of `classify` decided a profile: exact, screen, sturm or isolation."""
    P = args[0]
    n, c0 = P.degree, P.coeffs[0]
    if profile.reason == "wrong_constant_term":
        return "screen"
    if not kwargs.get("force_interval") and ((n == 2 and c0 == 1) or (n == 3 and c0 == -1)):
        return "exact"
    if profile.reason == "not_squarefree":
        return "sturm"  # the chain's own squarefree verdict
    if profile.detail in _SCREEN_DETAILS:
        return "screen"
    if profile.reason in ("expanding_root_count", "root_below_minus_one"):
        return "sturm"
    return "isolation"


class Tracer:
    """Aggregated spans: call counts and self times per span name, plus classify outcomes."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.exits: Counter = Counter()
        self.isolating_classifies = 0  # classify calls that reached isolate_roots
        self.final_bits: list[int] = []
        self._stack: list[float] = []  # time covered by children of each open span
        self._classify_flags: list[bool] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, before=None, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            if before:
                before()
            result = None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
                if after:
                    after(result, args, kwargs)

        return traced

    # hooks -----------------------------------------------------------------

    def _classify_enter(self):
        self._classify_flags.append(False)

    def _classify_leave(self, profile, args, kwargs):
        self._classify_flags.pop()
        if profile is not None:
            self.exits[exit_stage(profile, args, kwargs)] += 1

    def _isolate_enter(self):
        flags = self._classify_flags
        if flags and not flags[-1]:
            flags[-1] = True
            self.isolating_classifies += 1

    def _isolate_leave(self, enclosures, args, kwargs):
        if enclosures:
            self.final_bits.append(enclosures[0].k)

    # install ---------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "spectra.classify": (self._classify_enter, self._classify_leave),
            "rootcert.isolate_roots": (self._isolate_enter, self._isolate_leave),
        }
        wrapped: dict[tuple[str, str], object] = {}
        for owner_path, attr, name in PATCHES:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            # one wrapper per original, so a function bound in several modules
            # is wrapped once and its calls are counted once
            key = (original.__module__, original.__qualname__)
            if key not in wrapped:
                before, after = hooks.get(name, (None, None))
                wrapped[key] = self.wrap(name, original, before, after)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[key])
        for owner_path, alias, dotted, name in PROXIES:
            owner = _resolve(owner_path)
            original = getattr(owner, alias)
            self._saved.append((owner, alias, original))
            setattr(owner, alias, self._proxy(original, dotted.split("."), name))

    def _proxy(self, target, parts: list[str], name: str):
        head = parts[0]
        if len(parts) == 1:
            inner = self.wrap(name, getattr(target, head))
        else:
            inner = self._proxy(getattr(target, head), parts[1:], name)
        return _Proxy(target, {head: inner})

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # report ----------------------------------------------------------------

    def table(self) -> dict[str, tuple[int, float]]:
        return {name: (self.calls[name], self.self_s[name]) for name in sorted(self.calls)}

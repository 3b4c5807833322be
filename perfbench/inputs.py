"""Seeded inputs of the four workloads.

Every input is a pure function of the workload name and the seed; the
program under test receives only these generated inputs. Polynomials are
ascending integer coefficient tuples (constant term first, leading 1 last).
"""
from __future__ import annotations

import random

WORKLOADS = ("box-reject", "box-accept", "certify-single", "verify-geometry")

# Exhaustive boxes (degree, bound). Three boxes per round keep the median
# call inside the middle box of each workload.
BOX_REJECT = ((4, 8), (5, 4), (6, 3))
BOX_ACCEPT = ((2, 400), (3, 25), (3, 40))
REJECT_SAMPLE = 40  # seeded candidates whose reasons sympy re-derives
TINY_BOX_REJECT = ((4, 2), (5, 1), (6, 1))
TINY_BOX_ACCEPT = ((2, 20), (3, 3), (3, 5))

# Accepted cubics X^3 + aX^2 - 1 with a <= -10^16: exact_test_q2 proves
# acceptance, then lets PrecisionExhausted escape from its pair isolation.
KEPT_FAULT_A_WARM = (-(10**16), -3 * 10**16, -(10**18), -(10**24))
KEPT_FAULT_A_COLD = (-(10**16), -(10**18))

# Warm-stream family sizes. The exact q = 2 acceptances (about 3 ms each)
# straddle the median call: about 100 cheaper calls sit below them and the
# interval-route cubics, the kept faults and the cold runs above.
WARM_FAMILIES = {
    "q1-accept": 16,
    "q1-reject": 8,
    "q2-accept": 200,
    "q2-reject": 16,
    "interval": 40,
    "interval-built": 6,
    "wrong-constant": 8,
    "force-interval": 18,
    "gl": 10,
}
COLD_PER_FAMILY = 2  # 9 families x 2 + 2 kept faults = 20 cold runs

TORUS_Q1 = 3
TORUS_Q2 = 3
TORUS_SAMPLES = 100
OT_S = (1, 2, 3)
OT_SAMPLES = 100


def render(coeffs) -> str:
    """Text form accepted by `spectorus certify`, e.g. 'x^3 - 5x^2 + x - 1'."""
    terms = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if c == 0:
            continue
        mag = abs(c)
        if j == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else str(mag)) + ("x" if j == 1 else f"x^{j}")
        if not terms:
            terms.append(("-" if c < 0 else "") + body)
        else:
            terms.append(("- " if c < 0 else "+ ") + body)
    return " ".join(terms) if terms else "0"


def expected_constant(n: int) -> int:
    return -1 if n % 2 else 1


def cubic_disc(a: int, b: int) -> int:
    """Discriminant of X^3 + aX^2 + bX - 1 (the general cubic formula with c = -1)."""
    return a * a * b * b - 4 * b**3 + 4 * a**3 - 18 * a * b - 27


def q2_accepts(a: int, b: int) -> bool:
    return cubic_disc(a, b) < 0 and a + b < 0


def _cubic(a: int, b: int) -> tuple[int, ...]:
    return (-1, b, a, 1)


def _random_monic(rng: random.Random, n: int, c0: int, span: int) -> tuple[int, ...]:
    return (c0,) + tuple(rng.randint(-span, span) for _ in range(n - 1)) + (1,)


def _mul(p, q) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _draw(rng: random.Random, family: str) -> tuple[tuple[int, ...], bool, bool]:
    """One (coeffs, allow_gl, force_interval) case of a warm-stream family."""
    if family == "q1-accept":
        return (1, -rng.randint(3, 10**6), 1), False, False
    if family == "q1-reject":
        t = rng.randint(-2, 2) if rng.random() < 0.5 else -rng.randint(3, 10**6)
        return (1, -t, 1), False, False
    if family == "q2-accept":
        while True:
            a, b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
            if q2_accepts(a, b):
                return _cubic(a, b), False, False
    if family == "q2-reject":
        special = ((1, -1), (-3, 3), (rng.randint(-50, 50), 0))
        if rng.random() < 0.25:
            a, b = rng.choice(special)
            if b == 0:
                b = -a  # a + b = 0: root at 1
            return _cubic(a, b), False, False
        while True:
            a, b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
            if not q2_accepts(a, b):
                return _cubic(a, b), False, False
    if family == "interval":
        n = rng.randint(4, 8)
        return _random_monic(rng, n, expected_constant(n), 6), False, False
    if family == "interval-built":
        if rng.random() < 0.5:  # square of a unit-constant factor: not squarefree
            f = _random_monic(rng, rng.randint(2, 3), rng.choice((-1, 1)), 4)
            return _mul(f, f), False, False
        n = rng.randint(4, 7)  # (X - 1) * g: root at 1
        g = _random_monic(rng, n - 1, -expected_constant(n), 4)
        return _mul((-1, 1), g), False, False
    if family == "wrong-constant":
        n = rng.randint(2, 8)
        c0 = rng.choice((-expected_constant(n), 2, -2, 3))
        return _random_monic(rng, n, c0, 6), False, False
    if family == "force-interval":
        kind = rng.randint(0, 2)
        if kind == 0:
            return (1, -rng.randint(3, 1000), 1), False, True
        if kind == 1:
            while True:
                a, b = rng.randint(-100, 100), rng.randint(-100, 100)
                if q2_accepts(a, b):
                    return _cubic(a, b), False, True
        n = rng.randint(2, 3)
        return _random_monic(rng, n, expected_constant(n), 8), False, True
    if family == "gl":
        n = rng.randint(2, 7)
        return _random_monic(rng, n, rng.choice((-1, 1)), 6), True, False
    raise ValueError(f"unknown family {family}")


def _case(coeffs, gl: bool, force: bool, family: str) -> dict:
    return {
        "coeffs": list(coeffs),
        "text": render(coeffs),
        "gl": gl,
        "force": force,
        "family": family,
    }


def certify_inputs(seed: int, tiny: bool = False) -> dict:
    rng = random.Random(f"certify-single:{seed}")
    seen = set()
    warm: list[dict] = []
    cold: list[dict] = []
    for i, (family, count) in enumerate(WARM_FAMILIES.items()):
        count = 2 if tiny else count
        members = []
        while len(members) < count:
            coeffs, gl, force = _draw(rng, family)
            if (coeffs, gl, force) in seen:
                continue
            seen.add((coeffs, gl, force))
            members.append(_case(coeffs, gl, force, family))
        warm.extend(members)
        if not tiny or i < 2:
            cold.extend(rng.sample(members, 1 if tiny else COLD_PER_FAMILY))
    kept_warm = KEPT_FAULT_A_WARM[:1] if tiny else KEPT_FAULT_A_WARM
    kept_cold = KEPT_FAULT_A_COLD[:1] if tiny else KEPT_FAULT_A_COLD
    warm.extend(_case(_cubic(a, 0), False, False, "kept-fault") for a in kept_warm)
    cold.extend(_case(_cubic(a, 0), False, False, "kept-fault") for a in kept_cold)
    rng.shuffle(warm)
    rng.shuffle(cold)
    return {"cold": cold, "warm": warm}


def box_reject_sample(seed: int, boxes, size: int) -> list[list[int]]:
    rng = random.Random(f"box-reject:{seed}")
    out = []
    for i in range(size):
        n, bound = boxes[i % len(boxes)]
        out.append(list(_random_monic(rng, n, expected_constant(n), bound)))
    return out


def geometry_inputs(seed: int, tiny: bool = False) -> dict:
    rng = random.Random(f"verify-geometry:{seed}")
    q1 = rng.sample(range(3, 31), 1 if tiny else TORUS_Q1)
    q2: list[tuple[int, int]] = []
    while len(q2) < (1 if tiny else TORUS_Q2):
        a, b = rng.randint(-10, 10), rng.randint(-10, 10)
        if q2_accepts(a, b) and (a, b) not in q2:
            q2.append((a, b))
    torus = [[1, -t, 1] for t in q1] + [list(_cubic(a, b)) for a, b in q2]
    return {
        "torus": torus,
        "torus_samples": 5 if tiny else TORUS_SAMPLES,
        "ot_s": [1] if tiny else list(OT_S),
        "ot_samples": 3 if tiny else OT_SAMPLES,
        "sampler_seed": seed,
    }


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of one run; tiny=True shrinks every size for the harness self-test."""
    if workload == "box-reject":
        boxes = TINY_BOX_REJECT if tiny else BOX_REJECT
        sample = box_reject_sample(seed, boxes, 6 if tiny else REJECT_SAMPLE)
        return {"boxes": [list(b) for b in boxes], "sample": sample}
    if workload == "box-accept":
        return {"boxes": [list(b) for b in (TINY_BOX_ACCEPT if tiny else BOX_ACCEPT)]}
    if workload == "certify-single":
        return certify_inputs(seed, tiny)
    if workload == "verify-geometry":
        return geometry_inputs(seed, tiny)
    raise ValueError(f"unknown workload {workload}")

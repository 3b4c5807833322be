"""Exact arithmetic on integer polynomials.

Coefficients are stored ascending (constant term first). The module provides
parsing/rendering, reversal with monic normalization, exact power sums and the
power transform built on Newton's identities, closed-form discriminants of
quadratics and cubics, a fraction-free determinant, and a brute-force
factorization oracle meant for tests.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb, isqrt, prod
from operator import index


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, ascending order, canonical degree.

    Coefficients must be integers (Python or numpy); anything else, a float
    included, raises TypeError instead of being truncated.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(map(index, self.coeffs))
        if not cs:
            cs = (0,)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        v = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            v = v * x + c
        return v

    def __call__(self, x):
        return self.evaluate(x)

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial(tuple(j * c for j, c in enumerate(self.coeffs) if j > 0))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def render(self, var: str = "x") -> str:
        """Human-readable text, highest power first; round-trips via parse_poly."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            elif j == 1:
                body = var if mag == 1 else f"{mag}{var}"
            else:
                body = f"{var}^{j}" if mag == 1 else f"{mag}{var}^{j}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "IntPolynomial":
        return cls(tuple(data["coeffs"]))

    def __str__(self) -> str:
        return self.render()


_TERM_RE = re.compile(
    r"""^(?P<coeff>[+-]?\d+)?          # optional integer coefficient
         (?:\*?(?P<var>[A-Za-z])       # optional variable
         (?:\^(?P<power>\d+))?)?$""",
    re.VERBOSE,
)


# largest degree parse_poly accepts, in either input form
MAX_DEGREE = 1000


def _parse_int(digits: str, what: str, position: int) -> int:
    """int(digits) for a regex-checked digit string; too many digits is a parse error."""
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's int-string digit limit
        raise PolyParseError(f"{what} has too many digits", position) from None


def parse_poly(text: str) -> IntPolynomial:
    """Parse either a comma-separated ascending coefficient list or an expression.

    Expression form accepts one variable, integer coefficients, `^` powers and
    `+`/`-` separated terms, e.g. "x^3 - x - 1". Degrees above MAX_DEGREE are
    rejected in both forms.
    """
    if not text or not text.strip():
        raise PolyParseError("empty polynomial text")
    if "," in text:
        raw = text.split(",")
        if len(raw) > MAX_DEGREE + 1:
            raise PolyParseError(
                f"more than {MAX_DEGREE + 1} coefficients (degree cap {MAX_DEGREE})",
                len(",".join(raw[: MAX_DEGREE + 1])) + 1,
            )
        coeffs = []
        offset = 0  # where the current piece starts in text
        for piece in raw:
            start, offset = offset, offset + len(piece) + 1
            piece = piece.strip()
            try:
                coeffs.append(int(piece))
            except ValueError:
                message = (
                    "coefficient has too many digits"
                    if re.fullmatch(r"[+-]?\d+", piece)
                    else f"non-integer coefficient {piece!r}"
                )
                raise PolyParseError(message, text.find(piece, start)) from None
        return IntPolynomial(tuple(coeffs))

    compact = text.replace(" ", "")
    if "." in compact:
        raise PolyParseError("non-integer coefficient", text.find("."))
    # split into signed terms, keeping track of the source position
    terms: list[tuple[str, int]] = []
    start = 0
    for i in range(1, len(compact)):
        if compact[i] in "+-" and compact[i - 1] not in "+-^*":
            terms.append((compact[start:i], start))
            start = i
    terms.append((compact[start:], start))

    acc: dict[int, int] = {}
    var_seen: str | None = None
    for term, pos in terms:
        body = term.lstrip("+-")
        signs = term[: len(term) - len(body)]
        if not body:
            raise PolyParseError("empty term", pos)
        sign = -1 if signs.count("-") % 2 else 1
        m = _TERM_RE.match(body)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise PolyParseError(f"cannot parse term {term!r}", pos)
        coeff = _parse_int(m.group("coeff") or "1", "coefficient", pos) * sign
        var = m.group("var")
        if var is not None:
            if var_seen is None:
                var_seen = var
            elif var != var_seen:
                raise PolyParseError(f"mixed variables {var_seen!r} and {var!r}", pos)
            power = _parse_int(m.group("power") or "1", "exponent", pos)
            if power > MAX_DEGREE:
                raise PolyParseError(f"exponent above the degree cap {MAX_DEGREE}", pos)
        else:
            power = 0
        acc[power] = acc.get(power, 0) + coeff
    n = max(acc)
    return IntPolynomial(tuple(acc.get(j, 0) for j in range(n + 1)))


def reverse(P: IntPolynomial) -> IntPolynomial:
    """X**deg * P(1/X), normalized monic (roots become reciprocals).

    Requires P monic with P(0) in {1, -1}.
    """
    if not P.is_monic:
        raise ValueError("reverse requires a monic polynomial")
    c0 = P.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError(
            "reverse requires P(0) in {1, -1}; reciprocal roots are not "
            "algebraic integers otherwise"
        )
    return IntPolynomial(tuple(c0 * c for c in P.coeffs[::-1]))


def power_sums(P: IntPolynomial, k: int) -> tuple[int, ...]:
    """(p_1, ..., p_k): exact sums of m-th powers of the roots, via Newton's recurrence."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not P.is_monic:
        raise ValueError("power_sums requires a monic polynomial")
    n = P.degree
    # e_i = (-1)**i * coeff of X**(n-i)
    e = [0] * (k + 1)
    for i in range(1, min(n, k) + 1):
        e[i] = (-1 if i % 2 else 1) * P.coeffs[n - i]
    p = [0] * (k + 1)
    for m in range(1, k + 1):
        acc = 0
        for i in range(1, min(m - 1, n) + 1):
            acc += (-1 if i % 2 == 0 else 1) * e[i] * p[m - i]
        if m <= n:
            acc += (-1 if m % 2 == 0 else 1) * m * e[m]
        p[m] = acc
    return tuple(p[1:])


def power_transform(P: IntPolynomial, m: int) -> IntPolynomial:
    """Monic integer polynomial whose roots are the m-th powers of P's roots.

    Exact construction: power sums p_1..p_{m*n} of P, keep every m-th, then
    rebuild elementary symmetric functions by the inverse Newton recurrence.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not P.is_monic or P.degree < 1:
        raise ValueError("power_transform requires a monic polynomial of degree >= 1")
    n = P.degree
    if m == 1:
        return P
    ps = power_sums(P, m * n)
    q = [ps[m * j - 1] for j in range(1, n + 1)]  # power sums of the powered roots
    e = [1] + [0] * n
    for j in range(1, n + 1):
        acc = 0
        for i in range(1, j + 1):
            acc += (-1 if i % 2 == 0 else 1) * e[j - i] * q[i - 1]
        quot, rem = divmod(acc, j)
        if rem:
            raise ArithmeticError("inverse Newton recurrence produced a non-integer")
        e[j] = quot
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for i in range(1, n + 1):
        coeffs[n - i] = (-1 if i % 2 else 1) * e[i]
    return IntPolynomial(tuple(coeffs))


def _bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free integer determinant (Bareiss elimination)."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for j in range(n - 1):
        if m[j][j] == 0:
            for i in range(j + 1, n):
                if m[i][j] != 0:
                    m[j], m[i] = m[i], m[j]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(j + 1, n):
            for c in range(j + 1, n):
                m[i][c] = (m[i][c] * m[j][j] - m[i][j] * m[j][c]) // prev
            m[i][j] = 0
        prev = m[j][j]
    return sign * m[n - 1][n - 1]


def discriminant(P: IntPolynomial) -> int:
    """Exact discriminant of a monic quadratic or cubic, in closed form.

    X**2 + b*X + c gives b**2 - 4*c; X**3 + a*X**2 + b*X + c gives
    a**2*b**2 - 4*b**3 - 4*a**3*c - 27*c**2 + 18*a*b*c.
    """
    if not P.is_monic or P.degree not in (2, 3):
        raise ValueError("discriminant requires a monic polynomial of degree 2 or 3")
    if P.degree == 2:
        c, b, _ = P.coeffs
        return b * b - 4 * c
    c, b, a, _ = P.coeffs
    return a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c


def _divides_exactly(P: IntPolynomial, G: IntPolynomial) -> IntPolynomial | None:
    """Quotient P/G over the integers if the division is exact, else None."""
    rem = list(P.coeffs)
    g = G.coeffs
    dg = G.degree
    out = [0] * (len(rem) - dg)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top]
        if c % g[-1]:
            return None
        f = c // g[-1]
        out[top - dg] = f
        if f:
            for j in range(dg + 1):
                rem[top - dg + j] -= f * g[j]
    if any(rem[:dg]):
        return None
    return IntPolynomial(tuple(out))


# most candidate divisors factor_oracle enumerates for one degree (a few seconds)
FACTOR_CANDIDATE_BUDGET = 10**6


def _factor_order(f: IntPolynomial) -> tuple:
    return f.degree, f.coeffs


def factor_oracle(P: IntPolynomial, max_degree: int = 8) -> list[IntPolynomial]:
    """Brute-force factorization into monic integer factors; a slow trusted oracle.

    Searches monic divisors of degree <= deg/2 with coefficients inside the
    Mignotte bound, pruning by g(0) | P(0), g(1) | P(1) and g(-1) | P(-1).
    Returns the list of irreducible monic factors, [P] when irreducible.
    Refuses with ValueError a degree of more than FACTOR_CANDIDATE_BUDGET candidates.
    """
    if not P.is_monic:
        raise ValueError("factor_oracle requires a monic polynomial")
    n = P.degree
    if n > max_degree:
        raise ValueError(f"degree {n} above the configured limit {max_degree}")
    if n <= 1:
        return [P]
    if P.coeffs[0] == 0:
        rest = factor_oracle(IntPolynomial(P.coeffs[1:]), max_degree)
        return sorted([IntPolynomial((0, 1))] + rest, key=_factor_order)

    p0, p1, pm1 = P.coeffs[0], P.evaluate(1), P.evaluate(-1)
    norm = isqrt(sum(c * c for c in P.coeffs)) + 1
    const_divs = [d * s for d in range(1, abs(p0) + 1) if abs(p0) % d == 0 for s in (1, -1)]

    def search_divisor(d: int) -> IntPolynomial | None:
        bounds = [comb(d, i) * norm for i in range(1, d)]
        candidates = len(const_divs) * prod(2 * b + 1 for b in bounds)
        if candidates > FACTOR_CANDIDATE_BUDGET:
            raise ValueError(f"{candidates} candidate divisors of degree {d} exceed the budget")

        def rec(idx: int, partial: list[int]) -> IntPolynomial | None:
            if idx == d:
                g = IntPolynomial(tuple(partial + [1]))
                g1 = g.evaluate(1)
                if p1 != 0 and (g1 == 0 or p1 % g1):
                    return None
                gm1 = g.evaluate(-1)
                if pm1 != 0 and (gm1 == 0 or pm1 % gm1):
                    return None
                return g if _divides_exactly(P, g) is not None else None
            lim = bounds[idx - 1]
            for c in range(-lim, lim + 1):
                hit = rec(idx + 1, partial + [c])
                if hit is not None:
                    return hit
            return None

        for c0 in const_divs:
            hit = rec(1, [c0])
            if hit is not None:
                return hit
        return None

    for d in range(1, n // 2 + 1):
        g = search_divisor(d)
        if g is not None:
            quot = _divides_exactly(P, g)
            assert quot is not None
            return sorted(
                factor_oracle(g, max_degree) + factor_oracle(quot, max_degree),
                key=_factor_order,
            )
    return [P]

"""Answer checks that do not go through the program under test.

Every check here works from plain data (term dictionaries, structure
constant tables, report JSON) with its own arithmetic, so a defect in the
``phasealg`` kernels cannot hide itself by being used to check itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

# Brackets are compared by evaluating both sides at a point of the prime
# field F_P.  Reduction mod P is a ring map on rationals whose denominators
# P does not divide, so equal polynomials give equal values; two different
# polynomials of degree d agree at a random point with probability <= d/P.
P = (1 << 61) - 1


def _mod(c: Fraction) -> int:
    den = c.denominator % P
    if den == 0:
        raise ValueError(f"coefficient {c} has a denominator divisible by P")
    return c.numerator % P * pow(den, -1, P) % P


def random_point(rng, nvars: int) -> list[int]:
    """A rational point with nonzero coordinates a/b, reduced into F_P."""
    point = []
    for _ in range(nvars):
        a = rng.choice([-1, 1]) * rng.randint(1, 9)
        point.append(_mod(Fraction(a, rng.randint(1, 7))))
    return point


def _powers(point: list[int], top: int) -> list[list[int]]:
    table = []
    for x in point:
        row = [1]
        for _ in range(top):
            row.append(row[-1] * x % P)
        table.append(row)
    return table


def evaluate(terms, point: list[int]) -> int:
    """Value of ``sum c * x^e`` over (exponents, coefficient) pairs, mod P."""
    terms = list(terms)
    top = max((max(e) for e, _ in terms), default=0)
    pw = _powers(point, top)
    total = 0
    for exps, coeff in terms:
        v = _mod(coeff)
        for i, e in enumerate(exps):
            if e:
                v = v * pw[i][e] % P
        total += v
    return total % P


def _taylor(terms: dict, point: list[int], orders: set[int]) -> dict[tuple, int]:
    """Taylor coefficients ``d^a f(x) / a!`` at ``point`` for every |a| in ``orders``.

    Expands each monomial ``c * prod (x_i + h_i)^e_i`` by the binomial theorem
    and keeps the coefficient of ``h^a``:  ``c * prod C(e_i, a_i) x_i^(e_i - a_i)``.
    """
    top = max((max(e) for e in terms), default=0)
    pw = _powers(point, top)
    kmax = max(orders)
    out: dict[tuple, int] = {}
    nvars = len(point)
    for exps, coeff in terms.items():
        c = _mod(coeff)
        support = [i for i in range(nvars) if exps[i]]

        def walk(pos: int, alpha: list[int], size: int, value: int) -> None:
            if pos == len(support):
                if size in orders:
                    key = tuple(alpha)
                    out[key] = (out.get(key, 0) + value) % P
                return
            i = support[pos]
            e = exps[i]
            for a in range(min(e, kmax - size) + 1):
                alpha[i] = a
                walk(pos + 1, alpha, size + a,
                     value * comb(e, a) % P * pw[i][e - a] % P)
            alpha[i] = 0

        walk(0, [0] * nvars, 0, c)
    return out


def bracket_at_point(a_terms: dict, b_terms: dict, dof: int, kind: str,
                     hbar: Fraction, point: list[int]) -> int:
    """Poisson or Moyal bracket of two term dicts, evaluated at ``point`` mod P.

    The Moyal series is  sum over odd k of (-1)^((k-1)/2) (hbar/2)^(k-1) / k!
    * Pi_k(A, B), where Pi_k applies d_q^s d_p^t to A and d_q^t d_p^s to B with
    multinomial weight k!/(s! t!) and sign (-1)^|t|.  Written with Taylor
    coefficients T (so d^a f = a! T[a]) a term of Pi_k / k! is
    a! * (-1)^|t| * T_A[s,t] * T_B[t,s].  Poisson is the k = 1 term alone.
    """
    deg_a = max((sum(e) for e in a_terms), default=0)
    deg_b = max((sum(e) for e in b_terms), default=0)
    kmax = 1 if kind == "poisson" else max(1, min(deg_a, deg_b))
    orders = set(range(1, kmax + 1, 2))
    ta = _taylor(a_terms, point, orders)
    tb = _taylor(b_terms, point, orders)
    half_h = _mod(Fraction(hbar) / 2)
    total = 0
    for alpha, va in ta.items():
        swapped = alpha[dof:] + alpha[:dof]
        vb = tb.get(swapped)
        if not vb:
            continue
        k = sum(alpha)
        weight = 1
        for part in alpha:
            weight *= factorial(part)
        if sum(alpha[dof:]) % 2:
            weight = -weight
        if (k - 1) // 2 % 2:
            weight = -weight
        term = weight % P * pow(half_h, k - 1, P) % P
        total += term * va % P * vb
    return total % P


def jacobi_holds(structure: dict, n: int, rng, trials: int = 2) -> bool:
    """Jacobi identity of a structure-constant table, by random contraction.

    ``structure`` maps (i, j, k) with i < j to c_ij^k.  The Jacobiator
    J(x, y, z) = [[x, y], z] + [[y, z], x] + [[z, x], y] is trilinear, so it
    vanishes identically iff it vanishes at random x, y, z in F_P^n, up to a
    failure chance of 3/P per trial.  Each bracket is a contraction with the
    sparse table, so one trial costs O(number of nonzero constants).
    """
    table = [(i, j, k, _mod(Fraction(c))) for (i, j, k), c in structure.items() if c]

    def bracket(x, y):
        out = [0] * n
        for i, j, k, c in table:
            w = (x[i] * y[j] - x[j] * y[i]) % P
            if w:
                out[k] = (out[k] + c * w) % P
        return out

    for _ in range(trials):
        x, y, z = ([rng.randrange(P) for _ in range(n)] for _ in range(3))
        jac = [sum(t) % P for t in zip(bracket(bracket(x, y), z),
                                       bracket(bracket(y, z), x),
                                       bracket(bracket(z, x), y))]
        if any(jac):
            return False
    return True


def harmonic_levels_ok(energies, omega: float, mass: float, domain, grid: int) -> bool:
    """FD levels of the oscillator lie within O(h^2) of (n + 1/2) omega.

    The three-point stencil shifts level n by about
    -(h^2 / 24m) <p^4> = -(h^2 m omega^2 / 32)(2n^2 + 2n + 1); the bound
    allows four times that.
    """
    h = (domain[1] - domain[0]) / (grid - 1)
    for n, e in enumerate(energies):
        exact = (n + 0.5) * omega
        bound = h * h * mass * omega * omega * (2 * n * n + 2 * n + 1) / 8 + 1e-8
        if abs(e - exact) > bound:
            return False
    return True

"""Exact multivariate polynomials over the canonical variables.

``PhasePoly`` is the universal carrier for Hamiltonians, constraints and
bracket results: a sparse map from exponent vectors (length 2D, ordered
q1..qD, p1..pD) to nonzero rational coefficients.  Values are immutable;
every operation returns a fresh polynomial in canonical form.

Serialized forms (``str``, reports) list terms in graded-lexicographic
order, highest first: total degree decides, ties break lexicographically
on the exponent vector with q1 most significant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .context import PhaseContext
from .rational import rat

Expvec = tuple[int, ...]


def _grlex_key(exps: Expvec) -> tuple[int, Expvec]:
    return (sum(exps), exps)


class PhasePoly:
    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: PhaseContext, terms: Mapping[Expvec, Fraction]):
        clean: dict[Expvec, Fraction] = {}
        n = ctx.nvars
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has wrong length for D={ctx.dof}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = rat(coeff)
            if c != 0:
                clean[tuple(exps)] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PhasePoly is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, ctx: PhaseContext) -> "PhasePoly":
        return cls(ctx, {})

    @classmethod
    def constant(cls, ctx: PhaseContext, value) -> "PhasePoly":
        return cls(ctx, {(0,) * ctx.nvars: rat(value)})

    @classmethod
    def variable(cls, ctx: PhaseContext, var: str | int) -> "PhasePoly":
        """The polynomial q_i or p_i, by name ("q2", "p1", "x3") or index."""
        if isinstance(var, int):
            if not 0 <= var < ctx.nvars:
                raise ValueError(f"variable index {var} out of range")
            idx = var
        else:
            idx = ctx.var_index(var)
            if idx is None:
                raise ValueError(f"unknown canonical variable {var!r}")
        exps = [0] * ctx.nvars
        exps[idx] = 1
        return cls(ctx, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, ctx: PhaseContext, exps: Iterable[int], coeff=1) -> "PhasePoly":
        return cls(ctx, {tuple(exps): rat(coeff)})

    # -- inspection ------------------------------------------------------------

    def term_items(self) -> list[tuple[Expvec, Fraction]]:
        """Terms in graded-lex order, leading term first."""
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def monomials(self) -> tuple[Expvec, ...]:
        return tuple(sorted(self._terms, key=_grlex_key, reverse=True))

    def coefficient(self, exps: Expvec) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._terms)

    def constant_value(self) -> Fraction:
        """Value of the degree-0 term (the whole value if is_constant())."""
        return self._terms.get((0,) * self.ctx.nvars, Fraction(0))

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def leading_term(self) -> tuple[Expvec, Fraction]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self._terms, key=_grlex_key)
        return exps, self._terms[exps]

    # -- ring operations ---------------------------------------------------------

    def _coerce(self, other) -> "PhasePoly | None":
        if isinstance(other, PhasePoly):
            self.ctx.require_same(other.ctx)
            return other
        if isinstance(other, (int, Fraction)):
            return PhasePoly.constant(self.ctx, other)
        return None

    def __add__(self, other) -> "PhasePoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self._terms)
        for exps, coeff in rhs._terms.items():
            new = terms.get(exps, Fraction(0)) + coeff
            if new == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = new
        return PhasePoly(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self) -> "PhasePoly":
        return PhasePoly(self.ctx, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "PhasePoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "PhasePoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "PhasePoly":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                return PhasePoly.zero(self.ctx)
            return PhasePoly(self.ctx, {e: k * c for e, k in self._terms.items()})
        if not isinstance(other, PhasePoly):
            return NotImplemented
        self.ctx.require_same(other.ctx)
        terms: dict[Expvec, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(exps, Fraction(0)) + c1 * c2
                if new == 0:
                    terms.pop(exps, None)
                else:
                    terms[exps] = new
        return PhasePoly(self.ctx, terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PhasePoly":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __pow__(self, exponent: int) -> "PhasePoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = PhasePoly.constant(self.ctx, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PhasePoly.constant(self.ctx, other)
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    __hash__ = None

    # -- calculus ---------------------------------------------------------------

    def partial_derivative(self, var: str | int) -> "PhasePoly":
        """Formal partial derivative with respect to one canonical variable."""
        if isinstance(var, str):
            idx = self.ctx.var_index(var)
            if idx is None:
                raise ValueError(f"unknown canonical variable {var!r}")
        else:
            idx = var
            if not 0 <= idx < self.ctx.nvars:
                raise ValueError(f"variable index {idx} out of range")
        terms: dict[Expvec, Fraction] = {}
        for exps, coeff in self._terms.items():
            e = exps[idx]
            if e == 0:
                continue
            new = list(exps)
            new[idx] = e - 1
            terms[tuple(new)] = coeff * e
        return PhasePoly(self.ctx, terms)

    def derivative_multi(self, order: Expvec) -> "PhasePoly":
        """Apply ``d^order[i]/d var_i^order[i]`` for every variable at once.

        Coefficients pick up the falling-factorial factors exactly.
        """
        terms: dict[Expvec, Fraction] = {}
        for exps, coeff in self._terms.items():
            factor = 1
            new = list(exps)
            for i, k in enumerate(order):
                if k == 0:
                    continue
                e = exps[i]
                if e < k:
                    factor = 0
                    break
                for j in range(k):
                    factor *= e - j
                new[i] = e - k
            if factor:
                terms[tuple(new)] = coeff * factor
        return PhasePoly(self.ctx, terms)

    # -- substitution -------------------------------------------------------------

    def substitute(self, images: Mapping[int, "PhasePoly"], target: PhaseContext) -> "PhasePoly":
        """Replace every variable by its image polynomial over ``target``.

        Every variable actually appearing in the polynomial must be mapped.
        Used by the canonical-map machinery to rewrite a Hamiltonian in new
        variables.
        """
        # Pre-compute the powers each image needs.
        max_pow: dict[int, int] = {}
        for exps in self._terms:
            for i, e in enumerate(exps):
                if e > 0:
                    max_pow[i] = max(max_pow.get(i, 0), e)
        powers: dict[int, list[PhasePoly]] = {}
        for i, top in max_pow.items():
            if i not in images:
                raise ValueError(f"no image for variable {self.ctx.var_name(i)}")
            cache = [PhasePoly.constant(target, 1), images[i]]
            while len(cache) <= top:
                cache.append(cache[-1] * images[i])
            powers[i] = cache
        out = PhasePoly.zero(target)
        for exps, coeff in self._terms.items():
            term = PhasePoly.constant(target, coeff)
            for i, e in enumerate(exps):
                if e > 0:
                    term = term * powers[i][e]
            out = out + term
        return out

    # -- printing -----------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"PhasePoly({format_poly(self)})"


def format_poly(p: PhasePoly) -> str:
    """Canonical DSL text: graded-lex ordered terms, explicit '*' and '^'.

    The output parses back to an equal polynomial under the same context.
    """
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exps, coeff in p.term_items():
        factors = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = p.ctx.var_name(i)
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def partial_derivative(p: PhasePoly, var: str | int) -> PhasePoly:
    return p.partial_derivative(var)

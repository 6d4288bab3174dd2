"""Exact multivariate polynomials over the canonical variables.

``PhasePoly`` is the universal carrier for Hamiltonians, constraints and
bracket results: a sparse map from exponent vectors (length 2D, ordered
q1..qD, p1..pD) to nonzero rational coefficients.  Values are immutable;
every operation returns a fresh polynomial in canonical form.

Serialized forms (``str``, reports) list terms in graded-lexicographic
order, highest first: total degree decides, ties break lexicographically
on the exponent vector with q1 most significant.

Each job has one implementation.  Sums and differences, and the sum that
``substitute`` accumulates, go through ``linsolve.sub_scaled``; a variable
given by name or index becomes an exponent vector in ``_var_exps``;
``partial_derivative`` is ``derivative_multi`` of a unit vector; each
variable's largest exponent comes from ``_maxima``.

Products and brackets run on a packed form: each exponent vector becomes
one int with a byte-aligned field per variable, all fields of one width
(1, 2, 4 or 8 bytes), and the coefficients become int numerators over
their operand's denominator; several operands share one list by a tag
above the fields.  A product packs its operands per call; every bracket
walk packs through one owner, ``brackets._PackedBasis``, whose basis stays
packed across its walks.  Each layout (``struct.Struct``) and its unit
keys are built once per process and shared.  Packing and unpacking a term
is one ``struct`` call each way.  The format belongs to this module:
``_unpack`` reads a result as a polynomial, with ``Fraction`` built once
per distinct numerator, and ``_tagged`` reads a tagged one as integer
entries, decoding each distinct monomial once, which only ``brackets``
takes.  An exponent a call could reach that needs more than 64 bits
raises ``OverflowError``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from struct import Struct
from typing import Iterable, Mapping

from .context import PhaseContext
from .linsolve import sub_scaled
from .rational import rat

Expvec = tuple[int, ...]
Packed = list[tuple[int, int, Expvec]]   # (packed exponents, integer numerator, exponents)
_WIDTHS = {"B": 1, "H": 2, "I": 4, "Q": 8}   # struct code -> bytes per packed field
_CODES = "BBHIIQQQQ"   # _CODES[n]: the narrowest field that holds n bytes, n = 0..8
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def _grlex_key(exps: Expvec) -> tuple[int, Expvec]:
    return (sum(exps), exps)


def _grlex_item(item: tuple[Expvec, Fraction]) -> tuple[int, Expvec]:
    exps = item[0]
    return (sum(exps), exps)


def _maxima(*polys: "PhasePoly") -> list[int]:
    """Largest exponent of each variable over the terms of ``polys``."""
    exps = polys[0]._terms if len(polys) == 1 else [e for p in polys for e in p._terms]
    return list(map(max, zip(*exps))) or [0] * polys[0].ctx.nvars


def _var_exps(ctx: PhaseContext, var: str | int, power: int = 1) -> Expvec:
    """The exponent vector of ``var ** power``, for a variable given by name
    ("q2", "p1", "x3") or by index."""
    idx = ctx.var_index(var) if isinstance(var, str) else var
    if idx is None:
        raise ValueError(f"unknown canonical variable {var!r}")
    if not 0 <= idx < ctx.nvars:
        raise ValueError(f"variable index {var} out of range")
    exps = [0] * ctx.nvars
    exps[idx] = power
    return tuple(exps)


def _layout(ctx: PhaseContext, left: list[int], right: list[int]) -> Struct:
    """Byte-aligned fields, one per variable, wide enough to hold exponent
    ``left[i] + right[i]`` in variable i.

    Callers pass each operand's largest exponent in each variable
    (``_maxima``), so the sum is the largest any result of the call can
    reach, and the sum of two packed keys never carries from one field into
    the next.  Every field gets the width of the widest, so a key is the
    little-endian integer of one ``struct`` record.  A sum of 2^64 or more
    raises ``OverflowError`` naming the variable and the two exponents.
    """
    tops = [x + y for x, y in zip(left, right)]
    top = max(tops)
    nbytes = (top.bit_length() + 7) >> 3
    if nbytes <= 8:
        return _fields(len(tops), _CODES[nbytes])
    i = tops.index(top)
    raise OverflowError(f"exponent {left[i]} + {right[i]} of {ctx.var_name(i)}"
                        " does not fit a 64-bit packed field")


@cache
def _fields(nvars: int, code: str) -> Struct:
    """The layout of ``nvars`` fields of struct code ``code``, built once: a
    layout is immutable, so every call that needs it shares it."""
    return Struct(f"<{nvars}{code}")


@cache
def _units(layout: Struct) -> tuple[int, ...]:
    """The packed key of each variable's first power, in variable order."""
    bits = 8 * _WIDTHS[layout.format[-1]]
    return tuple(1 << shift for shift in range(0, 8 * layout.size, bits))


def _pack(polys: list["PhasePoly"], layout: Struct, first: int = 0) -> tuple[Packed, list[int]]:
    """The terms of ``polys`` in packed form, in order, and each one's
    denominator; the keys of ``polys[u]`` carry the tag ``first + u`` in a
    field above the top exponent field (tag 0: plain packed exponents)."""
    step = 1 << 8 * layout.size
    pack, tag = layout.pack, first * step
    packed: Packed = []
    dens = []
    for p in polys:
        den = lcm(*[c.denominator for c in p._terms.values()])
        packed += [(int.from_bytes(pack(*exps), "little") + tag,
                    c.numerator * (den // c.denominator), exps) for exps, c in p._terms.items()]
        dens.append(den)
        tag += step
    return packed, dens


def _unpack(ctx: PhaseContext, acc: Mapping[int, int], layout: Struct, den: int) -> "PhasePoly":
    """The polynomial sum of ``acc[key] / den * x^key`` over packed keys.

    One ``Fraction`` is built per distinct nonzero numerator and shared by
    every term that has it (a ``Fraction`` is immutable).
    """
    shared = {num: Fraction(num, den) for num in set(acc.values()) if num}
    size, unpack = layout.size, layout.unpack
    return PhasePoly._build(ctx, {
        unpack(key.to_bytes(size, "little")): shared[num] for key, num in acc.items() if num
    })


def _tagged(acc: Mapping[int, int], layout: Struct) -> list[tuple[int, Expvec, int]]:
    """``(tag, exponents, numerator)`` for each nonzero entry of ``acc``, whose
    keys carry a tag (``_pack``).

    A monomial that recurs under several tags is decoded once per call: the
    untagged key is looked up before it is unpacked, and every entry that
    has it shares one exponent tuple.
    """
    size, unpack, shift = layout.size, layout.unpack, 8 * layout.size
    decoded: dict[int, Expvec] = {}
    out = []
    for key, num in acc.items():
        if num:
            u = key >> shift
            key -= u << shift
            if (exps := decoded.get(key)) is None:
                exps = decoded[key] = unpack(key.to_bytes(size, "little"))
            out.append((u, exps, num))
    return out


def _product_into(acc: dict[int, int], left: Packed, right: Packed) -> None:
    """Add every product of a term of ``left`` and a term of ``right`` into ``acc``."""
    get = acc.get
    for k1, c1, _ in left:
        for k2, c2, _ in right:
            key = k1 + k2
            acc[key] = get(key, 0) + c1 * c2


def _combine(a: "PhasePoly", b: "PhasePoly", factor: Fraction) -> "PhasePoly":
    """``a - factor * b``, zeros dropped, by ``linsolve.sub_scaled``."""
    terms = dict(a._terms)
    sub_scaled(terms, b._terms, factor)
    return PhasePoly._build(a.ctx, terms)


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

    @classmethod
    def _build(cls, ctx: PhaseContext, terms: dict[Expvec, Fraction]) -> "PhasePoly":
        """Wrap terms already in canonical form: right-length tuples, nonzero Fractions."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "ctx", ctx)
        object.__setattr__(poly, "_terms", terms)
        return poly

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
        return cls(ctx, {_var_exps(ctx, var): Fraction(1)})

    @classmethod
    def monomial(cls, ctx: PhaseContext, exps: Iterable[int], coeff=1) -> "PhasePoly":
        return cls(ctx, {tuple(exps): rat(coeff)})

    # -- inspection ------------------------------------------------------------

    def term_items(self) -> list[tuple[Expvec, Fraction]]:
        """Terms in graded-lex order, leading term first."""
        return sorted(self._terms.items(), key=_grlex_item, reverse=True)

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
        return _combine(self, rhs, _MINUS_ONE)

    __radd__ = __add__

    def __neg__(self) -> "PhasePoly":
        return PhasePoly._build(self.ctx, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "PhasePoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(self, rhs, _ONE)

    def __rsub__(self, other) -> "PhasePoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(rhs, self, _ONE)

    def __mul__(self, other) -> "PhasePoly":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                return PhasePoly.zero(self.ctx)
            return PhasePoly._build(self.ctx, {e: k * c for e, k in self._terms.items()})
        if not isinstance(other, PhasePoly):
            return NotImplemented
        self.ctx.require_same(other.ctx)
        layout = _layout(self.ctx, _maxima(self), _maxima(other))
        left, (den_left,) = _pack([self], layout)
        right, (den_right,) = _pack([other], layout)
        acc: dict[int, int] = {}
        _product_into(acc, left, right)
        return _unpack(self.ctx, acc, layout, den_left * den_right)

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
        """Formal partial derivative with respect to one canonical variable,
        by name or index: ``derivative_multi`` of that variable's unit vector."""
        return self.derivative_multi(_var_exps(self.ctx, var))

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
        return PhasePoly._build(self.ctx, terms)

    # -- substitution -------------------------------------------------------------

    def substitute(self, images: Mapping[int, "PhasePoly"], target: PhaseContext) -> "PhasePoly":
        """Replace every variable by its image polynomial over ``target``.

        Every variable actually appearing in the polynomial must be mapped;
        otherwise a ``ValueError`` names the lowest-index unmapped one.  Each
        image's powers are built once, up to the variable's largest exponent
        (``_maxima``), and the products of the terms are summed into one
        term map by ``linsolve.sub_scaled``.  Used by the canonical-map
        machinery to rewrite a Hamiltonian in new variables.
        """
        powers: dict[int, list[PhasePoly]] = {}
        for i, top in enumerate(_maxima(self)):
            if not top:
                continue
            if i not in images:
                raise ValueError(f"no image for variable {self.ctx.var_name(i)}")
            cache = [PhasePoly.constant(target, 1), images[i]]
            while len(cache) <= top:
                cache.append(cache[-1] * images[i])
            powers[i] = cache
        acc: dict[Expvec, Fraction] = {}
        for exps, coeff in self._terms.items():
            factors = [powers[i][e] for i, e in enumerate(exps) if e > 0]
            term = factors[0] if factors else PhasePoly.constant(target, 1)
            for factor in factors[1:]:
                term = term * factor
            sub_scaled(acc, term._terms, -coeff)
        return PhasePoly._build(target, acc)

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
    names = [p.ctx.var_name(i) for i in range(p.ctx.nvars)]
    parts: list[str] = []
    for exps, coeff in p.term_items():
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        num, den = coeff.numerator, coeff.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if mag != "1" or not factors:
            factors.insert(0, mag)
        body = "*".join(factors)
        if parts:
            parts.append(f"- {body}" if num < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if num < 0 else body)
    return " ".join(parts)


def partial_derivative(p: PhasePoly, var: str | int) -> PhasePoly:
    return p.partial_derivative(var)

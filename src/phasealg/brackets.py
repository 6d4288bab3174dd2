"""Classical and quantum brackets on phase-space polynomials.

Sign convention used throughout the package::

    {A, B} = sum_i ( dA/dq_i * dB/dp_i  -  dA/dp_i * dB/dq_i )

so {q_i, p_i} = +1.  Texts defining the bracket with the opposite ordering
see every odd nesting of brackets with flipped sign.

The quantum bracket is computed at the level of Weyl symbols: for
polynomials the sine series of bidifferential operators terminates, giving

    {A, B}_M = sum over odd k of (-1)^((k-1)/2) (hbar/2)^(k-1) / k! * Pi_k(A, B)

with Pi_k the k-th power of the two-sided derivative operator underlying the
Poisson bracket.  The symbol of the commutator is i*hbar*{A, B}_M, so the
bracket reduces to the Poisson bracket both for hbar -> 0 and whenever either
argument has total degree <= 2.

Both brackets run on one kernel over packed terms (``poly._pack``).  The
layout of a packed key belongs to ``poly``: the kernel knows only each
variable's unit key (``poly._units``), which one derivative subtracts.  On
a pair of monomials the Poisson bracket is

    {x^a, x^b} = sum_i (a_qi b_pi - a_pi b_qi) x^(a + b - e_qi - e_pi)

and Pi_k / k! is a sum over compositions (s, t) of k into 2D slots, s_i
counting d/dq_i (x) d/dp_i factors and t_i counting -d/dp_i (x) d/dq_i:

    Pi_k(x^a, x^b) / k! = sum over (s, t) of (-1)^|t|
        prod_i C(a_qi, s_i) C(a_pi, t_i) (b_pi)_s_i (b_qi)_t_i
        * x^(a + b - sum_i (s_i + t_i)(e_qi + e_pi))

with (n)_m the falling factorial; k = 1 gives the Poisson formula.  One
walk serves every k: it fills the slots in turn with at most ``top``
derivatives in all, differentiating the packed term lists of A and B as it
goes and dropping the terms the derivative kills, so

    s_i <= min(max_A a_qi, max_B b_pi),   t_i <= min(max_A a_pi, max_B b_qi),

a branch ends once either list is empty, and a composition of k is complete
once the budget is spent or the last slot is filled.  There, for odd k, A's
surviving numerators are scaled by (-1)^((k-1)/2) (hbar/2)^(k-1) over one
denominator shared by every k and multiplied out into one integer dict keyed
by packed exponents; unpacking it builds one Fraction per distinct numerator.

One walk takes a list of left operands, packed in one layout over their
own denominators, each term's keys tagged with its index in a field above
the top exponent field.  The tag survives the walk: a derivative subtracts
a unit only from a field that holds it, and B is untagged and the layout
keeps every product's exponents inside their fields.  ``_series``, the
only entry to the walk, takes a list of right operands (seeds) too: it
packs the left operands once, in a layout wide enough for every seed, and
per seed packs only the seed and builds its slots and scales.  The public
brackets are its one-term, one-seed case.  Its other readers are here, so
no other module sees a packed key: ``_entries`` (the invariant rows),
``_blocks`` (integer rows for closure and ``verify``) and ``_brackets_of``
(``bracket(a, T)`` as polynomials, for ``verify_invariant`` and
``verify_canonical``).
"""

from __future__ import annotations

from fractions import Fraction
from struct import Struct

from .poly import (Expvec, Packed, PhasePoly, _layout, _maxima, _pack, _product_into, _tagged, _units,
                   _unpack)


def poisson_bracket(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    acc, layout, (den,) = _series([a], [b], False)[0]
    return _unpack(a.ctx, acc, layout, den)


def moyal_bracket(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    acc, layout, (den,) = _series([a], [b], True)[0]
    return _unpack(a.ctx, acc, layout, den)


def _entries(terms: list[PhasePoly], seeds: list[PhasePoly],
             moyal: bool) -> list[tuple[list[tuple[int, Expvec, int]], list[int]]]:
    """Per seed ``B`` in ``seeds``, in order, from one walk each (``_series``):
    ``(u, exponents, numerator)`` for every nonzero term of
    ``bracket(terms[u], B)``, in no fixed order, and each term's denominator."""
    return [(_tagged(acc, layout), dens) for acc, layout, dens in _series(terms, seeds, moyal)]


def _blocks(terms: list[PhasePoly], b: PhasePoly,
            moyal: bool) -> tuple[list[dict[Expvec, int]], list[int]]:
    """``bracket(T, b)`` for each ``T`` in ``terms``, in order, from one walk:
    the integer numerators of its nonzero terms, keyed by exponents, and,
    apart, its denominator."""
    entries, dens = _entries(terms, [b], moyal)[0]
    blocks: list[dict[Expvec, int]] = [{} for _ in dens]
    for u, exps, num in entries:
        blocks[u][exps] = num
    return blocks, dens


def _brackets_of(a: PhasePoly, terms: list[PhasePoly], moyal: bool) -> list[PhasePoly]:
    """``bracket(a, T)`` for each ``T`` in ``terms``, in order, from one walk of
    ``bracket(T, a)``, each numerator negated as its ``Fraction`` is built."""
    entries, dens = _entries(terms, [a], moyal)[0]
    polys: list[dict[Expvec, Fraction]] = [{} for _ in dens]
    for u, exps, num in entries:
        polys[u][exps] = Fraction(-num, dens[u])
    return [PhasePoly._build(a.ctx, t) for t in polys]


def _series(terms: list[PhasePoly], seeds: list[PhasePoly],
            moyal: bool) -> list[tuple[dict[int, int], Struct, list[int]]]:
    """Per seed ``B`` in ``seeds``, in order: the sum over odd k <= top of
    (-1)^((k-1)/2) (hbar/2)^(k-1) Pi_k(T, B) / k! for every ``T`` in
    ``terms`` (the Poisson bracket unless ``moyal``), as the numerators
    keyed by packed exponents tagged with the term's index
    (``poly._pack``), the layout, and each term's denominator.

    ``terms`` are packed once, in one layout wide enough for every seed;
    per seed only the seed is packed and its slots and scales are built.
    """
    if not seeds:
        return []
    ctx = seeds[0].ctx
    for p in (*terms, *seeds[1:]):
        p.ctx.require_same(ctx)
    dof = ctx.dof
    quantum = moyal and ctx.hbar
    degree_a = max(t.total_degree() for t in terms) if quantum else 1
    max_a, max_bs = _maxima(*terms), [_maxima(b) for b in seeds]
    layout = _layout([x + max(y) for x, y in zip(max_a, zip(*max_bs))])
    units = _units(layout)
    terms_a, dens = _pack(terms, layout)
    # (A variable, B variable, sign): s_i = d/dq_i (x) d/dp_i, t_i = -d/dp_i (x) d/dq_i
    pairs = [(i, dof + i, False) for i in range(dof)] + [(dof + i, i, True) for i in range(dof)]
    half = ctx.hbar / 2 if quantum else 1   # only its numerator and denominator are read
    out = []
    for b, max_b in zip(seeds, max_bs):
        top = min(degree_a, b.total_degree()) if quantum else 1
        terms_b, (den_b,) = _pack([b], layout)
        slots = [(va, vb, neg, units[va], units[vb], min(max_a[va], max_b[vb]))
                 for va, vb, neg in pairs]
        last = top - 1 + top % 2   # largest odd k <= top
        # scales[k]: k's factor times half.denominator^(last - 1), 0 for even k
        scales = [k % 2 and (-1) ** (k // 2) * half.numerator ** (k - 1)
                  * half.denominator ** (last - k) for k in range(max(top, 0) + 1)]
        acc: dict[int, int] = {}
        _walk(acc, slots, scales, 0, 0, terms_a, terms_b)
        common = den_b * half.denominator ** max(last - 1, 0)
        out.append((acc, layout, [den * common for den in dens]))
    return out


def _walk(acc: dict[int, int], slots: list, scales: list[int], slot: int, used: int,
          la: Packed, lb: Packed) -> None:
    """Spend up to ``len(scales) - 1 - used`` more derivatives on
    ``slots[slot:]`` and, at each complete composition of an odd k, add
    ``scales[k]`` times the products of the surviving terms of ``la`` and
    ``lb`` into ``acc``.  A slot is (A variable, B variable, sign, A's unit
    key, B's unit key, cap).
    """
    left = len(scales) - 1 - used
    if not left or slot == len(slots):   # a complete composition of k = used
        if scale := scales[used]:
            _product_into(acc, la if scale == 1 else [(k, n * scale, e) for k, n, e in la], lb)
        return
    _walk(acc, slots, scales, slot + 1, used, la, lb)
    va, vb, neg, ua, ub, cap = slots[slot]
    # m-th derivative from the (m-1)-th: A's factor C(a, m-1) becomes
    # C(a, m) (the division by m is exact), B's (b)_(m-1) becomes (b)_m.
    for m in range(1, min(left, cap) + 1):
        la = [(k - ua, (-n if neg else n) * (e[va] - m + 1) // m, e) for k, n, e in la if e[va] >= m]
        if not la:
            return
        lb = [(k - ub, n * (e[vb] - m + 1), e) for k, n, e in lb if e[vb] >= m]
        if not lb:
            return
        _walk(acc, slots, scales, slot + 1, used + m, la, lb)

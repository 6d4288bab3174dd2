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
keeps every product's exponents inside their fields.  Two owners pack the
left operands, and both hand each seed to one set-up, ``_seed_walk``
(slots, scales, the walk, denominators):

- ``_series`` takes a list of right operands (seeds) too: it packs the left
  operands once, in a layout wide enough for every seed, and per seed packs
  only the seed.  The public brackets are its one-term, one-seed case.
- ``_PackedBasis`` is a basis that grows, as a closure's does: it packs
  each element once, tagged with its basis index, so that a walk of element
  j against every earlier one takes a prefix of one packed list, and it
  re-packs only when a walk needs wider fields.  Closure and
  ``LieClosure.verify`` take their integer rows from its ``blocks``.

Every reader of a walk is here, so no other module sees a packed key:
``_entries`` (the invariant rows), ``_PackedBasis.blocks`` (integer rows
for closure and ``verify``) and ``_brackets_of`` (``bracket(a, T)`` as
polynomials, for ``verify_invariant`` and ``verify_canonical``).  A walk's
result is decoded once per distinct monomial (``poly._tagged``).
"""

from __future__ import annotations

from fractions import Fraction
from struct import Struct
from typing import Iterable

from .context import PhaseContext
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
    per seed only the seed is packed, and ``_seed_walk`` does the rest.
    """
    if not seeds:
        return []
    ctx = seeds[0].ctx
    for p in (*terms, *seeds[1:]):
        p.ctx.require_same(ctx)
    degree_a = max(t.total_degree() for t in terms) if moyal and ctx.hbar else 1
    max_a, max_bs = _maxima(*terms), [_maxima(b) for b in seeds]
    layout = _layout(ctx, max_a, list(map(max, zip(*max_bs))))
    terms_a, dens = _pack(terms, layout)
    out = []
    for b, max_b in zip(seeds, max_bs):
        terms_b, (den_b,) = _pack([b], layout)
        acc, walk_dens = _seed_walk(moyal, layout, terms_a, dens, max_a, degree_a,
                                    b, terms_b, den_b, max_b)
        out.append((acc, layout, walk_dens))
    return out


def _seed_walk(moyal: bool, layout: Struct, terms_a: Packed, dens: list[int], max_a: list[int],
               degree_a: int, b: PhasePoly, terms_b: Packed, den_b: int,
               max_b: list[int]) -> tuple[dict[int, int], list[int]]:
    """The one per-seed set-up: slots, scales and the walk of the tagged left
    operands ``terms_a`` (denominators ``dens``, largest exponents ``max_a``,
    largest total degree ``degree_a``) against the seed ``b``, packed
    untagged as ``terms_b`` over ``den_b``, with largest exponents ``max_b``;
    ``layout`` holds every ``max_a[i] + max_b[i]``.  Returns the numerators
    keyed by tagged packed exponents and each left operand's denominator.
    """
    ctx = b.ctx
    dof = ctx.dof
    quantum = moyal and ctx.hbar
    top = min(degree_a, b.total_degree()) if quantum else 1
    units = _units(layout)
    # (A variable, B variable, sign): s_i = d/dq_i (x) d/dp_i, t_i = -d/dp_i (x) d/dq_i
    pairs = [(i, dof + i, False) for i in range(dof)] + [(dof + i, i, True) for i in range(dof)]
    slots = [(va, vb, neg, units[va], units[vb], min(max_a[va], max_b[vb]))
             for va, vb, neg in pairs]
    half = ctx.hbar / 2 if quantum else 1   # only its numerator and denominator are read
    last = top - 1 + top % 2   # largest odd k <= top
    # scales[k]: k's factor times half.denominator^(last - 1), 0 for even k
    scales = [k % 2 and (-1) ** (k // 2) * half.numerator ** (k - 1)
              * half.denominator ** (last - k) for k in range(max(top, 0) + 1)]
    acc: dict[int, int] = {}
    _walk(acc, slots, scales, 0, 0, terms_a, terms_b)
    common = den_b * half.denominator ** max(last - 1, 0)
    return acc, [den * common for den in dens]


class _PackedBasis:
    """A growing basis packed for its walks: ``blocks(j)`` brackets
    ``polys[j]`` with every earlier element in one walk, as closure and
    ``LieClosure.verify`` take their brackets.

    Each element is packed once, by the first walk that reaches it, into one
    flat list, its keys tagged with its basis index, so ``polys[:j]`` is a
    prefix of the list.  The largest exponents (and, for a Moyal bracket at
    nonzero hbar, the largest total degree) of every prefix are kept as
    elements are appended.  A walk keeps the current layout while it holds
    that walk's ``max_a[i] + max_b[i]``, the prefix's largest exponents plus
    the seed's; otherwise it takes ``_layout`` of them, and every packed
    element is packed again.  Fields are 1, 2, 4 or 8 bytes wide, so the
    layout widens at most three times, and an exponent past 64 bits raises
    ``OverflowError`` at the same walk, with the same text, as a layout of
    its own per walk would.  For that reason an element is packed by a
    walk, not when it is appended: no layout is taken before a walk sizes
    it, and an element no walk reaches is never packed.
    """

    def __init__(self, ctx: PhaseContext, moyal: bool, polys: Iterable[PhasePoly] = ()):
        self.ctx, self.moyal = ctx, moyal
        self.polys: list[PhasePoly] = []
        self.maxima: list[list[int]] = []   # each element's largest exponents
        self.tops: list[list[int]] = []     # tops[u]: the largest over polys[:u + 1]
        self.degrees: list[int] = []        # degrees[u]: the largest total degree over polys[:u + 1]
        self.starts = [0]                   # polys[u] is packed[starts[u]:starts[u + 1]]
        self.layout: Struct | None = None
        self.packed: Packed = []
        self.dens: list[int] = []           # the denominator of each packed element
        for p in polys:
            self.append(p)

    def append(self, poly: PhasePoly) -> None:
        poly.ctx.require_same(self.ctx)
        own = _maxima(poly)
        self.tops.append(list(map(max, self.tops[-1], own)) if self.tops else own)
        if self.moyal and self.ctx.hbar:
            self.degrees.append(max(self.degrees[-1] if self.degrees else -1, poly.total_degree()))
        self.maxima.append(own)
        self.starts.append(self.starts[-1] + len(poly._terms))
        self.polys.append(poly)

    def blocks(self, j: int) -> tuple[list[dict[Expvec, int]], list[int]]:
        """``bracket(polys[i], polys[j])`` for each ``i < j``, in order, from one
        walk: the integer numerators of its nonzero terms, keyed by exponents,
        and, apart, its denominator."""
        max_a, max_b = self.tops[j - 1], self.maxima[j]
        layout = _layout(self.ctx, max_a, max_b)
        if self.layout is None or layout.size > self.layout.size:
            self.layout, self.packed, self.dens = layout, [], []
        layout, done = self.layout, len(self.dens)
        if done <= j:
            packed, dens = _pack(self.polys[done:j + 1], layout, done)
            self.packed += packed
            self.dens += dens
        tag = j << 8 * layout.size
        terms_b = [(k - tag, n, e) for k, n, e in self.packed[self.starts[j]:self.starts[j + 1]]]
        acc, dens = _seed_walk(self.moyal, layout, self.packed[:self.starts[j]], self.dens[:j],
                               max_a, self.degrees[j - 1] if self.degrees else 1,
                               self.polys[j], terms_b, self.dens[j], max_b)
        blocks: list[dict[Expvec, int]] = [{} for _ in dens]
        for u, exps, num in _tagged(acc, layout):
            blocks[u][exps] = num
        return blocks, dens


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

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

and ``top`` is the least of the two total degrees and the sum of these
caps, since no composition can spend more.  A branch ends once either list
is empty, and a composition of k is complete once the budget is spent or
the last slot is filled.  There, for odd k, A's surviving numerators are
scaled by (-1)^((k-1)/2) (hbar/2)^(k-1) over one denominator shared by
every k and multiplied out into one integer dict keyed by packed
exponents; unpacking it builds one Fraction per distinct numerator.

One walk takes a list of left operands, packed in one layout over their
own denominators, each term's keys tagged with its index in a field above
the top exponent field.  The tag survives the walk: a derivative subtracts
a unit only from a field that holds it, and B is untagged and the layout
keeps every product's exponents inside their fields.  One owner packs the
left operands, ``_PackedBasis``: it packs each element once, tagged with
its index, so that a walk of element j against every earlier one
(``blocks``, for the closure's pair loop) takes a prefix of one packed
list, and a walk of every element against an outside polynomial
(``walk``) takes the whole list; it re-packs only when a walk needs wider
fields.  Both walks go through one set-up, ``_PackedBasis._run`` (layout,
packing, slots, scales, the walk, denominators).  The public brackets are
a one-element basis walked once, and an invariant search's ansatz is one
basis walked once per seed.

Every reader of a walk is here, so no other module sees a packed key.
The public brackets read theirs as a polynomial (``poly._unpack``); every
other walk is read in one form, one integer block ``{exponents:
numerator}`` per element (``poly._tagged``), decoding each distinct
monomial once: ``_PackedBasis.blocks`` (the closure's pair loop),
``_PackedBasis.walk`` (the invariant rows) and ``_brackets_of``
(``bracket(a, T)`` as polynomials, for ``verify_invariant`` and
``verify_canonical``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import add
from struct import Struct
from typing import Iterable

from .context import PhaseContext
from .poly import Expvec, Packed, PhasePoly, _layout, _maxima, _pack, _product_into, _tagged, _units, _unpack


def poisson_bracket(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    acc, layout, (den,) = _PackedBasis(a.ctx, False, [a])._run(1, b)
    return _unpack(a.ctx, acc, layout, den)


def moyal_bracket(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    acc, layout, (den,) = _PackedBasis(a.ctx, True, [a])._run(1, b)
    return _unpack(a.ctx, acc, layout, den)


def _brackets_of(a: PhasePoly, terms: list[PhasePoly], moyal: bool) -> list[PhasePoly]:
    """``bracket(a, T)`` for each ``T`` in ``terms``, in order, from one walk of
    ``bracket(T, a)``, each numerator negated as its ``Fraction`` is built."""
    blocks, dens = _PackedBasis(a.ctx, moyal, terms).walk(a)
    return [PhasePoly._build(a.ctx, {e: Fraction(-n, den) for e, n in block.items()})
            for block, den in zip(blocks, dens)]


class _PackedBasis:
    """A basis packed for its walks, the one code that packs a walk's left
    operands: ``walk(b)`` brackets every element with an outside polynomial
    ``b`` in one walk (the invariant rows, ``_brackets_of``; the public
    brackets take its set-up, ``_run``, and read the walk as a polynomial),
    and ``blocks(j)`` brackets ``polys[j]`` with every earlier element in one
    walk, as the closure's pair loop takes its brackets.

    Each element is packed once, by the first walk that reaches it, into one
    flat list, its keys tagged with its basis index, so ``polys[:j]`` is a
    prefix of the list; ``blocks(j)`` reads ``polys[j]`` from its own packed
    slice, and ``walk(b)`` packs only ``b``.  A walk keeps the current layout
    while its fields hold that walk's ``max_a[i] + max_b[i]``, the left
    operands' largest exponents plus the right operand's, which costs one
    comparison with the fields' limit; otherwise it takes ``_layout`` of
    them, and every packed element is packed again.  Fields
    are 1, 2, 4 or 8 bytes wide, so the layout widens at most three times,
    and an exponent past 64 bits raises ``OverflowError`` at the same walk,
    with the same text, as a layout of its own per walk would.  For that
    reason an element is packed by a walk, not when it is appended: no
    layout is taken before a walk sizes it, and an element no walk reaches
    is never packed.
    """

    def __init__(self, ctx: PhaseContext, moyal: bool, polys: Iterable[PhasePoly] = ()):
        self.ctx = ctx
        self.quantum = moyal and ctx.hbar   # a series past k = 1
        self.half = ctx.hbar / 2 if self.quantum else 1   # only its numerator and denominator are read
        self.polys = list(polys)
        for p in self.polys:
            p.ctx.require_same(ctx)
        # (n, largest exponents, largest total degree) over polys[:n], the last prefix known
        self.prefix: tuple[int, list[int], int] = (0, [], -1)
        self.layout: Struct | None = None
        self.limit = 0                      # the first exponent the layout's fields cannot hold
        self.packed: Packed = []
        self.dens: list[int] = []           # the denominator of each packed element

    def append(self, poly: PhasePoly) -> None:
        poly.ctx.require_same(self.ctx)
        self.polys.append(poly)

    def walk(self, b: PhasePoly) -> tuple[list[dict[Expvec, int]], list[int]]:
        """``bracket(T, b)`` for every element ``T``, in order, from one walk:
        the integer numerators of its nonzero terms, keyed by exponents, and,
        apart, its denominator."""
        acc, layout, dens = self._run(len(self.polys), b)
        return _tagged(acc, layout, len(dens)), dens

    def blocks(self, j: int) -> tuple[list[dict[Expvec, int]], list[int]]:
        """``bracket(polys[i], polys[j])`` for each ``i < j``, in the form of
        ``walk``."""
        acc, layout, dens = self._run(j)
        return _tagged(acc, layout, len(dens)), dens

    def _run(self, n: int, b: PhasePoly | None = None) -> tuple[dict[int, int], Struct, list[int]]:
        """The one per-walk set-up: the layout, the packing, slots, scales, the
        walk and denominators of ``polys[:n]`` against ``b``, or, without
        ``b``, against ``polys[n]``, which is read from its packed slice.

        The series stops at ``top``, the least of the two sides' largest
        total degrees and the slots' caps summed, which bound every
        composition; a lower ``top`` only rescales the numerators and the
        denominators alike.
        """
        own = b is None
        if own:
            b = self.polys[n]
        else:
            b.ctx.require_same(self.ctx)
        quantum = self.quantum
        (max_a, degree_a), max_b = self._prefix(n), _maxima(b)
        degree_b = b.total_degree() if quantum else -1
        if own:   # polys[:n + 1] is the next walk's prefix
            self.prefix = (n + 1, list(map(max, max_a, max_b)), max(degree_a, degree_b))
        if max(map(add, max_a, max_b)) >= self.limit:   # the layout cannot hold this walk
            self.layout, self.packed, self.dens = _layout(self.ctx, max_a, max_b), [], []
            self.limit = 1 << 8 * self.layout.size // self.ctx.nvars
        layout, done, stop = self.layout, len(self.dens), n + 1 if own else n
        if done < stop:
            packed, dens = _pack(self.polys[done:stop], layout, done)
            self.packed += packed
            self.dens += dens
        terms_a = self.packed
        if own:   # polys[n] is packed[start:start + len(b._terms)], tagged n
            start, tag = sum([len(p._terms) for p in self.polys[:n]]), n << 8 * layout.size
            terms_b = [(k - tag, c, e) for k, c, e in terms_a[start:start + len(b._terms)]]
            terms_a, den_b = terms_a[:start], self.dens[n]
        else:
            terms_b, (den_b,) = _pack([b], layout)
        units = _units(layout)
        slots = [(va, vb, neg, units[va], units[vb], min(max_a[va], max_b[vb]))
                 for va, vb, neg in _pairs(self.ctx.dof)]
        top = min(degree_a, degree_b, sum([slot[-1] for slot in slots])) if quantum else 1
        half = self.half
        last = top - 1 + top % 2   # largest odd k <= top
        # scales[k]: k's factor times half.denominator^(last - 1), 0 for even k
        scales = [k % 2 and (-1) ** (k // 2) * half.numerator ** (k - 1)
                  * half.denominator ** (last - k) for k in range(max(top, 0) + 1)]
        acc: dict[int, int] = {}
        _walk(acc, slots, scales, 0, 0, terms_a, terms_b)
        common = den_b * half.denominator ** max(last - 1, 0)
        return acc, layout, [den * common for den in self.dens[:n]]

    def _prefix(self, n: int) -> tuple[list[int], int]:
        """The largest exponents and (for a Moyal bracket at nonzero hbar) the
        largest total degree over ``polys[:n]``, read on from the last known
        prefix when that is no longer, and from the start otherwise.  A walk
        of ``blocks(j)`` leaves ``polys[:j + 1]`` known, so walks in order of
        ``j`` read each element once."""
        start, top, degree = self.prefix if self.prefix[0] <= n else (0, [], -1)
        if start < n:
            more = self.polys[start:n]
            maxima = _maxima(*more)
            top = list(map(max, top, maxima)) if top else maxima
            if self.quantum:
                degree = max(degree, *[p.total_degree() for p in more])
            self.prefix = (n, top, degree)
        return top, degree


@cache
def _pairs(dof: int) -> tuple[tuple[int, int, bool], ...]:
    """(A variable, B variable, sign) of each slot: s_i = d/dq_i (x) d/dp_i,
    t_i = -d/dp_i (x) d/dq_i."""
    return (*[(i, dof + i, False) for i in range(dof)], *[(dof + i, i, True) for i in range(dof)])


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

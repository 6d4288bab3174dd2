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

Both brackets run on one kernel over packed terms (``poly._pack``).  On a
pair of monomials the Poisson bracket is

    {x^a, x^b} = sum_i (a_qi b_pi - a_pi b_qi) x^(a + b - e_qi - e_pi)

and Pi_k / k! is a sum over compositions (s, t) of k into 2D slots, s_i
counting d/dq_i (x) d/dp_i factors and t_i counting -d/dp_i (x) d/dq_i:

    Pi_k(x^a, x^b) / k! = sum over (s, t) of (-1)^|t|
        prod_i C(a_qi, s_i) C(a_pi, t_i) (b_pi)_s_i (b_qi)_t_i
        * x^(a + b - sum_i (s_i + t_i)(e_qi + e_pi))

with (n)_m the falling factorial; k = 1 gives the Poisson formula.  The
kernel fills the slots in turn, differentiating the packed term lists of A
and B as it goes and dropping the terms the derivative kills, so

    s_i <= min(max_A a_qi, max_B b_pi),   t_i <= min(max_A a_pi, max_B b_qi),

a branch ends as soon as either list is empty or the caps of the slots
left cannot hold the rest of k, and only compositions with surviving terms
are multiplied out.  Products accumulate as integers in one dict keyed by
packed exponents; the factor (-1)^((k-1)/2) (hbar/2)^(k-1) is folded into
A's numerators over a denominator shared by every k, so one Fraction is
built per output term.
"""

from __future__ import annotations

from itertools import accumulate

from .poly import Packed, PhasePoly, _layout, _maxima, _pack, _product_into, _unpack


def poisson_bracket(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    a.ctx.require_same(b.ctx)
    return _series(a, b, 1)


def moyal_bracket(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    a.ctx.require_same(b.ctx)
    top = 1 if a.ctx.hbar == 0 else min(a.total_degree(), b.total_degree())
    return _series(a, b, top)


def _series(a: PhasePoly, b: PhasePoly, top: int) -> PhasePoly:
    """Sum over odd k <= top of (-1)^((k-1)/2) (hbar/2)^(k-1) Pi_k(A, B) / k!."""
    ctx = a.ctx
    dof = ctx.dof
    max_a, max_b = _maxima(a), _maxima(b)
    fields = _layout(x + y for x, y in zip(max_a, max_b))
    terms_a, den_a = _pack(a, fields)
    terms_b, den_b = _pack(b, fields)
    # (A variable, B variable, sign): s_i = d/dq_i (x) d/dp_i, t_i = -d/dp_i (x) d/dq_i
    pairs = [(i, dof + i, False) for i in range(dof)] + [(dof + i, i, True) for i in range(dof)]
    slots = [(va, vb, neg, 1 << fields[va][0], 1 << fields[vb][0], min(max_a[va], max_b[vb]))
             for va, vb, neg in pairs]
    room = list(accumulate(reversed([slot[-1] for slot in slots]), initial=0))[::-1]
    acc: dict[int, int] = {}
    half = ctx.hbar / 2
    last = top - 1 + top % 2   # largest odd k <= top
    for k in range(1, top + 1, 2):
        scale = (-1) ** (k // 2) * half.numerator ** (k - 1) * half.denominator ** (last - k)
        scaled = terms_a if scale == 1 else [(key, num * scale, exps) for key, num, exps in terms_a]
        _walk(acc, slots, room, 0, k, scaled, terms_b)
    return _unpack(ctx, acc, fields, den_a * den_b * half.denominator ** max(last - 1, 0))


def _walk(acc: dict[int, int], slots: list, room: list[int], slot: int, left: int,
          la: Packed, lb: Packed) -> None:
    """Spread ``left`` more derivatives over ``slots[slot:]`` and add the
    products of the surviving terms of ``la`` and ``lb`` into ``acc``.

    A slot is (A variable, B variable, sign, A's unit key, B's unit key,
    cap); ``room[j]`` is the sum of the caps from slot j on.
    """
    if not left:
        _product_into(acc, la, lb)
        return
    if room[slot] < left:
        return
    _walk(acc, slots, room, slot + 1, left, la, lb)
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
        _walk(acc, slots, room, slot + 1, left - m, la, lb)

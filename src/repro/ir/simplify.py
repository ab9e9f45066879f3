"""Canonicalizing simplifier for :mod:`repro.ir.symbols` expressions.

The canonical form is a *sum of products*: an :class:`~repro.ir.symbols.Add`
whose operands are either an integer literal or products of non-constant
atoms with an integer coefficient, with like terms collected.  This mirrors
the normalized-expression discipline of Cetus' symbolic package, which the
paper's Phase-1/Phase-2 algorithms rely on to decide structural questions
like "is this expression ``λ_m + 1``" or "what is the coefficient of the
loop index".

**Memoization.**  Expression nodes are hash-consed (see
:mod:`repro.ir.symbols`), so structurally-equal inputs are the same object
and canonicalization results can be cached per node: :func:`simplify`,
:func:`expand` and :func:`decompose_affine` are thin cache wrappers around
``_*_impl`` workers.  The caches key on the interned node itself (O(1)
cached hash, identity-first equality) and are registered with
:mod:`repro.ir.perfstats` for statistics and bulk clearing.  Since nodes
are immutable and the canonical form is deterministic, cached results are
always equal to a fresh computation — a property the test suite checks
across the whole IR corpus.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro import budget as _budget
from repro.ir.perfstats import STATS, register_cache
from repro.ir.symbols import Add, ArrayRef, Bottom, Div, Expr, IntLit, Max, Min, Mod, Mul, add, as_expr, mul, smax, smin


#: memoized results, keyed by interned node (identity-fast equality)
_EXPAND_CACHE: Dict[Expr, Expr] = {}
_SIMPLIFY_CACHE: Dict[Expr, Expr] = {}
_AFFINE_CACHE: Dict[Tuple[Expr, Expr], Optional[Tuple[Expr, Expr]]] = {}

register_cache("expand", _EXPAND_CACHE)
register_cache("simplify", _SIMPLIFY_CACHE)
register_cache("affine", _AFFINE_CACHE)


def clear_caches() -> None:
    """Drop all memoized simplification results (test isolation)."""
    _EXPAND_CACHE.clear()
    _SIMPLIFY_CACHE.clear()
    _AFFINE_CACHE.clear()


def expand(e: Expr) -> Expr:
    """Distribute products over sums, bottom-up (memoized).

    ``(a+b)*(c+d)`` becomes ``a*c + a*d + b*c + b*d``.  Division, modulo,
    min/max and array references are treated as opaque atoms (their children
    are expanded but they are not distributed).
    """
    e = as_expr(e)
    hit = _EXPAND_CACHE.get(e)
    if hit is not None:
        STATS.expand_hits += 1
        return hit
    STATS.expand_misses += 1
    _budget.charge_simplify()
    out = _expand_impl(e)
    _budget.check_expr(out)
    _EXPAND_CACHE[e] = out
    return out


def _expand_impl(e: Expr) -> Expr:
    if isinstance(e, (IntLit, Bottom)) or not e.children():
        return e
    kids = [expand(k) for k in e.children()]
    if isinstance(e, Mul):
        # cross-product of the additive terms of every factor
        terms = [IntLit(1)]
        for k in kids:
            k_terms = list(k.operands) if isinstance(k, Add) else [k]
            terms = [mul(t, kt) for t in terms for kt in k_terms]
        return add(*terms)
    if isinstance(e, Add):
        return add(*kids)
    return e.rebuild(kids)


def _term_split(t: Expr) -> Tuple[int, Tuple[Expr, ...]]:
    """Split a product term into (integer coefficient, sorted atom tuple)."""
    if isinstance(t, IntLit):
        return t.value, ()
    if isinstance(t, Mul):
        coeff = 1
        atoms = []
        for f in t.operands:
            if isinstance(f, IntLit):
                coeff *= f.value
            else:
                atoms.append(f)
        return coeff, tuple(sorted(atoms, key=lambda a: a.key()))
    return 1, (t,)


def _term_join(coeff: int, atoms: Tuple[Expr, ...]) -> Expr:
    if not atoms:
        return IntLit(coeff)
    return mul(IntLit(coeff), *atoms)


def collect(e: Expr) -> Expr:
    """Collect like terms of a (possibly unexpanded) sum."""
    e = as_expr(e)
    terms = list(e.operands) if isinstance(e, Add) else [e]
    bucket: Dict[Tuple, Tuple[int, Tuple[Expr, ...]]] = {}
    const = 0
    for t in terms:
        coeff, atoms = _term_split(t)
        if not atoms:
            const += coeff
            continue
        k = tuple(a.key() for a in atoms)
        old = bucket.get(k)
        bucket[k] = (coeff + old[0] if old else coeff, atoms)
    out = [_term_join(c, a) for c, a in bucket.values() if c != 0]
    if const != 0 or not out:
        out.append(IntLit(const))
    return add(*out)


def simplify(e: Expr) -> Expr:
    """Full canonicalization: recursive expand + collect + local folds.

    Memoized per interned node; results are identical to an uncached run
    (``_simplify_impl``) because nodes are immutable and canonicalization
    is deterministic.
    """
    e = as_expr(e)
    hit = _SIMPLIFY_CACHE.get(e)
    if hit is not None:
        STATS.simplify_hits += 1
        return hit
    STATS.simplify_misses += 1
    _budget.charge_simplify()
    _budget.check_expr(e)
    out = _simplify_impl(e)
    _SIMPLIFY_CACHE[e] = out
    # canonical forms are fixpoints; pre-seeding avoids a recompute when
    # the result itself is later simplified
    _SIMPLIFY_CACHE.setdefault(out, out)
    return out


def _simplify_impl(e: Expr) -> Expr:
    if isinstance(e, (IntLit, Bottom)) or not e.children():
        return e
    kids = [simplify(k) for k in e.children()]
    if isinstance(e, Add):
        return collect(expand(add(*kids)))
    if isinstance(e, Mul):
        return collect(expand(mul(*kids)))
    if isinstance(e, Div):
        num, den = kids
        if isinstance(den, IntLit):
            if den.value == 1:
                return num
            if den.value == -1:
                return simplify(mul(IntLit(-1), num))
            if isinstance(num, IntLit):
                n, d = num.value, den.value
                q = abs(n) // abs(d)
                return IntLit(q if (n >= 0) == (d > 0) else -q)
        if num == den:
            return IntLit(1)
        if isinstance(num, IntLit) and num.value == 0:
            return IntLit(0)
        return Div(num, den)
    if isinstance(e, Mod):
        num, den = kids
        if isinstance(num, IntLit) and isinstance(den, IntLit) and den.value != 0:
            n, d = num.value, den.value
            q = abs(n) // abs(d)
            q = q if (n >= 0) == (d > 0) else -q
            return IntLit(n - d * q)
        if isinstance(den, IntLit) and den.value in (1, -1):
            return IntLit(0)
        if num == den:
            return IntLit(0)
        return Mod(num, den)
    if isinstance(e, Min):
        return smin(*kids)
    if isinstance(e, Max):
        return smax(*kids)
    if isinstance(e, ArrayRef):
        return e.rebuild(kids)
    return e.rebuild(kids)


def coefficient_of(e: Expr, atom: Expr) -> Optional[Expr]:
    """Coefficient of ``atom`` when ``e`` is affine in ``atom``.

    Returns the (symbolic) coefficient, or ``None`` if ``e`` is not affine in
    ``atom`` (i.e. ``atom`` appears inside a non-linear context such as a
    product with itself, a division, or an array subscript).
    """
    dec = decompose_affine(e, atom)
    if dec is None:
        return None
    return dec[0]


def decompose_affine(e: Expr, atom: Expr) -> Optional[Tuple[Expr, Expr]]:
    """Decompose ``e`` as ``coeff * atom + remainder`` (memoized).

    The decomposition requires ``e`` to be affine in ``atom``: after full
    expansion every additive term contains ``atom`` at most once as a direct
    factor, and the remainder must not contain ``atom`` at all.  Returns
    ``(coeff, remainder)`` in simplified form or ``None``.
    """
    ck = (e, atom)
    try:
        hit = _AFFINE_CACHE[ck]
    except KeyError:
        pass
    else:
        STATS.affine_hits += 1
        return hit
    STATS.affine_misses += 1
    _budget.charge_simplify()
    out = _decompose_affine_impl(e, atom)
    _AFFINE_CACHE[ck] = out
    return out


def _decompose_affine_impl(e: Expr, atom: Expr) -> Optional[Tuple[Expr, Expr]]:
    s = simplify(e)
    if isinstance(s, Bottom):
        return None
    terms = list(s.operands) if isinstance(s, Add) else [s]
    coeff_terms = []
    rem_terms = []
    for t in terms:
        c, atoms = _term_split(t)
        n_occ = sum(1 for a in atoms if a == atom)
        if n_occ == 0:
            if any(a.contains(atom) for a in atoms):
                return None  # atom nested inside an opaque atom
            rem_terms.append(t)
        elif n_occ == 1:
            others = tuple(a for a in atoms if a != atom)
            if any(a.contains(atom) for a in others):
                return None
            coeff_terms.append(_term_join(c, others))
        else:
            return None  # quadratic or higher
    coeff = simplify(add(*coeff_terms)) if coeff_terms else IntLit(0)
    rem = simplify(add(*rem_terms)) if rem_terms else IntLit(0)
    return coeff, rem


def is_const_int(e: Expr) -> Optional[int]:
    """Return the integer value if ``simplify(e)`` is a literal else None."""
    s = simplify(e)
    if isinstance(s, IntLit):
        return s.value
    return None


def equals(a: Expr, b: Expr) -> bool:
    """Provable structural equality after canonicalization."""
    return simplify(a) == simplify(b)

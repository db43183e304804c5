"""Sparse exact Laurent polynomials in the s/t block alphabets.

Variables come in two families: s^k_i attached to sink vertices x_k and
t^k_i attached to source vertices y_k.  The fixed global order lists the
s blocks with k decreasing, then the t blocks with k increasing, slots
ascending within a block.  Serialization sorts terms graded-lex against
that order, so equal polynomials always print identically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class Var(NamedTuple):
    """One variable token; family is "s" or "t"."""

    family: str
    k: int
    slot: int

    @property
    def key(self):
        if self.family == "s":
            return (0, -self.k, self.slot)
        return (1, self.k, self.slot)

    def __str__(self):
        return "%s%d_%d" % (self.family, self.k, self.slot)


def s_var(k, slot):
    """The variable s^k_slot, k >= 1.

    >>> str(s_var(2, 3))
    's2_3'
    """
    if k < 1 or slot < 1:
        raise ValueError("s variables need k >= 1 and slot >= 1")
    return Var("s", k, slot)


def t_var(k, slot):
    """The variable t^k_slot, k >= 0."""
    if k < 0 or slot < 1:
        raise ValueError("t variables need k >= 0 and slot >= 1")
    return Var("t", k, slot)


def _mono_mul(a, b):
    """Merge two sorted ((var, exp), ...) tuples, adding exponents."""
    out = dict(a)
    for var, exp in b:
        e = out.get(var, 0) + exp
        if e:
            out[var] = e
        else:
            del out[var]
    return tuple(sorted(out.items(), key=lambda item: item[0].key))


class LaurentPoly:
    """Integer Laurent polynomial as {monomial: coefficient}.

    A monomial is a tuple of (Var, exponent) pairs, sorted by the global
    variable order, exponents nonzero (possibly negative).

    >>> t, s = LaurentPoly.variable(t_var(0, 1)), LaurentPoly.variable(s_var(1, 1))
    >>> print((t - s) * (LaurentPoly.one() - t * s ** -1))
    -1*s1_1 + 2*t0_1 + -1*s1_1^-1*t0_1^2
    >>> (t - s) * (LaurentPoly.one() - t * s ** -1) == t + t - s - t * t * s ** -1
    True
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, coef in (terms or {}).items():
            if coef:
                clean[tuple(mono)] = clean.get(tuple(mono), 0) + coef
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def const(cls, c):
        return cls({(): int(c)})

    @classmethod
    def variable(cls, var):
        return cls({((var, 1),): 1})

    @classmethod
    def sum(cls, polys):
        total = {}
        for p in polys:
            for mono, coef in p.terms.items():
                total[mono] = total.get(mono, 0) + coef
        return cls(total)

    @classmethod
    def prod(cls, polys):
        out = cls.one()
        for p in polys:
            out = out * p
        return out

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, 0) + coef
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int):
            raise TypeError("integer exponents only")
        if len(self.terms) == 1:
            ((mono, coef),) = self.terms.items()
            if coef in (1, -1):
                powered = tuple((v, x * e) for v, x in mono if x * e)
                return LaurentPoly({powered: coef if e % 2 or coef == 1 else 1})
        if e < 0:
            raise ValueError("negative power of a non-monomial")
        out = LaurentPoly.one()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def variables(self):
        seen = set()
        for mono in self.terms:
            for var, _ in mono:
                seen.add(var)
        return sorted(seen, key=lambda v: v.key)

    def degree(self):
        """Largest total degree among terms; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self.terms)

    def homogeneous_part(self, d):
        return LaurentPoly(
            {m: c for m, c in self.terms.items() if sum(e for _, e in m) == d}
        )

    def truncate(self, maxdeg):
        """Drop every term of total degree above maxdeg."""
        return LaurentPoly(
            {m: c for m, c in self.terms.items() if sum(e for _, e in m) <= maxdeg}
        )

    def eval(self, assignment):
        """Exact value at a point, as a Fraction.

        Raises KeyError when a variable has no assigned value and
        ZeroDivisionError when a negative power meets a zero value.

        >>> x = LaurentPoly.variable(t_var(0, 1))
        >>> (LaurentPoly.one() - x).eval({t_var(0, 1): Fraction(1, 2)})
        Fraction(1, 2)
        """
        total = Fraction(0)
        for mono, coef in self.terms.items():
            value = Fraction(coef)
            for var, exp in mono:
                if var not in assignment:
                    raise KeyError("no value assigned to %s" % (var,))
                value *= Fraction(assignment[var]) ** exp
            total += value
        return total

    def _term_text(self, mono, coef):
        parts = [str(coef)]
        for var, exp in mono:
            parts.append(str(var) if exp == 1 else "%s^%d" % (var, exp))
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        support = self.variables()
        def term_key(mono):
            exps = dict(mono)
            dense = tuple(exps.get(v, 0) for v in support)
            return (-sum(dense), tuple(-e for e in dense))
        ordered = sorted(self.terms, key=term_key)
        return " + ".join(self._term_text(m, self.terms[m]) for m in ordered)

    def __repr__(self):
        return "LaurentPoly<%s>" % self

    def __len__(self):
        return len(self.terms)


def cross_weight(row_var, col_var, mode):
    """Weight of one crossing: (a - b) or (1 - a/b) with a the row variable.

    >>> print(cross_weight(t_var(0, 1), s_var(1, 1), "cohomology"))
    -1*s1_1 + 1*t0_1
    >>> print(cross_weight(t_var(0, 1), t_var(0, 1), "ktheory"))
    0
    """
    a = LaurentPoly.variable(row_var)
    b = LaurentPoly.variable(col_var)
    if mode == "cohomology":
        return a - b
    if mode == "ktheory":
        return LaurentPoly.one() - a * b ** -1
    raise ValueError("mode must be 'cohomology' or 'ktheory'")


__all__ = ["Var", "LaurentPoly", "s_var", "t_var", "cross_weight"]

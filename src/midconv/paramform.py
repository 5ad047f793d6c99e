"""Linear forms over the rationals in named parameters.

Eigenvalues, shift parameters and accessory values are carried symbolically
as ``const + sum(coeff * name)`` with exact rational coefficients, so that
trace conditions and pole locations are decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass Fraction, int or str")
    return Fraction(x)


class ParamForm:
    """Immutable rational-affine form in named parameters."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms: Iterable[tuple[str, object]] = ()):
        items = {}
        for name, c in dict(terms).items():
            c = _frac(c)
            if c:
                items[str(name)] = c
        object.__setattr__(self, "const", _frac(const))
        object.__setattr__(self, "terms", tuple(sorted(items.items())))

    def __setattr__(self, name, value):
        raise AttributeError("ParamForm is immutable")

    @classmethod
    def var(cls, name: str) -> "ParamForm":
        return cls(0, {name: 1}.items())

    @classmethod
    def of(cls, value) -> "ParamForm":
        return value if isinstance(value, ParamForm) else cls(value)

    def is_constant(self) -> bool:
        return not self.terms

    def __add__(self, other) -> "ParamForm":
        other = ParamForm.of(other)
        d = dict(self.terms)
        for name, c in other.terms:
            d[name] = d.get(name, 0) + c
        return ParamForm(self.const + other.const, d.items())

    __radd__ = __add__

    def __neg__(self) -> "ParamForm":
        return ParamForm(-self.const, ((n, -c) for n, c in self.terms))

    def __sub__(self, other) -> "ParamForm":
        return self + (-ParamForm.of(other))

    def __rsub__(self, other) -> "ParamForm":
        return ParamForm.of(other) + (-self)

    def __mul__(self, scalar) -> "ParamForm":
        s = _frac(scalar)
        return ParamForm(s * self.const, ((n, s * c) for n, c in self.terms))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Rational)):
            other = ParamForm(other)
        return (
            isinstance(other, ParamForm)
            and self.const == other.const
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.const, self.terms))

    def sort_key(self):
        return (self.terms, self.const)

    def evaluate(self, assignment: Mapping[str, object] | None = None) -> Fraction:
        """Exact value under a parameter assignment; unknown names error."""
        assignment = assignment or {}
        total = self.const
        for name, c in self.terms:
            if name not in assignment:
                raise KeyError("no value for parameter %r" % name)
            total += c * Fraction(assignment[name])
        return total

    def __str__(self) -> str:
        chunks = []
        for name, c in self.terms:
            if c == 1:
                chunks.append(("+", name))
            elif c == -1:
                chunks.append(("-", name))
            else:
                chunks.append(("+" if c > 0 else "-", "%s*%s" % (abs(c), name)))
        if self.const or not chunks:
            chunks.append(("+" if self.const >= 0 else "-", str(abs(self.const))))
        sign, first = chunks[0]
        out = ("-" if sign == "-" else "") + first
        for sign, text in chunks[1:]:
            out += " %s %s" % (sign, text)
        return out

    def to_latex(self) -> str:
        return str(self).replace("*", " ")

    def to_json(self):
        return {
            "const": str(self.const),
            "terms": {name: str(c) for name, c in self.terms},
        }

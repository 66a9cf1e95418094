"""Exact scalars and bivariate polynomials used by all recursions.

Scalars that cross the public API are arbitrary-precision rationals,
represented by the standard library's ``fractions.Fraction`` (always
canonical: reduced, positive denominator).  ``str()`` of a Fraction is
the textual interchange form used everywhere in this package: ``"p/q"``,
or ``"p"`` when the denominator is 1.  ``parse_rational`` is the strict
inverse; it rejects floating-point literals on purpose, so exact data can
never silently lose precision on the way in.

``BiPoly`` is a sparse polynomial in two formal symbols:

* ``n``   -- the quantum number (level index), kept symbolic so one
             recursion run covers the ground state and every excitation;
* ``lam`` -- the coupling constant of the anharmonic terms.

Inside, a polynomial is integer numerators over one shared denominator:
``_terms`` maps ``(deg_n, deg_lam)`` to a nonzero int and ``_den`` is a
positive int with ``gcd(_den, *numerators) == 1``.  That form is
canonical, so structural equality of two polynomials is exactly
mathematical equality, and arithmetic runs on plain ints with one gcd
reduction per result instead of one per coefficient.  ``BiPoly.dot`` is
the sum-of-products kernel every convolution in the package goes through.
Values are immutable after construction and every operation is a pure
function; instances can be shared freely between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a strict ``"p"`` or ``"p/q"`` string into a Fraction.

    Rejects anything else, in particular decimal literals such as
    ``"0.5"`` (use ``1/2``) and zero denominators.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(
            f"not an integer or p/q rational: {text!r} "
            "(floating-point literals are not accepted)"
        )
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


Pair = tuple["BiPoly", "BiPoly"]


class BiPoly:
    """Sparse exact polynomial in the symbols ``n`` and ``lam``.

    Stored as nonzero integer numerators over one reduced positive
    denominator, so ``==`` on two instances is polynomial identity.
    Arithmetic accepts ints and Fractions wherever a polynomial is expected.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | Iterable = ()):
        clean: dict[tuple[int, int], Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (deg_n, deg_lam), coeff in items:
            if deg_n < 0 or deg_lam < 0:
                raise ValueError(f"negative exponent in term {(deg_n, deg_lam)}")
            key = (int(deg_n), int(deg_lam))
            clean[key] = clean.get(key, Fraction(0)) + _as_fraction(coeff)
        den = lcm(*(c.denominator for c in clean.values()))
        self._terms = {
            key: c.numerator * (den // c.denominator) for key, c in clean.items() if c
        }
        self._den = den if self._terms else 1

    @staticmethod
    def _reduced(terms: dict[tuple[int, int], int], den: int) -> "BiPoly":
        """Canonical instance from integer numerators over ``den > 0``."""
        g = gcd(den, *terms.values())
        result = BiPoly.__new__(BiPoly)
        result._terms = {key: num // g for key, num in terms.items() if num}
        result._den = den // g
        return result

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "BiPoly":
        return cls({(0, 0): _as_fraction(value)})

    @classmethod
    def monomial(cls, coeff: Scalar, deg_n: int = 0, deg_lam: int = 0) -> "BiPoly":
        return cls({(deg_n, deg_lam): _as_fraction(coeff)})

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "BiPoly":
        """Rebuild a polynomial from its machine-format term records."""
        return cls(
            ((int(r["deg_n"]), int(r["deg_lam"])), parse_rational(str(r["coeff"])))
            for r in records
        )

    # -- coercion helper ------------------------------------------------

    @staticmethod
    def _coerce(value) -> "BiPoly":
        if isinstance(value, BiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return BiPoly.constant(value)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return BiPoly.dot(((self, ONE), (other, ONE)))

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        result = BiPoly.__new__(BiPoly)
        result._terms = {key: -num for key, num in self._terms.items()}
        result._den = self._den
        return result

    def __sub__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return BiPoly.dot(((self, other),))

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Iterable[Pair], doubled: Iterable[Pair] = ()) -> "BiPoly":
        """Exact ``sum a*b`` over ``pairs`` plus ``2 * sum a*b`` over ``doubled``.

        Every product is added into one integer map over the common
        denominator of all pairs, the ``doubled`` partial sum is doubled
        once before the other pairs join it, and the result is reduced
        once at the end.  Pairs with a zero operand are skipped.
        """
        twice = [(a, b) for a, b in doubled if a._terms and b._terms]
        once = [(a, b) for a, b in pairs if a._terms and b._terms]
        den = lcm(*(a._den * b._den for a, b in twice + once))
        out: dict[tuple[int, int], int] = {}
        _accumulate(out, twice, den)
        for key in out:
            out[key] *= 2
        _accumulate(out, once, den)
        return BiPoly._reduced(out, den)

    def scale_div(self, scalar: Scalar) -> "BiPoly":
        """Divide every coefficient exactly by a nonzero scalar."""
        s = _as_fraction(scalar)
        if s == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        factor = s.denominator if s > 0 else -s.denominator
        return BiPoly._reduced(
            {key: num * factor for key, num in self._terms.items()},
            self._den * abs(s.numerator),
        )

    # -- queries ----------------------------------------------------------

    def evaluate(self, n_value: Scalar, lam_value: Scalar) -> Fraction:
        """Exact substitution of both symbols."""
        n_val = _as_fraction(n_value)
        lam_val = _as_fraction(lam_value)
        total = Fraction(0)
        for (deg_n, deg_lam), num in self._terms.items():
            total += num * n_val**deg_n * lam_val**deg_lam
        return total / self._den

    def coefficient(self, deg_n: int, deg_lam: int) -> Fraction:
        return Fraction(self._terms.get((deg_n, deg_lam), 0), self._den)

    def terms_sorted(self) -> list[tuple[int, int, Fraction]]:
        """Terms as ``(deg_n, deg_lam, coeff)``, ascending exponent order."""
        return [
            (dn, dl, Fraction(self._terms[(dn, dl)], self._den))
            for dn, dl in sorted(self._terms)
        ]

    def to_records(self) -> list[dict]:
        """Machine-format term records, ascending exponent order."""
        return [
            {"deg_n": dn, "deg_lam": dl, "coeff": str(c)}
            for dn, dl, c in self.terms_sorted()
        ]

    def degree_n(self) -> int:
        """Degree in ``n``; -1 for the zero polynomial."""
        return max((dn for dn, _ in self._terms), default=-1)

    def degree_lam(self) -> int:
        """Degree in ``lam``; -1 for the zero polynomial."""
        return max((dl for _, dl in self._terms), default=-1)

    def is_lam_only(self) -> bool:
        """True when the polynomial does not involve the symbol ``n``."""
        return all(dn == 0 for dn, _ in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for dn, dl, coeff in reversed(self.terms_sorted()):
            symbols = []
            if dn:
                symbols.append("n" if dn == 1 else f"n^{dn}")
            if dl:
                symbols.append("lam" if dl == 1 else f"lam^{dl}")
            magnitude = abs(coeff)
            if symbols and magnitude == 1:
                body = "*".join(symbols)
            elif symbols:
                body = "*".join([str(magnitude)] + symbols)
            else:
                body = str(magnitude)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"BiPoly<{self}>"


def _accumulate(out: dict[tuple[int, int], int], pairs: list[Pair], den: int) -> None:
    """Add the numerators of every ``a*b`` over the denominator ``den`` into ``out``."""
    get = out.get
    for a, b in pairs:
        scale = den // (a._den * b._den)
        b_terms = b._terms.items()
        for (an, al), a_num in a._terms.items():
            a_num *= scale
            for (bn, bl), b_num in b_terms:
                key = (an + bn, al + bl)
                out[key] = get(key, 0) + a_num * b_num


def mirror_pairs(
    seq: Sequence[BiPoly], total: int, lo: int = 0
) -> tuple[list[Pair], list[Pair]]:
    """``sum_{p=lo}^{total-lo} seq[p]*seq[total-p]`` as ``(doubled, once)`` pairs.

    The products for p and total-p are equal, so each such pair is listed
    once in ``doubled``; the middle product p = total/2, when it is in
    range, is listed in ``once``.  Feed both lists to ``BiPoly.dot``.
    """
    doubled = [(seq[p], seq[total - p]) for p in range(lo, (total + 1) // 2)]
    mid = total // 2
    once = [(seq[mid], seq[mid])] if total % 2 == 0 and lo <= mid else []
    return doubled, once


ZERO = BiPoly()
ONE = BiPoly.constant(1)
N = BiPoly.monomial(1, deg_n=1)
LAM = BiPoly.monomial(1, deg_lam=1)

"""Exact scalars and bivariate polynomials used by all recursions.

Scalars that cross the public API are arbitrary-precision rationals,
represented by the standard library's ``fractions.Fraction`` (always
canonical: reduced, positive denominator).  Text, a message's too, writes
one as ``str()`` does, ``"p/q"`` (``"p"`` over 1): in full, since
`config.every_digit` lifts the int-to-str digit cap for each command.

``BiPoly`` is a sparse polynomial in two formal symbols:

* ``n``   -- the quantum number (level index), kept symbolic so one
             recursion run covers the ground state and every excitation;
* ``lam`` -- the coupling constant of the anharmonic terms.

Inside, a polynomial is integer numerators over one shared denominator:
``_terms`` maps ``(deg_n, deg_lam)`` to a nonzero int and ``_den`` is a
positive int with ``gcd(_den, *numerators) == 1``.  One method, ``_hold``,
puts every instance in that form, which is canonical: structural equality
is mathematical equality, and arithmetic runs on plain ints with one gcd
reduction per result instead of one per coefficient.

``BiPoly.dot`` is the sum-of-products kernel every convolution in the
package goes through.  It multiplies by Kronecker substitution: for each
``lam`` degree an operand is packed into one int, the sum over its ``n``
coefficients of ``num << (width * deg_n)``, so one product of two packed
ints is the whole product polynomial in ``n``, computed by CPython's
big-integer multiply.  One pass over the weighted products ``(a, b, w)``
scales each to its int weight w and the common denominator and adds it
into one packed sum per ``lam`` degree.  ``width`` is chosen per call from
the operands' numerator bit lengths and term counts, their denominators
against the common one, and the sum of the weights' magnitudes, rounded
up to a multiple of 64; it keeps every coefficient of the signed sum
below half a slot, so the sum decodes slot by slot as balanced digits.

Values are immutable after construction and every operation is a pure
function; instances can be shared freely between threads.  The one piece
of state an instance gains after construction, the memo of its packed
forms, holds a pure function of ``_terms`` per width: a race can only
build the same entry twice, and ``==`` and every public result ignore
it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Union

Scalar = Union[int, Fraction]

# Most bits `BiPoly.evaluate` lets the powers of n and lam in one term
# take, so that a value too large to use is refused before it is formed.
# Without it, ``verify`` on ``f2 = 1 lam^E`` at lam = 1/100, which ends by
# refusing a coefficient no double holds, took 2.2 s at E = 10^6, 17 s at
# 4 * 10^6 and over 60 s at 10^7.  With it, lam^400000 (2.8 M bits) is
# still refused for that reason in 0.6 s, and the largest E it admits,
# 599186, in 1.2 s (2-vCPU host).
MAX_EVAL_BITS = 1 << 22


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


Term = tuple["BiPoly", "BiPoly", int]


class BiPoly:
    """Sparse exact polynomial in the symbols ``n`` and ``lam``.

    Stored as nonzero integer numerators over one reduced positive
    denominator, so ``==`` on two instances is polynomial identity.
    Arithmetic accepts ints and Fractions wherever a polynomial is expected.
    """

    __slots__ = ("_terms", "_den", "_packs", "_slot_bits")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar]):
        if inexact := [key for key in terms if not all(isinstance(d, int) for d in key)]:
            raise TypeError(f"non-integer exponent in term {inexact[0]}")
        if negative := [key for key in terms if min(key) < 0]:
            raise ValueError(f"negative exponent in term {negative[0]}")
        clean = {(int(dn), int(dl)): _as_fraction(c) for (dn, dl), c in terms.items()}
        den = lcm(*(c.denominator for c in clean.values()))
        self._hold({key: c.numerator * (den // c.denominator) for key, c in clean.items()}, den)

    def _hold(self, terms: dict[tuple[int, int], int], den: int) -> "BiPoly":
        """Set every slot from integer numerators over ``den > 0`` in the
        canonical form, their gcd divided out and zeros dropped; return self."""
        g = gcd(den, *terms.values())
        self._terms = {key: num // g for key, num in terms.items() if num}
        self._den = den // g
        self._packs = {}
        self._slot_bits = _slot_bits(self._terms, self._den)
        return self

    @staticmethod
    def _reduced(terms: dict[tuple[int, int], int], den: int) -> "BiPoly":
        """Canonical instance from integer numerators over ``den > 0``."""
        return BiPoly.__new__(BiPoly)._hold(terms, den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "BiPoly":
        num, den = (value, 1) if type(value) is int else _as_fraction(value).as_integer_ratio()
        return cls._reduced({(0, 0): num}, den)

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
        return BiPoly.dot(((self, ONE, 1), (other, ONE, 1)))

    __radd__ = __add__

    def __mul__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return BiPoly.dot(((self, other, 1),))

    __rmul__ = __mul__

    @staticmethod
    def dot(terms: Iterable[Term], div: Scalar = 1) -> "BiPoly":
        """Exact ``sum w*a*b`` over the ``(a, b, w)`` of ``terms``, each weight
        w an int of either sign, divided by the nonzero scalar ``div``.

        Terms with a zero operand or a zero weight are skipped.  The result
        is over the common denominator ``den`` of all terms.  One pass over
        the terms multiplies their Kronecker-packed operands (module
        docstring), scales each product by ``den // (a._den * b._den) * w``
        and adds it into one sum per ``lam`` degree; the sums are then
        decoded and reduced by one gcd.  ``div = p/q`` joins that reduction:
        the decoded numerators are multiplied by q (negated if p < 0) and
        the common denominator by |p|, so a quotient costs no second
        reduction.

        The slot width is the smallest multiple of 64 bits (so few widths
        recur and memoised packs are reused) that no coefficient of the
        signed sum can overflow.  Over ``den``, a coefficient of one product
        a*b is ``den`` times a sum of at most min(len(a), len(b)) coefficient
        products, because each term of a meets at most one term of b at a
        given exponent.  With den < 2**den.bit_length() that is below
        2**(den.bit_length() + a._slot_bits + b._slot_bits).  The result
        adds sum |w| such products, a weight w counting |w| times, and
        balanced decoding needs every coefficient below half a slot: the
        bit length of that count and one more bit for the sign.

        Each operand memoises its packed form per width, so a cell that
        joins many sums, as a table cell does across a row, is packed once
        per width it meets.  The memo depends only on the operand's value,
        so sharing instances stays safe.
        """
        div_num, div_den = (div, 1) if type(div) is int else _as_fraction(div).as_integer_ratio()
        if not div_num:
            raise ZeroDivisionError("division of a polynomial by zero")
        weighted = [(a, b, w) for a, b, w in terms if w and a._terms and b._terms]
        if not weighted:
            return ZERO
        den = lcm(*(a._den * b._den for a, b, _ in weighted))
        bits = max(a._slot_bits + b._slot_bits for a, b, _ in weighted)
        bits += den.bit_length() + sum(abs(w) for _, _, w in weighted).bit_length() + 1
        width = -(-bits // 64) * 64
        sums: dict[int, int] = {}
        for a, b, w in weighted:
            scale = den // (a._den * b._den) * w
            b_packed = (b._packs.get(width) or b._packed(width)).items()
            for a_lam, a_int in (a._packs.get(width) or a._packed(width)).items():
                for b_lam, b_int in b_packed:
                    sums[a_lam + b_lam] = sums.get(a_lam + b_lam, 0) + a_int * b_int * scale
        factor = div_den if div_num > 0 else -div_den
        out: dict[tuple[int, int], int] = {}
        for deg_lam, value in sums.items():
            for deg_n, num in _unpack(value, width):
                out[(deg_n, deg_lam)] = num * factor
        return BiPoly._reduced(out, den * abs(div_num))

    def _packed(self, width: int) -> dict[int, int]:
        """Build and memoise ``{deg_lam: sum of num << (width * deg_n)}``.

        Callers look in ``_packs`` first; this runs once per width.
        """
        packed: dict[int, int] = {}
        for (deg_n, deg_lam), num in self._terms.items():
            packed[deg_lam] = packed.get(deg_lam, 0) + (num << (width * deg_n))
        self._packs[width] = packed
        return packed

    # -- queries ----------------------------------------------------------

    def evaluate(self, n_value: Scalar, lam_value: Scalar) -> Fraction:
        """Exact substitution of both symbols.

        With n = a/b, lam = p/q and top degrees D in n and L in lam, the
        term n^i lam^j is num * a^i b^(D-i) * p^j q^(L-j) over the common
        denominator ``_den * b^D * q^L``: ints summed, one Fraction built.
        Raises ``ValueError``, naming D and L, before forming any power if
        those powers could take more than ``MAX_EVAL_BITS`` bits.
        """
        a, b = _as_fraction(n_value).as_integer_ratio()
        p, q = _as_fraction(lam_value).as_integer_ratio()
        top_n, top_lam = map(max, zip((0, 0), *self._terms))  # (0, 0) for ZERO
        # a^i b^(D-i) is below max(|a|, b)^D, and p^j q^(L-j) below max(|p|, q)^L
        bits = top_n * max(abs(a), b).bit_length() + top_lam * max(abs(p), q).bit_length()
        if bits > MAX_EVAL_BITS:
            raise ValueError(f"evaluating a polynomial of degree {top_n} in n and {top_lam} in "
                             f"lam at n = {n_value}, lam = {lam_value} needs powers of up to "
                             f"{bits} bits, past the limit of {MAX_EVAL_BITS}")
        total = sum(num * a**i * b ** (top_n - i) * p**j * q ** (top_lam - j)
                    for (i, j), num in self._terms.items())
        return Fraction(total, self._den * b**top_n * q**top_lam)

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


def _slot_bits(terms: dict[tuple[int, int], int], den: int) -> int:
    """An operand's share of a slot's bits, as ``BiPoly.dot`` adds them up.

    With t terms, largest numerator magnitude below 2**nb and
    den >= 2**(den.bit_length() - 1), t * (largest coefficient) is below
    2**(t.bit_length() + nb - den.bit_length() + 1), and that exponent is
    returned; it may be negative.
    """
    top = max(map(abs, terms.values()), default=0)
    return top.bit_length() + len(terms).bit_length() - den.bit_length() + 1


def _unpack(value: int, width: int) -> Iterator[tuple[int, int]]:
    """``(deg_n, num)`` for every nonzero slot of a packed ``value``.

    Each slot holds a balanced digit, |num| < 2**(width-1).  Adding half a
    slot to every slot makes each digit nonnegative without a carry, so
    the slots are plain little-endian byte fields of the sum.
    """
    size = width // 8
    slots = value.bit_length() // width + 1
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    raw = (value + offset).to_bytes(size * slots, "little")
    half = 1 << (width - 1)
    for deg_n in range(slots):
        num = int.from_bytes(raw[deg_n * size : (deg_n + 1) * size], "little") - half
        if num:
            yield deg_n, num


ZERO = BiPoly({})
ONE = BiPoly.constant(1)
N = BiPoly({(1, 0): 1})
LAM = BiPoly({(0, 1): 1})

import copy
import json
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from lptseries.config import MAX_DIGITS
from lptseries.polys import LAM, MAX_EVAL_BITS, N, ONE, ZERO, BiPoly, _slot_bits, _unpack

from conftest import every_digit, rand_bipoly, rand_fraction

HALF = Fraction(1, 2)


class TestBiPolyBasics:
    def test_zero_coefficients_are_never_stored(self):
        p = BiPoly({(1, 0): 1, (0, 0): 0})
        assert p == N
        assert not BiPoly({(2, 1): 0})

    def test_structural_equality_is_mathematical_equality(self):
        assert N + 1 == BiPoly({(1, 0): 1, (0, 0): 1})
        assert N + N * -1 == ZERO
        assert N * N == BiPoly({(2, 0): 1})

    def test_a_constant_equals_the_scalar_it_holds(self):
        for poly, scalar in ((ZERO, 0), (ONE, 1), (BiPoly.constant(Fraction(-3, 4)), Fraction(-3, 4))):
            assert poly == scalar
        # a non-constant polynomial equals no scalar, its constant term included
        assert N + 1 != 1

    def test_copies_and_pickles_are_equal_and_canonical(self):
        poly = BiPoly({(2, 1): Fraction(-3, 4), (0, 0): 5})
        poly * poly  # fills the pack memo
        for value in (ZERO, ONE, poly):
            for twin in (copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
                assert twin == value and twin * N == value * N
                assert_canonical(twin)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 1})

    @pytest.mark.parametrize("key", [(1.5, 0), (Fraction(3, 2), 0), (0, 1.0), (Fraction(1), 0)],
                             ids=["float", "fraction", "integral-float", "integral-fraction"])
    def test_non_integer_exponents_rejected(self, key):
        with pytest.raises(TypeError, match=r"^non-integer exponent in term \("):
            BiPoly({key: 1})

    def test_bool_exponent_is_written_as_an_int(self):
        poly = BiPoly({(True, False): 2})
        assert poly == 2 * N
        assert json.dumps(poly.to_records()) == '[{"deg_n": 1, "deg_lam": 0, "coeff": "2"}]'

    def test_foreign_operands_are_not_polynomials(self):
        # each operator's NotImplemented hands the float or str back to Python
        for operation in (lambda: N + 0.5, lambda: 0.5 + N, lambda: N * 0.5, lambda: 0.5 * N):
            with pytest.raises(TypeError, match="unsupported operand"):
                operation()
        assert (N == "n") is False and (N != "n") is True

    def test_addition_examples(self):
        assert N + N * -1 == ZERO
        assert (N + HALF) + HALF == N + 1
        assert BiPoly({(2, 1): 1}) + BiPoly({(2, 1): 3}) == BiPoly({(2, 1): 4})

    def test_multiplication_examples(self):
        assert N * N == BiPoly({(2, 0): 1})
        assert (N + HALF) * ZERO == ZERO
        # (2n + 5) * (lam/4) = (lam/2) n + (5/4) lam
        left = 2 * N + 5
        right = BiPoly({(0, 1): Fraction(1, 4)})
        assert left * right == BiPoly({(1, 1): HALF, (0, 1): Fraction(5, 4)})

    def test_scale_div_examples(self):
        # dividing by a scalar is one pair through dot's div
        assert BiPoly.dot(((2 * N + 1, ONE),), div=2) == N + HALF
        assert BiPoly.dot(((ZERO, ONE),), div=-2) == ZERO
        # (-lam(2n+5)/2) / (-2) = lam(2n+5)/4
        value = BiPoly({(1, 1): -1, (0, 1): Fraction(-5, 2)})
        assert BiPoly.dot(((value, ONE),), div=-2) == BiPoly({(1, 1): HALF, (0, 1): Fraction(5, 4)})

    def test_scale_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            BiPoly.dot(((N, ONE),), div=0)

    def test_evaluate_examples(self):
        assert (N + HALF).evaluate(0, 0) == HALF
        third_order = BiPoly(
            {(3, 1): Fraction(5, 4), (2, 1): Fraction(15, 8),
             (1, 1): Fraction(5, 2), (0, 1): Fraction(15, 16)}
        )
        assert third_order.evaluate(0, 1) == Fraction(15, 16)
        assert (N * N).evaluate(3, 7) == 9
        # a sparse high degree costs its own terms' powers, not every lower one
        assert BiPoly({(0, 10000): 1}).evaluate(0, Fraction(1, 100)) == Fraction(
            1, 100**10000)
        sparse = BiPoly({(0, 0): Fraction(1), (3, 20000): HALF})
        assert sparse.evaluate(2, Fraction(-1, 10)) == 1 + Fraction(4, 10**20000)

    def test_evaluate_matches_the_fraction_per_term_reference(self):
        rng = random.Random(36)
        odd = (1, 3, 5, 7, 9, 15, 21)
        for _ in range(60):
            poly = rand_bipoly(rng, max_deg_n=6, max_deg_lam=5, max_terms=8)
            values = [Fraction(rng.randint(-40, 40), rng.choice(odd)) for _ in range(4)]
            for n_val in (0, rng.randint(1, 9), *values[:2]):
                for lam_val in (0, Fraction(1, 1000), *values):
                    reference = sum(
                        (coeff * Fraction(n_val) ** dn * Fraction(lam_val) ** dl
                         for dn, dl, coeff in poly.terms_sorted()),
                        Fraction(0),
                    )
                    result = poly.evaluate(n_val, lam_val)
                    assert type(result) is Fraction and result == reference

    def test_evaluate_refuses_inexact_scalars(self):
        with pytest.raises(TypeError, match="exact scalar"):
            (N + LAM).evaluate(0.5, 0)
        with pytest.raises(TypeError, match="exact scalar"):
            (N + LAM).evaluate(0, 0.001)

    def test_evaluate_refuses_powers_past_the_bit_limit(self):
        # 1/2 and -2 take 2 bits a power, so degree 2^21 is the last admitted
        assert MAX_EVAL_BITS == 2**22
        assert BiPoly({(0, 2**21): 1}).evaluate(0, HALF) == Fraction(1, 2**2**21)
        with pytest.raises(ValueError) as refused:
            BiPoly({(0, 2**21 + 1): 3}).evaluate(0, HALF)
        assert str(refused.value) == (
            "evaluating a polynomial of degree 0 in n and 2097153 in lam at n = 0, lam = 1/2 "
            "needs powers of up to 4194306 bits, past the limit of 4194304")
        with pytest.raises(ValueError, match=r"^evaluating a polynomial of degree 2097153 in n "
                                             r"and 0 in lam at n = -2, lam = 0 "):
            BiPoly({(2**21 + 1, 0): 1}).evaluate(-2, 0)


    def test_refusal_names_numbers_past_the_digit_cap(self):
        # a lam with more digits than the interpreter's default int-to-str
        # cap is named in full where the cap is lifted, as `cli.main` lifts
        # it; a coefficient is not named at all
        digits = MAX_DIGITS
        with every_digit(), pytest.raises(ValueError) as refused:
            BiPoly({(0, 2_200_000): 10**digits}).evaluate(0, Fraction(1, 100))
        assert str(refused.value) == (
            "evaluating a polynomial of degree 0 in n and 2200000 in lam at n = 0, "
            "lam = 1/100 needs powers of up to 15400000 bits, past the limit of 4194304")
        lam = Fraction(12 * 10**digits + 1, 10**digits)
        power = MAX_EVAL_BITS // lam.numerator.bit_length() + 1
        with every_digit(), pytest.raises(ValueError) as refused:
            BiPoly({(0, power): 1}).evaluate(0, lam)
        lam_text = f"12{'0' * (digits - 1)}1/1{'0' * digits}"
        assert str(refused.value) == (
            f"evaluating a polynomial of degree 0 in n and {power} in lam at n = 0, "
            f"lam = {lam_text} needs powers of up to "
            f"{power * lam.numerator.bit_length()} bits, past the limit of 4194304")

    def test_refusal_length_is_bounded_whatever_the_coefficients(self):
        # 40 terms of 5000-digit coefficients over a 5000-digit denominator
        # would write about 400 KB; the message names the degrees alone
        big = 10**5000 + 1
        poly = BiPoly({(i, 100_000 * (i + 1)): Fraction(big + i, big - 2) for i in range(40)})
        with every_digit(), pytest.raises(ValueError) as refused:
            poly.evaluate(3, Fraction(1, 100))
        assert str(refused.value) == (
            "evaluating a polynomial of degree 39 in n and 4000000 in lam at n = 3, "
            "lam = 1/100 needs powers of up to 28000078 bits, past the limit of 4194304")
        assert len(str(refused.value)) < 200


class TestRingAxioms:
    def test_randomized_ring_laws(self):
        rng = random.Random(20240811)
        for _ in range(200):
            a, b, c = (rand_bipoly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a * ONE == a and a + ZERO == a

    def test_scale_div_inverts_constant_multiplication(self):
        rng = random.Random(7)
        for _ in range(100):
            a = rand_bipoly(rng)
            s = rand_fraction(rng, nonzero=True)
            assert BiPoly.dot(((a * s, ONE),), div=s) == a

    def test_evaluation_is_a_ring_homomorphism(self):
        rng = random.Random(99)
        for _ in range(100):
            a, b = rand_bipoly(rng), rand_bipoly(rng)
            n_val = rand_fraction(rng)
            lam_val = rand_fraction(rng)
            assert (a * b).evaluate(n_val, lam_val) == a.evaluate(n_val, lam_val) * b.evaluate(n_val, lam_val)
            assert (a + b).evaluate(n_val, lam_val) == a.evaluate(n_val, lam_val) + b.evaluate(n_val, lam_val)


class TestRendering:
    def test_deterministic_descending_order(self):
        poly = N * N + 2 * N * LAM + -HALF
        assert str(poly) == "n^2 + 2*n*lam - 1/2"
        assert str(ZERO) == "0"
        assert str(N * -1) == "-n"
        assert str(N + HALF) == "n + 1/2"

    def test_records_are_exponent_sorted(self):
        poly = N * N + LAM + 3
        records = poly.to_records()
        keys = [(r["deg_n"], r["deg_lam"]) for r in records]
        assert keys == sorted(keys)
        assert all(isinstance(r["coeff"], str) for r in records)

    def test_degrees(self):
        assert (N * N * LAM).terms_sorted() == [(2, 1, 1)]
        assert ZERO.terms_sorted() == []
        assert LAM.is_lam_only() and not N.is_lam_only() and ZERO.is_lam_only()


def fraction_terms(poly: BiPoly) -> dict[tuple[int, int], Fraction]:
    return {(dn, dl): c for dn, dl, c in poly.terms_sorted()}


def reference_dot(pairs) -> dict[tuple[int, int], Fraction]:
    """Sum of products with one Fraction per coefficient, independent of BiPoly arithmetic."""
    out: dict[tuple[int, int], Fraction] = {}
    for a, b in pairs:
        for (an, al), ac in fraction_terms(a).items():
            for (bn, bl), bc in fraction_terms(b).items():
                key = (an + bn, al + bl)
                out[key] = out.get(key, Fraction(0)) + ac * bc
    return {key: c for key, c in out.items() if c}


def assert_canonical(poly: BiPoly) -> None:
    nums = list(poly._terms.values())
    assert isinstance(poly._den, int) and poly._den > 0
    assert all(isinstance(num, int) and num != 0 for num in nums)
    assert gcd(poly._den, *nums) == 1
    assert poly._slot_bits == _slot_bits(poly._terms, poly._den)


def odd_bipoly(rng) -> BiPoly:
    """Random polynomial with odd and even denominators, negative values and zero."""
    if rng.random() < 0.15:
        return ZERO
    return rand_bipoly(rng, max_terms=5) + BiPoly.constant(
        Fraction(rng.randint(-9, 9), rng.choice([1, 3, 5, 7, 15]))
    )


def wide_bipoly(rng, bits=400) -> BiPoly:
    """Random polynomial for the packed kernel: numerators of up to ``bits``
    bits and either sign, some of full magnitude, n degrees with gaps, up
    to four lam degrees, odd and power-of-two denominators; sometimes zero."""
    if rng.random() < 0.1:
        return ZERO
    terms = {}
    for _ in range(rng.randint(1, 8)):
        key = (rng.choice((0, 1, 2, 5, 9)), rng.randint(0, 3))
        size = bits if rng.random() < 0.3 else rng.randint(1, bits)
        magnitude = (1 << size) - 1 if rng.random() < 0.5 else rng.getrandbits(size)
        den = rng.choice((1, 3, 5, 15, 2**rng.randint(1, 90), 3**20 * 7))
        terms[key] = Fraction(rng.choice((1, -1)) * magnitude, den)
    return BiPoly(terms)


class TestScalarLayer:
    def test_dot_equals_the_fraction_reference(self):
        rng = random.Random(31)
        for _ in range(150):
            pairs = [(odd_bipoly(rng), odd_bipoly(rng)) for _ in range(rng.randint(0, 6))]
            doubled = [(odd_bipoly(rng), odd_bipoly(rng)) for _ in range(rng.randint(0, 4))]
            result = BiPoly.dot(pairs, doubled)
            assert_canonical(result)
            assert fraction_terms(result) == reference_dot(pairs + doubled + doubled)

    def test_dot_divides_within_its_reduction(self):
        rng = random.Random(36)
        for _ in range(150):
            pairs = [(odd_bipoly(rng), odd_bipoly(rng)) for _ in range(rng.randint(0, 6))]
            doubled = [(odd_bipoly(rng), odd_bipoly(rng)) for _ in range(rng.randint(0, 4))]
            div = rng.choice((rand_fraction(rng, max_den=15, nonzero=True), rng.randint(1, 9)))
            result = BiPoly.dot(pairs, doubled, div=div)
            assert_canonical(result)
            reference = reference_dot(pairs + doubled + doubled)
            assert fraction_terms(result) == {key: c / div for key, c in reference.items()}
        with pytest.raises(ZeroDivisionError):
            BiPoly.dot([], div=0)
        with pytest.raises(TypeError, match="exact scalar"):
            BiPoly.dot([(N, N)], div=0.5)

    def test_dot_on_wide_numerators_matches_the_fraction_reference(self):
        rng = random.Random(34)
        for trial in range(40):
            many = trial % 4 == 0
            pairs = [(wide_bipoly(rng), wide_bipoly(rng))
                     for _ in range(rng.randint(20, 60) if many else rng.randint(0, 6))]
            doubled = [(wide_bipoly(rng), wide_bipoly(rng)) for _ in range(rng.randint(0, 4))]
            result = BiPoly.dot(pairs, doubled)
            assert_canonical(result)
            assert fraction_terms(result) == reference_dot(pairs + doubled + doubled)

    def test_dot_at_the_largest_slot_values(self):
        # every numerator of full magnitude and one sign, and every term of a
        # meeting a term of b in the same slot: the sums the width must hold
        for bits in (1, 62, 63, 64, 65, 127, 300):
            top = (1 << bits) - 1
            a = BiPoly({(n, lam): top for n in range(4) for lam in range(2)})
            b = BiPoly({(n, lam): -top for n in range(4) for lam in range(2)})
            pairs, doubled = [(a, b)] * 9, [(b, a)] * 5
            result = BiPoly.dot(pairs, doubled)
            # the slot (n^d, lam^e) meets 4 - |d - 3| pairs of n terms and 2 - |e - 1| of lam terms
            assert result == BiPoly({(d, e): -19 * top * top * (4 - abs(d - 3)) * (2 - abs(e - 1))
                                     for d in range(7) for e in range(3)})
            assert fraction_terms(result) == reference_dot(pairs + doubled + doubled)

    @pytest.mark.parametrize("bits, count, n_terms", [
        (29, 63, 1), (29, 64, 1), (61, 63, 1), (28, 127, 3), (60, 100, 3),
    ])
    def test_dot_just_past_a_64_bit_boundary(self, bits, count, n_terms):
        # count equal products of full-magnitude numerators, whose largest
        # slot needs about 2*bits + log2(count * n_terms) bits plus the
        # sign: sizes just past a multiple of 64, where a bound a few bits
        # short would round down to a slot too narrow to hold the sum
        top = (1 << bits) - 1
        a = BiPoly({(n, 0): top for n in range(n_terms)})
        for b in (a, a * -1):
            pairs = [(a, b)] * count
            result = BiPoly.dot(pairs)
            assert fraction_terms(result) == reference_dot(pairs)

    def test_dot_sums_that_cancel_to_zero(self):
        rng = random.Random(35)
        for _ in range(20):
            a, b, c = wide_bipoly(rng), wide_bipoly(rng), wide_bipoly(rng)
            result = BiPoly.dot([(a, b), (b, a), (a * -1, c), (c, a)], [(a * -1, b)])
            assert result == ZERO and result._den == 1 and not result._terms

    def test_one_pack_serves_two_widths(self):
        x = BiPoly({(0, 0): Fraction(1, 3), (2, 1): -3, (5, 1): Fraction(7, 2)})
        narrow = BiPoly.dot([(x, x)])
        assert set(x._packs) == {64}
        packed = x._packs[64]
        assert BiPoly.dot([(x, ONE), (x, x)]) == narrow + x
        assert x._packs[64] is packed
        huge = BiPoly({(1, 2): Fraction(2**300 + 1, 9)})
        wide = BiPoly.dot([(x, huge), (x, x)])
        assert len(x._packs) == 2 and max(x._packs) > 64
        assert fraction_terms(wide) == reference_dot([(x, huge), (x, x)])
        assert fraction_terms(narrow) == reference_dot([(x, x)])

    @pytest.mark.parametrize("width", [64, 128, 576])
    def test_unpack_balanced_digits_at_the_slot_edges(self, width):
        edge = (1 << (width - 1)) - 1
        for digits in ([edge], [-edge], [0, edge, -edge], [-edge, 0, 0, 1],
                       [1, -1, edge, 0, -edge], [edge, -edge, -1, 1, -edge]):
            value = sum(d << (width * n) for n, d in enumerate(digits))
            expected = [(n, d) for n, d in enumerate(digits) if d]
            assert list(_unpack(value, width)) == expected

    def test_dot_skips_zero_operands_and_cancels(self):
        assert BiPoly.dot([]) == ZERO
        assert BiPoly.dot([(ZERO, N), (LAM, ZERO)]) == ZERO
        assert BiPoly.dot([(N, ONE), (N * -1, ONE)]) == ZERO
        assert BiPoly.dot([(N, HALF * ONE)], [(N, Fraction(1, 4) * ONE)]) == N

    def test_ring_operations_match_the_fraction_reference(self):
        rng = random.Random(32)
        for _ in range(150):
            a, b = odd_bipoly(rng), odd_bipoly(rng)
            assert fraction_terms(a * b) == reference_dot([(a, b)])
            assert fraction_terms(a + b) == reference_dot([(a, ONE), (b, ONE)])
            assert fraction_terms(a + b * -1) == reference_dot([(a, ONE), (b, BiPoly.constant(-1))])

    def test_every_operation_returns_canonical_form(self):
        rng = random.Random(33)
        for _ in range(150):
            a, b = odd_bipoly(rng), odd_bipoly(rng)
            s = rand_fraction(rng, max_den=15, nonzero=True)
            built = BiPoly({(rng.randint(0, 3), rng.randint(0, 2)): rand_fraction(rng, max_den=15)
                            for _ in range(rng.randint(0, 5))})
            for value in (a, b, a + b, a + b * -1, a * -1, a * b, a * s, a + s,
                          BiPoly.dot(((a, ONE),), div=s), built, BiPoly.constant(s),
                          BiPoly.constant(rng.randint(-9, -1))):
                assert_canonical(value)
        for value in (BiPoly.constant(0), ZERO, ONE, N, LAM):
            assert_canonical(value)
        assert ZERO._den == 1 and (N + N * -1)._den == 1

    def test_equal_polynomials_share_one_representation(self):
        a = BiPoly({(1, 0): Fraction(2, 6), (0, 1): Fraction(5, 15)})
        b = (N + LAM) * Fraction(1, 3)
        assert a._terms == b._terms == {(1, 0): 1, (0, 1): 1} and a._den == b._den == 3
        assert a == b

    def test_scale_div_by_a_negative_rational(self):
        value = BiPoly.dot(((N + HALF, ONE),), div=Fraction(-3, 5))
        assert value == BiPoly({(1, 0): Fraction(-5, 3), (0, 0): Fraction(-5, 6)})
        assert_canonical(value)
        assert BiPoly.dot(((value, ONE),), div=Fraction(-5, 3)) == N + HALF

    def test_coefficients_are_reduced_fractions(self):
        poly = BiPoly({(1, 0): Fraction(1, 2), (0, 2): Fraction(-3, 4), (0, 0): 5})
        assert poly._den == 4
        terms = poly.terms_sorted()
        assert terms == [(0, 0, 5), (0, 2, Fraction(-3, 4)), (1, 0, Fraction(1, 2))]
        assert all(type(coeff) is Fraction for _, _, coeff in terms)
        assert poly.to_records()[0] == {"deg_n": 0, "deg_lam": 0, "coeff": "5"}

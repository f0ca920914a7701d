"""Exact arithmetic on formal power series truncated at a fixed order.

Coefficients live in the rationals (stdlib :class:`fractions.Fraction`,
unbounded integers) or, for congruence sweeps, in Z/m for a modulus m that
divides 10: 2, 5 or 10, the moduli of the paper's two halves and their product.
Floating point is deliberately rejected: everything downstream asserts exact
integrality and congruence identities, which rounding would silently destroy.

Both coefficient domains share one truncated-ring core and one product kernel:
Kronecker packing of both operands into decimal digit strings, then a single
libmpdec multiply (the C library behind the stdlib decimal module, which
multiplies huge operands by a number-theoretic transform) under a private
context that traps any rounding.  Each domain has one storage and one slot
layout (see _convolution): an exact series is a tuple of ints and Fractions,
packed as exact digits over a common denominator; a residue series is bytes,
one residue in [0, m) per byte, packed as low digits, one digit per slot, and
read back by bytes operations.  Residue sums, negation, scalar products, q*d/dq
and reduction to a divisor are bytes translations, with no per-coefficient
Python object.

Each coefficient domain has its own inverter, the faster one in that domain.
Exact series use forward substitution, g_k = -(f_1 g_(k-1) + ... +
f_k g_0) / f_0, over the nonzero f_i only.  Each term is scaled by -1/f_0 once,
to c_i = -f_i / f_0, and g_k = sum_i c_i g_(k-i) is three sums, each over history
fetched by one itemgetter: that of the terms with c_i = 1, less that of the
terms with c_i = -1, plus one dot product of every other c_i with its history.
The catalog inverts two lacunary series: Euler's P^-1, whose terms are all +-1,
and (P^-1)^3, whose terms +-(2k+1) are all distinct, so that grouping them by
value would still cost a sum and a multiply per term.
Newton's iteration over exact coefficients measured four to five times slower
on Euler's P^-1, so exact series keep the substitution.  Residue series use
Newton's iteration, g <- g - g (f g - 1), which doubles the known prefix with
two products through the kernel: O(N log N) work for N coefficients, where
substitution over Euler's sqrt(N) terms is O(N^1.5).
A negative power inverts, then raises, in either domain.

Arithmetic between series of different truncation orders truncates to the
smaller order, and equality compares coefficients up to the smaller order.
"""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MAX_PREC, Context, Inexact, InvalidOperation, Overflow, Rounded
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, itemgetter, mod, mul

__all__ = ["TruncatedSeries", "ResidueSeries", "qd"]

Coefficient = int | Fraction


def _normalize(value) -> Coefficient:
    """Coerce to an exact coefficient, demoting integral fractions (and bools) to int."""
    # A plain int is by far the common case, and `type(...) is int` is much
    # cheaper than isinstance against the Fraction ABC.
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"exact coefficient required (int or Fraction), got {type(value).__name__}")


def _checked_modulus(modulus) -> int:
    """The modulus itself, once it is known to be a plain int of at least 2 that divides 10."""
    if type(modulus) is not int:
        raise TypeError(f"modulus must be an int, got {type(modulus).__name__}")
    if modulus < 2 or 10 % modulus:
        raise ValueError(f"modulus must be at least 2 and divide 10, got {modulus}")
    return modulus


def _times(scalar: int, modulus: int) -> bytes:
    """The translation table that takes each byte b to scalar b mod m."""
    # scalar b mod m depends on b only through b mod m: one period, repeated.
    return (bytes(scalar * b % modulus for b in range(modulus)) * (256 // modulus + 1))[:256]


def _over_common_denominator(coeffs):
    """Integers over one denominator d, the lcm of the denominators: coeffs[k] = ints[k] / d."""
    if {int}.issuperset(map(type, coeffs)):
        return coeffs, 1
    d = math.lcm(*(c.denominator for c in coeffs))
    return coeffs if d == 1 else [c.numerator * (d // c.denominator) for c in coeffs], d


# Every signal that a digit was lost raises, in each of the kernel's contexts.
_TRAPS = [Inexact, Rounded, InvalidOperation, Overflow]
# The kernel's own context, wide enough for any product.  The kernel never
# computes in the thread's current context.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=_TRAPS)
# The ASCII digit of each residue 0..9.
_ASCII_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _convolution(a, b, modulus: int | None = None) -> list[int] | bytes:
    """Cauchy product through q^(len-1) of two equal-length sequences: signed ints
    with no modulus, else bytes of residues mod a modulus m that divides 10.

    Kronecker substitution in base 10: each sequence is packed into fixed-width
    decimal slots of one digit string, and one multiply under _EXACT gives the
    product in its low len slots.  One slot layout per coefficient domain:

    * exact digits: slots sized from max(sum_i |a_i| max_(j<=len-1-i) |b_j|,
      max|a|, max|b|), which bounds each operand and every low product
      coefficient, with one digit more for a sign: a value c sits offset by
      half the slot range, so c + half has exactly width digits.  A sequence is
      packed as the join of str(c + half) minus the offsets, one half per slot,
      built by doubling a block of slots along the binary expansion of the
      length.  The read-back adds the offsets and 10^(2 span), which exceeds
      |packed a * packed b|, so the sum is positive and the added power leaves
      its low digits unchanged; each slot is then int(its width digits) - half.
      str and int refuse more digits than the interpreter's int/str digit
      limit, so slots wider than the limit, read at each product, are packed
      and read back through Decimal instead.
    * low digits, for residues: slots sized from max(sum_i a_i max_j b_j, m - 1).
      Each residue byte is translated to its ASCII digit, the low digit of its
      slot.  The low digit of a product slot, mod m, is the product coefficient
      mod m, so the read-back is one strided slice and one translate, and the
      product comes back as bytes.  A high slot may overflow, but never into
      the low digits.
    """
    length = len(a)
    if modulus is None:
        # The low product coefficient of q^k is sum_(i<=k) a_i b_(k-i), so it is at
        # most sum_i |a_i| max_(j<=len-1-i) |b_j|: one dot product with a prefix maximum.
        reach = list(accumulate(map(abs, b), max))
        bound = max(sum(map(mul, map(abs, a), reversed(reach))), max(map(abs, a)), reach[-1])
        # 10^(width-1) > 2^bit_length > bound: one digit more for the offset.
        width = bound.bit_length() * 30103 // 100000 + 2
        half = 5 * 10 ** (width - 1)
        # The offsets, one half in each of `slots` slots, from the leading bit down.
        slot = _EXACT.create_decimal(half)
        bias, slots = slot, 1
        for bit in bin(length)[3:]:
            bias = _EXACT.add(_EXACT.scaleb(bias, width * slots), bias)
            slots *= 2
            if bit == "1":
                bias = _EXACT.add(_EXACT.scaleb(bias, width), slot)
                slots += 1
        # A limit of 0, or an interpreter without one, lets str and int take any width.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if 0 < limit < width:
            to_digits, from_digits = _EXACT.to_sci_string, lambda s: int(_EXACT.create_decimal(s))
        else:
            to_digits, from_digits = str, int

        def packed(v):
            # sum v[i] 10^(width i).  |c| < 10^(width-1) for every operand and low
            # product coefficient c, so c + half has exactly width digits: no padding.
            return _EXACT.subtract(_EXACT.create_decimal("".join(
                [to_digits(c + half) for c in reversed(v)])), bias)

        def read(raw):
            raw = _EXACT.add(_EXACT.add(raw, bias), _EXACT.scaleb(1, 2 * span))
            digits = _EXACT.to_sci_string(low.shift(raw, 0)).zfill(span)
            return [from_digits(digits[i - width:i]) - half for i in range(span, 0, -width)]
    else:
        # Residues are their own sizes.  sum(a) max(b) is about as tight as the
        # prefix-maximum bound, since max(b) comes early, and far cheaper: max(b)
        # is one byte search per candidate residue, from m - 1 down.
        # 10^width > 2^bit_length > bound.
        top = next((r for r in range(modulus - 1, 0, -1) if r in b), 0)
        width = max(sum(a) * top, modulus - 1).bit_length() * 30103 // 100000 + 1

        def packed(v):
            digits = bytearray(b"0") * span
            digits[width - 1::width] = v[::-1].translate(_ASCII_DIGITS)
            return _EXACT.create_decimal(digits.decode())

        def read(raw):
            residues = bytes.maketrans(b"0123456789", bytes(d % modulus for d in range(10)))
            digits = _EXACT.to_sci_string(low.shift(raw, 0)).zfill(span)
            return digits[width - 1::width].encode().translate(residues)[::-1]

    span = length * width
    # A shift at precision span keeps only the low span digits, so the high half
    # is never written out.  A residue product may start with zero slots.
    low = Context(prec=span, Emax=MAX_EMAX, traps=_TRAPS)
    pa = packed(a)
    # A square is packed once, and libmpdec squares with fewer transforms.
    return read(_EXACT.multiply(pa, pa if b is a else packed(b)))


class _Series:
    """The truncated ring, written once for every coefficient domain.

    A subclass sets ``_scalars`` and provides its domain's storage through
    ``_coerce_all`` (any iterable of coefficients into the stored sequence, a
    tuple or bytes; a scalar is coerced as a sequence of one), and its
    arithmetic on stored sequences through ``_sum`` and ``_product`` (of two
    equal-length sequences), ``_scaled`` (by a scalar), ``_weighted``
    (coefficient k times k) and ``inverse``, whose method differs by domain
    (see the module docstring).  ``_modulus`` names the domain, None for the
    exact one; a subclass whose modulus is per instance overrides ``_new`` to
    pass it along.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        values = self._coerce_all(coeffs)
        if not values:
            raise ValueError("a truncated series needs at least its constant coefficient")
        self._coeffs = values

    def _new(self, coeffs):
        """A series over the same coefficient domain."""
        return type(self)(coeffs)

    def _common_order(self, other) -> int:
        if self._modulus != other._modulus:
            raise ValueError(f"modulus mismatch: {self._modulus} vs {other._modulus}")
        return min(self.order, other.order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple | bytes:
        return self._coeffs

    def coefficient(self, k: int):
        """The coefficient of q^k; raises IndexError beyond the truncation order."""
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside stored range 0..{self.order}")
        return self._coeffs[k]

    __getitem__ = coefficient

    def with_coefficient(self, k: int, value):
        """A copy with the coefficient of q^k replaced (for perturbation tests)."""
        self.coefficient(k)             # IndexError beyond the truncation order
        coeffs = self._coeffs
        return self._new(coeffs[:k] + self._coerce_all((value,)) + coeffs[k + 1:])

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, self._scalars):
            return self.with_coefficient(0, self._coeffs[0] + other)
        if not isinstance(other, type(self)):
            return NotImplemented
        n = self._common_order(other)
        return self._new(self._sum(self._coeffs[:n + 1], other._coeffs[:n + 1]))

    __radd__ = __add__

    def __neg__(self):
        return self._new(self._scaled(self._coeffs, -1))

    def __sub__(self, other):
        if isinstance(other, self._scalars) or isinstance(other, type(self)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if not isinstance(other, self._scalars):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self._new(self._scaled(self._coeffs, other))
        if not isinstance(other, type(self)):
            return NotImplemented
        n = self._common_order(other)
        return self._new(self._product(self._coeffs[:n + 1], other._coeffs[:n + 1]))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """Repeated squaring, left to right over the bits of the exponent, so the
        widest product is a square; a negative exponent inverts, then raises."""
        if type(exponent) is not int:
            raise TypeError(f"series exponent must be an int, got {type(exponent).__name__}")
        if exponent < 0:
            return self.inverse() ** -exponent
        if exponent == 0:
            return self._new([1] + [0] * self.order)
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def q_derivative(self):
        """Apply q*d/dq: the coefficient of q^k is scaled by k.  Same order."""
        return self._new(self._weighted(self._coeffs))

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, self._scalars):
            other = self._new([other] + [0] * self.order)
        if not isinstance(other, type(self)):
            return NotImplemented
        n = min(self.order, other.order)
        return self._modulus == other._modulus and self._coeffs[:n + 1] == other._coeffs[:n + 1]

    __hash__ = None


class TruncatedSeries(_Series):
    """A power series known exactly through the coefficient of q^order.

    Instances are immutable and safe to share.  Supports +, -, * (by a series
    or an exact scalar), ** with any integer exponent, exact inversion, the
    coefficient-scaling operator q*d/dq, and reduction to Z/m.
    """

    __slots__ = ()
    _scalars = (int, Fraction)
    _modulus = None

    @staticmethod
    def _coerce_all(values) -> tuple:
        # Plain ints, the common case, stay as they are.
        values = tuple(values)
        if {int}.issuperset(map(type, values)):
            return values
        return tuple(map(_normalize, values))

    @staticmethod
    def _sum(a, b):
        return map(add, a, b)

    @staticmethod
    def _scaled(a, scalar):
        if isinstance(scalar, int):
            return map(mul, a, repeat(scalar))
        # c times a Fraction n/d: one divmod of n c by d, and a Fraction only where
        # the remainder is nonzero, so each result has the value and the type of
        # c * (n/d), an int wherever it is integral.
        n, d = scalar.numerator, scalar.denominator
        return [q if not r else Fraction(q * d + r, d)
                for q, r in map(divmod, a if n == 1 else map(mul, a, repeat(n)), repeat(d))]

    @staticmethod
    def _weighted(a):
        return map(mul, range(len(a)), a)

    @staticmethod
    def _product(a, b) -> list[Coefficient]:
        (a, da), (b, db) = _over_common_denominator(a), _over_common_denominator(b)
        out, d = _convolution(a, b), da * db
        return out if d == 1 else [Fraction(c, d) for c in out]

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse up to the truncation order, by forward substitution
        over the nonzero terms: those of scaled value +-1 summed, the rest in one dot
        product (see the module docstring); ZeroDivisionError if the constant term is 0."""
        f = self._coeffs
        if f[0] == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv0 = _normalize(Fraction(1) / f[0])
        # Offsets -i of the terms that have entered, split by c = -f_i / f_0 into
        # c = 1, c = -1 and the rest, whose values c are kept in step with their
        # offsets; each getter is rebuilt only when its list gains a term.
        ones, minus_ones, others, values = [0], [0], [0], [0]
        # g[0] is a zero every getter also reads, twice before any term enters, so a
        # getter always returns a tuple; g[k] holds g_(k-1), so g_(k-i) is g[-i]
        # while g_k is appended.
        get_ones = get_minus_ones = get_others = itemgetter(0, 0)
        g = [0, inv0]
        for k in range(1, len(f)):
            if f[k]:
                c = -inv0 * f[k]
                if c == 1:
                    ones.append(-k)
                    get_ones = itemgetter(*ones)
                elif c == -1:
                    minus_ones.append(-k)
                    get_minus_ones = itemgetter(*minus_ones)
                else:
                    others.append(-k)
                    values.append(c)
                    get_others = itemgetter(*others)
            g.append(sum(get_ones(g)) - sum(get_minus_ones(g))
                     + sum(map(mul, values, get_others(g))))
        return self._new(g[1:])

    def reduce_mod(self, modulus: int) -> ResidueSeries:
        """Reduce each coefficient into Z/m via the modular inverse of the common
        denominator d, which is a unit mod m exactly when every denominator is.

        Fails if any coefficient's reduced denominator shares a factor with m.
        """
        _checked_modulus(modulus)
        ints, d = _over_common_denominator(self._coeffs)
        if math.gcd(d, modulus) != 1:
            k, c = next((k, c) for k, c in enumerate(self._coeffs)
                        if math.gcd(c.denominator, modulus) != 1)
            raise ValueError(
                f"coefficient {c} of q^{k} has denominator not invertible mod {modulus}")
        return ResidueSeries(ints if d == 1 else map(mul, ints, repeat(pow(d, -1, modulus))),
                             modulus)

    def __repr__(self):
        head = ", ".join(str(c) for c in self._coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{head}{tail}] + O(q^{self.order + 1}))"


def qd(series):
    """Operator form of q*d/dq, for either coefficient domain."""
    return series.q_derivative()


class ResidueSeries(_Series):
    """A truncated series over Z/m, for a modulus m that divides 10, stored as bytes
    in [0, m): one byte per coefficient.

    Coefficients must be ints: a float or Fraction raises TypeError rather
    than being rounded into the ring.  A bytes input is range-checked in C and
    reduced only if a byte is m or more; any other input is reduced once, and
    bytes() refuses any value that is not an int.  Supports the ring operations,
    ** with any integer exponent, inversion when the constant term is a unit mod
    m, and reduction to Z/k for a divisor k of m.
    """

    __slots__ = ("_modulus",)
    _scalars = int

    def __init__(self, coeffs, modulus: int):
        self._modulus = _checked_modulus(modulus)
        super().__init__(coeffs)

    def _coerce_all(self, values) -> bytes:
        m = self._modulus
        if type(values) is not bytes:
            # bytes() takes only ints: a float or Fraction stays one after the %.
            try:
                return bytes(map(mod, values, repeat(m)))
            except TypeError as error:
                raise TypeError(f"residue coefficients must be ints: {error}") from None
        # Deleting every residue leaves exactly the bytes that need reducing.
        if values.translate(None, bytes(range(m))):
            values = values.translate(_times(1, m))
        return values

    def _sum(self, a, b) -> bytes:
        # Residues are below 10, so bytewise sums carry nothing into the next byte:
        # one integer sum adds every pair.
        total = int.from_bytes(a, "big") + int.from_bytes(b, "big")
        return total.to_bytes(len(a), "big").translate(_times(1, self._modulus))

    def _scaled(self, a, scalar: int) -> bytes:
        return a.translate(_times(scalar, self._modulus))

    def _weighted(self, a) -> bytes:
        # k c_k mod m depends on k only through k mod m: one translate per nonzero
        # class, and the class of 0 stays zero.
        m = self._modulus
        out = bytearray(len(a))
        for k in range(1, m):
            out[k::m] = a[k::m].translate(_times(k, m))
        return bytes(out)

    def _product(self, a, b) -> bytes:
        return _convolution(a, b, self._modulus)

    def _new(self, coeffs) -> ResidueSeries:
        return ResidueSeries(coeffs, self._modulus)

    @property
    def modulus(self) -> int:
        return self._modulus

    def reduce_mod(self, modulus: int) -> ResidueSeries:
        """The image in Z/k of this series over Z/m, for a divisor k of m.

        Reduction is a ring morphism, so a product computed mod m and reduced
        here equals the same product computed mod k.
        """
        if self._modulus % _checked_modulus(modulus):
            raise ValueError(f"{modulus} does not divide the modulus {self._modulus}")
        return ResidueSeries(self._coeffs.translate(_times(1, modulus)), modulus)

    def inverse(self) -> ResidueSeries:
        """Multiplicative inverse up to the truncation order, by Newton's iteration
        (see the module docstring); ZeroDivisionError if the constant term is not a
        unit mod m."""
        f, m = self._coeffs, self._modulus
        try:
            g = bytes([pow(f[0], -1, m)])
        except ValueError:
            raise ZeroDivisionError(f"constant term {f[0]} is not a unit mod {m}, "
                                    "so the series has no inverse") from None
        while len(g) < len(f):
            h, n = len(g), min(2 * len(g), len(f))
            # f g - 1 vanishes below q^h, so the correction g (f g - 1) starts at q^h:
            # g_h .. g_(n-1) are minus the low n - h coefficients of g_0 .. g_(n-h-1)
            # times (f g - 1) / q^h, whose low coefficients are those of f g from q^h.
            rest = self._product(f[:n], g + bytes(n - h))[h:]
            g += self._product(rest, g[:n - h]).translate(_times(-1, m))
        return self._new(g)

    def __repr__(self):
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"ResidueSeries([{head}{tail}] + O(q^{self.order + 1}), modulus={self._modulus})"

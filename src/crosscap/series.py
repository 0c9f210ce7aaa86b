"""Truncated power-series (jet) arithmetic with explicit reliability tracking.

Every series the analysis builds is exact: a ``UniSeries`` or a
``BiSeries`` (the surface jets) has arbitrary-precision rational
coefficients.  Floats enter in one place, ``UniSeries.to_float``, which
gives a ``FloatSeries`` of binary64 coefficients; that small type serves the
mesh's unit director (``obj.osculating_surface``) and the float Darboux
frame, with the sum, difference, product and derivative they use and the
square root (``sqrt_series``) and inverse (``reciprocal``) that normalise a
vector.  No analysis stage holds one.  An exact and a float
operand never mix: that is a ``SeriesError``.  ``BiSeries.float_coeffs`` is
the one float reading of a surface jet, for mesh sampling.  Every series
carries a ``reliable_order`` R: coefficients of degree <= R are guaranteed
by the computation that produced them, anything beyond is unknown.  All
operations propagate R by a conservative documented rule and never claim
more; one that needs a coefficient beyond R raises ``ReliabilityError``.

The univariate variable is called x throughout; bivariate series live in
(u, v) and are indexed by (i, j) exponent pairs with a total-degree bound.

Zero tests, valuations and top-terms are exact only, so that degree/top-term
extraction is bit-exact.  ``valuation`` and ``factor_power`` take a series
or a ``Vec3Series``, the one vector type: three components of one kind,
exact, float or bivariate (the surface map, which ``compose`` substitutes a
curve into).  A unit-frame top is exact too: ``SignedRoot`` holds a
rational over one square root as a sign and a rational square, which
``SignedRoot.of`` builds from integer numerators and denominators as one
``Fraction``, and only its ``float`` rounds.  ``nearest_float`` rounds a
rational; both refuse a nonzero value beyond the float range either way.

An exact series is stored as FLINT's ``fmpq_poly`` stores a rational
polynomial: integer numerators ``_num`` over one denominator ``_den > 0``.
A ``UniSeries`` keeps a tuple of numerators; a ``BiSeries`` keeps a dict
(i, j) -> numerator without zero entries.  Each kind is one class, whatever
built the series.  The pair is canonical (``gcd(_den, *_num) == 1``) for
every series but a ``UniSeries`` product: sums and differences of two
series, negation, derivatives, ``shift``, ``factor_power``, the
compositions and ``BiSeries`` products work on these integers and bring
each result back to canonical form with one ``math.gcd``.  A ``UniSeries``
product, of two series or of a series and a rational, takes no gcd: it
convolves the numerators (``_convolve``) over the product of the
denominators, and keeps that pair as it is.  The sum, difference or
composition that reads it reduces it, so every series an analysis stage
keeps is canonical.  ``valuation`` (which builds only the leading
``Fraction``), ``to_float`` and ``float_coeffs`` (``n / _den``, rounded as
``float(Fraction)`` rounds) read any pair.  The library reads every
coefficient from the pair, one ``Fraction`` per read (``coefficient``,
``constant_vector``, the leading one of ``valuation``), and a ``Fraction``
is reduced; ``Vec3Series.constant_norm_sq`` builds |v(0)|^2 from the
numerators of x^0 as one ``Fraction``.  A ``UniSeries``' reduced
``Fraction`` coefficients ``coeffs`` are a view of the pair, built on
first read and kept; it serves repr, the tests and the benchmark tracer's
product counter, and no run of the program builds it.  A ``BiSeries`` has no such view in the library (the
tests build it, ``reference_bi_coeffs``).  Every value class derives its
equality, hash and repr from ``_Frozen`` and its ``_fields``; a
``UniSeries`` compares and hashes by its canonical pair, which it reduces
first (a gcd of 1 returns the stored pair), a ``BiSeries`` is unhashable
(it holds a dict) and a ``FloatSeries`` compares by identity.
There is no ``Fraction`` constructor: ``UniSeries.from_numerators`` and ``BiSeries.from_numerators`` build a
series from integer numerators over a positive denominator, with one
``math.gcd`` and no ``Fraction``, and ``UniSeries.make``, the one rational
constructor, reads the numerators of a list of rationals over the lcm of
their denominators and passes them on; ``BiSeries.from_numerators`` is the
one way to build a ``BiSeries``.  A ``BiSeries`` is read as floats
(``float_coeffs``) and substituted, itself (``compose_bi``) or its two
partial derivatives in one pass (``compose_partials``, which builds no
derivative series); no stage differentiates, adds or multiplies two of
them, and the bivariate ring the tests check against, the derivatives
included, is in ``tests/reference.py``.

``compose_bi`` and ``compose_partials`` substitute exact series only, and
share one cut and one accumulation (``_substitute``).  A ``UniSeries``
keeps the numerator lists of its own powers over ``_den^i``, built on
first use by a composition and extended on demand (``_powers``).
Coefficient k of a ``_convolve`` product does not depend on the order it
is cut at, so one table, cut at the series' reliable order, serves every
composition that substitutes the series.  ``_convolve`` is the one convolution loop: it adds
a scaled product into a list it is given, and a composition adds each of
its terms into one accumulator that way.  The loop runs over the nonzero
entries of its first operand, so a composition passes the power of v
first: a family curve substitutes v = x^m, whose powers are monomials, and
each of its terms then costs one pass over the power of u.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple


class CrosscapError(ValueError):
    """The base of every error the library raises on a refused input or an analysis it cannot complete.

    A stdlib ``ValueError`` is not one: raised out of the library, it is a bug.
    """


class SeriesError(CrosscapError):
    """Raised on mixed exact and float operands, domain violations and reliability abuse."""


class ReliabilityError(SeriesError):
    """A computation needs a coefficient beyond the reliable order of a series."""


def first_nonzero(values, start: int = 0) -> int | None:
    """The first index i >= ``start`` with ``values[i] != 0``, or None."""
    for i in range(start, len(values)):
        if values[i]:
            return i
    return None


def _coerce(value) -> Fraction:
    """``value`` as an exact coefficient; a float or a float series is refused."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise SeriesError("EXACT series cannot absorb float coefficients")
    if isinstance(value, FloatSeries):
        raise SeriesError("field mismatch between series operands")
    return Fraction(value)


def _over(numerators, d: int) -> tuple:
    """The reduced rationals n / d; zeros share one ``Fraction(0)``."""
    zero = Fraction(0)
    return tuple(Fraction(n, d) if n else zero for n in numerators)


def _convolve(out: list, a, b, scale=1) -> list:
    """Add ``scale`` times the product of the coefficient lists ``a`` and ``b`` into ``out``, in place.

    The product is cut after ``len(out)`` coefficients, and ``out`` is
    returned.  This is the one convolution loop: exact products and powers
    (integer numerators, into a list of zeros), the compositions (each term
    scaled into one accumulator) and float products share it.  Zero entries
    are skipped and the products are added in ascending (i, j) order, which
    fixes the rounding of a float product; a float product has ``scale``
    1, and ``1 * x`` is ``x``.
    """
    n = len(out)
    for i, x in enumerate(a[:n]):
        if x:
            x *= scale
            for k, y in enumerate(b[: n - i], i):
                if y:
                    out[k] += x * y
    return out


_new = object.__new__
_set = object.__setattr__


class _Frozen:
    """Immutable slotted values: attributes are set once, with ``_set`` or a slot's own setter.

    A value class (a series, a vector of series, ``SignedRoot``) derives
    from it; a result record is a ``NamedTuple``.  A value is not a tuple,
    so that ``v + w`` and ``2 * v`` are its own arithmetic, never a
    concatenation.  The class-level ``_fields`` names what ``repr`` shows
    and what ``_key()`` returns; two values are equal when they are of one
    type with equal keys, and equal values hash alike.  A class whose key is
    not its shown fields overrides ``_key``.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class UniSeries(_Frozen):
    """A univariate exact series c_0 + c_1 x + ... + c_R x^R + O(x^{R+1}).

    ``coeffs`` always has exactly ``reliable_order + 1`` entries; the class
    never stores coefficients it cannot vouch for.  The series is the pair
    ``_num``, ``_den`` (see the module docstring): a product's pair may
    share a factor, which the sum, difference or composition that reads it
    removes, and every other result is canonical.  ``coefficient`` reads one
    value from it, and ``coeffs`` are built on first read, for repr, the
    tests and the tracer.  It compares and hashes by the reduced pair, so
    neither builds them.  Instances are immutable; ``_coeffs`` is set at
    most once and ``_pows``, the table of powers, only grows.
    """

    __slots__ = ("reliable_order", "_coeffs", "_num", "_den", "_pows")
    _fields = ("coeffs", "reliable_order")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced ``Fraction``s.

        A property, not a ``__getattr__`` hook, so that reading any other
        attribute stays a plain slot read.
        """
        try:
            return self._coeffs
        except AttributeError:
            coeffs = _over(self._num, self._den)
            _set(self, "_coeffs", coeffs)
            return coeffs

    def _key(self) -> tuple:
        # The canonical pair: a product's pair may share a factor.
        num, den = self._num, self._den
        g = math.gcd(den, *num)
        if g != 1:
            return (tuple([n // g for n in num]), den // g, self.reliable_order)
        return (num, den, self.reliable_order)

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(coeffs, reliable_order: int | None = None) -> "UniSeries":
        """The series of the rationals ``coeffs``, cut or padded with zeros to ``reliable_order``.

        The numerators are taken over the lcm of the denominators; a zero
        (``int`` or ``Fraction``) has denominator 1, so this is the lcm of
        the nonzero entries' denominators.  An ``int`` entry is read as it
        is, and no ``Fraction`` is built.  A float, or a float series, is
        refused.
        """
        if reliable_order is None:
            coeffs = tuple(coeffs)
            reliable_order = len(coeffs) - 1
        cs = coeffs[: reliable_order + 1]
        try:
            den = math.lcm(*[c.denominator for c in cs])
        except AttributeError:  # not an int or a Fraction
            cs = [_coerce(c) for c in cs]
            den = math.lcm(*[c.denominator for c in cs])
        num = [c.numerator * (den // c.denominator) for c in cs]
        num += [0] * (reliable_order + 1 - len(num))
        return UniSeries.from_numerators(num, den, reliable_order)

    @staticmethod
    def from_numerators(num, den: int, reliable_order: int) -> "UniSeries":
        """The series with coefficients ``num[i] / den``, i = 0 .. reliable_order.

        ``num`` holds integers and ``den`` is a positive integer; they may
        share a factor, which one ``math.gcd`` removes.  No ``Fraction`` is
        built.
        """
        if reliable_order < 0:
            raise SeriesError("reliable_order must be >= 0")
        if len(num) != reliable_order + 1 or den <= 0:
            raise SeriesError("need reliable_order + 1 numerators over a positive denominator")
        return _exact(num, den, reliable_order)

    # -- inspection -------------------------------------------------------

    def coefficient(self, degree: int) -> Fraction:
        """Coefficient of x^degree; degrees beyond reliable_order are an error."""
        if degree < 0:
            raise SeriesError("negative degree")
        if degree > self.reliable_order:
            raise ReliabilityError(
                f"coefficient of degree {degree} requested, but series is only "
                f"reliable to order {self.reliable_order}"
            )
        return Fraction(self._num[degree], self._den)

    def to_float(self) -> "FloatSeries":
        """The coefficients rounded to floats: the one way into a ``FloatSeries``."""
        # Integer true division rounds correctly, as float(Fraction) does.
        den = self._den
        return FloatSeries(tuple([n / den for n in self._num]), self.reliable_order)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is UniSeries:
            return _exact_sum(self, other, 1)
        if isinstance(other, FloatSeries):
            raise SeriesError("field mismatch between series operands")
        return NotImplemented  # a scalar: TypeError

    def __neg__(self):
        return _exact([-n for n in self._num], self._den, self.reliable_order)

    def __sub__(self, other):
        if type(other) is UniSeries:
            return _exact_sum(self, other, -1)
        if isinstance(other, FloatSeries):
            raise SeriesError("field mismatch between series operands")
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, UniSeries):
            r = min(self.reliable_order, other.reliable_order)
            return _pair(tuple(_convolve([0] * (r + 1), self._num, other._num)), self._den * other._den, r)
        c = _coerce(other)
        p = c.numerator
        return _pair(tuple([n * p for n in self._num]), self._den * c.denominator, self.reliable_order)

    __rmul__ = __mul__

    def diff(self) -> "UniSeries":
        """d/dx; the output is reliable one order less."""
        if self.reliable_order < 1:
            raise ReliabilityError("cannot differentiate a series reliable only to order 0")
        num = self._num
        return _exact([i * num[i] for i in range(1, len(num))], self._den, self.reliable_order - 1)

    def shift(self, power: int) -> "UniSeries":
        """Multiply by the exact monomial x^power (power >= 0)."""
        if power < 0:
            raise SeriesError("shift power must be >= 0")
        if power == 0:
            return self
        return _exact((0,) * power + self._num, self._den, self.reliable_order + power)


# The slots' own setters, which skip the attribute lookup of ``object.__setattr__``.
_set_order, _set_num, _set_den = UniSeries.reliable_order.__set__, UniSeries._num.__set__, UniSeries._den.__set__


def _pair(num: tuple, den: int, r: int) -> UniSeries:
    """The series ``num / den`` (``den > 0``), stored as the pair it is given."""
    s = _new(UniSeries)
    _set_order(s, r)
    _set_num(s, num)
    _set_den(s, den)
    return s


def _exact(num, den: int, r: int) -> UniSeries:
    """The series ``num / den`` (``den > 0``), divided by the gcd of the pair."""
    g = math.gcd(den, *num)
    if g != 1:
        den //= g
        return _pair(tuple([n // g for n in num]), den, r)
    return _pair(tuple(num), den, r)


def _exact_sum(a: UniSeries, b: UniSeries, sign: int) -> UniSeries:
    """a + sign * b over the lcm of the denominators."""
    na, da, nb, db = a._num, a._den, b._num, b._den
    r = min(a.reliable_order, b.reliable_order)
    if da == db:
        if sign > 0:
            return _exact([x + y for x, y in zip(na, nb)], da, r)
        return _exact([x - y for x, y in zip(na, nb)], da, r)
    d = math.lcm(da, db)
    sa, sb = d // da, sign * (d // db)
    return _exact([x * sa + y * sb for x, y in zip(na, nb)], d, r)


class FloatSeries(_Frozen):
    """A univariate series with binary64 coefficients, for the mesh and the float frame.

    ``coeffs`` holds exactly ``reliable_order + 1`` floats.  A float series
    comes from ``UniSeries.to_float``, ``reciprocal``, ``sqrt_series`` or an
    operation on float series, and its operands are float series only.  Its
    sum, difference, product and derivative do the float operations of a
    coefficient loop in a fixed order (a product is ``_convolve``), so the
    mesh bytes depend on nothing else; ``x - y`` equals ``x + (-y)`` in IEEE
    754.  Instances are immutable, and a working series: it compares by
    identity, as ``object`` does.
    """

    __slots__ = ("coeffs", "reliable_order")
    __eq__, __hash__, __repr__ = object.__eq__, object.__hash__, object.__repr__

    def __init__(self, coeffs: tuple, reliable_order: int):
        _set(self, "coeffs", coeffs)
        _set(self, "reliable_order", reliable_order)

    def _order_with(self, other) -> int:
        """The reliable order of a result with ``other``, which must be a float series."""
        if type(other) is not FloatSeries:
            raise SeriesError("field mismatch between series operands")
        return min(self.reliable_order, other.reliable_order)

    def __add__(self, other):
        r = self._order_with(other)
        return FloatSeries(tuple([x + y for x, y in zip(self.coeffs, other.coeffs)]), r)

    def __sub__(self, other):
        r = self._order_with(other)
        return FloatSeries(tuple([x - y for x, y in zip(self.coeffs, other.coeffs)]), r)

    def __mul__(self, other):
        r = self._order_with(other)
        return FloatSeries(tuple(_convolve([0.0] * (r + 1), self.coeffs, other.coeffs)), r)

    def diff(self) -> "FloatSeries":
        """d/dx; the output is reliable one order less."""
        if self.reliable_order < 1:
            raise ReliabilityError("cannot differentiate a series reliable only to order 0")
        c = self.coeffs
        return FloatSeries(tuple([i * c[i] for i in range(1, len(c))]), self.reliable_order - 1)


class Valuation(NamedTuple):
    """Result of valuation extraction.

    ``order is None`` encodes ZERO_TO_ORDER: every reliable coefficient
    vanishes, which is *not* a proof that the series is zero.
    """

    order: int | None
    leading: Fraction | None
    reliable_order: int

    @property
    def is_zero_to_order(self) -> bool:
        return self.order is None


def valuation(a: "UniSeries | Vec3Series") -> Valuation:
    """Smallest degree with a nonzero reliable coefficient, and that coefficient (exact only).

    A vector's valuation is the least over its components (ZERO_TO_ORDER if
    all vanish), led by the first component of that order; its leading
    coefficient is the one ``Fraction`` built.
    """
    comps = a.components if type(a) is Vec3Series else (a,)
    if type(comps[0]) is not UniSeries:
        raise SeriesError("valuation is defined on the EXACT field only")
    order = lead = None
    for s in comps:
        i = first_nonzero(s._num)
        if i is not None and (order is None or i < order):
            order, lead = i, s
    if order is None:
        return Valuation(None, None, a.reliable_order)
    return Valuation(order, Fraction(lead._num[order], lead._den), a.reliable_order)


def factor_power(a: "UniSeries | Vec3Series", power: int) -> "UniSeries | Vec3Series":
    """Divide by x^power given that val(a) >= power; reliability drops by power (exact only).

    A vector is divided componentwise.
    """
    if type(a) is Vec3Series:
        return Vec3Series(*[factor_power(s, power) for s in a.components])
    if type(a) is not UniSeries:
        raise SeriesError("factor_power is defined on the EXACT field only")
    if power < 0:
        raise SeriesError("power must be >= 0")
    if power == 0:
        return a
    if a.reliable_order < power:
        raise ReliabilityError("series not reliable far enough to factor x^%d" % power)
    if any(a._num[:power]):
        raise SeriesError("valuation smaller than %d: cannot factor x^%d out of the series" % (power, power))
    return _exact(a._num[power:], a._den, a.reliable_order - power)


def reciprocal(a: FloatSeries) -> FloatSeries:
    """Multiplicative inverse: a * reciprocal(a) = 1 + O(x^{R+1}); needs a_0 != 0 (float only)."""
    if type(a) is not FloatSeries:
        raise SeriesError("reciprocal is defined on the FLOAT field only")
    if a.coeffs[0] == 0:
        raise SeriesError("reciprocal requires a nonzero constant term")
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for n in range(1, a.reliable_order + 1):
        acc = 0.0
        for k in range(1, n + 1):
            acc += a.coeffs[k] * out[n - k]
        out.append(-acc * inv0)
    return FloatSeries(tuple(out), a.reliable_order)


def sqrt_series(a: FloatSeries) -> FloatSeries:
    """Square root with positive constant term.  Float only: roots leave the rationals."""
    if type(a) is not FloatSeries:
        raise SeriesError("sqrt_series is defined on the FLOAT field only")
    if a.coeffs[0] <= 0:
        raise SeriesError("sqrt_series requires a positive constant term")
    s0 = math.sqrt(a.coeffs[0])
    out = [s0]
    for n in range(1, a.reliable_order + 1):
        acc = 0.0
        for k in range(1, n):
            acc += out[k] * out[n - k]
        out.append((a.coeffs[n] - acc) / (2.0 * s0))
    return FloatSeries(tuple(out), a.reliable_order)


def nearest_float(value: Fraction) -> float:
    """The rational ``value`` rounded to the nearest float.

    OverflowError when a nonzero value is beyond the float range either way:
    above it, as ``float`` raises, or below it, where it would round to 0.0.
    """
    x = value.numerator / value.denominator  # integer true division rounds correctly
    if x == 0 and value:
        raise OverflowError("a nonzero value below the float range rounds to 0.0")
    return x


class SignedRoot(_Frozen):
    """The exact real number sign * sqrt(square): a rational over one square root.

    ``sign`` is -1, 0 or 1 and ``square`` a rational >= 0 that is 0 exactly
    when ``sign`` is, so two values are equal exactly when their fields are.
    ``float`` rounds it once: the root of ``square`` is taken in integers,
    to at least 58 bits with a sticky bit, so that the one rounding to a
    float is that of the real value.  OverflowError when it passes the
    float range, either way (``nearest_float``).  Instances are immutable.
    """

    __slots__ = _fields = ("sign", "square")

    def __init__(self, sign: int, square: Fraction):
        _set(self, "sign", sign)
        _set(self, "square", square)

    @staticmethod
    def of(value: Fraction, radicand: Fraction) -> "SignedRoot":
        """value / sqrt(radicand) for rationals (``int`` or ``Fraction``) with radicand > 0.

        The sign is that of ``value.numerator``, and the square is built
        from the four integers as one ``Fraction``: one gcd, no rational
        product or quotient.
        """
        n, d = value.numerator, value.denominator
        return SignedRoot((n > 0) - (n < 0), Fraction(n * n * radicand.denominator, d * d * radicand.numerator))

    def __float__(self) -> float:
        q = self.square
        shift = max(0, 58 - (q.numerator.bit_length() - q.denominator.bit_length()) // 2)
        n, rem = divmod(q.numerator << (2 * shift), q.denominator)
        root = math.isqrt(n)
        if rem or root * root != n:
            # The real root lies strictly between root and root + 1.
            root, shift = 2 * root + 1, shift + 1
        return nearest_float(Fraction(-root if self.sign < 0 else root, 1 << shift))


# ---------------------------------------------------------------------------
# Bivariate series
# ---------------------------------------------------------------------------


class BiSeries(_Frozen):
    """A series in (u, v) truncated by total degree, with exact coefficients.

    The series is the canonical pair ``_num``, ``_den`` (see the module
    docstring): ``_num`` maps (i, j) with i + j <= reliable_order to a
    nonzero integer, and pairs that are absent are zero.  Reliability
    bookkeeping is by total degree, exactly as in the univariate case.
    ``from_numerators`` builds every ``BiSeries``; ``float_coeffs`` is the
    one float reading.  Instances are immutable; they hold a dict, so they
    are unhashable.
    """

    __slots__ = _fields = ("_num", "_den", "reliable_order")
    __hash__ = None

    @staticmethod
    def from_numerators(num: Mapping, den: int, reliable_order: int) -> "BiSeries":
        """The series with coefficients ``num[(i, j)] / den``, in the key order of ``num``.

        ``num`` maps (i, j) with i, j >= 0 and i + j <= reliable_order to
        integers; zero entries are dropped.  ``den`` is a positive integer
        that may share a factor with the numerators, which one ``math.gcd``
        removes.  No ``Fraction`` is built.
        """
        if reliable_order < 0:
            raise SeriesError("reliable_order must be >= 0")
        if den <= 0:
            raise SeriesError("the denominator must be positive")
        for i, j in num:
            if i < 0 or j < 0 or i + j > reliable_order:
                raise SeriesError("BiSeries exponent outside 0 <= i, j and i + j <= reliable_order")
        return _exact_bi(_nonzero(num), den, reliable_order)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        # No stage multiplies two BiSeries; the product stays only because
        # the benchmark's tracer wraps it (``series.bimul`` in bench/tracing.py).
        r = min(self.reliable_order, other.reliable_order)
        return _exact_bi(_nonzero(_bi_convolve(self._num, other._num, r)), self._den * other._den, r)

    def float_coeffs(self) -> dict:
        """The coefficients as floats, in the key order of ``_num``."""
        # Integer true division rounds correctly, as float(Fraction) does.
        den = self._den
        return {k: n / den for k, n in self._num.items()}


def _canonical_bi(num: dict, den: int, r: int) -> BiSeries:
    """The ``BiSeries`` ``num / den`` of a pair that is already canonical."""
    s = _new(BiSeries)
    _set(s, "reliable_order", r)
    _set(s, "_num", num)
    _set(s, "_den", den)
    return s


def _exact_bi(num: dict, den: int, r: int) -> BiSeries:
    """The ``BiSeries`` ``num / den`` (``den > 0``, no zero entries), divided by the gcd of the pair."""
    g = math.gcd(den, *num.values())
    if g != 1:
        return _canonical_bi({k: n // g for k, n in num.items()}, den // g, r)
    return _canonical_bi(num, den, r)


def _nonzero(coeffs: dict) -> dict:
    return {k: c for k, c in coeffs.items() if c != 0}


def _bi_convolve(a: Mapping, b: Mapping, r: int) -> dict:
    """The terms of total degree <= r of the product of the integer (i, j) maps ``a`` and ``b``."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > r:
                continue
            key = (i, j)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _valuation_lower_bound(a: UniSeries) -> int:
    """The valuation of ``a``, or ``reliable_order + 1`` when it vanishes to that order."""
    i = first_nonzero(a._num)
    return a.reliable_order + 1 if i is None else i


def compose_bi(F: BiSeries, u: UniSeries, v: UniSeries) -> UniSeries:
    """Substitute u(x), v(x) into F(u, v); both curves must vanish at x = 0.

    Output reliability: discarding the O(u,v)^{R_F + 1} tail of F loses
    information only from x-degree m_min * (R_F + 1) on, where m_min is the
    smaller valuation of the two substituted series (their reliable orders
    cap the result as well).  Both curves must be exact, as every
    ``BiSeries`` is.  Each term c u^i v^j is added, scaled to the common
    denominator, into one accumulator by ``_convolve``, with the power of v
    as the outer operand: for v = x^m that is one pass over the power of u.
    The terms are summed as exact integers, so their order does not matter.
    """
    val_u, val_v, r_out = _composition_order(F.reliable_order, u, v)
    return _substitute(F._num.items(), F._den, u, v, val_u, val_v, r_out)


def compose_partials(F: BiSeries, u: UniSeries, v: UniSeries) -> tuple:
    """(F_u, F_v) along the curve: ``compose_bi`` of the two partial derivatives, built as no ``BiSeries``.

    F_u and F_v are reliable to R_F - 1 (``ReliabilityError`` for R_F < 1,
    before the curves are checked), so both substitutions share one output
    order and one error.  F's terms are read once, as i n at (i - 1, j) and
    j n at (i, j - 1) over F's denominator, and each list is cut and
    substituted as ``compose_bi`` cuts and substitutes its terms.
    """
    if F.reliable_order < 1:
        raise ReliabilityError("cannot differentiate a series reliable only to order 0")
    val_u, val_v, r_out = _composition_order(F.reliable_order - 1, u, v)
    d_u, d_v = [], []
    for (i, j), n in F._num.items():
        if i:
            d_u.append(((i - 1, j), i * n))
        if j:
            d_v.append(((i, j - 1), j * n))
    return tuple([_substitute(d, F._den, u, v, val_u, val_v, r_out) for d in (d_u, d_v)])


def _composition_order(r_F: int, u: UniSeries, v: UniSeries) -> tuple:
    """The valuations of u and v and the reliable order of a series of order ``r_F`` composed with them."""
    if type(u) is not UniSeries or type(v) is not UniSeries:
        raise SeriesError("field mismatch between series operands")
    val_u, val_v = _valuation_lower_bound(u), _valuation_lower_bound(v)
    for val, name in ((val_u, "u"), (val_v, "v")):
        if val == 0:
            raise SeriesError(f"compose_bi requires {name}(0) = 0")
    r_out = min(min(val_u, val_v) * (r_F + 1) - 1, u.reliable_order, v.reliable_order)
    if r_out < 0:
        raise ReliabilityError("composition carries no reliable coefficients")
    return val_u, val_v, r_out


def _substitute(terms, den: int, u: UniSeries, v: UniSeries, val_u: int, val_v: int, r_out: int) -> UniSeries:
    """The sum to x-degree ``r_out`` of n / den u^i v^j over the ((i, j), n) of ``terms``.

    A term of x-degree i val_u + j val_v > r_out is cut; the loop that cuts
    finds the highest powers of u and v the others read.
    """
    kept = []
    top_i = top_j = 0
    for (i, j), n in terms:
        if i * val_u + j * val_v <= r_out:
            kept.append((i, j, n))
            if i > top_i:
                top_i = i
            if j > top_j:
                top_j = j
    u_pows, v_pows = _powers(u, top_i), _powers(v, top_j)
    # c u^i v^j is n / den times the numerators u_pows[i] * v_pows[j] over
    # du^i dv^j; each term is scaled up to the common denominator
    # den du^top_i dv^top_j.
    du, dv = u._den, v._den
    acc = [0] * (r_out + 1)
    for i, j, n in kept:
        _convolve(acc, v_pows[j], u_pows[i], n * du ** (top_i - i) * dv ** (top_j - j))
    return _exact(acc, den * du**top_i * dv**top_j, r_out)


def _powers(s: UniSeries, n: int) -> list:
    """The numerator lists of s^0 .. s^n (at least), cut after s's reliable order.

    The list of s^i holds its numerators over ``s._den`` to the power i.  The
    table is kept on ``s`` and extended on demand.
    """
    try:
        pows = s._pows
    except AttributeError:
        pows = [[1] + [0] * s.reliable_order]
        _set(s, "_pows", pows)
    while len(pows) <= n:
        pows.append(_convolve([0] * (s.reliable_order + 1), pows[-1], s._num))
    return pows


# ---------------------------------------------------------------------------
# 3-vectors of series
# ---------------------------------------------------------------------------


class Vec3Series(_Frozen):
    """Three series stored componentwise: a curve (R, 0) -> R^3, or the surface map.

    The components are all of one kind: exact (``UniSeries``), float
    (``FloatSeries``) or bivariate (``BiSeries``, the surface map
    (u, v) -> R^3, which is composed with a curve).  A float vector
    comes from ``to_float`` of an exact one, and the operations of a vector
    are those its components have.  Instances are immutable and equal when
    their components are.
    """

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x, y, z):
        if not (type(x) is type(y) is type(z)):
            raise SeriesError("Vec3Series components must share one kind")
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    @property
    def reliable_order(self) -> int:
        return min(self.x.reliable_order, self.y.reliable_order, self.z.reliable_order)

    @property
    def components(self):
        return (self.x, self.y, self.z)

    def to_float(self) -> "Vec3Series":
        return Vec3Series(self.x.to_float(), self.y.to_float(), self.z.to_float())

    def __sub__(self, other: "Vec3Series") -> "Vec3Series":
        return Vec3Series(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, factor) -> "Vec3Series":
        """Multiply every component by a scalar or a series of the components' type."""
        return Vec3Series(self.x * factor, self.y * factor, self.z * factor)

    def dot(self, other: "Vec3Series") -> UniSeries:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3Series") -> "Vec3Series":
        return Vec3Series(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm_sq(self) -> UniSeries:
        return self.dot(self)

    def diff(self) -> "Vec3Series":
        return Vec3Series(self.x.diff(), self.y.diff(), self.z.diff())

    def compose(self, u: UniSeries, v: UniSeries) -> "Vec3Series":
        """The surface map along the curve (u(x), v(x)): ``compose_bi`` of each component."""
        return Vec3Series(compose_bi(self.x, u, v), compose_bi(self.y, u, v), compose_bi(self.z, u, v))

    def constant_vector(self) -> tuple:
        """The coefficients of x^0 of an exact vector, read from its numerators."""
        return (self.x.coefficient(0), self.y.coefficient(0), self.z.coefficient(0))

    def constant_norm_sq(self) -> Fraction:
        """|v(0)|^2 of an exact vector: the numerators of x^0 over the lcm of the denominators, one ``Fraction``."""
        x, y, z = self.x, self.y, self.z
        d = math.lcm(x._den, y._den, z._den)
        nx, ny, nz = x._num[0] * (d // x._den), y._num[0] * (d // y._den), z._num[0] * (d // z._den)
        return Fraction(nx * nx + ny * ny + nz * nz, d * d)

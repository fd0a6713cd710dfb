"""Exact arithmetic over the Gaussian and Eisenstein integers.

Everything downstream (shell enumeration, the states, the
stabiliser-Renyi census) is built on the two rings implemented here, both
Z[u] with u^2 = T*u - 1 and one class, ``QuadraticInt``, for the rule:

* ``GaussianInt``   -- Z[i],     T = 0,  stored as (re, im)
* ``EisensteinInt`` -- Z[omega], T = -1, stored as (a, b) meaning
  a + b*omega, where omega = exp(2*pi*i/3), so omega**2 = -1 - omega.

The array forms of the same rule, for int64 coordinate arrays, are the
ring helpers of ``lattices`` (ring_mul, ring_conj, ring_matmul,
in_sector, square_norms), which read T from ``RINGS``; vectors are
canonicalised on those arrays (states.canonical_coords, states.ray_keys).
"""

from __future__ import annotations

from typing import TypeVar, Union

Q = TypeVar("Q", bound="QuadraticInt")


class QuadraticInt:
    """An element x + y*u of Z[u], where u^2 = T*u - 1.

    A subclass fixes the ring with class attributes: T, the trace of u
    (u + conj(u) = T and u*conj(u) = 1, so conj(u) = T - u); RING, the
    ring's name in the array code and the states (RINGS); SYMBOL, the
    letter that str() prints for u; and QUDIT, the local dimension of the
    register the ring's lattices give states of.  UNITS, the powers of u
    up to the first that is +-1 and their negatives, is derived from T
    (|T| < 2, so that u is a root of unity).  Elements of two rings are
    never equal, and +, - and * between them raise TypeError.
    """

    __slots__ = ("x", "y")
    T: int
    RING: str
    SYMBOL: str
    QUDIT: int
    UNITS: tuple["QuadraticInt", ...]

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        one, u = cls(1), cls(0, 1)
        powers = [one]
        while (power := powers[-1] * u) not in (one, -one):
            powers.append(power)
        cls.UNITS = (*powers, *(-p for p in powers))

    def __init__(self, x: int, y: int = 0) -> None:
        self.x = x
        self.y = y

    def __add__(self: Q, other: Q) -> Q:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__class__(self.x + other.x, self.y + other.y)

    def __sub__(self: Q, other: Q) -> Q:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__class__(self.x - other.x, self.y - other.y)

    def __neg__(self: Q) -> Q:
        return self.__class__(-self.x, -self.y)

    def __mul__(self: Q, other: Union[Q, int]) -> Q:
        if isinstance(other, int):
            return self.__class__(self.x * other, self.y * other)
        if other.__class__ is not self.__class__:
            return NotImplemented
        # (x + y u)(c + d u) = xc + (xd + yc) u + yd u^2,  u^2 = T u - 1
        x, y, c, d = self.x, self.y, other.x, other.y
        yd = y * d
        return self.__class__(x * c - yd, x * d + y * c + self.T * yd)

    def __rmul__(self: Q, other: int) -> Q:
        if not isinstance(other, int):
            return NotImplemented
        return self.__class__(self.x * other, self.y * other)

    def conjugate(self: Q) -> Q:
        # conj(x + y u) = x + y (T - u)
        return self.__class__(self.x + self.T * self.y, -self.y)

    def norm(self) -> int:
        """Field norm |z|^2 = z conj(z) = x^2 + T*x*y + y^2."""
        return self.x * self.x + self.T * self.x * self.y + self.y * self.y

    def in_sector(self) -> bool:
        """Whether z lies in the canonical sector y >= 0, x > -T*y, a
        half-open fundamental domain of the units on the nonzero
        elements: the quarter plane re > 0, im >= 0 over Z[i] and the
        sextant of angles [0, 60) degrees over Z[omega] (embedding
        a - b/2 + i*b*sqrt(3)/2).  Each unit orbit of a nonzero element
        has exactly one member there."""
        return self.y >= 0 and self.x > -self.T * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def coords(self) -> tuple[int, int]:
        return (self.x, self.y)

    def __eq__(self, other: object) -> bool:
        return (
            other.__class__ is self.__class__
            and self.x == other.x  # type: ignore[attr-defined]
            and self.y == other.y  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((self.T, self.x, self.y))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.x}, {self.y})"

    def __str__(self) -> str:
        return f"{self.x}{self.y:+d}{self.SYMBOL}"


class GaussianInt(QuadraticInt):
    """An element re + im*i of Z[i]: u = i, T = 0."""

    __slots__ = ()
    T, RING, SYMBOL, QUDIT = 0, "gaussian", "i", 2
    re, im = QuadraticInt.x, QuadraticInt.y


class EisensteinInt(QuadraticInt):
    """An element a + b*omega of Z[omega], omega = exp(2*pi*i/3): u =
    omega, T = -1."""

    __slots__ = ()
    T, RING, SYMBOL, QUDIT = -1, "eisenstein", "w", 3
    a, b = QuadraticInt.x, QuadraticInt.y


RingElement = TypeVar("RingElement", GaussianInt, EisensteinInt)

OMEGA = EisensteinInt(0, 1)
# theta = omega - omega^2 = 1 + 2 omega = i*sqrt(3); theta has norm 3 and
# theta generates the ramified prime above 3.
THETA = EisensteinInt(1, 2)

GAUSSIAN_UNITS: tuple[GaussianInt, ...] = GaussianInt.UNITS  # type: ignore[assignment]
EISENSTEIN_UNITS: tuple[EisensteinInt, ...] = EisensteinInt.UNITS  # type: ignore[assignment]

# each ring's class by its name, the ring of LatticeSpec, StateSet and
# PureStateExact
RINGS: dict[str, type[QuadraticInt]] = {cls.RING: cls for cls in (GaussianInt, EisensteinInt)}


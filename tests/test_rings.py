"""What the shared ring class decides for both rings, Z[u] with
u^2 = T*u - 1: the rule, the conjugate, the units, the sector, equality,
hashing and printing.

This module imports neither numpy nor pytest, so it also runs as a plain
script on an interpreter that has neither:

    PYTHONPATH=src python3 tests/test_rings.py
"""

import operator
from itertools import product

from magiclattice.exact import (
    EISENSTEIN_UNITS,
    GAUSSIAN_UNITS,
    RINGS,
    EisensteinInt,
    GaussianInt,
)

CLASSES = (GaussianInt, EisensteinInt)
BOX = range(-4, 5)  # small coordinates, every pair of them below


def test_each_ring_is_named_with_its_trace():
    assert RINGS == {"gaussian": GaussianInt, "eisenstein": EisensteinInt}
    assert (GaussianInt.T, EisensteinInt.T) == (0, -1)
    assert (GaussianInt.QUDIT, EisensteinInt.QUDIT) == (2, 3)


def test_the_generator_obeys_the_rule_and_conjugates_to_t_minus_u():
    for cls in CLASSES:
        u, one, t = cls(0, 1), cls(1), cls(cls.T)
        assert u * u == cls.T * u - one
        assert u.conjugate() == t - u
        assert u * u.conjugate() == one and u.norm() == 1


def test_products_conjugates_and_norms_follow_the_rule():
    for cls in CLASSES:
        for x, y, c, d in product(BOX, repeat=4):
            z, w = cls(x, y), cls(c, d)
            # expanded by hand with u^2 = T u - 1
            assert z * w == cls(x * c - y * d, x * d + y * c + cls.T * y * d)
            assert (z * w).conjugate() == z.conjugate() * w.conjugate()
            assert z * z.conjugate() == cls(z.norm())
            assert z.norm() == x * x + cls.T * x * y + y * y


def test_the_unit_tables():
    assert GAUSSIAN_UNITS == tuple(GaussianInt(*c) for c in ((1, 0), (0, 1), (-1, 0), (0, -1)))
    assert EISENSTEIN_UNITS == tuple(
        EisensteinInt(*c) for c in ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))
    )
    for cls in CLASSES:
        assert cls.UNITS is RINGS[cls.RING].UNITS
        assert all(unit.norm() == 1 for unit in cls.UNITS)
        assert {unit * other for unit in cls.UNITS for other in cls.UNITS} == set(cls.UNITS)


def test_every_nonzero_element_has_one_unit_image_in_the_sector():
    for cls in CLASSES:
        for x, y in product(BOX, repeat=2):
            z = cls(x, y)
            images = [unit * z for unit in cls.UNITS if (unit * z).in_sector()]
            assert len(images) == (0 if z.is_zero() else 1), z
            # the sector is a fundamental domain: each unit multiple of z
            # has that same one image there
            for unit in cls.UNITS:
                assert [w * unit * z for w in cls.UNITS if (w * unit * z).in_sector()] == images, z


def test_rings_never_compare_equal_and_equal_elements_hash_equal():
    assert GaussianInt(1, 2) != EisensteinInt(1, 2)
    assert EisensteinInt(1, 2) != GaussianInt(1, 2)
    assert GaussianInt(1, 0) != 1
    for cls in CLASSES:
        z = cls(3, -5)
        assert z == cls(3, -5) and hash(z) == hash(cls(3, -5))
        assert z != cls(-5, 3)
    assert len({GaussianInt(1, 2), EisensteinInt(1, 2), GaussianInt(1, 2)}) == 2


def test_arithmetic_across_rings_raises():
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((GaussianInt(1, 2), EisensteinInt(1, 2)), (EisensteinInt(1, 2), GaussianInt(1, 2))):
            try:
                op(left, right)
            except TypeError:
                continue
            raise AssertionError(f"{op.__name__}({left!r}, {right!r}) did not raise")


def test_repr_str_and_named_coordinates():
    assert repr(GaussianInt(1, 2)) == "GaussianInt(1, 2)"
    assert repr(EisensteinInt(1, -2)) == "EisensteinInt(1, -2)"
    assert str(GaussianInt(1, 2)) == "1+2i"
    assert str(EisensteinInt(1, -2)) == "1-2w"
    g, e = GaussianInt(3, -4), EisensteinInt(-5, 6)
    assert (g.re, g.im) == (3, -4) == g.coords()
    assert (e.a, e.b) == (-5, 6) == e.coords()


if __name__ == "__main__":
    tests = [test for name, test in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} ring checks passed")

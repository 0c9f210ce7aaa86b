import os
import random
import sys
from fractions import Fraction

import pytest

from crosscap import (
    FamilyMP,
    FamilyMPQ,
    UmbrellaCoefficients,
    analyze,
)

#: ``bench/`` on the path, so that tests can import the benchmark's recorded
#: input universe (``workloads``) read-only, as ``bench/tests`` does.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))


@pytest.fixture(scope="session")
def s1_coeffs():
    return UmbrellaCoefficients(degree=9, a={(0, 2): 2, (1, 1): 1}, b={})


@pytest.fixture(scope="session")
def s1_spec():
    return FamilyMP(m=1, p=2, c=(1,))


@pytest.fixture(scope="session")
def s2_coeffs():
    return UmbrellaCoefficients(degree=9, a={(0, 2): 1, (1, 1): 1}, b={3: -6})


@pytest.fixture(scope="session")
def s2_spec():
    return FamilyMP(m=1, p=2, c=(1, -2))


@pytest.fixture(scope="session")
def s3_coeffs():
    return UmbrellaCoefficients(degree=7, a={(0, 2): 2}, b={})


@pytest.fixture(scope="session")
def s3_spec():
    return FamilyMPQ(m=3, p=1, q=1, c=(1,))


@pytest.fixture(scope="session")
def s1(s1_coeffs, s1_spec):
    return analyze(s1_coeffs, s1_spec)


@pytest.fixture(scope="session")
def s2(s2_coeffs, s2_spec):
    return analyze(s2_coeffs, s2_spec)


@pytest.fixture(scope="session")
def s3(s3_coeffs, s3_spec):
    return analyze(s3_coeffs, s3_spec)


def rand_fraction(rng: random.Random, nonzero=False, span=3):
    while True:
        num = rng.randint(-span, span)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.choice((1, 2, 3)))


def random_surface(rng: random.Random, degree=6):
    return UmbrellaCoefficients(
        degree=degree,
        a={
            (0, 2): rand_fraction(rng, nonzero=True),
            (1, 1): rand_fraction(rng),
            (2, 0): rand_fraction(rng),
            (0, 3): rand_fraction(rng),
            (1, 2): rand_fraction(rng),
            (2, 1): rand_fraction(rng),
            (3, 0): rand_fraction(rng),
            (0, 4): rand_fraction(rng),
        },
        b={3: rand_fraction(rng), 4: rand_fraction(rng), 5: rand_fraction(rng)},
    )


def random_family(rng: random.Random):
    """A generic family curve, mixing both families and small parameters."""
    if rng.random() < 0.5:
        m = rng.choice((2, 3))
        return FamilyMPQ(
            m=m,
            p=rng.choice((1, 2, 3)),
            q=rng.randrange(1, m),
            c=(rand_fraction(rng, nonzero=True), rand_fraction(rng), rand_fraction(rng)),
        )
    return FamilyMP(
        m=rng.choice((1, 2)),
        p=rng.choice((2, 3, 4)),
        c=(rand_fraction(rng, nonzero=True), rand_fraction(rng), rand_fraction(rng)),
    )

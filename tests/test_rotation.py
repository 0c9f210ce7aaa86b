"""Metamorphic test: a rotation of space keeps every exact invariant.

The curvature numerators, the delta numerator R = (V x V') . N and the sigma
numerator S are built from dot and triple products of E_t, N and their
derivatives, which a proper rotation of the surface jet W leaves unchanged.
So the rotated analysis must find the same curvature degrees and tops, the
same order and top of R and the same sigma order, identical as Fractions.
The rotation is the rational Cayley transform (I - S)^{-1} (I + S) of a skew
matrix S, applied to the surface jet before any stage reads it; the rotated
jet is built with the ``BiSeries`` sum and product of ``tests/reference.py``.
"""

from fractions import Fraction

import pytest
import workloads  # the benchmark's dense jet universe (bench/ is put on the path by conftest)

from crosscap import analyze, parse_config
from crosscap.cli import fixture_text
from crosscap.model import build_umbrella
from crosscap.pipeline import lower_truncations
from crosscap.report import _complete
from crosscap.series import Vec3BiSeries, valuation
from reference import reference_bi_add, reference_bi_make, reference_bimul


def skew(a, b, c):
    return [[0, -c, b], [c, 0, -a], [-b, a, 0]]


def inverse(m):
    """The inverse of a 3x3 matrix of Fractions, by its adjugate."""
    (a, b, c), (d, e, f), (g, h, i) = m
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]
    return [[x / det for x in row] for row in adj]


def cayley(a, b, c):
    s = skew(Fraction(a), Fraction(b), Fraction(c))
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    minus = inverse([[eye[i][j] - s[i][j] for j in range(3)] for i in range(3)])
    plus = [[eye[i][j] + s[i][j] for j in range(3)] for i in range(3)]
    return [[sum(minus[i][k] * plus[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


ROTATION = cayley(Fraction(1, 2), Fraction(-2, 3), 3)


def test_the_cayley_transform_is_a_rotation():
    r = ROTATION
    for i in range(3):
        for j in range(3):
            assert sum(r[k][i] * r[k][j] for k in range(3)) == int(i == j)
    det = sum(r[0][j] * (r[1][(j + 1) % 3] * r[2][(j + 2) % 3] - r[1][(j + 2) % 3] * r[2][(j + 1) % 3]) for j in range(3))
    assert det == 1


def rotated(W: Vec3BiSeries) -> Vec3BiSeries:
    order = min(c.reliable_order for c in W.components)
    rows = []
    for row in ROTATION:
        acc = reference_bi_make({}, order)
        for r, comp in zip(row, W.components):
            acc = reference_bi_add(acc, reference_bimul(reference_bi_make({(0, 0): r}, order), comp))
        rows.append(acc)
    return Vec3BiSeries(*rows)


def invariants(a):
    d = a.developable
    r = valuation(d.delta)
    return (a.oracle.degrees, a.oracle.tops, r.order, r.leading, d.sigma_order)


def jets():
    texts = [fixture_text(name) for name in ("s1", "s2", "s3")]
    texts += [workloads.dense_config(shape, shape % workloads.DENSE_VARIANTS, "exact") for shape in range(16)]
    return texts


@pytest.mark.parametrize("text", jets(), ids=["s1", "s2", "s3"] + [f"dense-{i}" for i in range(16)])
def test_rotation_keeps_the_exact_invariants(text):
    cfg = parse_config(text)
    plain = analyze(cfg.coeffs, cfg.spec).climb(_complete, lower_truncations)
    turned = analyze(plain.coeffs, plain.spec)
    turned.W = rotated(build_umbrella(plain.coeffs))  # seeds the cached stage
    assert turned.image != plain.image  # the rotation moved the curve
    assert invariants(turned) == invariants(plain)

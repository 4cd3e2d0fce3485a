"""Planar linear algebra kit: directions mod pi, 2x2 matrices with
closed-form singular values, and factored rank-one maps.

Everything here is exact-formula numerics on scalars; the batch singular
values for large word enumerations live at the bottom and operate on
entry arrays, from which dimension.py builds the singular value function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

_WRAP_TOL = 1e-12


def unit_vector(angle: float) -> np.ndarray:
    """Unit vector (cos angle, sin angle)."""
    return np.array([math.cos(angle), math.sin(angle)])


@dataclass(frozen=True)
class LineDir:
    """Direction of an unoriented line through the origin.

    The angle is canonicalized to [0, pi); values within 1e-12 of pi wrap
    to 0 so that near-horizontal lines compare equal regardless of the
    side they were produced from.
    """

    angle: float

    def __post_init__(self):
        a = self.angle % math.pi
        if a >= math.pi - _WRAP_TOL:
            a = 0.0
        object.__setattr__(self, "angle", a)

    @classmethod
    def from_vector(cls, v) -> "LineDir":
        v = np.asarray(v, dtype=float)
        n = math.hypot(v[0], v[1])
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(math.atan2(v[1], v[0]))

    def unit(self) -> np.ndarray:
        return unit_vector(self.angle)


@dataclass(frozen=True)
class Mat2:
    """Dense 2x2 matrix stored as four scalars.

    Scalar storage keeps word-by-word compositions allocation-free and
    makes the closed-form singular values below trivially branch-exact.
    """

    a11: float
    a12: float
    a21: float
    a22: float

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diagonal(cls, d1: float, d2: float) -> "Mat2":
        return cls(d1, 0.0, 0.0, d2)

    @classmethod
    def scaled_rotation(cls, scale: float, angle: float) -> "Mat2":
        c, s = scale * math.cos(angle), scale * math.sin(angle)
        return cls(c, -s, s, c)

    @classmethod
    def from_array(cls, arr) -> "Mat2":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError("expected a 2x2 array")
        return cls(arr[0, 0], arr[0, 1], arr[1, 0], arr[1, 1])

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def singular_values(self) -> tuple:
        """(largest, smallest) singular value, closed form.

        Uses the rotation-split identities: with E,F the symmetric and
        H,G the antisymmetric combinations of the entries, the larger
        singular value is hypot(E,H) + hypot(F,G). The smaller one is
        |det| over the larger rather than their difference, which would
        cancel when it is much smaller.
        """
        e = (self.a11 + self.a22) / 2.0
        f = (self.a11 - self.a22) / 2.0
        g = (self.a21 + self.a12) / 2.0
        h = (self.a21 - self.a12) / 2.0
        a1 = math.hypot(e, h) + math.hypot(f, g)
        return a1, abs(self.det()) / a1 if a1 > 0.0 else 0.0

    def operator_norm(self) -> float:
        return self.singular_values()[0]

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.array(
            [self.a11 * v[0] + self.a12 * v[1], self.a21 * v[0] + self.a22 * v[1]]
        )

    def transpose(self) -> "Mat2":
        return Mat2(self.a11, self.a21, self.a12, self.a22)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )


@dataclass(frozen=True)
class RankOneFactor:
    """Rank-one map rho * v w^T kept in factored form.

    v and w are unit vectors given by their angles. Compositions with
    rank-one factors stay factored (see ifs.compose_linear), which keeps
    the conditional-norm formulas exact instead of reconstructing a
    nearly-singular dense matrix.
    """

    rho: float
    v_angle: float
    w_angle: float

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rank-one factor needs rho > 0")

    def v(self) -> np.ndarray:
        return unit_vector(self.v_angle)

    def w(self) -> np.ndarray:
        return unit_vector(self.w_angle)

    def as_mat2(self) -> Mat2:
        v, w = self.v(), self.w()
        return Mat2(
            self.rho * v[0] * w[0],
            self.rho * v[0] * w[1],
            self.rho * v[1] * w[0],
            self.rho * v[1] * w[1],
        )

    def singular_values(self) -> tuple:
        return self.rho, 0.0

    def operator_norm(self) -> float:
        return self.rho

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        w = self.w()
        return (self.rho * (w[0] * x[0] + w[1] * x[1])) * self.v()


Linear = Union[Mat2, RankOneFactor]


def image_dir(r: RankOneFactor) -> LineDir:
    """Direction of the image line of a rank-one map."""
    return LineDir(r.v_angle)


def singular_values(m: Linear) -> tuple:
    return m.singular_values()


def conditional_norm(m: Linear, line: LineDir) -> float:
    """Operator norm of m restricted to a line through the origin.

    Equals |m u| for the unit vector u of the line; for a factored
    rank-one map this reduces to rho * |<w, u>| without any cancellation.
    """
    u = line.unit()
    if isinstance(m, RankOneFactor):
        w = m.w()
        return m.rho * abs(w[0] * u[0] + w[1] * u[1])
    mu = m.apply(u)
    return math.hypot(mu[0], mu[1])


# --- batch variants ---------------------------------------------------------
#
# Word products in the dimension solvers come as four entry arrays; the
# formulas mirror the scalar ones entry for entry, with the determinants
# passed in (a word's is the product of its letters', accurate where the
# entries' a11 a22 - a12 a21 would cancel).


def batch_singular_values(a11, a12, a21, a22, dets) -> tuple:
    """Largest and smallest singular values of the 2x2 matrices with the
    given entry arrays and determinants.

    Two scratch arrays hold 2(e, h) and then 2(f, g), since doubling
    both arguments doubles a hypot exactly; the second one then holds
    a2, |dets| divided in place by a1. So a level costs three arrays
    beyond its input.
    """
    x = np.add(a11, a22)
    y = np.subtract(a21, a12)
    a1 = np.hypot(x, y)
    np.subtract(a11, a22, out=x)
    np.add(a21, a12, out=y)
    a1 += np.hypot(x, y, out=x)
    a1 *= 0.5
    a2 = np.abs(dets, out=y)
    # a1 = 0 only for a zero product, whose det is 0: the 0/0 becomes 0
    with np.errstate(invalid="ignore"):
        a2 /= a1
    a2[np.isnan(a2)] = 0.0
    return a1, a2

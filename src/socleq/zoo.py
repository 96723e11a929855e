"""The ring zoo: deterministic builders for the test rings the engine is
exercised on, each carrying the invariants it is expected to have.

Every entry knows its expected dimension, multiplicity, finite local
cohomology at level zero, and (where meaningful) depth; verify_expected
recomputes all of them through the engine, so the zoo can never assert a
number the engine does not reproduce.  Builders take the coefficient
field as a parameter so the same presentations run over the rationals
and over prime fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .dsl import RingFile, format_ring_file, parse_poly_list
from .errors import EngineError, InputError
from .field import QQ, Field
from .groebner import Ideal
from .localring import LocalRing
from .probes import depth_probe
from .ring import RingSpec


@dataclass(frozen=True)
class ZooEntry:
    ident: str
    local: LocalRing
    description: str
    expected: dict = dc_field(default_factory=dict)

    @property
    def ring(self) -> RingSpec:
        return self.local.ring

    def to_ring_text(self) -> str:
        return format_ring_file(RingFile(self.ring, self.local.defining.gens))

    def verify_expected(self, include_depth: bool = True) -> dict:
        """Recompute every expected invariant; raises on any mismatch.

        Returns the recomputed values.  Depth recomputation can be turned
        off by callers that only need the cheap invariants.
        """
        got: dict = {}
        exp = self.expected
        if "dim" in exp:
            got["dim"] = self.local.krull_dim()
        if "e" in exp:
            got["e"] = self.local.multiplicity()
        if "h0_length" in exp:
            got["h0_length"] = self.local.h0_length()
        if "h0_gens" in exp:
            W, _, _ = self.local.h0()
            want = self.local.ideal(exp["h0_gens"])
            verdict = self.local.check_equal(Ideal(self.ring, W.gens), want)
            got["h0_gens"] = exp["h0_gens"] if verdict.equal is True else tuple(
                str(g) for g in W.gens)
        if include_depth and "depth" in exp:
            got["depth"] = depth_probe(self.local)
        bad = {k: (exp[k], got[k]) for k in got if got[k] != exp[k]}
        if bad:
            raise EngineError(f"zoo entry {self.ident} failed self-check: {bad}")
        return got


def _entry(ident, description, field, names, defining, expected) -> ZooEntry:
    ring = RingSpec(field, names)
    gens = list(parse_poly_list(defining, ring)) if defining else []
    return ZooEntry(ident, LocalRing(ring, gens), description, expected)


# -- builders -----------------------------------------------------------------


def almost_dvr(field: Field = QQ) -> ZooEntry:
    """A line with an embedded point: k[X,Y]/(X^2, XY).

    Multiplicity one but not regular; the socle-square equality holds for
    a principal parameter exactly when the parameter avoids m^2.
    """
    return _entry("almost_dvr", "line with an embedded point, e = 1",
                  field, ["X", "Y"], "X^2, X*Y",
                  {"dim": 1, "e": 1, "h0_gens": "X", "h0_length": 1, "depth": 0})


def semigroup_curve(e: int, field: Field = QQ) -> ZooEntry:
    """A weighted curve singularity with an embedded point, one per e >= 3.

    Presented by the 2 by 2 minors of a 2 by e matrix of variables (the
    last entry wraps to X_1^2), with one distinguished minor multiplied
    into the maximal ideal instead of included outright.  The variables
    carry weights e, e+1, .., 2e-1, making everything homogeneous; the
    evaluation X_i -> t^{e+i-1} kills every generator, which is asserted
    at build time.
    """
    if e < 3:
        raise InputError("the family needs at least three variables")
    names = [f"X{i}" for i in range(1, e + 1)]
    weights = [e + i - 1 for i in range(1, e + 1)]
    ring = RingSpec(field, names, weights)
    x = list(ring.gens())
    top = x + [x[0] * x[0]]  # second matrix row, with the wrap-around entry

    def minor(i, j):
        # columns i and j of the matrix with rows (x_1..x_e), (x_2..x_e, x_1^2)
        return x[i - 1] * top[j] - top[i] * x[j - 1]

    gens = []
    for i in range(1, e + 1):
        for j in range(i + 1, e + 1):
            if (i, j) != (2, e):
                gens.append(minor(i, j))
    delta = minor(2, e)
    gens.extend(delta * v for v in x)

    for g in gens:
        if g.weighted_degree() is None:
            raise EngineError("family generator is not weighted homogeneous")
        by_wdeg: dict = {}
        for m, c in g.terms:
            w = ring.wdeg(m)
            by_wdeg[w] = field.add(by_wdeg.get(w, field.zero), c)
        if any(by_wdeg.values()):
            raise EngineError("family generator does not evaluate to zero "
                              "under X_i -> t^{e+i-1}")

    expected = {"dim": 1, "e": e, "h0_gens": str(delta), "h0_length": 1,
                "depth": 0}
    return ZooEntry(f"semigroup{e}", LocalRing(ring, gens),
                    f"weighted semigroup curve with an embedded point, e = {e}",
                    expected)


def plane_line(l: int, field: Field = QQ) -> ZooEntry:
    """A plane glued to a transverse line along a thickened point:
    k[X,Y,Z]/(X^l Y, X^l Z) = k[X,Y,Z] / ((X^l) cap (Y,Z))."""
    if l < 1:
        raise InputError("the thickening exponent must be at least 1")
    return _entry(f"plane_line{l}",
                  f"plane glued to a line across an order-{l} thickening",
                  field, ["X", "Y", "Z"], f"X^{l}*Y, X^{l}*Z",
                  {"dim": 2, "e": l, "h0_length": 0, "depth": 1})


def triple_line(field: Field = QQ) -> ZooEntry:
    """A multiplicity-three line with a nilpotent: k[X,Y,Z]/(X^3, XY, Y^2-XZ)."""
    return _entry("triple_line", "thickened line of multiplicity three",
                  field, ["X", "Y", "Z"], "X^3, X*Y, Y^2 - X*Z",
                  {"dim": 1, "e": 3, "h0_gens": "X^2", "h0_length": 1,
                   "depth": 0})


def two_planes(field: Field = QQ) -> ZooEntry:
    """Two planes meeting in a point: k[X,Y,Z,W]/((X,Y) cap (Z,W))."""
    return _entry("two_planes", "two planes meeting in one point",
                  field, ["X", "Y", "Z", "W"], "X*Z, X*W, Y*Z, Y*W",
                  {"dim": 2, "e": 2, "h0_length": 0, "depth": 1})


def plane_embedded_point(field: Field = QQ) -> ZooEntry:
    """A plane with an embedded point: k[X,Y,Z]/(X^2, XY, XZ)."""
    return _entry("plane_embedded_point", "plane with an embedded point",
                  field, ["X", "Y", "Z"], "X^2, X*Y, X*Z",
                  {"dim": 2, "e": 1, "h0_gens": "X", "h0_length": 1,
                   "depth": 0})


def quadric_cone(field: Field = QQ) -> ZooEntry:
    """The quadric cone k[X,Y,Z]/(XY - Z^2): two-dimensional, depth two."""
    return _entry("quadric_cone", "quadric cone, multiplicity two",
                  field, ["X", "Y", "Z"], "X*Y - Z^2",
                  {"dim": 2, "e": 2, "h0_length": 0, "depth": 2})


def regular(d: int, field: Field = QQ) -> ZooEntry:
    """A regular local ring of dimension d (no defining relations)."""
    if not 1 <= d <= 6:
        raise InputError("regular builders cover dimensions 1 through 6")
    names = ["X", "Y", "Z", "U", "V", "W"][:d]
    return _entry(f"regular{d}", f"regular local ring of dimension {d}",
                  field, names, "",
                  {"dim": d, "e": 1, "h0_length": 0, "depth": d})


BUILDERS = {
    "almost_dvr": almost_dvr,
    "semigroup3": lambda field=QQ: semigroup_curve(3, field),
    "semigroup4": lambda field=QQ: semigroup_curve(4, field),
    "semigroup5": lambda field=QQ: semigroup_curve(5, field),
    "plane_line1": lambda field=QQ: plane_line(1, field),
    "plane_line2": lambda field=QQ: plane_line(2, field),
    "plane_line3": lambda field=QQ: plane_line(3, field),
    "triple_line": triple_line,
    "two_planes": two_planes,
    "plane_embedded_point": plane_embedded_point,
    "quadric_cone": quadric_cone,
    "regular1": lambda field=QQ: regular(1, field),
    "regular2": lambda field=QQ: regular(2, field),
    "regular3": lambda field=QQ: regular(3, field),
}


def build(ident: str, field: Field = QQ) -> ZooEntry:
    try:
        builder = BUILDERS[ident]
    except KeyError:
        known = ", ".join(sorted(BUILDERS))
        raise InputError(f"unknown zoo ring {ident!r}; known: {known}") from None
    return builder(field)


def idents() -> list:
    return sorted(BUILDERS)

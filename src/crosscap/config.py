"""Run configuration: JSON in, validated model objects out.

Rationals travel as strings ("3", "-1/2") or integers so that nothing is
mangled through floats; numerator and denominator have at most
``MAX_RATIONAL_DIGITS`` decimal digits each, and so has every integer
setting and every index.  An index key has one spelling: ``0`` or ASCII
digits without a leading zero, and an ``a`` key is two of them as ``i,j``.
Unknown keys and a key given twice in one object are rejected; every
violation found is reported, not just the first.  ``field`` is the print
mode of ``report``, the string ``"exact"`` or ``"float"``; the analysis is
exact in both.  A curve is parsed into its spec, whose fields are exact
coefficient tuples (a general curve's ``c1`` and ``c2`` too), and the
config echo prints them back as given; no series is built here.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .series import CrosscapError, SignedRoot
from .model import (
    CurveSpec,
    FamilyMP,
    FamilyMPQ,
    GeneralCurve,
    ModelError,
    UmbrellaCoefficients,
    series_order,
)


class ConfigError(CrosscapError):
    """One or more validation problems; ``problems`` lists all of them.

    The message is one line, ``invalid configuration: <p1>; <p2>``, like
    every other error the CLI prints.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))


#: Cost budget of one configuration, not an option.  Products and
#: compositions are quadratic in the series order m (truncation + 1) - 1, and
#: the surface has about truncation^2 / 2 terms.  At the cap a report of a
#: dense exact jet takes about 16 s with m = 1 (truncation 200) and 1.4 s
#: with m = 3 (truncation 66) on a 2-core x86_64 host.  A curve's coefficient
#: list (``c``, ``c1``, ``c2``) holds at most MAX_SERIES_ORDER + 1 entries: one
#: past index MAX_SERIES_ORDER can never reach a series.
MAX_SERIES_ORDER = 200
#: Most decimal digits of the numerator and of the denominator of an input
#: rational, and of an integer setting or an index, so that a product of two
#: of them that a problem names still prints within Python's 4300-digit
#: ``int``/``str`` limit.  With 100-digit p/q coefficients a dense report
#: (truncation 8-16) takes 0.1 s on average, not 0.003 s, and prints integers
#: of up to 697 digits; at 1000 digits a top-term passes that limit.
MAX_RATIONAL_DIGITS = 100
#: Largest vertex count of one exported mesh: nu * nv for the umbrella,
#: nx * ny for the developable and curve_samples for the curve polyline.  At
#: the cap one OBJ file is about 17.5 MB.
MAX_MESH_VERTICES = 250_000

_TOP_KEYS = {"truncation", "surface", "curve", "field", "description", "mesh"}
_SURFACE_KEYS = {"a", "b"}
#: The curve families by their ``family`` tag; a family's keys are its fields.
_CURVE_FAMILIES = {"mpq": FamilyMPQ, "mp": FamilyMP, "general": GeneralCurve}
_CURVE_KEYS = ("family",) + tuple(dict.fromkeys(name for cls in _CURVE_FAMILIES.values() for name in cls._fields))


class MeshOptions(NamedTuple):
    """The ``mesh`` keys with their defaults: [lo, hi] windows and resolutions >= 2."""

    x_range: tuple = (-0.3, 0.3)
    y_range: tuple = (-0.3, 0.3)
    nx: int = 41
    ny: int = 21
    u_range: tuple = (-0.35, 0.35)
    v_range: tuple = (-0.35, 0.35)
    nu: int = 41
    nv: int = 41
    curve_samples: int = 81


class RunConfig(NamedTuple):
    coeffs: UmbrellaCoefficients  # its degree is the configured truncation
    spec: CurveSpec
    field: str = "exact"  # the print mode of ``report``: "exact" or "float"
    description: str | None = None
    mesh: MeshOptions | None = None


_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")
_INDEX = f"0|[1-9][0-9]{{0,{MAX_RATIONAL_DIGITS - 1}}}"
_A_KEY = re.compile(f"({_INDEX}),({_INDEX})")
_B_KEY = re.compile(_INDEX)


def parse_rational(value, where: str, problems) -> Fraction | None:
    """An integer, or a string "p", "-p", "p/q" or "-p/q" of decimal digits.

    A refused value adds its problem and gives None, so that no check of the
    model runs on a value that was never read.
    """
    text = str(value) if isinstance(value, int) and not isinstance(value, bool) else value
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        problems.append(
            f"{where}: malformed rational {value!r}; rationals must be integers or strings like '-3' or '1/2'"
        )
    elif max(len(match[2]), len(match[3] or "")) > MAX_RATIONAL_DIGITS:
        problems.append(f"{where}: numerator or denominator has more than {MAX_RATIONAL_DIGITS} digits")
    elif match[3] is not None and int(match[3]) == 0:
        problems.append(f"{where}: zero denominator in {value!r}")
    else:
        return Fraction(int(match[1] + match[2]), int(match[3] or 1))
    return None


def _integer(value, minimum: int, where: str, rule: str, problems) -> int | None:
    """``value`` when it is an integer >= ``minimum`` of at most ``MAX_RATIONAL_DIGITS`` digits.

    Otherwise the problem ``where: rule``, or the digit cap, is added and
    the result is None.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        problems.append(f"{where}: {rule}")
    elif value >= 10**MAX_RATIONAL_DIGITS:
        problems.append(f"{where}: integer has more than {MAX_RATIONAL_DIGITS} digits")
    else:
        return value
    return None


def _check_keys(obj: dict, allowed, where: str, problems) -> None:
    for key in obj:
        if key not in allowed:
            problems.append(f"{where}: unknown key {key!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    A key given twice in one object is a problem.  It is reported with every
    problem that ``config_from_dict`` finds in the document as JSON reads
    it, keeping the last value of each key.
    """
    duplicates: list = []

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                duplicates.append(f"duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    # A JSONDecodeError, an integer past Python's digit limit, or arrays and
    # objects nested deeper than the decoder recurses.
    except (ValueError, RecursionError) as exc:
        raise ConfigError([f"not valid JSON: {exc}"])
    try:
        cfg = config_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(duplicates + exc.problems) from None
    if duplicates:
        raise ConfigError(duplicates)
    return cfg


def config_from_dict(doc) -> RunConfig:
    problems: list = []
    if not isinstance(doc, dict):
        raise ConfigError(["top-level document must be a JSON object"])
    _check_keys(doc, _TOP_KEYS, "top level", problems)

    rule = "required integer >= 3"
    truncation = _integer(doc.get("truncation"), 3, "truncation", rule, problems)

    coeffs = _parse_surface(doc.get("surface"), problems, truncation)
    spec = _parse_curve(doc.get("curve"), problems, truncation)

    field = doc.get("field", "exact")
    if field not in ("exact", "float"):
        problems.append("field: must be 'exact' or 'float'")

    description = doc.get("description")
    if description is not None and not isinstance(description, str):
        problems.append("description: must be a string")

    mesh = _parse_mesh(doc.get("mesh"), problems)

    if problems:
        raise ConfigError(problems)
    return RunConfig(coeffs=coeffs, spec=spec, field=field, description=description, mesh=mesh)


def _parse_surface(surface, problems, truncation: int | None) -> UmbrellaCoefficients | None:
    """The surface jet; a refused truncation (None) bounds no index from above."""
    if not isinstance(surface, dict):
        problems.append("surface: required object with 'a' (and optional 'b') maps")
        return None
    _check_keys(surface, _SURFACE_KEYS, "surface", problems)
    a = {}
    raw_a = surface.get("a", {})
    if not isinstance(raw_a, dict):
        problems.append("surface.a: must be an object keyed by 'i,j'")
        raw_a = {}
    for key, value in raw_a.items():
        match = _A_KEY.fullmatch(key) if isinstance(key, str) else None
        if match is None:
            problems.append(f"surface.a: bad index key {key!r} (expected 'i,j')")
            continue
        a[(int(match[1]), int(match[2]))] = parse_rational(value, f"surface.a[{key}]", problems)
    b = {}
    raw_b = surface.get("b", {})
    if not isinstance(raw_b, dict):
        problems.append("surface.b: must be an object keyed by the index i")
        raw_b = {}
    for key, value in raw_b.items():
        if not (isinstance(key, str) and _B_KEY.fullmatch(key)):
            problems.append(f"surface.b: bad index key {key!r}")
            continue
        b[int(key)] = parse_rational(value, f"surface.b[{key}]", problems)
    # An identity test: ``None in`` would compare every Fraction with None.
    if any(value is None for value in (*a.values(), *b.values())):
        return None
    try:
        return UmbrellaCoefficients(degree=truncation or max([3, *map(sum, a), *b]), a=a, b=b)
    except ModelError as exc:
        problems.extend(f"surface: {problem}" for problem in exc.problems)
        return None


def _parse_curve(curve, problems, truncation: int | None) -> CurveSpec | None:
    """The curve spec; its series order is capped only under an accepted truncation."""
    if not isinstance(curve, dict):
        problems.append("curve: required object with a 'family' tag")
        return None
    _check_keys(curve, _CURVE_KEYS, "curve", problems)
    family = curve.get("family")
    if not isinstance(family, str) or family not in _CURVE_FAMILIES:
        problems.append("curve.family: must be 'mpq', 'mp' or 'general'")
        return None
    cls = _CURVE_FAMILIES[family]
    for key in _CURVE_KEYS[1:]:
        if key in curve and key not in cls._fields:
            problems.append(f"curve.{key}: not a family {family!r} key")
    # The least value of each integer field.  A refused integer reads as its
    # least value, so that the rest of the spec is still checked.
    least = {"m": 2, "p": 1, "q": 1} if family == "mpq" else {"m": 1, "p": 2}
    fields = {}
    for name in cls._fields:
        raw = curve.get(name)
        if name in least:
            rule = f"required integer >= {least[name]}"
            fields[name] = _integer(raw, least[name], f"curve.{name}", rule, problems) or least[name]
        elif not (isinstance(raw, list) and raw):
            problems.append(f"curve.{name}: required nonempty list of rationals")
            fields[name] = (None,)
        elif len(raw) > MAX_SERIES_ORDER + 1:
            problems.append(f"curve.{name}: more than {MAX_SERIES_ORDER + 1} entries")
            fields[name] = (None,)
        else:
            fields[name] = tuple(parse_rational(v, f"curve.{name}[{i}]", problems) for i, v in enumerate(raw))
    if any(None in v for v in fields.values() if type(v) is tuple):
        return None
    try:
        spec = cls(**fields)
    except ModelError as exc:
        problems.append(f"curve: {exc}")
        return None
    order = series_order(spec.m, truncation) if truncation is not None else 0
    if order > MAX_SERIES_ORDER:
        problems.append(f"curve: series order m (truncation + 1) - 1 = {order} exceeds {MAX_SERIES_ORDER}")
        return None
    return spec


def _parse_mesh(mesh, problems) -> MeshOptions | None:
    if mesh is None:
        return None
    if not isinstance(mesh, dict):
        problems.append("mesh: must be an object")
        return None
    defaults = MeshOptions._field_defaults
    _check_keys(mesh, defaults, "mesh", problems)
    kwargs = {}
    for name, default in defaults.items():
        if name not in mesh:
            continue
        raw = mesh[name]
        if isinstance(default, tuple):
            if (
                not isinstance(raw, list)
                or len(raw) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
                or not all(abs(v) <= sys.float_info.max for v in raw)  # finite, ints included
                or not raw[0] < raw[1]
            ):
                problems.append(f"mesh.{name}: must be [lo, hi] with finite lo < hi")
            else:
                kwargs[name] = (float(raw[0]), float(raw[1]))
        elif _integer(raw, 2, f"mesh.{name}", "must be an integer >= 2", problems) is not None:
            kwargs[name] = raw
    mesh = MeshOptions(**kwargs)
    for name, vertices in (
        ("nu * nv", mesh.nu * mesh.nv),
        ("nx * ny", mesh.nx * mesh.ny),
        ("curve_samples", mesh.curve_samples),
    ):
        if vertices > MAX_MESH_VERTICES:
            problems.append(f"mesh: {name} = {vertices} vertices exceed {MAX_MESH_VERTICES}")
    return mesh


# ---------------------------------------------------------------------------
# Serialization (round-trip partner of parse_config)
# ---------------------------------------------------------------------------


def json_value(value, omit=frozenset(), rational=str):
    """``value`` as JSON data, with the field names of ``omit`` left out at any depth.

    A ``SignedRoot`` becomes its float in either field (the one place that
    rounds it), a record (a ``NamedTuple``) an object of its fields in
    declaration order, any other tuple a list and a Fraction
    ``rational(value)``: its "p/q" string by default, or its float; other
    values pass through.  A record is a tuple, so it is told apart by its
    ``_fields`` before the tuple branch.
    """
    if type(value) is SignedRoot:
        return float(value)
    if isinstance(value, tuple):
        names = getattr(value, "_fields", None)
        if names is not None:
            return {name: json_value(v, omit, rational) for name, v in zip(names, value) if name not in omit}
        return [json_value(v, omit, rational) for v in value]
    if type(value) is Fraction:
        return rational(value)
    return value


def config_to_dict(cfg: RunConfig) -> dict:
    doc: dict = {"truncation": cfg.coeffs.degree}
    surface: dict = {"a": {}, "b": {}}
    for (i, j), value in sorted(cfg.coeffs.a.items()):
        surface["a"][f"{i},{j}"] = str(value)
    for i, value in sorted(cfg.coeffs.b.items()):
        surface["b"][str(i)] = str(value)
    doc["surface"] = surface
    family = next(tag for tag, cls in _CURVE_FAMILIES.items() if isinstance(cfg.spec, cls))
    doc["curve"] = {"family": family, **json_value(cfg.spec)}
    doc["field"] = cfg.field
    if cfg.description is not None:
        doc["description"] = cfg.description
    if cfg.mesh is not None:
        doc["mesh"] = json_value(cfg.mesh)
    return doc

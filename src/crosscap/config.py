"""Run configuration: JSON in, validated model objects out.

Rationals travel as strings ("3", "-1/2") or integers so that nothing is
mangled through floats.  Unknown keys are rejected; every violation found is
reported, not just the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

from .series import Field, UniSeries
from .model import (
    CurveSpec,
    FamilyMP,
    FamilyMPQ,
    GeneralCurve,
    ModelError,
    UmbrellaCoefficients,
)


class ConfigError(ValueError):
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
#: with m = 3 (truncation 66) on a 2-core x86_64 host.
MAX_SERIES_ORDER = 200
#: Largest vertex count of one exported mesh: nu * nv for the umbrella,
#: nx * ny for the developable and curve_samples for the curve polyline.  At
#: the cap one OBJ file is about 12 MB.
MAX_MESH_VERTICES = 250_000

_TOP_KEYS = {"truncation", "surface", "curve", "field", "description", "mesh"}
_SURFACE_KEYS = {"a", "b"}
#: The curve families by their ``family`` tag; a family's keys are its fields.
_CURVE_FAMILIES = {"mpq": FamilyMPQ, "mp": FamilyMP, "general": GeneralCurve}
_CURVE_KEYS = ("family",) + tuple(
    dict.fromkeys(f.name for cls in _CURVE_FAMILIES.values() for f in fields(cls))
)


@dataclass(frozen=True)
class MeshOptions:
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


@dataclass(frozen=True)
class RunConfig:
    coeffs: UmbrellaCoefficients  # its degree is the configured truncation
    spec: CurveSpec
    field: Field = Field.EXACT
    description: str | None = None
    mesh: MeshOptions | None = None


def parse_rational(value, where: str, problems) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        problems.append(f"{where}: rationals must be integers or strings, got {value!r}")
        return Fraction(0)
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        problems.append(f"{where}: malformed rational {value!r}")
        return Fraction(0)


def _check_keys(obj: dict, allowed, where: str, problems) -> None:
    for key in obj:
        if key not in allowed:
            problems.append(f"{where}: unknown key {key!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"])
    return config_from_dict(doc)


def config_from_dict(doc) -> RunConfig:
    problems: list = []
    if not isinstance(doc, dict):
        raise ConfigError(["top-level document must be a JSON object"])
    _check_keys(doc, _TOP_KEYS, "top level", problems)

    truncation = doc.get("truncation")
    if not isinstance(truncation, int) or isinstance(truncation, bool) or truncation < 3:
        problems.append("truncation: required integer >= 3")
        truncation = 3

    coeffs = _parse_surface(doc.get("surface"), problems, truncation)
    spec = _parse_curve(doc.get("curve"), problems, truncation)

    field = Field.EXACT
    raw_field = doc.get("field", "exact")
    if raw_field not in ("exact", "float"):
        problems.append("field: must be 'exact' or 'float'")
    elif raw_field == "float":
        field = Field.FLOAT

    description = doc.get("description")
    if description is not None and not isinstance(description, str):
        problems.append("description: must be a string")

    mesh = _parse_mesh(doc.get("mesh"), problems)

    if problems:
        raise ConfigError(problems)
    return RunConfig(coeffs=coeffs, spec=spec, field=field, description=description, mesh=mesh)


def _parse_surface(surface, problems, truncation) -> UmbrellaCoefficients | None:
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
        try:
            i, j = (int(part) for part in key.split(","))
        except (ValueError, AttributeError):
            problems.append(f"surface.a: bad index key {key!r} (expected 'i,j')")
            continue
        a[(i, j)] = parse_rational(value, f"surface.a[{key}]", problems)
    b = {}
    raw_b = surface.get("b", {})
    if not isinstance(raw_b, dict):
        problems.append("surface.b: must be an object keyed by the index i")
        raw_b = {}
    for key, value in raw_b.items():
        try:
            i = int(key)
        except ValueError:
            problems.append(f"surface.b: bad index key {key!r}")
            continue
        b[i] = parse_rational(value, f"surface.b[{key}]", problems)
    try:
        return UmbrellaCoefficients(degree=truncation, a=a, b=b)
    except ModelError as exc:
        problems.append(f"surface: {exc}")
        return None


def _parse_curve(curve, problems, truncation: int) -> CurveSpec | None:
    if not isinstance(curve, dict):
        problems.append("curve: required object with a 'family' tag")
        return None
    _check_keys(curve, _CURVE_KEYS, "curve", problems)
    family = curve.get("family")
    if family not in _CURVE_FAMILIES:
        problems.append("curve.family: must be 'mpq', 'mp' or 'general'")
        return None
    own_keys = {f.name for f in fields(_CURVE_FAMILIES[family])}
    for key in _CURVE_KEYS[1:]:
        if key in curve and key not in own_keys:
            problems.append(f"curve.{key}: not a family {family!r} key")

    def _int(name, minimum):
        value = curve.get(name)
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            problems.append(f"curve.{name}: required integer >= {minimum}")
            return minimum
        return value

    def _coeff_list(name):
        raw = curve.get(name)
        if not isinstance(raw, list) or not raw:
            problems.append(f"curve.{name}: required nonempty list of rationals")
            return (Fraction(1),)
        return tuple(parse_rational(v, f"curve.{name}[{i}]", problems) for i, v in enumerate(raw))

    def _within_budget(m) -> bool:
        order = m * (truncation + 1) - 1
        if order > MAX_SERIES_ORDER:
            problems.append(
                f"curve: series order m (truncation + 1) - 1 = {order} exceeds {MAX_SERIES_ORDER}"
            )
        return order <= MAX_SERIES_ORDER

    try:
        if family in ("mpq", "mp"):
            if family == "mpq":
                spec = FamilyMPQ(m=_int("m", 2), p=_int("p", 1), q=_int("q", 1), c=_coeff_list("c"))
            else:
                spec = FamilyMP(m=_int("m", 1), p=_int("p", 2), c=_coeff_list("c"))
            return spec if _within_budget(spec.m) else None
        c1 = _coeff_list("c1")
        c2 = _coeff_list("c2")
        # Config-sourced components are exact polynomials: pad them to the
        # reliability the surface truncation supports, m_min (k + 1) - 1.
        vals = [next((i for i, v in enumerate(cs) if v != 0), None) for cs in (c1, c2)]
        m_min = min((v for v in vals if v is not None and v > 0), default=None)
        if m_min is None:
            problems.append("curve: components must vanish at 0 with a nonzero jet")
            return None
        if not _within_budget(m_min):
            return None
        order = m_min * (truncation + 1) - 1
        return GeneralCurve(
            c1=UniSeries.make(Field.EXACT, c1, order),
            c2=UniSeries.make(Field.EXACT, c2, order),
        )
    except ModelError as exc:
        problems.append(f"curve: {exc}")
        return None


def _parse_mesh(mesh, problems) -> MeshOptions | None:
    if mesh is None:
        return None
    if not isinstance(mesh, dict):
        problems.append("mesh: must be an object")
        return None
    options = fields(MeshOptions)
    _check_keys(mesh, {f.name for f in options}, "mesh", problems)
    kwargs = {}
    for f in options:
        if f.name not in mesh:
            continue
        raw = mesh[f.name]
        if isinstance(f.default, tuple):
            if (
                not isinstance(raw, list)
                or len(raw) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
                or not raw[0] < raw[1]
            ):
                problems.append(f"mesh.{f.name}: must be [lo, hi] with lo < hi")
            else:
                kwargs[f.name] = (float(raw[0]), float(raw[1]))
        elif not isinstance(raw, int) or isinstance(raw, bool) or raw < 2:
            problems.append(f"mesh.{f.name}: must be an integer >= 2")
        else:
            kwargs[f.name] = raw
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


def json_value(value, omit=frozenset()):
    """``value`` as JSON data, with the field names of ``omit`` left out at any depth.

    A dataclass becomes an object of its fields in declaration order, a
    series the list of its coefficients, a tuple a list and a Fraction its
    "p/q" string; other values pass through.
    """
    if isinstance(value, UniSeries):
        value = value.coeffs
    if is_dataclass(value):
        return {
            f.name: json_value(getattr(value, f.name), omit)
            for f in fields(value)
            if f.name not in omit
        }
    if isinstance(value, tuple):
        return [json_value(v, omit) for v in value]
    if isinstance(value, Fraction):
        return str(value)
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
    doc["field"] = cfg.field.value
    if cfg.description is not None:
        doc["description"] = cfg.description
    if cfg.mesh is not None:
        doc["mesh"] = json_value(cfg.mesh)
    return doc

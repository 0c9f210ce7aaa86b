"""The record contract: results are ``NamedTuple``s, values are slotted classes.

Every result record of ``src/crosscap`` is a ``typing.NamedTuple``: it is
immutable, compares by value (as a tuple, so it equals a plain tuple of the
same values) and ``config.json_value`` prints its fields in declaration
order.  The series, the vectors of series and ``SignedRoot`` are slotted
``series._Frozen`` classes, whose equality, hash and repr ``_Frozen``
derives from each class's ``_fields``.  No module imports ``dataclasses``, whose class
set-up ran generated code for every record at import.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import crosscap
from crosscap.config import json_value
from crosscap.series import (
    BiSeries,
    FloatSeries,
    SignedRoot,
    UniSeries,
    Vec3Series,
    _Frozen,
)

SRC = crosscap.__path__[0]
MODULES = [importlib.import_module(f"crosscap.{info.name}") for info in pkgutil.iter_modules(crosscap.__path__)]


def _classes(test) -> list:
    return sorted(
        {
            value
            for module in MODULES
            for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module.__name__ and test(value)
        },
        key=lambda cls: cls.__qualname__,
    )


RECORDS = _classes(lambda cls: issubclass(cls, tuple) and hasattr(cls, "_fields"))
VALUES = _classes(lambda cls: issubclass(cls, _Frozen) and cls is not _Frozen)


def test_no_module_imports_dataclasses():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    assert all(alias.name != "dataclasses" for alias in node.names), name
                elif isinstance(node, ast.ImportFrom):
                    assert node.module != "dataclasses", name


def test_the_cli_import_loads_no_dataclasses_inspect_or_resources():
    # ``cli`` imports ``importlib.resources`` only to read a fixture.
    unwanted = {"dataclasses", "inspect", "importlib.resources"}
    code = f"import sys, crosscap.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_records_and_values_are_the_expected_ones():
    assert len(RECORDS) == 23 and len(VALUES) == 5
    names = {"UniSeries", "FloatSeries", "BiSeries", "Vec3Series", "SignedRoot"}
    assert {cls.__name__ for cls in VALUES} == names
    assert {type(a) for a, _, _ in CASES.values()} == set(VALUES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_immutable_and_compares_by_value(cls):
    values = [object() for _ in cls._fields]
    record = cls._make(values)  # no validation: the contract of the type, not of its checks
    assert "__dict__" not in dir(record)
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record == cls._make(list(values)) == tuple(values)
    assert record != cls._make(values[:-1] + [object()])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_json_value_prints_a_records_fields_in_declaration_order(cls):
    n = len(cls._fields)
    record = cls._make(range(n))
    assert json_value(record) == dict(zip(cls._fields, range(n)))
    assert list(json_value(record)) == list(cls._fields)
    assert list(json_value(record, omit={cls._fields[0]})) == list(cls._fields[1:])
    # A record nested in a plain tuple is still an object; the tuple a list.
    assert json_value((record, Fraction(1, 2))) == [json_value(record), "1/2"]


def test_json_value_prints_a_signed_root_as_its_float():
    assert json_value(SignedRoot(-1, Fraction(1, 4))) == -0.5
    assert json_value((SignedRoot(0, Fraction(0)),)) == [0.0]


def _two_of_each() -> dict:
    """Two separately built, equal instances of every kind of value, and one that differs."""

    def uni(*cs):
        return UniSeries.make(cs, 3)

    def bi(n):
        return BiSeries.from_numerators({(1, 0): n, (0, 2): 3}, 2, 2)

    def vec(k):
        return Vec3Series(uni(0, 1), uni(0, 0, k), uni(1))

    def bivec(n):
        return Vec3Series(bi(1), bi(n), bi(1))

    floats = FloatSeries((1.0,), 0)
    return {
        "UniSeries": (uni(1, 2), uni(1, 2), uni(1, 3)),
        "BiSeries": (bi(1), bi(1), bi(5)),
        "Vec3Series": (vec(2), vec(2), vec(3)),
        # The surface map: a vector of bivariate series.
        "Vec3Series-of-BiSeries": (bivec(1), bivec(1), bivec(5)),
        "SignedRoot": (SignedRoot(1, Fraction(2, 3)), SignedRoot(1, Fraction(4, 6)), SignedRoot(-1, Fraction(2, 3))),
        # A float working series is compared by identity, as it always was.
        "FloatSeries": (floats, floats, FloatSeries((1.0,), 0)),
    }


CASES = _two_of_each()


@pytest.mark.parametrize("case", CASES)
def test_a_value_is_immutable_and_compares_by_value(case):
    a, b, other = CASES[case]
    assert not isinstance(a, tuple) and "__dict__" not in dir(a)
    for name in ("x", "sign", "reliable_order", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        del a.reliable_order
    assert a == b and not a != b
    assert a != other
    if "BiSeries" in case:  # a surface jet holds a dict: unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == repr(b)


def test_a_series_compares_and_hashes_without_building_its_coefficients():
    a, b = UniSeries.make([1, 2], 3), UniSeries.make([Fraction(2, 2), 2], 3)
    assert a == b and hash(a) == hash(b)
    assert not hasattr(a, "_coeffs") and not hasattr(b, "_coeffs")


def test_value_reprs_name_their_fields():
    assert repr(SignedRoot(1, Fraction(1, 2))) == "SignedRoot(sign=1, square=Fraction(1, 2))"
    assert repr(Vec3Series(*[UniSeries.make([1], 0)] * 3)) == (
        "Vec3Series(x=UniSeries(coeffs=(Fraction(1, 1),), reliable_order=0), "
        "y=UniSeries(coeffs=(Fraction(1, 1),), reliable_order=0), "
        "z=UniSeries(coeffs=(Fraction(1, 1),), reliable_order=0))"
    )
    assert repr(BiSeries.from_numerators({(1, 0): 2, (0, 1): 3}, 4, 1)) == (
        "BiSeries(_num={(1, 0): 2, (0, 1): 3}, _den=4, reliable_order=1)"
    )


def test_a_vector_is_not_a_tuple_so_its_arithmetic_is_its_own():
    v = Vec3Series(*(UniSeries.make([0, 1], 1),) * 3)
    assert v - v == Vec3Series(*(UniSeries.make([0, 0], 1),) * 3)
    with pytest.raises(TypeError):
        v + v  # no concatenation
    with pytest.raises(TypeError):
        2 * v

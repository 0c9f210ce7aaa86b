"""Every function defined in ``src/crosscap`` is entered by the program's own runs.

Code that only the tests reach belongs in the tests.  This test runs the CLI
in-process under ``sys.setprofile``: ``report``, ``verify`` and ``mesh`` on
the bundled fixtures s1-s3, on s1 cut to truncation 3 (no developable) and
lifted to 12 (the report's lower rung), on one general curve and on one
invalid configuration, and ``fixtures`` and a short sweep.  It fails on every
function or method of the package whose code none of those runs enters,
unless ``ALLOWED`` names it with the reason it stays.  An entry whose reason
is the benchmark's tracer must name a target of ``bench/tracing.TARGETS``.

The same walk over the package finds every exception class it defines: each
must derive from ``CrosscapError``, the one library error ``cli.main``
reports as a line on stderr, so that no new error escapes it as a traceback.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys

import crosscap
import tracing  # the benchmark's per-layer tracer (bench/ is put on the path by conftest)
from crosscap.cli import fixture_names, fixture_text, main
from crosscap.series import CrosscapError
from output_digests import GENERAL_CURVE

#: Functions no run enters, by qualified name, with the reason each stays.
ALLOWED = {
    "frame.darboux_frame": "the float frame: a test reference, timed by bench/tracing.TARGETS",
    "frame.curvature_series": "the float frame: a test reference, timed by bench/tracing.TARGETS",
    "frame.kappa_tilde_series": "the float frame: a test reference, timed by bench/tracing.TARGETS",
    "series.FloatSeries.__sub__": "the float frame's cross product",
    "series.FloatSeries.diff": "the float frame's derivatives",
    "series.BiSeries.__mul__": "kept only for bench/tracing.TARGETS (series.bimul)",
    "series._bi_convolve": "the kernel of BiSeries.__mul__",
    "series._Frozen.__setattr__": "refuses assignment to an immutable series",
    "series._Frozen.__delattr__": "refuses deletion from an immutable series",
    "series._Frozen._key": "value semantics of an immutable series, vector or exact value",
    "series._Frozen.__eq__": "value semantics of an immutable series, vector or exact value",
    "series._Frozen.__hash__": "value semantics of an immutable series, vector or exact value",
    "series._Frozen.__repr__": "value semantics of an immutable series, vector or exact value",
    "series.UniSeries._key": "a series compares and hashes by its numerators, not its coefficients",
    "series.UniSeries.coeffs": (
        "the Fraction view of a series, read by repr, the tests and the benchmark tracer's"
        " product counter (bench/tracing.Tracer._count_mul); the library reads _num/_den"
    ),
    "series._over": "builds UniSeries.coeffs, the Fraction view for repr, the tests and Tracer._count_mul",
}


def test_every_entry_kept_for_the_tracer_is_a_tracer_target():
    # An entry whose reason is a target of bench/tracing.TARGETS must name
    # one, so that dropping the target leaves no stale reason behind.
    targets = {f"{module}.{attr}" for _, module, attr in tracing.TARGETS}
    cited = [name for name, reason in ALLOWED.items() if "bench/tracing.TARGETS" in reason]
    assert len(cited) == 4  # the three float-frame functions and BiSeries.__mul__
    assert [name for name in cited if name not in targets] == []


INVALID = {"truncation": 6, "surface": {"a": {"0,2": "0"}}, "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1"]}}


def defined_objects():
    """(module name, name, value) of every module-level object defined in the package.

    An object imported from another module is skipped: that module lists it.
    """
    for info in pkgutil.iter_modules(crosscap.__path__):
        module = importlib.import_module(f"crosscap.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) == module.__name__:
                yield info.name, name, value


def defined_functions() -> dict:
    """Code object -> qualified name of every function and method defined in the package."""
    root = crosscap.__path__[0]
    found = {}
    for module_name, name, value in defined_objects():
        if inspect.isclass(value):
            members = [(f"{name}.{key}", member) for key, member in vars(value).items()]
        else:
            members = [(name, value)]
        for qualname, member in members:
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            elif isinstance(member, functools.cached_property):
                member = member.func
            code = getattr(member, "__code__", None)
            if code is not None and code.co_filename.startswith(root):
                found[code] = f"{module_name}.{qualname}"
    return found


def test_every_error_class_of_the_package_is_a_crosscap_error():
    errors = {
        f"{module_name}.{name}": value
        for module_name, name, value in defined_objects()
        if inspect.isclass(value) and issubclass(value, BaseException)
    }
    assert {"series.CrosscapError", "series.ReliabilityError", "config.ConfigError", "obj.MeshError"} <= set(errors)
    assert [name for name, cls in errors.items() if not issubclass(cls, CrosscapError)] == []


def test_every_function_in_src_is_entered_by_a_run(tmp_path, capsys):
    paths = {}
    for name in fixture_names():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(fixture_text(name))
    s1 = json.loads(fixture_text("s1"))
    configs = {"short": {**s1, "truncation": 3}, "deep": {**s1, "truncation": 12}, "general": GENERAL_CURVE, "invalid": INVALID}
    for name, doc in configs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    runs = [["fixtures", "--list"], ["fixtures", "--show", "s1"], ["verify", "--sweep", "--draws", "1"]]
    for name, path in paths.items():
        runs += [["report", str(path)], ["verify", str(path)], ["mesh", str(path), "--out", str(tmp_path / name)]]

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = {}
    sys.setprofile(profile)
    try:
        codes = {" ".join(run[:2]): main(run) for run in runs}
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes["report " + str(paths["invalid"])] == 2
    assert codes["verify " + str(paths["general"])] == 2
    assert codes["report " + str(paths["general"])] == 0 and codes["mesh " + str(paths["s1"])] == 0
    assert codes["report " + str(paths["short"])] == 0 and codes["mesh " + str(paths["short"])] == 2

    never = sorted(name for code, name in defined_functions().items() if code not in entered)
    unreached = [name for name in never if name not in ALLOWED]
    assert unreached == [], "never entered: " + ", ".join(unreached)
    assert sorted(ALLOWED) == never  # an entry whose function now runs, or is gone, is stale

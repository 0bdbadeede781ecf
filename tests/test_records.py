"""`exact.record` against the standard library's `dataclasses.dataclass`.

Every class that `src/bgkit` decorates with `record` gets a data class twin
built from the same annotations, defaults and `__post_init__`; the two must
agree on field order, signature, repr, equality and hashing.
"""

import ast
import dataclasses
import importlib
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from bgkit.exact import field

SRC = Path(__file__).resolve().parent.parent / "src" / "bgkit"


def _record_classes():
    """(class, frozen) for each class decorated with `record` in the source."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"bgkit.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                name = call.func if call else deco
                if isinstance(name, ast.Name) and name.id == "record":
                    frozen = any(k.arg == "frozen" and k.value.value
                                 for k in (call.keywords if call else ()))
                    out.append((getattr(module, node.name), frozen))
    return out


RECORDS = _record_classes()


def _twin(cls, frozen):
    """The data class with cls's annotations, defaults and __post_init__."""
    namespace = {"__annotations__": dict(cls.__annotations__),
                 "__qualname__": cls.__qualname__,
                 "__module__": cls.__module__}
    for name, param in inspect.signature(cls).parameters.items():
        default = param.default
        if isinstance(default, field):
            namespace[name] = dataclasses.field(
                default_factory=default.default_factory)
        elif default is not inspect.Parameter.empty:
            namespace[name] = default
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.dataclass(frozen=frozen)(
        type(cls.__name__, (), namespace))


def _values(cls, shift=0):
    # every field accepts a Fraction above 1, __post_init__ checks included
    return [Fraction(2 * i + 3 + shift, 2) for i in range(len(cls._fields))]


def _required(cls):
    return [name for name, p in inspect.signature(cls).parameters.items()
            if p.default is inspect.Parameter.empty]


def test_every_record_is_found():
    # 23 records in 9 modules; none of them imports dataclasses any more
    assert len(RECORDS) == 23
    assert {cls.__module__ for cls, _f in RECORDS} == {
        f"bgkit.{name}" for name in ("bounds", "cli", "covers", "curvature",
                                     "entropy", "hyperbolicity", "packing",
                                     "probes", "reports")}
    assert sum(frozen for _cls, frozen in RECORDS) == 2


@pytest.mark.parametrize("cls, frozen", RECORDS,
                         ids=[cls.__qualname__ for cls, _f in RECORDS])
def test_record_behaves_as_its_data_class_twin(cls, frozen, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    twin = _twin(cls, frozen)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    assert cls._fields == tuple(inspect.signature(cls).parameters)
    values, other = _values(cls), _values(cls, shift=1)
    a, b, c = cls(*values), cls(*values), cls(*other)
    ta, tb, tc = twin(*values), twin(*values), twin(*other)
    assert repr(a) == repr(ta) and repr(c) == repr(tc)
    assert (a == b, a == c, a != c) == (ta == tb, ta == tc, ta != tc)
    assert (a == b, a == c) == (True, False)
    assert a != ta and a.__eq__(ta) is NotImplemented
    if frozen:
        assert hash(a) == hash(b) == hash(ta) == hash(tb)
        for obj in (a, ta):
            with pytest.raises(AttributeError):
                setattr(obj, cls._fields[0], values[1])
            with pytest.raises(AttributeError):
                delattr(obj, cls._fields[0])
    else:
        assert cls.__hash__ is None and twin.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
    # defaults: plain values and one fresh factory value per instance
    needed = {name: Fraction(3) for name in _required(cls)}
    x, y, tx = cls(**needed), cls(**needed), twin(**needed)
    assert repr(x) == repr(tx)
    for name in cls._fields:
        if isinstance(inspect.signature(cls).parameters[name].default, field):
            assert getattr(x, name) is not getattr(y, name)


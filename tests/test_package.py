"""The package surface: every public name resolves lazily from its home module.

``golden/api.txt`` records the signature of every public name, so a
parameter added or removed shows up as a diff to that file.  Rewrite it,
only on purpose, with

    PYTHONPATH=src python tests/test_package.py
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kstrata

SOURCE = str(Path(kstrata.__file__).resolve().parents[1])
API = Path(__file__).parent / "golden" / "api.txt"
PACKAGE = sorted(Path(kstrata.__file__).parent.glob("*.py"))
# a public name or member must be read by another part of the package or by
# the acceptance suite; its own unit tests do not count
CALLERS = [p for p in PACKAGE if p.name != "__init__.py"]
CALLERS.append(Path(__file__).parent / "test_acceptance.py")
# public names and members that no caller reads, each with the reason it stays
UNREAD_NAMES: dict[str, str] = {}
UNREAD_MEMBERS = {"PowerSeries.truncate": "called by benchmarks/test_benchmarks.py"}
RING_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"}


def fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=SOURCE)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout


def test_import_loads_no_submodule():
    out = fresh("import sys, kstrata; print(sorted(m for m in sys.modules if m.startswith('kstrata')))")
    assert out == "['kstrata']\n"


def test_all_is_sorted_and_complete():
    assert kstrata.__all__ == sorted(set(kstrata.__all__))
    assert len(kstrata.__all__) == 51


def references(path: Path) -> set[str]:
    """Names a module reads: bare names, imported names and ``module.name``.

    A ``def`` or ``class`` statement binds its name without reading it, so a
    name defined and never used elsewhere is absent.
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in kstrata._HOMES
        ):
            found.add(node.attr)
    return found


def test_every_public_name_has_a_caller():
    read = set().union(*map(references, CALLERS))
    assert sorted(set(kstrata.__all__) - read) == sorted(UNREAD_NAMES)


def attributes_read(path: Path) -> set[str]:
    """Every name a module reads as an attribute, ``obj.name``, of whatever object."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_member_has_a_caller():
    # by name alone, since a static scan cannot tell which class an object has
    read = set().union(*map(attributes_read, CALLERS))
    unread = [
        f"{name}.{member}"
        for name in kstrata.__all__
        if isinstance(getattr(kstrata, name), type)
        for member in listed_members(getattr(kstrata, name))
        if member not in read
    ]
    assert unread == sorted(UNREAD_MEMBERS)
    # sums and products of polynomials are built by the tests' own reference
    modules = [importlib.import_module(f"kstrata.{p.stem}") for p in PACKAGE]
    classes = [
        v for m in modules for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__
    ]
    assert [c.__name__ for c in classes if RING_OPERATORS & set(vars(c))] == []


@pytest.mark.parametrize("name", kstrata.__all__)
def test_every_public_name_resolves_in_its_home_module(name):
    value = getattr(kstrata, name)
    assert value.__module__.startswith("kstrata.")
    home = sys.modules[value.__module__]
    assert getattr(home, name) is value


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from kstrata import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == kstrata.__all__


def test_star_import_in_a_fresh_interpreter():
    # nothing is cached yet, so every name goes through the lazy lookup
    out = fresh("from kstrata import *\nimport kstrata\nprint(all(n in globals() for n in kstrata.__all__))")
    assert out == "True\n"


def test_dir_lists_every_public_name():
    assert set(kstrata.__all__) <= set(dir(kstrata))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'kstrata' has no attribute 'no_such_name'"):
        kstrata.no_such_name
    assert not hasattr(kstrata, "no_such_name")
    with pytest.raises(ImportError):
        exec("from kstrata import no_such_name", {})


def test_submodules_stay_attributes():
    import kstrata.quartic

    assert kstrata.quartic is sys.modules["kstrata.quartic"]
    assert kstrata.resultant is kstrata.polynomials.resultant
    out = fresh("import kstrata; print(kstrata.series.__name__)")
    assert out == "kstrata.series\n"


def test_no_module_imports_a_private_name_from_a_sibling():
    # aliasing a public name to a private one (``from .polynomials import
    # resultant as _resultant``) is fine; reaching into a sibling's private names is not
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "kstrata"
            ):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def caught_names(handler: ast.ExceptHandler) -> set[str]:
    """The exception names an ``except`` clause lists, bare or as ``module.Name``."""
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {getattr(kind, "id", getattr(kind, "attr", None)) for kind in kinds if kind is not None}


def test_only_the_point_search_catches_unsupported_case():
    # past a budget the package raises UnsupportedCase and the CLI's one error
    # boundary (``except (ValueError, OSError)`` in cli.main) reports it; only
    # quartic's rational-point search may swallow it, since its points decide
    # nothing.  StratumError, the base class, would swallow it as well.
    catchers = {
        f"{path.name}:{node.lineno}"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ExceptHandler)
        and caught_names(node) & {"UnsupportedCase", "StratumError"}
    }
    assert {catcher.split(":")[0] for catcher in catchers} == {"quartic.py"}
    assert len(catchers) == 1
    handler = ast.parse("try:\n    pass\nexcept (errors.UnsupportedCase, OSError):\n    pass\n").body[0].handlers[0]
    assert caught_names(handler) == {"UnsupportedCase", "OSError"}


def test_a_smoothness_certificate_is_smooth_or_singular():
    # the certificate is a decision: every one the package builds names a
    # literal status, and no third status comes back
    statuses = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SmoothnessCertificate":
                status = node.args[0] if node.args else {k.arg: k.value for k in node.keywords}.get("status")
                statuses.append(status.value if isinstance(status, ast.Constant) else ast.dump(status))
    assert set(statuses) == {"smooth", "singular"}


def unread_imports(source: str) -> list[str]:
    """``line: name`` of each name an import binds and the module never reads.

    ``from __future__`` imports are directives, not names, and are skipped.
    """
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{node.lineno}: {name}")
    return unread


def test_every_imported_name_is_read():
    # the package has no linter; this is its unused-import check
    found = [f"{path.name}:{line}" for path in PACKAGE for line in unread_imports(path.read_text())]
    assert found == []
    assert unread_imports("from __future__ import annotations\nimport os.path\nfrom a import b as c\n") == [
        "2: os",
        "3: c",
    ]


def test_no_module_reads_private_polynomial_fields():
    # outside polynomials, only series and quartic's Macaulay matrix read the
    # integer numerators, through Polynomial.cleared(), so the storage can
    # change in one module
    from kstrata.polynomials import Polynomial

    private = {name for name in vars(Polynomial) if name.startswith("_") and not name.endswith("__")}
    assert {"_num", "_den", "_of"} <= private
    found, readers = [], set()
    for path in PACKAGE:
        if path.name == "polynomials.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            if isinstance(node, ast.Attribute) and node.attr == "cleared":
                readers.add(path.name)
    assert found == []
    assert readers == {"quartic.py", "series.py"}


def bare(signature: inspect.Signature) -> str:
    """Parameter names, kinds and default reprs, without annotations."""
    params = [p.replace(annotation=p.empty) for p in signature.parameters.values()]
    return str(signature.replace(parameters=params, return_annotation=signature.empty))


def listed_members(cls: type) -> dict:
    """{name: attribute} of each public method, property or slot of a class, by name.

    Members are those defined in the package's own classes, so the list does
    not move with the Python version.
    """
    members = {}
    for owner in reversed(cls.__mro__):
        if owner.__module__.startswith("kstrata"):
            members.update({k: v for k, v in vars(owner).items() if not k.startswith("_")})
    return {
        k: v
        for k, v in sorted(members.items())
        if isinstance(v, (property, staticmethod, classmethod))
        or inspect.ismemberdescriptor(v)
        or inspect.isfunction(v)
    }


def api_text() -> str:
    """One line per public name, and one per public method, property or slot of a class.

    A class line gives its constructor (``(...)`` when that is a builtin's,
    as for exceptions) and its bases other than object, then its
    ``listed_members``.
    """
    lines = []
    for name in kstrata.__all__:
        value = getattr(kstrata, name)
        if not isinstance(value, type):
            lines.append(f"{name}{bare(inspect.signature(value))}")
            continue
        try:
            constructor = bare(inspect.signature(value))
        except ValueError:
            constructor = "(...)"
        bases = [base.__name__ for base in value.__bases__ if base is not object]
        lines.append(f"class {name}{constructor}" + (f" [{', '.join(bases)}]" if bases else ""))
        for member, attr in listed_members(value).items():
            if isinstance(attr, property):
                lines.append(f"{name}.{member} [property]")
            elif inspect.ismemberdescriptor(attr):
                lines.append(f"{name}.{member} [slot]")
            else:
                lines.append(f"{name}.{member}{bare(inspect.signature(getattr(value, member)))}")
    return "\n".join(lines) + "\n"


def test_public_signatures_match_the_golden():
    golden = API.read_text()
    assert api_text() == golden
    assert "x_var" not in golden and "y_var" not in golden


if __name__ == "__main__":
    API.write_text(api_text())

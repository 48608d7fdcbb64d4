"""Every import in the package, the tests and the benchmark is used, every
function, class and constant the package defines is read by the package,
and the package imports nothing outside the standard library.

No linter ships with the project, so this reads each module with ``ast``:
a name an import binds must appear as a name elsewhere in the module.  The
package's ``__init__`` re-exports what it imports and is skipped.  A
module-level function, class or constant (a name a module-level assignment
binds) of the package must be read outside its own definition: a public
name anywhere in the package, a private one (a leading underscore) in its
own module or through a from-import of it by another module.  An export
by ``__init__`` is no reader.  A method or class attribute of a package
class with one leading underscore must be read as an attribute, ``.name``,
somewhere in the package outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/pweyl", "tests", "bench")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """(line, name) of every name bound by an import and never read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_checker_sees_an_unused_import():
    source = "import os\nfrom sys import argv, path as p\nimport a.b\nprint(argv, a)\n"
    assert unused_imports(source) == [(1, "os"), (2, "p")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def absolute_imports(source):
    """The top-level module of every absolute import in the source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_package_imports_only_the_standard_library():
    source = "import os.path\nfrom . import a\nfrom .b import c\nfrom json import dumps\n"
    assert absolute_imports(source) == {"os", "json"}
    imported = set()
    for path in (ROOT / "src/pweyl").rglob("*.py"):
        imported |= absolute_imports(path.read_text(encoding="utf-8"))
    assert imported and imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names


def names_read(node):
    """How often each name is read under an ast node: as a loaded name, as an
    attribute, or as a name a from-import takes from another module."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def defined_names(node):
    """The names a module-level statement defines: a function's or class's
    own, or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            sub.id
            for target in targets
            for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
        ]
    return []


def imported_from(trees):
    """(module, name) -> how often another module of ``trees`` takes ``name``
    from ``module`` by a from-import."""
    found = Counter()
    for importer, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.split(".")[-1]
                if source != importer:
                    found.update((source, alias.name) for alias in node.names)
    return found


def unread_definitions(sources):
    """(module, name) of every module-level function, class or constant in
    ``sources`` (module name -> source) that is not read outside the
    definition itself: anywhere, for a public name; in its own module or by
    a from-import of another, for a private one, so that a private name of
    the same spelling elsewhere does not hide it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((names_read(tree) for tree in trees.values()), Counter())
    imports = imported_from(trees)
    unread = []
    for module, tree in trees.items():
        own = names_read(tree)
        for node in tree.body:
            for name in defined_names(node):
                if name.startswith("_"):
                    reads = own[name] + imports[module, name]
                else:
                    reads = total[name]
                if reads == names_read(node)[name]:
                    unread.append((module, name))
    return unread


def test_the_checker_sees_an_unread_definition():
    # _KEY in c is read in d only as d's own _KEY, which does not count;
    # _helper is read by a from-import, _local in its own module
    sources = {
        "a": "def used():\n    pass\n\ndef recursive():\n    return recursive()\n\n"
        "class Exported:\n    pass\n",
        "b": "from a import used\n\nclass Local:\n    pass\n\nprint(Local, used)\n",
        "c": "_KEY = 1\n\ndef _helper():\n    pass\n\ndef _local():\n    pass\n\n"
        "print(_local)\n",
        "d": "from .c import _helper\n\n_KEY = 2\n\nprint(_KEY, _helper)\n",
    }
    assert unread_definitions(sources) == [("a", "recursive"), ("a", "Exported"), ("c", "_KEY")]


def test_the_checker_sees_an_unread_constant():
    sources = {
        "a": "LIMIT = 10\nBUDGET: int = 200\nUNREAD, ALSO = 1, 2\nTABLE = {}\n"
        "TABLE['k'] = LIMIT\nEXPORTED = 3\n",
        "b": "import a\nfrom a import BUDGET\n\nLOCAL = 4\nprint(a.TABLE, BUDGET, LOCAL)\n",
    }
    assert unread_definitions(sources) == [("a", "UNREAD"), ("a", "ALSO"), ("a", "EXPORTED")]


def test_every_package_definition_is_read():
    package = ROOT / "src/pweyl"
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in package.rglob("*.py")
        if path.name != "__init__.py"
    }
    assert unread_definitions(sources) == []


def attribute_reads(node):
    """How often each name is read as an attribute, ``.name``, under an ast
    node."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unread_members(sources):
    """(class, name) of every method or class attribute with one leading
    underscore, of a class in ``sources`` (module name -> source), that no
    ``.name`` outside its own definition reads."""
    trees = [ast.parse(source) for source in sources.values()]
    total = sum((attribute_reads(tree) for tree in trees), Counter())
    unread = []
    for tree in trees:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    for name in defined_names(node):
                        private = name.startswith("_") and not name.startswith("__")
                        if private and total[name] == attribute_reads(node)[name]:
                            unread.append((cls.name, name))
    return unread


def test_the_checker_sees_an_unread_member():
    # _hook is read as an attribute in b, _loop only by itself; a module
    # function _free of the same spelling as no member, a dunder and a
    # public method are not this rule's
    sources = {
        "a": "class A:\n    _noun = 'a'\n    def _hook(self):\n        pass\n"
        "    def _loop(self):\n        return self._loop()\n"
        "    def __eq__(self, other):\n        pass\n    def public(self):\n        pass\n"
        "    def _unread(self):\n        pass\n",
        "b": "def _free():\n    pass\n\nprint(A()._hook(), A._noun, _free, _unread)\n",
    }
    assert unread_members(sources) == [("A", "_loop"), ("A", "_unread")]


def test_every_private_package_member_is_read():
    package = ROOT / "src/pweyl"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.rglob("*.py")}
    assert unread_members(sources) == []

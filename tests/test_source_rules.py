"""Rules the library's source code keeps, checked on its syntax trees."""

import ast
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def numpy_unique_uses(tree: ast.AST) -> list[int]:
    """Line numbers of every np.unique / numpy.unique reference and every
    `from numpy import unique`."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "unique"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(alias.name == "unique" for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_src_calls_no_numpy_unique():
    # numpy's unique runs a hash kernel that is 40-80x slower than one sort
    # and an adjacent compare on int64 arrays (core._sorted_unique).
    sample = "import numpy as np\nfrom numpy import unique\nx = np.unique([1])\nf = numpy.unique\ny = z.unique()\n"
    assert numpy_unique_uses(ast.parse(sample)) == [2, 3, 4]
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {
        str(path.relative_to(SRC)): lines
        for path in files
        if (lines := numpy_unique_uses(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def defined_names(tree: ast.Module) -> dict[str, int]:
    """{name: line} of the module's top-level functions, classes and
    assigned names."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(t.id, t.lineno) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name, line in found:
            names.setdefault(name, line)
    return names


def defined_private_names(tree: ast.Module) -> dict[str, int]:
    """{name: line} of the module's top-level definitions that are private
    (one leading underscore)."""
    return {name: line for name, line in defined_names(tree).items() if is_private(name)}


def imported_private_names(tree: ast.AST) -> dict[str, int]:
    """{local name: line} of the private names a module imports."""
    return {
        alias.asname or alias.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if is_private(alias.asname or alias.name)
    }


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name read in the module, bare or as an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def unused_private_names(modules: dict[str, ast.Module]) -> list[str]:
    """'module:line name' for each private top-level name that no module
    reads, and each private name a module imports but does not read."""
    loaded = {path: loaded_names(tree) for path, tree in modules.items()}
    everywhere = set().union(*loaded.values())
    found = []
    for path, tree in modules.items():
        found += [f"{path}:{line} {name} defined" for name, line in defined_private_names(tree).items()
                  if name not in everywhere]
        found += [f"{path}:{line} {name} imported" for name, line in imported_private_names(tree).items()
                  if name not in loaded[path]]
    return sorted(found)


def test_src_private_names_are_used():
    # a private name is the module's own business: once nothing in src/
    # reads it, it is dead code, and an import of one that the module does
    # not read is a leftover
    sample = {
        "a.py": ast.parse("_LIMIT = 3\n_KEEP, _DROP = 1, 2\ndef _helper():\n    return _KEEP\nclass _Gone:\n    pass\n"),
        "b.py": ast.parse("from a import _helper, _LIMIT\nx = _helper()\n"),
    }
    assert unused_private_names(sample) == [
        "a.py:1 _LIMIT defined",
        "a.py:2 _DROP defined",
        "a.py:5 _Gone defined",
        "b.py:1 _LIMIT imported",
    ]
    modules = {
        str(path.relative_to(SRC)): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.rglob("*.py"))
    }
    assert modules
    assert unused_private_names(modules) == []


def unread_parameters(tree: ast.AST) -> list[str]:
    """'line function(parameter)' for each parameter of a private function,
    at any depth, that its body never reads."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_private(node.name)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [f"{node.lineno} {node.name}({arg.arg})" for arg in params if arg.arg not in read]
    return found


def test_src_private_function_parameters_are_read():
    # a parameter that a private function's body never reads is left over
    # from a deletion: its callers still build and pass what nothing uses
    sample = ast.parse(
        "def _f(a, b, *rest, c, **kw):\n    return a + c\n"
        "def g(unused):\n    def _h(x, y=1):\n        return lambda: x\n    return _h\n"
        "class K:\n    def _m(self, v):\n        v = 2\n        return self\n"
    )
    assert unread_parameters(sample) == [
        "1 _f(b)", "1 _f(rest)", "1 _f(kw)", "4 _h(y)", "8 _m(v)",
    ]
    found = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := unread_parameters(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def dangling_qualified_names(text: str, modules: dict[str, ast.Module]) -> list[str]:
    """'line module.name' for each module.name in text, with or without a
    leading `synchrolab.`, that is not a top-level definition of that
    module; a file name such as module.py is not a qualified name."""
    pattern = re.compile(rf"(?<![\w.])(?:synchrolab\.)?({'|'.join(map(re.escape, modules))})\.([A-Za-z_]\w*)")
    return [
        f"{number} {match[1]}.{match[2]}"
        for number, line in enumerate(text.splitlines(), 1)
        for match in pattern.finditer(line)
        if match[2] != "py" and match[2] not in defined_names(modules[match[1]])
    ]


def test_readme_qualified_names_are_defined():
    # README names helpers such as core._power; deleting or renaming one
    # must not leave the README pointing at nothing
    sample = {"core": ast.parse("def _power():\n    pass\nLIMIT = 3\n"), "sync": ast.parse("")}
    text = "`core._power` and `synchrolab.core.LIMIT`\nsee core.py, `core._gone`, `sync.f` and `score.x`\n"
    assert dangling_qualified_names(text, sample) == ["2 core._gone", "2 sync.f"]
    package = SRC / "synchrolab"
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    text = (SRC.parent / "README.md").read_text()
    assert "core._power" in text
    assert dangling_qualified_names(text, modules) == []


def member_names(tree: ast.Module) -> set[str]:
    """The module's top-level definitions and the methods and attributes
    defined in the bodies of its top-level classes."""
    names = set(defined_names(tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names |= set(defined_names(ast.Module(body=node.body, type_ignores=[])))
    return names


def dangling_private_references(source: str) -> list[str]:
    """'line name' for each (_name) in the module's comments and docstrings
    that names no top-level definition or class member of the module."""
    tree = ast.parse(source)
    texts = [(token.start[0], token.string) for token in tokenize.generate_tokens(io.StringIO(source).readline)
             if token.type == tokenize.COMMENT]
    texts += [(node.body[0].lineno, text) for node in ast.walk(tree)
              if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
              and (text := ast.get_docstring(node, clean=False))]
    names = member_names(tree)
    return sorted(
        f"{line + offset} {match[1]}"
        for line, text in texts
        for offset, part in enumerate(text.splitlines())
        for match in re.finditer(r"\((_[A-Za-z]\w*)\)", part)
        if match[1] not in names
    )


def test_src_private_references_name_a_definition():
    # a comment or docstring that points at a helper as (_name) must not
    # outlive the helper
    sample = (
        '"""Steps by (_step), once (_gone)."""\n'
        "_LIMIT = 3  # see (_LIMIT) and (_other)\n"
        "def _step():\n"
        '    """Calls (_Box._read), no: (_read)."""\n'
        "class _Box:\n"
        "    _size = 1\n"
        "    def _read(self):\n"
        "        # uses (_size), not (_width)\n"
        "        return (_step)\n"
    )
    assert dangling_private_references(sample) == ["1 _gone", "2 _other", "8 _width"]
    found = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := dangling_private_references(path.read_text()))
    }
    assert found == {}

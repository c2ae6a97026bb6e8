"""Every module of the package, other than ``__init__.py`` (which imports
names to export them), uses each name it imports; every module-level
private (``_``-prefixed) function, class or constant is referenced somewhere
in the package; every module-level public name the package does not export
is read in the package, the benchmark or the acceptance tests; and every
exported name is read in the package, the benchmark (string literals
included, since the tracer names what it wraps as strings), the acceptance
tests or a README ``python`` block; and every backticked ``module.name``
in the README resolves in the package."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mpf_lab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Sources outside the package that may be the only reader of a public name.
READERS = sorted([*(ROOT / "mpfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 2: os"]


def test_modules_found():
    assert {"pauli.py", "bounds.py", "statesim.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assigned names (dunders left
    out), with their line numbers."""
    found: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found.update({name: node.lineno for name in names if not name.startswith("__")})
    return found


def read_names(trees) -> set[str]:
    """Names the trees read, as a bare name or as an attribute
    (``pauli._couplings``)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = read_names(trees.values())
    return [f"{name} line {line}: {private}" for name, tree in trees.items()
            for private, line in definitions(tree).items()
            if private.startswith("_") and private not in read]


def test_checker_flags_a_dead_private_name():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\n_CONST = 1\n_UNREAD: int = 2\n",
        "b.py": "from .a import _used\nimport a\n_used()\nprint(a._CONST)\n",
    }
    assert dead_private_names(sources) == ["a.py line 2: _dead", "a.py line 4: _UNREAD"]


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def dead_public_names(sources: dict[str, str], exports: str, readers: list[str]) -> list[str]:
    """Public module-level names of the package's modules that its
    ``__init__`` source ``exports`` does not import and that neither a
    module nor a reader source reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    exported = {alias.name for node in ast.walk(ast.parse(exports))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = read_names([*trees.values(), *map(ast.parse, readers)])
    return [f"{name} line {line}: {public}" for name, tree in trees.items()
            for public, line in definitions(tree).items()
            if not public.startswith("_") and public not in exported | read]


def test_checker_flags_a_dead_public_name():
    sources = {
        "a.py": "def kept(): pass\ndef dead(): pass\nCAP = 3\nLABEL = 'x'\nclass Used: pass\n",
        "b.py": "from .a import CAP\nprint(CAP)\n",
    }
    exports = "from .a import kept\n"
    readers = ["import a\nx = a.Used()\n"]
    assert dead_public_names(sources, exports, readers) == ["a.py line 2: dead", "a.py line 4: LABEL"]


def test_no_dead_public_names():
    sources = {p.name: p.read_text() for p in MODULES}
    exports = (SRC / "__init__.py").read_text()
    assert dead_public_names(sources, exports, [p.read_text() for p in READERS]) == []


def string_names(tree: ast.AST) -> set[str]:
    """Dotted names spelled out as string literals (``"Class.method"``)."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".") if part.isidentifier()}


def python_blocks(markdown: str) -> list[str]:
    """The ```` ```python ```` code blocks of a Markdown text."""
    return [block.partition("\n```")[0] for block in markdown.split("```python\n")[1:]]


def unread_exports(exports: str, sources: list[str], named: list[str]) -> list[str]:
    """Names the package's ``__init__`` source ``exports`` imports that no
    ``sources`` tree reads and no ``named`` source reads or spells out as a
    string literal."""
    exported = [alias.name for node in ast.walk(ast.parse(exports))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    named_trees = [ast.parse(source) for source in named]
    read = read_names([*map(ast.parse, sources), *named_trees])
    read |= {name for tree in named_trees for name in string_names(tree)}
    return [name for name in exported if name not in read]


def test_checker_flags_an_unread_export():
    exports = "from .a import kept, traced, shown, dead\n"
    sources = ["from .a import kept\nkept()\n"]
    named = ["LAYERS = ('traced.__init__',)\n", "x = shown()\n"]
    assert unread_exports(exports, sources, named) == ["dead"]
    readme = "text\n```python\nprint(1)\n```\n```sh\nls\n```\n```python\nx = 2\n```\n"
    assert python_blocks(readme) == ["print(1)", "x = 2"]


def test_every_export_is_read():
    exports = (SRC / "__init__.py").read_text()
    named = [*(p.read_text() for p in READERS),
             *python_blocks((ROOT / "README.md").read_text())]
    assert unread_exports(exports, [p.read_text() for p in MODULES], named) == []


README_BLOCKS = python_blocks((ROOT / "README.md").read_text())


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    # Each block runs alone, in a fresh namespace, against the package as it is.
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme"})


def cfg_reads(source: str) -> set[str]:
    """Keys a source reads as ``cfg["key"]``."""
    return {node.slice.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)}


def test_checker_finds_cfg_reads():
    assert cfg_reads('x = cfg["n"] + cfg.get("m")\ncfg["o"] = 1\ny = other["p"]\n') == {"n", "o"}


def test_every_config_key_is_read():
    from mpf_lab.experiments import SCENARIOS

    read = cfg_reads((SRC / "experiments.py").read_text())
    # bound-eval keeps sampler_seed, which has no effect, only because the
    # benchmark's bounds workload still passes it.
    unread = [f"{scenario}: {key}" for scenario, schema in SCENARIOS.items()
              for key in schema if key not in read]
    assert unread == ["bound-eval: sampler_seed"]


# Names of the subspace coordinates a state runs in, which stay inside the
# formula and the kernel: a run's states are carried in those coordinates,
# but only through the walk (``formulas._Walk``) and its push, so every
# other module names no subspace helper.
SUBSPACE_NAMES = {"_subspace", "_basis", "_Program", "_kernel_rows"}
SUBSPACE_MODULES = {"formulas.py", "statesim.py"}


def subspace_mentions(source: str) -> list[str]:
    """Lines of a source that name a subspace helper (read, imported or as
    an attribute) or pass a ``basis=`` argument."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.keyword) and node.arg == "basis":
            names = ["basis="]
        found += [f"line {node.lineno}: {name}" for name in names
                  if name in SUBSPACE_NAMES | {"basis="}]
    return found


def test_checker_flags_subspace_mentions():
    source = ("from .formulas import _kernel_rows, apply\n"
              "b = pf._basis(psi)\nout = pf.apply(psi, 1.0, basis=b)\nbasis = 3\n"
              "s = statesim._subspace(blocks, psi)\n")
    assert subspace_mentions(source) == ["line 1: _kernel_rows", "line 2: _basis",
                                         "line 3: basis=", "line 5: _subspace"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in SUBSPACE_MODULES],
                         ids=lambda p: p.name)
def test_subspace_coordinates_stay_in_the_formula_and_kernel(path):
    assert subspace_mentions(path.read_text()) == []


def unresolved_code_names(markdown: str, package) -> list[str]:
    """Backticked dotted names of a Markdown text (``module.name``, with an
    optional call after it) that start at the package, one of its modules
    or one of its exports and do not resolve there."""
    missing = []
    for dotted in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", markdown):
        head, *rest = dotted.split(".")
        if head == package.__name__:
            obj = package
        elif (SRC / f"{head}.py").exists():
            obj = importlib.import_module(f"{package.__name__}.{head}")
        elif hasattr(package, head):
            obj = getattr(package, head)
        else:
            continue
        for part in rest:
            if not hasattr(obj, part):
                missing.append(dotted)
                break
            obj = getattr(obj, part)
    return missing


def test_checker_flags_an_unresolved_code_name():
    import mpf_lab

    text = ("`pauli._partition`, `formulas._Gone`, `ProductFormula.apply(state, t)`, "
            "`ProductFormula.nope`, `mpf_lab.parse_op`, `np.array_equal`, `a.b c`")
    assert unresolved_code_names(text, mpf_lab) == ["formulas._Gone", "ProductFormula.nope"]


def test_every_code_name_in_the_readme_resolves():
    import mpf_lab

    assert unresolved_code_names((ROOT / "README.md").read_text(), mpf_lab) == []


def called(node: ast.AST) -> str | None:
    """The name a call calls (``sqrt`` for ``math.sqrt(x)``), or None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", None) or getattr(node.func, "id", None)
    return None


def clamped_roots(source: str) -> list[str]:
    """The innermost function around each square root of a ``max``
    (``math.sqrt(max(x, 0.0))``, the clamp a rounded square needs), or
    ``<module>`` outside any function."""
    tree = ast.parse(source)
    owner = {id(node): "<module>" for node in ast.walk(tree)
             if called(node) == "sqrt" and node.args and called(node.args[0]) in ("max", "maximum")}
    # ast.walk goes outside in, so an inner function overwrites its outer one.
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update({id(node): func.name for node in ast.walk(func) if id(node) in owner})
    return sorted(owner.values())


def test_checker_finds_clamped_roots():
    source = ("r = math.sqrt(max(2.0, 0.0))\n"
              "def f(x):\n    def g(y):\n        return np.sqrt(np.maximum(y, 0))\n"
              "    return math.sqrt(x) + g(x) + max(math.sqrt(x), 0.0)\n"
              "class C:\n    def h(self, s):\n        return sqrt(max(s, 0.0))\n")
    assert clamped_roots(source) == ["<module>", "g", "h"]


def test_the_frobenius_clamp_and_root_are_written_once():
    # Every printed Frobenius distance goes through one function, so the
    # clamp of a square that rounding puts below 0 is stated there alone.
    found = [f"{p.name}: {name}" for p in MODULES for name in clamped_roots(p.read_text())]
    assert found == ["statesim.py: _frobenius_distance"]


# Methods that change the container they are called on.
MUTATORS = {"append", "extend", "update", "setdefault", "pop"}


def self_attribute(node: ast.AST) -> str | None:
    """The name of the ``self`` attribute that ``node`` is, or indexes
    (``self.x`` and ``self.x[k][j]`` both give ``x``), or None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def state_outside_constructors(source: str) -> list[str]:
    """Lines where a method of a class other than ``__init__`` changes an
    attribute of ``self``, which makes state that outlives the call: it
    assigns it (``self.x = ...``, ``self.x += ...``, or as one target of
    several), stores into it (``self.x[k] = ...``, ``self.x[k] += ...``) or
    calls a mutating method on it (``self.x.append(...)``)."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for func in cls.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name == "__init__":
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, ast.Store):
                    name = self_attribute(node)
                    verb = "sets" if isinstance(node, ast.Attribute) else "stores into"
                    what = f"{verb} self.{name}"
                elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
                    name = self_attribute(node.func.value)
                    what = f"calls self.{name}.{node.func.attr}"
                else:
                    continue
                if name is not None:
                    found.append((node.lineno, f"{cls.name}.{func.name} {what}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_flags_state_outside_constructors():
    source = ("class A:\n    def __init__(self):\n        self.a = 1\n        self.c = {}\n"
              "    def f(self, x):\n        self.b, y = x, 2\n        self.a += y\n"
              "        self.c[0] = x\n        self.c[1][2] += x\n        other.d = x\n"
              "        self.c.setdefault(x, []).append(y)\n        self.e.pop()\n"
              "        x.append(self.c)\n        other.c[0] = self.c.get(x)\n"
              "        return self.a\n"
              "def g(self):\n    self.e = 1\n    self.c[0] = 1\n")
    assert state_outside_constructors(source) == [
        "line 6: A.f sets self.b", "line 7: A.f sets self.a", "line 8: A.f stores into self.c",
        "line 9: A.f stores into self.c", "line 11: A.f calls self.c.setdefault",
        "line 12: A.f calls self.e.pop"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_state_outside_constructors(path):
    # Methods compute from what the constructor made: a kernel that kept
    # the coefficients of its last call would have results that depend on
    # the calls before.
    assert state_outside_constructors(path.read_text()) == []

"""The public surface: every name the package exports is read by the
package or the benchmark, not only defined, exported and tested."""

import ast
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "playtest"

# exported with no reader yet: the per-trial traces planned in ROADMAP
# item 3 are to read it
NO_READER_YET = {"trace_to_jsonl"}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def name_reads():
    """How often each name is read in the package's modules (its
    __init__.py, the export, aside) and the benchmark's: as code, but not
    as the name a `def` or `class` statement defines, or as a string that
    is the name alone, as `getattr` takes it. Comments and prose do not
    count."""
    reads = Counter()
    paths = [*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    for path in paths:
        if path == PACKAGE / "__init__.py":
            continue
        previous = None
        with path.open("rb") as handle:
            for token in tokenize.tokenize(handle.readline):
                if token.type == tokenize.NAME and previous not in ("def", "class"):
                    reads[token.string] += 1
                elif token.type == tokenize.STRING:
                    quoted = re.fullmatch(r"""(['"])(\w+)\1""", token.string)
                    if quoted:
                        reads[quoted[2]] += 1
                previous = token.string
    return reads


def test_every_export_has_a_reader():
    reads = name_reads()
    unread = {name for name in exported_names() if not reads[name]}
    assert unread == NO_READER_YET


def private_definitions():
    """(module, name) for each private name a module of the package binds
    at its top level, by `def`, `class` or assignment; dunders aside."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            yield from ((path.name, name) for name in names
                        if name.startswith("_") and not name.startswith("__"))


def package_reads():
    """The names the package's modules read: loaded as a name, as an
    attribute, by an import, or as a string that is the name alone, as
    `getattr` takes it (any other string matches no name). The name a `def`, `class` or assignment binds is
    no read."""
    reads = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.alias):
                reads.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    return reads


def test_every_private_name_has_a_reader():
    # a helper left behind when its last caller goes is dead code
    reads = package_reads()
    assert [(module, name) for module, name in private_definitions()
            if name not in reads] == []

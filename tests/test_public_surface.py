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

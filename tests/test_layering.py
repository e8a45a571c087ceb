"""The package's module layering, and the block sizes the readers take from
the module globals that tests patch.

`csvbytes` is the leaf: the byte-level CSV primitives. `schema` builds on it
alone, the readers `ingest` and `popfile` on both, and only `cli` reads
input files through `ingest`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import smallarea
from smallarea import csvbytes, ingest, popfile

PACKAGE = Path(smallarea.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def package_imports(module):
    """(imported module, names, nested) for each import of a package module
    in `module`: `names` are the names a `from` import takes, and `nested`
    tells an import inside a function or class from one at module level."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    top = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                target = node.module or "__init__"
            elif (node.module or "").startswith("smallarea"):
                target = node.module.removeprefix("smallarea").lstrip(".") or "__init__"
            else:
                continue
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [a.name for a in node.names if a.name.startswith("smallarea")]
            if not targets:
                continue
            target = targets[0].removeprefix("smallarea").lstrip(".") or "__init__"
            names = []
        else:
            continue
        found.append((target, names, id(node) not in top))
    return found


def test_every_module_is_parsed():
    assert {"csvbytes", "schema", "ingest", "popfile", "cli"} <= set(MODULES)


def test_no_module_imports_another_modules_private_names():
    private = [
        (module, target, name)
        for module in MODULES
        for target, names, _ in package_imports(module)
        for name in names
        if name.startswith("_") and not name.startswith("__")
    ]
    assert private == []


def test_only_cli_imports_lazily():
    # cli imports `fixture` (and its PyYAML writer) only for `example`.
    nested = [
        (module, target, names)
        for module in MODULES
        for target, names, inside in package_imports(module)
        if inside
    ]
    assert nested == [("cli", "fixture", ["generate_example"])]


def test_module_layers():
    imports = {
        module: {target for target, _, _ in package_imports(module)}
        for module in MODULES
    }
    assert imports["csvbytes"] == set()
    assert imports["schema"] == {"csvbytes"}
    assert {m for m, targets in imports.items() if "ingest" in targets} == {"cli"}
    assert "ingest" not in imports["popfile"] | imports["validate"]


def test_import_loads_neither_ingest_nor_yaml():
    code = (
        "import sys, smallarea\n"
        "print(sorted(m for m in ('smallarea.ingest', 'yaml') if m in sys.modules))"
    )
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(filter(None, paths))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --------------------------------------------------------------------------
# Block sizes: the readers read `BLOCK_LINES` and `CHUNK_BYTES` from their
# own module, so that patching `ingest.BLOCK_LINES`, `popfile.BLOCK_LINES`
# or `popfile.CHUNK_BYTES` reaches them. Without that, the small-block tests
# would silently read the whole file as one block.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("quote", ["", '"'])
def test_patched_ingest_block_lines_reaches_csv_blocks(tmp_path, quote):
    # Unquoted, `scan_fields` splits each block; quoted, the `csv` module does.
    path = tmp_path / "t.csv"
    path.write_text(f"a,b\n{quote}1{quote},2\n3,4\n5,6\n")

    def rows_per_block():
        with path.open("rb") as fh:
            blocks = ingest._csv_blocks(path, fh)
            assert next(blocks) == ["a", "b"]
            return [lines.tolist() for *_, lines in blocks]

    assert [line for block in rows_per_block() for line in block] == [2, 3, 4]
    assert max(map(len, rows_per_block())) == 3
    with mock.patch.object(ingest, "BLOCK_LINES", 1):
        blocks = rows_per_block()
    assert [line for block in blocks for line in block] == [2, 3, 4]
    assert max(map(len, blocks)) == 1


def test_patched_popfile_block_sizes_reach_read_population(tmp_path):
    path = tmp_path / "population.csv"
    path.write_text("zone_id,record_id,count\nZ1,r1,2\nZ1,r2,1\nZ2,r1,4\n")
    zones, records = ("Z1", "Z2"), ("r1", "r2")

    def read():
        spy = mock.patch.object(popfile, "line_blocks", wraps=csvbytes.line_blocks)
        with spy as line_blocks:
            population = popfile.read_population(path, zones, records)
        (call,) = line_blocks.call_args_list
        return population, call.args[1:3]

    population, sizes = read()
    assert sizes == (csvbytes.BLOCK_LINES, csvbytes.CHUNK_BYTES)
    with mock.patch.object(popfile, "BLOCK_LINES", 2):
        with mock.patch.object(popfile, "CHUNK_BYTES", 5):
            patched, sizes = read()
    assert sizes == (2, 5)
    assert patched == population

"""Every name the package, the scripts and the tests import is used,
every module-level name of the package is referenced, and every script
still imports.

A static scan of the syntax tree: a name bound by ``import`` or ``from
... import`` must appear somewhere else in the module, as a name, as the
root of an attribute chain, or in ``__all__``.  ``__future__`` imports
and ``import x as x`` re-exports are exempt.  A module-level ``_name``
of the package (a function, class or assigned name) must be read
somewhere in the package, the scripts, the tests or the benchmark, as a
name, an attribute or an imported name.  A public one must be read in
the package, the scripts or the benchmark: the tests do not count, and
neither does a re-export in ``__init__.py``.  Each script is also
loaded and asked for ``--help``, so one that imports a name the package
no longer has fails here.

A fresh interpreter that runs a config through the command line loads
no scipy subpackage, and the LAPACK routine the flow loads directly is
the one ``scipy.linalg.lapack`` exports.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "eqflow").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
FILES = sorted([*PACKAGE, *SCRIPTS, *(ROOT / "tests").glob("*.py")])
READERS = sorted([*FILES, *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def definitions(source: str, private: bool) -> dict[str, int]:
    """Line of each private (or each public) name a module defines at its
    top level; dunder names are neither."""
    out: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("__") and name.startswith("_") == private:
                out.setdefault(name, node.lineno)
    return out


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes, imported names."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def dead_names(modules: dict[str, str], readers: list[str],
               private: bool = True) -> list[str]:
    """Private (or public) top-level names of ``modules`` (name -> source)
    that neither they nor ``readers`` (more sources) ever read.  For the
    public names an ``__init__.py`` re-export is not a read."""
    read = set().union(*map(read_names, [
        *(src for name, src in modules.items()
          if private or name != "__init__.py"), *readers]))
    return [f"{module} line {line}: {name}"
            for module, source in sorted(modules.items())
            for name, line in sorted(definitions(source, private).items())
            if name not in read]


def test_scan_finds_a_dead_private_name():
    module = ("_A = 1\n_B: int = 2\n__all__ = []\n"
              "def _f():\n    return _B\nclass _C:\n    pass\n")
    assert dead_names({"m": module}, []) \
        == ["m line 1: _A", "m line 6: _C", "m line 4: _f"]
    assert dead_names({"m": module}, ["from m import _f, _C\nm._A"]) == []
    assert dead_names({"m": "_A = 1\n"}, ["_A = 2\n"]) == ["m line 1: _A"]


def test_scan_finds_a_dead_public_name():
    module = ("A = 1\n_B = 2\n__all__ = []\n"
              "def f():\n    return A\nclass C:\n    pass\nD: int = 3\n")
    init = "from .m import C, D\n__all__ = ['C', 'D']\n"
    assert dead_names({"m": module, "__init__.py": init}, [], private=False) \
        == ["m line 6: C", "m line 8: D", "m line 4: f"]
    assert dead_names({"m": module}, ["from m import f\nx.C\nD"],
                      private=False) == []
    # a private re-export counts as a read
    assert dead_names({"m": "_A = 1\n", "__init__.py": "from .m import _A\n"},
                      []) == []


def _sources(paths):
    return {p.name: p.read_text(encoding="utf-8") for p in paths}


def test_no_dead_private_names():
    readers = [p.read_text(encoding="utf-8") for p in READERS
               if p not in PACKAGE]
    assert dead_names(_sources(PACKAGE), readers) == []


# Public names of the package that no package module, script or benchmark
# file reads, each with the reason it stays.  Tests do not count as
# readers: a name only tests read belongs in the tests.
PUBLIC_ONLY_FOR_TESTS: dict[str, str] = {}


def test_no_public_names_only_tests_read():
    readers = [p.read_text(encoding="utf-8")
               for p in [*SCRIPTS, *(ROOT / "perfbench").glob("*.py")]]
    dead = dead_names(_sources(PACKAGE), readers, private=False)
    assert [d for d in dead
            if d.rsplit(": ", 1)[1] not in PUBLIC_ONLY_FOR_TESTS] == []
    assert all(any(d.endswith(": " + name) for d in dead)
               for name in PUBLIC_ONLY_FOR_TESTS)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") \
        == ["line 1: os"]
    assert unused_imports("from a import b as c\nc.d\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from .m import x\n__all__ = ['x']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_cleanly(path, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(SystemExit) as exc:
        module.main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def _fresh_python(code: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter that imports eqflow from this
    tree; it prints one JSON line, which is returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# C2, so that freezing the bounds integrates f^n and inverts R; five
# steps at the dt cap, a power of two so that they sum to T_max exactly
FIVE_STEP_RUN = """
import json, sys
from eqflow import cli
doc = {"space": {"case": "C2"}, "slab": {"a": 1.0, "b": 2.0},
       "grid": {"N": 64},
       "initial": {"kind": "perturbed", "radius": 1.0, "amplitude": 0.1},
       "flow": {"T_max": 5 * 2.0**-16, "dt_policy": {"dt_max": 2.0**-16}}}
with open("run.json", "w") as fh:
    json.dump(doc, fh)
code = cli.main(["run", "--config", "run.json", "--out", "out"])
with open("out/summary.json") as fh:
    steps = json.load(fh)["steps"]
print(json.dumps({"code": code, "steps": steps, "modules": sorted(sys.modules)}))
"""

SCIPY_OFF_THE_RUN_PATH = ("scipy.optimize", "scipy.integrate",
                          "scipy.interpolate", "scipy.sparse",
                          "scipy.spatial", "scipy.linalg")


def test_a_run_loads_no_scipy_subpackage(tmp_path):
    out = _fresh_python(FIVE_STEP_RUN, tmp_path)
    assert out["code"] == 0 and out["steps"] == 5
    loaded = [m for m in out["modules"]
              if any(m == p or m.startswith(p + ".")
                     for p in SCIPY_OFF_THE_RUN_PATH)]
    # the LAPACK extension itself, loaded without its package
    assert loaded == ["scipy.linalg._flapack"]


DGTSV_AGAINST_SCIPY = """
import json, sys
import numpy as np
from eqflow import flow
before = "scipy.linalg" in sys.modules
from scipy.linalg.lapack import dgtsv
rng = np.random.default_rng(26)
same = []
for N in (101, 401, 1601):
    dl, du = rng.uniform(-1.0, 1.0, (2, N - 1))
    d = 2.0 + rng.uniform(0.0, 1.0, N)
    b = np.asfortranarray(rng.standard_normal((N, 2)))
    got = flow.dgtsv(dl.copy(), d.copy(), du.copy(), b.copy())
    ref = dgtsv(dl.copy(), d.copy(), du.copy(), b.copy())
    same.append([np.asarray(g).tobytes() == np.asarray(r).tobytes()
                 for g, r in zip(got, ref)] + [int(got[-1]), int(ref[-1])])
print(json.dumps({"before": before, "same": same,
                  "identical": flow.dgtsv is dgtsv}))
"""


def test_direct_dgtsv_is_scipys_bit_for_bit(tmp_path):
    out = _fresh_python(DGTSV_AGAINST_SCIPY, tmp_path)
    # the flow did not import scipy.linalg, and importing it afterwards works
    assert out["before"] is False
    assert out["identical"] is True
    for row in out["same"]:
        *equal, info_got, info_ref = row
        assert all(equal) and len(equal) == 5
        assert info_got == info_ref == 0

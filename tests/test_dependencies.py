"""The package runs on the standard library alone, and imports lean.

numpy and scipy are test-only references: `[project].dependencies` is
empty, no module under `src/llp_lab` imports either, and the paths that
drew binomials through numpy leave it unimported.  Importing the package
loads no OpenSSL (`hashlib`), and no class is an `@dataclass(...)`, whose
methods are compiled per class: records go through `core.record`.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import llp_lab

PACKAGE = Path(llp_lab.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


def test_runtime_dependencies_are_empty():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])


def test_no_module_imports_numpy_or_scipy():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] in ("numpy", "scipy")]
    assert found == []


def test_binomial_draws_leave_numpy_unimported():
    code = """
import sys
from fractions import Fraction
import llp_lab as llp

desc = llp.ClassDescriptor("monotone_disjunction", 3)
run = llp.consistency_via_llp(llp.gen_consistency(desc, 4, 7), llp.make_brute_oracle(desc), Fraction(1, 20), 7)
ground = (2, 3, 5, 7, 11)
dist = llp.make_distribution((p, Fraction(w, 31)) for p, w in zip(ground, (1, 2, 4, 8, 16)))
gap = llp.TrialConfig(
    learner="gap", epsilon=Fraction(1, 10), delta=Fraction(1, 10), trials=2, seed=0, distribution=dist,
    target=llp.FiniteSubset((3, 7)), m_mode="gap", desc=llp.ClassDescriptor("finite_subset", 1, ground_set=ground),
)
nats = llp.gen_distribution(llp.ClassDescriptor("finite_subset", 1), 40, 5, nat_range=1000)
subset_sum = llp.TrialConfig(
    learner="subset_sum", epsilon=Fraction(1, 10), delta=Fraction(1, 10), trials=2, seed=0, distribution=nats,
    target=llp.FiniteSubset(tuple(p for p, _ in nats.atoms[::2])), m=5000,
)
reports = [llp.run_trials(gap), llp.run_trials(subset_sum)]
assert all(row.error is None for report in reports for row in report.rows)
print(sorted({"numpy", "scipy"} & set(sys.modules)))
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(
    importlib.util.find_spec("_sha256") is None and importlib.util.find_spec("_sha2") is None,
    reason="no built-in SHA-256 module: derive_seed takes hashlib's",
)
def test_import_and_derive_seed_leave_hashlib_unimported():
    code = "import sys, llp_lab; llp_lab.derive_seed(1, 'a'); print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_class_is_decorated_with_dataclass():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if name == "dataclass":
                        found.append(f"{path.name}:{dec.lineno} {node.name}")
    assert found == []

"""What the package's modules import.

``scipy.stats`` takes about 1.4 s to import, and ``scipy.optimize`` about
0.4 s.  The package needs neither to analyze or rank; only ``fit-priors``
loads ``scipy.optimize``.  Each check runs in a fresh interpreter, since
the test process has imported both already.

Every name a module imports is used there or exported, except the names
``bench/tracing.py`` patches on that module, which are marked as such.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = """
import json, sys

def loaded():
    return {name: name in sys.modules for name in ("scipy.stats", "scipy.optimize")}

from bmameta import cli, general_candidate_set
from bmameta.reports import dumps

five, corpus, cand, out = sys.argv[1:]
with open(cand, "w") as fh:
    fh.write(dumps(general_candidate_set().to_dict()) + "\\n")
steps = {"import": loaded()}
codes = [cli.main(["analyze", five, "--out", out + "/a.json"])]
steps["analyze"] = loaded()
codes.append(cli.main(["rank", corpus, "--candidates", cand, "--mode", "inclusion",
                       "--out", out + "/r.json"]))
steps["rank"] = loaded()
codes.append(cli.main(["fit-priors", corpus, "--min-studies", "3", "--out", out + "/f.json"]))
steps["fit-priors"] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""


def test_scipy_stats_never_loaded_and_optimize_only_by_fit_priors(tmp_path):
    five = tmp_path / "five.csv"
    five.write_text("effect,se\n1.2,0.3\n0.8,0.25\n1.5,0.35\n0.9,0.3\n1.1,0.28\n")
    rng = np.random.default_rng(5)
    lines = ["comparison_id,effect,se"]
    for c in range(6):
        delta = rng.normal(0.0, 0.5)
        for _ in range(4):
            lines.append(f"C{c},{rng.normal(delta, 0.3):.6f},{rng.uniform(0.1, 0.3):.6f}")
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("\n".join(lines) + "\n")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(five), str(corpus), str(tmp_path / "cand.json"),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    steps = result["steps"]
    for step in ("import", "analyze", "rank"):
        assert steps[step] == {"scipy.stats": False, "scipy.optimize": False}, step
    assert steps["fit-priors"] == {"scipy.stats": False, "scipy.optimize": True}


def _unused_imports(source: str) -> list:
    """(name, line) of each name the module imports but neither uses nor
    lists in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported += [((a.asname or a.name).split(".")[0], a.lineno) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported if name not in used]


def test_every_import_is_used_or_exported(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    patched = {(owner.__name__, attr) for owner, attr, _ in tracing._SITES}
    unused, exempt = [], []
    for path in sorted((SRC / "bmameta").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        for name, line in _unused_imports(source):
            text = lines[line - 1]
            marked = "# noqa: F401" in text and "bench/tracing.py" in text
            (exempt if marked else unused).append((f"bmameta.{path.stem}", name))
    assert unused == []
    # each marked import is a name the tracer really patches
    assert exempt and set(exempt) <= patched

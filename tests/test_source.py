"""Source hygiene that no linter in the toolchain checks: every name a
fracwave module imports is used in that module (names listed in a module's
__all__ are exempt, and so is __init__.py, whose imports are re-exports),
every name a module exports is used by code that runs, and the commands
import only what they run: scipy only inside the one oracle that needs it,
numpy.ma only in rate."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fracwave"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _exported(tree: ast.Module) -> set[str]:
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def _unused_imports(path: Path) -> list[str]:
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 5
    unused = {p.name: _unused_imports(p) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _referenced(tree: ast.Module) -> set[str]:
    """Names the code reads: bare names, attributes and from-imports (the
    strings of __all__ and the names a def or class binds are not reads)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_every_export_is_used_by_code_that_runs():
    """A name in a module's __all__ must be read by fracwave's own modules
    (its own included; __init__.py only re-exports), the demos, the
    benchmark or the acceptance suite.  A name that only unit tests reach
    is API that no run uses: delete it, or use it."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    runners = [*modules, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*(_referenced(_parse(p)) for p in runners))
    unread = {p.stem: sorted(_exported(_parse(p)) - read) for p in modules}
    assert {name: names for name, names in unread.items() if names} == {}


# Plans of the import-budget test: the simulate table calls
# prelimit_variance_white (linear sigma, R >= 2t); the paper-normalized rate
# scales by the empirical curves, at R < 2t and R >= 2t.
_BUDGET_PLANS = {
    "sim.cfg": "hurst = 0.5\nh = 0.25\ntimes = 1.0\nradii = 2.0\nreplicas = 60\nseed = 3\n"
               "\n[sigma]\nkind = linear\n",
    "rate.cfg": "hurst = 0.5\nh = 0.25\ntimes = 0.5, 1.0\nradii = 1.0, 2.0, 4.0\nreplicas = 100\n"
                "seed = 4\nnormalization = paper\nchaos = false\n"
                "\n[sigma]\nkind = affine_sine\nbase = 1.0\namplitude = 0.5\n",
    "func.cfg": "hurst = 0.75\nh = 0.25\ntimes = 0.5, 1.0\nradii = 1.0\nreplicas = 20\nseed = 5\n"
                "\n[sigma]\nkind = linear\n",
}

# Runs the commands given as JSON in one fresh interpreter, then
# `oracle chaos1 --hurst 0.75`, and reports what each stage left imported.
_IMPORT_BUDGET_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    from fracwave import analytic, cli

    codes = []
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(cli.main(["oracle", "chaos1", "--t", "0.5", "--R", "1", "--hurst", "0.75"]))
    print(json.dumps({
        "codes": codes,
        "before": before,
        "after": "scipy.integrate" in sys.modules,
        "chaos1": json.loads(out.getvalue())["value"],
        "direct": analytic.first_chaos_variance(0.5, 1.0, 0.75),
    }))
""")


def test_commands_leave_scipy_integrate_unimported(tmp_path):
    """Only the fractional first-chaos oracle integrates adaptively; every
    other command, the simulate table's prelimit oracle, the paper-scaled
    rate and every KS distance included, runs without loading any scipy
    module."""
    for name, body in _BUDGET_PLANS.items():
        (tmp_path / name).write_text("[experiment]\n" + body)
    commands = [
        ["simulate", str(tmp_path / "sim.cfg"), "--threads", "1"],
        ["rate", str(tmp_path / "rate.cfg"), "--threads", "1", "--bootstrap", "5"],
        ["funcclt", str(tmp_path / "func.cfg"), "--threads", "1"],
        ["oracle", "variance", "--t", "1", "--hurst", "0.5"],
        ["oracle", "cov", "--ti", "0.5", "--tj", "1", "--hurst", "0.75"],
        ["noise-dump", "--hurst", "0.75", "--dt", "0.25", "--dx", "0.25", "--n-time", "4",
         "--n-space", "8", "--out", str(tmp_path / "sheet.bin")],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUDGET_SCRIPT, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 7
    assert report["before"] == []
    assert report["after"] is True
    assert report["chaos1"] == report["direct"]


def test_commands_other_than_rate_leave_numpy_ma_unimported(tmp_path):
    """numpy 2's np.unique imports numpy.ma (about 16 ms) on its first call,
    to check for a masked array; fracwave dedupes by sorting instead.  Only
    rate's percentile bootstrap CI (np.quantile) still loads it."""
    for name, body in _BUDGET_PLANS.items():
        (tmp_path / name).write_text("[experiment]\n" + body)
    commands = [
        ["simulate", str(tmp_path / "sim.cfg"), "--threads", "1"],
        ["funcclt", str(tmp_path / "func.cfg"), "--threads", "1"],
        ["oracle", "variance", "--t", "1", "--hurst", "0.5"],
        ["oracle", "cov", "--ti", "0.5", "--tj", "1", "--hurst", "0.75"],
        ["noise-dump", "--hurst", "0.75", "--dt", "0.25", "--dx", "0.25", "--n-time", "4",
         "--n-space", "8", "--out", str(tmp_path / "sheet.bin")],
    ]
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from fracwave import cli

        loaded = []
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                loaded.append([cli.main(argv), "numpy.ma" in sys.modules])
        print(json.dumps(loaded))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, False]] * len(commands)


def _module_level_imports(node: ast.AST):
    """Import statements that run when the module is imported: everything
    outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            yield child.lineno, [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            yield child.lineno, [child.module or ""]
        else:
            yield from _module_level_imports(child)


def test_no_module_imports_scipy_at_import_time():
    """scipy costs every command about 0.3 s to import; a module may import
    it only inside the function that uses it."""
    found = {
        f"{p.name}:{line}": names
        for p in sorted(SRC.glob("*.py"))
        for line, names in _module_level_imports(_parse(p))
        if any(name.split(".")[0] == "scipy" for name in names)
    }
    assert found == {}

"""Source hygiene that no linter in the toolchain checks: every name a file
of code that runs imports is used in that file (names listed in a module's
__all__ are exempt, and so is __init__.py, whose imports are re-exports),
the package exports exactly its modules' __all__, every name a module
exports is read by code that runs (an import is not a read), so is every
public member of an exported class, and every default of any function or
method is set by some call there and left by another;
and the commands import only what they run: no module imports scipy
anywhere, no command loads scipy or numpy.polynomial, and only rate loads
numpy.ma."""

import ast
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fracwave"
# fracwave's modules (__init__.py only re-exports), and the code that runs:
# the modules, the demos, the benchmark and the acceptance suite
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
RUNNERS = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]


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
    assert len(MODULES) >= 5
    unused = {str(p.relative_to(ROOT)): _unused_imports(p) for p in RUNNERS}
    assert {name: names for name, names in unused.items() if names} == {}


def _referenced(tree: ast.Module) -> set[str]:
    """Names the code reads: bare names and attributes (the strings of
    __all__, the names an import or a def or class binds are not reads)."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _public_members(tree: ast.Module):
    """(class, member, is_field) of the public methods, properties and fields
    of the module's __all__ classes."""
    exported = _exported(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in exported:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield node.name, name, isinstance(item, ast.AnnAssign)


def _annotated_class(annotation, classes):
    """The class of `classes` that an annotation names, as X or "X", else None."""
    if isinstance(annotation, ast.Name):
        annotation = annotation.id
    elif isinstance(annotation, ast.Constant):
        annotation = annotation.value
    return annotation if annotation in classes else None


def _attribute_loads(tree: ast.Module, classes) -> set:
    """(class, through_self, name) of every attribute the code loads (x.name
    read, not assigned or deleted; a bare name that happens to match is not
    such a read).  class is the one of `classes` that x is typed as, else
    None: x is a parameter annotated with it, or (through_self) the self or
    cls of one of its methods."""
    loads = set()

    def visit(node, typed, owner):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            typed = {k: v for k, v in typed.items() if k not in {a.arg for a in params}}
            typed.update((a.arg, (cls, False)) for a in params
                         if (cls := _annotated_class(a.annotation, classes)))
            if owner in classes and params and params[0].arg in ("self", "cls"):
                typed[params[0].arg] = (owner, True)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.add((*typed.get(getattr(node.value, "id", None), (None, False)), node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, typed, node.name if isinstance(node, ast.ClassDef) else None)

    visit(tree, {}, None)
    return loads


def _unread_members(modules, runners) -> list[str]:
    """The public members, "class.member", of the modules' exported classes
    that the runners never load.  A load x.name reads the member
    name of the class x is typed as, and of every class when x is untyped.
    Through a class's own self or cls it reads a field (a constructor input)
    but not a method or property: one that only its own class loads
    restates the code beside it."""
    classes = {}
    for tree in modules:
        for cls, name, is_field in _public_members(tree):
            classes.setdefault(cls, {})[name] = is_field
    loads = set().union(*(_attribute_loads(tree, classes) for tree in runners))
    by_name = {name for cls, _, name in loads if cls is None}
    return sorted(f"{cls}.{name}" for cls, members in classes.items()
                  for name, is_field in members.items()
                  if name not in by_name and (cls, False, name) not in loads
                  and not (is_field and (cls, True, name) in loads))


def test_every_export_is_used_by_code_that_runs():
    """A name in a module's __all__ must be read by the code that runs (its
    own module included), and a public method, property or field of an
    exported class must be loaded there as an attribute, x.name, by the
    rules of _unread_members.  A name that only unit tests reach is API that
    no run uses: delete it, or use it."""
    trees = [_parse(p) for p in RUNNERS]
    read = set().union(*map(_referenced, trees))
    modules = dict(zip((p.stem for p in MODULES), trees))  # RUNNERS open with MODULES
    unread = {stem: sorted(_exported(tree) - read) for stem, tree in modules.items()}
    assert {stem: names for stem, names in unread.items() if names} == {}
    assert _unread_members(modules.values(), trees) == []


def test_package_exports_exactly_its_modules_all():
    """The package's public names are the library modules' __all__, in
    order, each the module's own object: a module's __all__ is the one
    declaration of its API, and no second list repeats it."""
    import fracwave
    from fracwave import analytic, estimators, noise, solver

    modules = (noise, analytic, solver, estimators)
    assert {m.__name__.rpartition(".")[2] for m in modules} == {p.stem for p in MODULES} - {"cli"}
    assert fracwave.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(fracwave.__all__)) == len(fracwave.__all__)
    assert {f"{m.__name__}.{name}" for m in modules for name in m.__all__
            if getattr(fracwave, name) is not getattr(m, name)} == set()


# Two exported classes that share a field name, for the member audit's tests
_AUDITED = textwrap.dedent("""
    __all__ = ["ExperimentPlan", "SolutionField"]


    class ExperimentPlan:
        sigma: float

        @property
        def scale(self):
            return 2.0 * self.sigma

        def describe(self):
            return str(self.scale)


    class SolutionField:
        sigma: float
""")


@pytest.mark.parametrize("runner, unread", [
    # a property loaded only through self restates the code beside it
    ("def run(plan, field):\n    return plan.describe(), field.sigma\n",
     ["ExperimentPlan.scale"]),
    # loaded on a parameter annotated with its class, it is read
    ("def run(plan: ExperimentPlan, field):\n    return plan.describe(), plan.scale, field.sigma\n",
     []),
    # a field loaded only on a receiver typed as another class is unread
    ('def run(plan: "ExperimentPlan"):\n    return plan.describe(), plan.scale, plan.sigma\n',
     ["SolutionField.sigma"]),
], ids=["self-only property", "annotated receiver", "field of another class"])
def test_member_audit_types_its_receivers(runner, unread):
    module = ast.parse(_AUDITED)
    assert _unread_members([module], [module, ast.parse(runner)]) == unread


def _defaulted(tree: ast.Module):
    """(function, parameter, position or None if keyword-only) of every
    parameter with a default, over every function and method of the module,
    private ones included.  A method's positions leave out its self or cls,
    which a call through an instance or the class does not pass."""
    bound = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, ast.FunctionDef)
             and "staticmethod" not in {_callee(d) for d in item.decorator_list}}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            shift = 1 if id(node) in bound else 0
            for i, arg in enumerate(positional[first:], first):
                yield node.name, arg.arg, i - shift
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _callee(node: ast.AST):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(tree: ast.Module):
    """(callee name, positional arguments given, keywords given) of every
    call, matched by the callee's name: any number of positional arguments
    past a *args, and a None keyword for a **kwargs, which may set any.
    functools.partial(f, ...) is a call of f with the arguments it binds."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        given = math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args)
        yield name, given, {kw.arg for kw in node.keywords}


def _sets(call, param: str, pos) -> bool:
    """Whether a call, (positional arguments given, keywords given), sets
    the parameter."""
    given, keywords = call
    return bool({param, None} & keywords) or (pos is not None and pos < given)


def _runner_calls() -> dict:
    """The calls of the code that runs, by callee name."""
    calls = {}
    for p in RUNNERS:
        for name, given, keywords in _calls(_parse(p)):
            calls.setdefault(name, []).append((given, keywords))
    return calls


def test_every_default_is_set_by_code_that_runs():
    """A defaulted parameter of any function or method in src/ must be set,
    by position, keyword or functools.partial, somewhere in the code that
    runs.  A knob that only unit tests turn is a second code path that no
    run takes: fix it, or let a run set it."""
    calls = _runner_calls()
    unset = [
        f"{p.stem}.{fn}({param})"
        for p in MODULES
        for fn, param, pos in _defaulted(_parse(p))
        if not any(_sets(call, param, pos) for call in calls.get(fn, []))
    ]
    assert unset == []


def test_every_default_is_relied_on_by_code_that_runs():
    """A defaulted parameter of any function or method in src/ must be left
    unset by some call in the code that runs.  A default that every run
    overrides is a value no run takes: make the parameter required, or fix
    it to the value the runs pass."""
    calls = _runner_calls()
    overridden = [
        f"{p.stem}.{fn}({param})"
        for p in MODULES
        for fn, param, pos in _defaulted(_parse(p))
        if all(_sets(call, param, pos) for call in calls.get(fn, []))
    ]
    assert overridden == []


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

# Runs the commands given as JSON in one fresh interpreter and reports, after
# each, its exit code and the scipy or numpy.polynomial modules then loaded.
_IMPORT_BUDGET_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    from fracwave import analytic, cli

    report, out = [], io.StringIO()
    for argv in json.loads(sys.argv[1]):
        out.seek(0), out.truncate()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        report.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                                    or m.startswith("numpy.polynomial"))])
    print(json.dumps({
        "report": report,
        "chaos1": json.loads(out.getvalue())["value"],
        "direct": analytic.first_chaos_variance(0.5, 1.0, 0.75),
    }))
""")


def test_commands_leave_scipy_integrate_unimported(tmp_path):
    """No command loads any scipy module: the simulate table's prelimit
    oracle, the paper-scaled rate, every KS distance and the fractional
    first-chaos oracle (a closed form) included.  None loads numpy.polynomial
    either: the moment rule's Gauss-Legendre nodes are literals."""
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
        ["oracle", "chaos1", "--t", "0.5", "--R", "1", "--hurst", "0.75"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUDGET_SCRIPT, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["report"] == [[0, []]] * len(commands)
    assert result["chaos1"] == result["direct"]


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


def _imported_modules(tree: ast.Module):
    """(line, module) of every import statement, inside functions too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or ""


def test_no_module_imports_scipy_at_import_time():
    """No fracwave module imports scipy, at import time or inside a
    function: numpy is the one runtime dependency, and scipy is the tests'
    independent reference."""
    found = [f"{p.name}:{line} {name}" for p in sorted(SRC.glob("*.py"))
             for line, name in _imported_modules(_parse(p)) if name.split(".")[0] == "scipy"]
    assert found == []

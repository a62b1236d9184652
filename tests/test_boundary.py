"""Module boundaries of the package source."""

import ast
import sys
from pathlib import Path

from elliplrt import inference, likelihood
from elliplrt.montecarlo import SimulationConfig, _Setup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "elliplrt"

# Cholesky factorizations and triangular solves run in _linalg.py alone
LINALG_ONLY = ("np.linalg.cholesky", "dtrtrs", "solve_triangular", "scipy.linalg")


def test_factorizations_and_triangular_solves_stay_in_linalg():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            hits += [f"{path.name}:{lineno}: {name}" for name in LINALG_ONLY if name in line]
    assert not hits, "\n".join(hits)
    assert "np.linalg.cholesky" in (SRC / "_linalg.py").read_text()


def test_the_dsigma_support_and_layout_live_in_likelihood():
    text = (SRC / "model.py").read_text()
    assert [name for name in ("sigma_support", "dsigma_bk", "_bk_layout", "_nonzero_params") if name in text] == []
    assert likelihood.__all__ == ["ScoreInfo", "loglik", "score_info"]


def test_every_parameter_of_a_public_function_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        public = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                public = set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                a = node.args
                params = [x.arg for x in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if x]
                read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread += [f"{path.name}: {node.name}({p})" for p in params if p not in read]
    assert not unread, "\n".join(unread)


def test_skip_flags_are_the_flags_adjustment_factors_sets():
    # montecarlo counts skipped adjustments by inference.SKIP_FLAGS: every flag set here must be in it
    tree = ast.parse((SRC / "inference.py").read_text())
    func = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "adjustment_factors")
    added = [call.args[0].value for call in ast.walk(func)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "add"
             and getattr(call.func.value, "id", None) == "flags" and isinstance(call.args[0], ast.Constant)]
    assert sorted(added) == sorted(inference.SKIP_FLAGS)


def _functions():
    """(module.function or module.Class.method, its node) for every top-level function and method of the source."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{f.name}", f


def test_nonspd_error_is_caught_only_where_evaluate_is_called():
    # fit skips a start whose scatter is not SPD; nothing past it sees NonSPDError
    allowed = {"inference._newton", "inference._lbfgs", "inference.fit", "montecarlo._Setup.__init__"}
    catching = set()
    for name, func in _functions():
        for handler in ast.walk(func):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None and any(
                    getattr(n, "id", getattr(n, "attr", None)) == "NonSPDError" for n in ast.walk(handler.type)):
                catching.add(name)
    assert catching <= allowed, "\n".join(sorted(catching - allowed))


def test_one_rule_draws_every_simulated_dataset():
    # the designs are drawn in design_template and the spherical s_i in Sampler.draw, nowhere else
    owners = {"sample_spherical": {"montecarlo.Sampler.draw"},
              "model1_design": {"montecarlo.design_template"}, "model2_design": {"montecarlo.design_template"}}
    callers = {name: set() for name in owners}
    for name, func in _functions():
        for call in ast.walk(func):
            if isinstance(call, ast.Call):
                callee = getattr(call.func, "id", getattr(call.func, "attr", None))
                if callee in callers:
                    callers[callee].add(name)
    assert callers == owners


def test_a_fits_coordinates_have_one_owner():
    # _Objective moves between theta and x: fit reads its starts, Newton and L-BFGS its x, g and H
    tree = ast.parse((SRC / "inference.py").read_text())
    assert not {"_to_internal", "_from_internal"} & {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    hits = [f"{name}: {ast.unparse(node)}" for name, func in _functions()
            if name in ("inference.fit", "inference._newton", "inference._lbfgs")
            for node in ast.walk(func) if isinstance(node, ast.Attribute)
            and (node.attr == "is_log" or ast.unparse(node) in ("np.log", "np.exp", "math.exp"))]
    assert hits == []


def test_the_floating_point_policy_is_set_only_by_its_owners():
    # fit for its probes, cholesky_blocks for evaluate's failure rule, _Setup for the true theta
    owners = {"inference.fit", "_linalg.cholesky_blocks", "montecarlo._Setup.__init__"}
    setting = {name for name, func in _functions() for node in ast.walk(func)
               if isinstance(node, ast.Attribute) and node.attr == "errstate"}
    assert setting == owners


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # bench/tracing.py skips a name the program no longer has, and the per-layer metrics that need it read 0
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(ROOT / "bench"))
    setup = _Setup(SimulationConfig(model="model1", family="normal", n=12, interest=(3,)))
    tracer = Tracer()
    tracer.install(setup)
    patches = list(tracer._patches)
    tracer.uninstall()
    patched = sorted(("_Setup" if owner is setup else owner.__name__, attr) for owner, attr, _ in patches)
    wrapped = ("run_test", "fit", "_newton", "evaluate", "score_info", "build_ancillary", "sample_space_gradients",
               "doubletilde_info", "adjusted_statistics", "p_values")
    assert patched == sorted([*(("elliplrt.inference", name) for name in wrapped),
                              ("elliplrt.likelihood", "chol_solve"), ("_Setup", "draw_dataset")])
    assert all(getattr(owner, attr) is fn for owner, attr, fn in patches)

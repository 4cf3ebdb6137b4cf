"""Each bardina module lists in __all__ exactly the public functions and
classes it defines, so its surface cannot grow or shrink unnoticed, and
every name it lists has a caller outside the tests: in the package, the
demos or the benchmark harness.  Its numeric parameters are checked at that
surface: NaN and infinities are refused by name, not passed on into the
arithmetic, and an integer parameter refuses a fraction or a bool by name."""
import ast
import glob
import importlib
import inspect
import math
import os
import pkgutil

import numpy as np
import pytest

import bardina
from bardina import bounds, dynamics, inequalities, instability, spectral

from conftest import name_reads

MODULES = ["bardina"] + [f"bardina.{m.name}" for m in pkgutil.iter_modules(bardina.__path__)]


def _public_definitions(module):
    """Names of the public functions and classes whose __module__ is module;
    a cached function (lru_cache) counts as a function."""
    return {name for name, obj in vars(module).items()
            if not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
            and (inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj)))}


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(name)
    assert sorted(getattr(module, "__all__", [])) == sorted(_public_definitions(module))


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLERS = [os.path.join("src", "bardina"), "demos", "perfbench"]  # the tests do not count


def unreferenced(root):
    """`module.name` of every name in a bardina module's __all__ that no code
    under CALLERS of the tree at root references outside its own definition."""
    found = set()
    for directory in CALLERS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, directory)):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in filenames:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                        found |= name_reads(ast.parse(f.read()))
    out = []
    for path in sorted(glob.glob(os.path.join(root, "src", "bardina", "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        module = os.path.splitext(os.path.basename(path))[0]
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                out += [f"{module}.{name}" for name in ast.literal_eval(node.value)
                        if name not in found]
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name only the tests reach belongs in the tests, or in no __all__
    assert unreferenced(ROOT) == []


def test_scan_finds_a_name_only_its_own_definition_reads(tmp_path):
    (tmp_path / "src" / "bardina").mkdir(parents=True)
    (tmp_path / "src" / "bardina" / "mod.py").write_text(
        '__all__ = ["used", "recursive", "named", "Shape", "spare"]\n'
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def named(): pass\n"
        "class Shape:\n    def copy(self): return Shape()\n"
        "def spare(): 'calls used()'\n"
        "x = used()\n")
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text("import mod\nmod.named()\nprint('spare')\n")
    assert unreferenced(str(tmp_path)) == ["mod.recursive", "mod.Shape", "mod.spare"]


FIELD = spectral.zero_field(spectral.make_grid(32))
STATE = dynamics.make_state(FIELD, spectral.ModelParams(alpha=0.01, gamma=1.0))
LYAPUNOV = dict(n=1, dt=0.01, renorm_every=1, t_transient=0.0, t_average=0.02, blocks=2)
BOUNDARY = {  # a public callable with one real parameter x, the rest valid
    "ModelParams.alpha": lambda x: spectral.ModelParams(alpha=x, gamma=1.0),
    "ModelParams.gamma": lambda x: spectral.ModelParams(alpha=0.01, gamma=x),
    "KolmogorovSpec.amplitude": lambda x: instability.KolmogorovSpec(s=2, amplitude=x, gamma=1.0),
    "KolmogorovSpec.gamma": lambda x: instability.KolmogorovSpec(s=2, amplitude=1.0, gamma=x),
    "threshold_amplitude.alpha": lambda x: instability.threshold_amplitude(8, 0.35, x, 1.0),
    "threshold_amplitude.gamma": lambda x: instability.threshold_amplitude(8, 0.35, 0.01, x),
    "dimension_report.alpha": lambda x: bounds.dimension_report(x, 1.0),
    "dimension_report.gamma": lambda x: bounds.dimension_report(0.001, x),
    "step.dt": lambda x: dynamics.step(STATE, x),
    "simulate.dt": lambda x: dynamics.simulate(STATE, 0.02, x),
    "lyapunov_spectrum.dt": lambda x: dynamics.lyapunov_spectrum(STATE, **{**LYAPUNOV, "dt": x}),
    "lyapunov_spectrum.t_transient": lambda x: dynamics.lyapunov_spectrum(
        STATE, **{**LYAPUNOV, "t_transient": x}),
    "lyapunov_spectrum.t_average": lambda x: dynamics.lyapunov_spectrum(
        STATE, **{**LYAPUNOV, "t_average": x}),
    "upper_bound.alpha": lambda x: bounds.upper_bound(x, 1.0, 1.0),
    "upper_bound.gamma": lambda x: bounds.upper_bound(1.0, x, 1.0),
    "upper_bound.curl_g_norm_sq": lambda x: bounds.upper_bound(1.0, 1.0, x),
    "trace_bound_q.n": lambda x: bounds.trace_bound_q(x, 1.0, 1.0, 1.0),
    "trace_bound_q.alpha": lambda x: bounds.trace_bound_q(2.0, x, 1.0, 1.0),
    "trace_bound_q.gamma": lambda x: bounds.trace_bound_q(2.0, 1.0, x, 1.0),
    "trace_bound_q.curl_g_norm": lambda x: bounds.trace_bound_q(2.0, 1.0, 1.0, x),
    "smooth.alpha": lambda x: spectral.smooth(FIELD, x),
    "random_field.amplitude": lambda x: spectral.random_field(FIELD.grid,
                                                              np.random.default_rng(0), x),
    "k1.x": inequalities.k1,
    "lattice_F.m": inequalities.lattice_F,
    "poisson_F.m": inequalities.poisson_F,
    "psi_big.m": lambda x: inequalities.psi_big([1.0, x]),
    "rho_l2_check.m": lambda x: inequalities.rho_l2_check(n=2, m=x, trials=2),
    "trace_k2_check.m": lambda x: inequalities.trace_k2_check(FIELD, x, k_cut=4),
    "Chain.alpha": lambda x: instability.Chain(s=8, t=4, r=1, alpha=x, gamma=1.0, coupling=1.0),
    "Chain.gamma": lambda x: instability.Chain(s=8, t=4, r=1, alpha=0.0, gamma=x, coupling=1.0),
    "Chain.coupling": lambda x: instability.Chain(s=8, t=4, r=1, alpha=0.0, gamma=1.0,
                                                  coupling=x),
}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in BOUNDARY for bad in (math.nan, math.inf, -math.inf)
    if (name, bad) != ("k1.x", math.inf)  # K1(inf) = 0 is a value, not an error
])
def test_non_finite_parameters_are_refused(name, bad):
    parameter = name.rpartition(".")[2]
    with pytest.raises(ValueError, match=f"^{parameter} must be"):
        BOUNDARY[name](bad)


INTEGERS = {  # a public callable with one integer parameter x, the rest valid; a valid x
    "Chain.s": (lambda x: instability.Chain(s=x, t=1, r=0, alpha=0.0, gamma=1.0,
                                            coupling=1.0), 4),
    "Chain.t": (lambda x: instability.Chain(s=8, t=x, r=1, alpha=0.0, gamma=1.0,
                                            coupling=1.0), 4),
    "Chain.r": (lambda x: instability.Chain(s=8, t=4, r=x, alpha=0.0, gamma=1.0,
                                            coupling=1.0), 1),
    "KolmogorovSpec.s": (lambda x: instability.KolmogorovSpec(s=x, amplitude=1.0, gamma=1.0), 2),
    "unstable_count.s": (lambda x: instability.unstable_count(x, 0.35, 0.01, 1.0), 8),
    "threshold_amplitude.s": (lambda x: instability.threshold_amplitude(x, 0.35, 0.01, 1.0), 8),
    "simulate.observe_every": (lambda x: dynamics.simulate(STATE, 0.02, 0.01, observe_every=x),
                               1),
    "lyapunov_spectrum.n": (lambda x: dynamics.lyapunov_spectrum(
        STATE, **{**LYAPUNOV, "n": x}), 1),
    "lyapunov_spectrum.renorm_every": (lambda x: dynamics.lyapunov_spectrum(
        STATE, **{**LYAPUNOV, "renorm_every": x}), 1),
    "lyapunov_spectrum.blocks": (lambda x: dynamics.lyapunov_spectrum(
        STATE, **{**LYAPUNOV, "blocks": x}), 2),
    "make_tangents.n": (lambda x: dynamics.make_tangents(FIELD.grid, x, 0.01,
                                                         np.random.default_rng(0)), 2),
    "make_grid.n": (spectral.make_grid, 8),
    "chain_matrix_eigens.depth": (lambda x: instability.chain_matrix_eigens(
        [instability.Chain(s=8, t=4, r=1, alpha=0.0, gamma=1.0, coupling=1.0)], x), 16),
    "random_field.band": (lambda x: spectral.random_field(FIELD.grid, np.random.default_rng(0),
                                                          band=x), 4),
    "rho_l2_check.n": (lambda x: inequalities.rho_l2_check(n=x, m=1.0, trials=1), 2),
    "rho_l2_check.trials": (lambda x: inequalities.rho_l2_check(n=2, m=1.0, trials=x), 1),
    "rho_l2_check.band": (lambda x: inequalities.rho_l2_check(n=2, m=1.0, trials=1, band=x), 10),
    "rho_l2_check.eval_grid": (lambda x: inequalities.rho_l2_check(n=2, m=1.0, trials=1,
                                                                  eval_grid=x), 64),
    "trace_k2_check.k_cut": (lambda x: inequalities.trace_k2_check(FIELD, 1.0, k_cut=x), 4),
    "lattice_F.radius": (lambda x: inequalities.lattice_F(1.0, radius=x), 8),
    "poisson_F.k_max": (lambda x: inequalities.poisson_F(1.0, k_max=x), 8),
}


@pytest.mark.parametrize("name, bad", [(name, bad) for name in INTEGERS for bad in (2.5, True)])
def test_non_integer_parameters_are_refused(name, bad):
    parameter = name.rpartition(".")[2]
    with pytest.raises(ValueError, match=f"^{parameter} must be an integer"):
        INTEGERS[name][0](bad)


@pytest.mark.parametrize("name", INTEGERS)
def test_numpy_integers_are_accepted(name):
    call, good = INTEGERS[name]
    call(np.int64(good))


BELOW_LEAST = {  # an integer parameter of INTEGERS with a least value; an integer below it
    "random_field.band": -3,
    "make_grid.n": 2,
    "lyapunov_spectrum.n": 0,
    "lyapunov_spectrum.blocks": 1,
    "simulate.observe_every": 0,
    "make_tangents.n": 0,
}


@pytest.mark.parametrize("name", BELOW_LEAST)
def test_integers_below_their_least_are_refused(name):
    parameter = name.rpartition(".")[2]
    with pytest.raises(ValueError, match=f"^{parameter} must be an integer >= "):
        INTEGERS[name][0](BELOW_LEAST[name])

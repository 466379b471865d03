import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import bivquant
from bivquant import numerics

#: Every public name of the package; a name added or dropped is a deliberate edit here.
PUBLIC = {
    "ALL_DIRECTIONS", "LOWER_LOWER", "LOWER_UPPER", "UPPER_LOWER", "UPPER_UPPER", "Direction",
    "BivariateModel", "Exponential", "Pareto", "Uniform01", "Weibull", "FGMCopula", "IndependenceCopula",
    "marginal_quantile", "conditional_quantile", "orthant_prob", "swap_axes", "model_from_dict",
    "CURVE_TOL", "QuantileCurve", "curve_from_conditional", "curve_points", "level_residuals",
    "ComponentFunction", "component_from_model", "hazard_mrl_identity_residual",
    "quantile_from_hazard", "quantile_from_mrl", "quantile_from_reversed_hazard", "quantile_from_reversed_mrl",
    "SampleSet", "sample", "empirical_curve", "empirical_mrl_first",
    "NumericConfig", "integrate",
    "BivquantError", "BoundaryError", "ConfigError", "ConvergenceError", "DegenerateConditioningError",
    "DegenerateLevelError", "DivergenceError", "DomainError", "InfiniteMeanError", "InsufficientMassError",
    "IntegrandError", "ModelSpecError", "MonotonicityError", "SignError",
}


def _exports() -> set:
    # the package resolves its names on first access, so its namespace holds only those read so far
    return set(bivquant.__all__)


def test_public_names_are_pinned():
    assert _exports() == PUBLIC
    assert len(bivquant.__all__) == len(PUBLIC)


def test_import_loads_no_submodule():
    # every public name resolves on first access, so a process compiles only the modules it reads
    src = str(Path(bivquant.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, bivquant; print(sorted(name for name in sys.modules if name.startswith('bivquant')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "['bivquant']\n"


def test_every_public_name_resolves():
    # each from the module the package names for it, and not a module
    resolved = {name: getattr(bivquant, name) for name in sorted(PUBLIC)}
    assert [name for name, value in resolved.items() if inspect.ismodule(value)] == []
    assert PUBLIC <= set(dir(bivquant))


#: Paper concepts exported though no reader below calls them: P(X <= x, Y <= y) in each orthant, and the two mixed
#: directions of the paper's four.
PAPER_CONCEPTS = {"orthant_prob", "LOWER_UPPER", "UPPER_LOWER"}


ROOT = Path(__file__).resolve().parents[1]


def _tour() -> str:
    """The code block of the README's library tour."""
    tour = (ROOT / "README.md").read_text("utf-8").split("## Library quick tour", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_every_export_has_a_reader():
    # a public name stays if the CLI, the benchmark, an acceptance test or the README's library tour reads it; an
    # error class is public because callers catch it
    sources = [ROOT / "src" / "bivquant" / "cli.py", ROOT / "tests" / "test_acceptance.py",
               *(path for path in sorted((ROOT / "benchmarks").iterdir()) if path.suffix in (".py", ".md", ".json"))]
    readers = [_tour(), *(path.read_text("utf-8") for path in sources)]
    errors = {name for name in _exports()
              if inspect.isclass(getattr(bivquant, name)) and issubclass(getattr(bivquant, name), bivquant.BivquantError)}
    unread = [name for name in sorted(_exports() - PAPER_CONCEPTS - errors)
              if not any(re.search(rf"\b{name}\b", text) for text in readers)]
    assert unread == []


def test_the_tour_runs_and_keeps_its_claims():
    # its two commented bounds, each fixed before it was measured: the curve's level residual within CURVE_TOL (1.1e-16
    # measured) and the hazard/MRL identity residual within 1e-12 (-1.69e-15 measured)
    code, namespace = _tour(), {}
    exec(code, namespace)
    claim = {name: next(line.split("#")[0] for line in code.splitlines() if f".{name}(" in line)
             for name in ("level_residuals", "hazard_mrl_identity_residual")}
    assert eval(claim["level_residuals"], namespace) <= bivquant.CURVE_TOL
    assert abs(eval(claim["hazard_mrl_identity_residual"], namespace)) <= 1e-12


def test_one_probability_check():
    # the range rule of probability arguments is spelled once, in numerics.require_probs
    package = Path(bivquant.__file__).parent
    spelled = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "numerics.py"
        and ("must lie in (0,1)" in path.read_text() or "must lie in [0, 1]" in path.read_text())
    ]
    assert spelled == []


def test_one_key_rule():
    # "which keys may this object hold" is spelled once, in numerics.require_keys: every unknown- or missing-key
    # message of a model spec, a spec section, a config file or its numerics block is built there
    package = Path(bivquant.__file__).parent
    message = re.compile(r"""f?["'](?:unknown|missing) [^"'\n]*(?:keys|: \{sorted\()""")
    built = {path.name: len(message.findall(path.read_text())) for path in sorted(package.glob("*.py"))}
    assert {name: count for name, count in built.items() if count} == {"numerics.py": 2}
    assert len(message.findall(inspect.getsource(numerics.require_keys))) == 2


def test_reconstruction_reads_components_through_all_quantities():
    # reconstruction evaluates and checks a component only through reliability.all_quantities
    source = (Path(bivquant.__file__).parent / "reconstruction.py").read_text()
    forbidden = [r"reliability\._\w", r"reliability\.conditional_mean", r"models\.marginal_quantile",
                 r"models\.conditional_quantile"]
    assert [pattern for pattern in forbidden if re.search(pattern, source)] == []
    assert "reliability.all_quantities(" in source


def test_phi_level_is_not_clipped():
    # a probability is clipped or checked once, where it enters; the components check theirs, and phi's level v is
    # the exact root of the copula's quadratic
    assert "clip_prob" not in (Path(bivquant.__file__).parent / "reliability.py").read_text()


def test_one_reader_of_a_component():
    # verify's table, a component missing from it and the public calls are read through one reader
    source = (Path(bivquant.__file__).parent / "reconstruction.py").read_text()
    assert source.count("reliability.all_quantities(model, component, u0, z,") == 1


def test_a_family_reports_what_its_kernels_give():
    # support and mean are read once off the kernels (Marginal.__post_init__), and an integral of q to 1 ends at the
    # kernel's own int_0^1, never at a family's mean
    package = Path(bivquant.__file__).parent
    assert re.findall(r"def (?:mean|support)\b", (package / "models.py").read_text()) == []
    assert "fam.mean" not in (package / "reliability.py").read_text()


def test_one_choice_check():
    # the rule of string choices (axis, sense, component, kind, quantity) is spelled once, in numerics.require_choice;
    # Direction.from_string's parse message lists its spellings, not a tuple, so the marker skips it
    package = Path(bivquant.__file__).parent
    marker = "must be one of {"
    assert [path.name for path in sorted(package.glob("*.py")) if marker in path.read_text()] == ["numerics.py"]


def test_one_admissible_u_rule():
    # which u a direction admits is spelled once, in curves.require_admissible
    package = Path(bivquant.__file__).parent
    for rule in ("requires u > p", "requires u < 1 - p"):
        assert [path.name for path in sorted(package.glob("*.py")) if rule in path.read_text()] == ["curves.py"]


def test_one_positive_real_rule():
    # "a parameter is a finite, strictly positive real" is spelled once, in numerics.require_real, which every family
    # parameter and config field goes through
    package = Path(bivquant.__file__).parent
    spelled = [path.name for path in sorted(package.glob("*.py")) if "strictly positive" in path.read_text()]
    assert spelled == ["numerics.py"]


def test_every_import_is_read():
    # no linter is part of the toolchain: each module reads every name it imports (the package's re-exports in
    # __init__.py excepted); a name read only in a docstring does not count
    unread = []
    for path in sorted(Path(bivquant.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unread == []

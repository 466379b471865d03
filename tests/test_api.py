import inspect
import re
from pathlib import Path

import bivquant

#: Every public name of the package; a name added or dropped is a deliberate edit here.
PUBLIC = {
    "ALL_DIRECTIONS", "LOWER_LOWER", "LOWER_UPPER", "UPPER_LOWER", "UPPER_UPPER", "Direction",
    "BivariateModel", "Exponential", "Pareto", "Uniform01", "Weibull", "FGMCopula", "IndependenceCopula",
    "marginal_quantile", "conditional_quantile", "orthant_prob", "swap_axes", "model_from_dict",
    "CURVE_TOL", "QuantileCurve", "curve_from_conditional", "curve_points", "level_residuals",
    "conditional_mean", "ComponentFunction", "component_from_model", "hazard_mrl_identity_residual",
    "quantile_from_hazard", "quantile_from_mrl", "quantile_from_reversed_hazard", "quantile_from_reversed_mrl",
    "SampleSet", "sample", "empirical_curve", "empirical_mrl_first",
    "DEFAULT_CONFIG", "NumericConfig", "integrate",
    "BivquantError", "BoundaryError", "ConfigError", "ConvergenceError", "DegenerateConditioningError",
    "DegenerateLevelError", "DivergenceError", "DomainError", "InfiniteMeanError", "InsufficientMassError",
    "IntegrandError", "ModelSpecError", "MonotonicityError", "SignError",
}


def test_public_names_are_pinned():
    # submodules become attributes once imported, so only non-module names count
    names = {n for n, v in vars(bivquant).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == PUBLIC


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
    assert source.count("lambda z: reliability.all_quantities(") == 1


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

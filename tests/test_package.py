"""The package namespace: ``hyperac.__all__`` is the union of its modules' ``__all__``."""

import contextlib
import io
import re
from pathlib import Path

import hyperac
from hyperac import diagnostics, grid, model, scenarios, schemes, timestepping

MODULES = (diagnostics, grid, model, scenarios, schemes, timestepping)
README = Path(__file__).resolve().parent.parent / "README.md"

# what ``hyperac`` exported when it listed its names by hand, by defining module
EARLIER_EXPORTS = {
    diagnostics: "DiagnosticsRecord detect_stabilization front_position_and_monotonicity "
                 "g_profile l2_distance linf_distance relative_speed_error",
    grid: "Grid build_graded_grid build_uniform_grid project_cell_averages",
    model: "BracketError FrontProfile IntegrationError ModelParams ParamColumns ShootingError "
           "from_diagonal hyperbolic_front_speed_shooting parabolic_front_speed reaction_f "
           "reaction_f_prime to_diagonal",
    scenarios: "ConfigError Scenario initial_exact_front initial_random initial_riemann "
               "parse_config_text run_order_comparison run_random_study run_riemann_decay "
               "run_speed_table write_snapshots_csv",
    schemes: "SchemeConfig State minmod monotonized_central prepare_state_for_scheme "
             "rhs_for_scheme rhs_gk_pseudo_kinetic rhs_kinetic_first_order "
             "rhs_kinetic_first_order_uv rhs_kinetic_second_order rhs_onefield_alternative "
             "rhs_onefield_direct rhs_parabolic_reference",
    timestepping: "BlowUpError ImexWorkspace RunResult SolveError assemble_imex_matrix "
                  "explicit_step gershgorin_margins imex_step imex_step_reduced_uniform run "
                  "run_ensemble suggest_dt",
}


def test_all_is_the_union_of_the_modules_all():
    assert hyperac.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(hyperac.__all__)) == len(hyperac.__all__)  # no module shadows another
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hyperac, name) is getattr(module, name)


def test_every_earlier_export_is_bound_to_the_same_object():
    for module, names in EARLIER_EXPORTS.items():
        for name in names.split():
            assert getattr(hyperac, name) is getattr(module, name), name
    assert hyperac.__version__ == "0.1.0"


def test_every_name_the_readme_imports_resolves():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"from hyperac import (\([^)]*\)|[^\n]+)", text)
    names = [name for block in blocks for name in re.findall(r"\w+", block)]
    assert len(names) >= 8
    assert [name for name in names if name not in hyperac.__all__] == []


def test_readme_python_examples_print_what_their_comments_say():
    """README's ``python`` blocks run in order in one namespace; each
    ``print(...)  # expected`` prints the comment's text up to its first
    ``": "``, a ``...`` in it standing for further digits."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    expected = [comment.split(": ", 1)[0]
                for block in blocks for line in block.splitlines()
                for code, _, comment in [line.partition("  # ")] if code.startswith("print(")]
    assert len(blocks) == 5 and len(expected) == 8
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, text in zip(printed, expected):
        pattern = r"\d+".join(re.escape(part) for part in text.split("..."))
        assert re.fullmatch(pattern, line), (line, text)


def test_readme_states_the_package_line_count():
    """README's "The package is N lines (`wc -l src/hyperac/*.py`)" is the newline
    count of the package's files, so a change that moves the count updates it."""
    stated = re.findall(r"The package is ([\d,]+) lines \(`wc -l src/hyperac/\*\.py`\)",
                        README.read_text(encoding="utf-8"))
    files = sorted((README.parent / "src" / "hyperac").glob("*.py"))
    assert len(stated) == 1 and files
    assert int(stated[0].replace(",", "")) == sum(f.read_bytes().count(b"\n") for f in files)

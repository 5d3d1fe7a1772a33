"""The public surface of each ``pqm`` module, pinned.

A module's public names are the top-level names it defines (functions,
classes and assignments, not imports) without a leading underscore, plus
dunders such as ``__version__``.  Adding or removing one fails this test on
purpose, so that the change is deliberate and named in CHANGES.md.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pqm"

SURFACE = {
    "__init__": {"__version__"},
    "cli": {
        "UsageError", "build_parser", "cmd_displace", "cmd_embed", "cmd_fourier",
        "cmd_padic", "cmd_poset", "cmd_verify", "cmd_wigner", "dump_state",
        "load_config", "load_state", "main",
    },
    "embeddings": {
        "CompatReport", "EmbeddingSpec", "annihilator", "compat_suite",
        "def2_point_embed", "hw_embed", "phase_embed", "phase_embed_character",
        "position_entropy", "state_embed", "ubiquity_check",
    },
    "finiteqm": {
        "FiniteState", "HWElement", "MOMENTUM", "POSITION", "ParityCheckResult",
        "PhasePoint", "coherent_check", "displace", "extend", "fourier",
        "fourier_good", "fourier_matrix", "hw_adjoint", "hw_factor", "hw_identity",
        "hw_matrix", "hw_mul", "hw_scalar_mul", "hw_x", "hw_z", "inner",
        "marginal_a_expected", "marginal_a_matrix", "marginal_b_expected",
        "marginal_b_matrix", "momentum_pairing", "norm", "operator_expand",
        "parity_apply", "parity_displacement", "parity_expand_check",
        "parity_marginal_a_matrix", "parity_marginal_b_matrix", "parity_matrix",
        "parity_quarter_period", "random_operator", "random_state", "reflect",
        "resolution_identity_check", "tensor_factor", "tensor_join", "to_momentum",
        "to_position", "weyl_wigner", "wigner_table",
    },
    "numbers": {
        "CrtFactor", "PadicFrac", "PadicInt", "PrecisionError", "ProfiniteInt",
        "RatMod1", "ZERO_MOD1", "char_chi_global", "char_chi_p", "char_omega",
        "crt_idempotents", "crt_join_mu", "crt_join_nu_hat", "crt_split_mu",
        "crt_split_nu_hat", "factorize", "frac_mul", "is_prime", "lift_tilde_xi",
        "ostrowski_product", "padic_ord_abs", "project_xi", "rat_decompose",
        "rat_recombine", "valuation",
    },
    "poset": {
        "FinitePoset", "INF", "OMEGA", "OmegaChain", "PrimePowerChain",
        "SIZE_BOUND", "Supernatural", "WidthLengthResult", "basis_open",
        "check_t0", "check_t1", "divisor_poset", "divisor_width_length",
        "is_chain_partition", "is_open", "poset_width_length", "sn_divides",
        "sn_sup",
    },
    "profinite_hw": {
        "GlobalProfiniteHW", "ProfiniteHWElement", "hw_triple_mul",
        "phw_commutator", "phw_global_inv", "phw_global_mul", "phw_global_project",
        "phw_global_project_factors", "phw_identity", "phw_inv", "phw_mul",
        "phw_project",
    },
    "schwartz_bruhat": {
        "GlobalSBFunction", "LocalSBFunction", "canonicalize_global",
        "character_function", "delta_family", "global_displace", "global_fourier",
        "global_inner", "global_parity", "global_reflect", "hat_transform_2adic",
        "integrate_local", "is_trivial", "local_displace", "local_fourier",
        "local_fourier_inv", "local_inner", "local_reflect", "refine",
        "scale_variable", "trivial_local",
    },
    "verify": {
        "CheckResult", "SUITES", "VerifyConfig", "report_dict", "run_suites",
        "suite_coherent", "suite_embeddings", "suite_fourier", "suite_good",
        "suite_hw", "suite_marginals", "suite_numbers", "suite_parity",
        "suite_poset", "suite_schwartz", "suite_tomography",
    },
}


def _public_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_") or (n.startswith("__") and n.endswith("__"))}


def test_every_module_is_pinned():
    assert {p.stem for p in SRC.glob("*.py")} == set(SURFACE)


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_public_surface(module):
    assert _public_names(SRC / f"{module}.py") == SURFACE[module]


def test_names_the_benchmark_reads_exist():
    # perfbench wraps its TRACED functions in place, counts calls to the
    # displacement-grid oracle and times each suite through _SUITE_FUNCS
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        mod = importlib.import_module(f"pqm.{layer}")
        for qual in names:
            obj = mod
            for part in qual.split("."):
                obj = getattr(obj, part)
            assert callable(obj), f"{layer}.{qual}"
    assert callable(importlib.import_module("pqm.finiteqm")._displacement_grid)
    verify = importlib.import_module("pqm.verify")
    assert tuple(verify._SUITE_FUNCS) == verify.SUITES

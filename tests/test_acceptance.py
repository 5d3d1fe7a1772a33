"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line outside the capture, so the lines show
up in any pytest run; the parameters below are pinned, not tunable.
"""

import json

import numpy as np

from pqm.cli import dump_state, load_state, main
from pqm.finiteqm import random_state
from pqm.verify import VerifyConfig
from pqm import verify as vf


def _report(capsys, num: int, label: str, results) -> None:
    ok = all(r.passed for r in results)
    worst = max((r.residual for r in results), default=0.0)
    with capsys.disabled():
        print(
            f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {label} "
            f"(worst residual {worst:.3e})",
            end="",
        )
    for r in results:
        assert r.passed, f"criterion {num}: {r.suite}:{r.name} residual={r.residual}"


def test_criterion_01_fourier_involution_and_parseval(capsys):
    cfg = VerifyConfig(samples=100, seed=101)
    _report(capsys, 1, "Fourier involution + Parseval, 100 states, n=2..30",
            vf.suite_fourier(cfg))


def test_criterion_02_good_factorization(capsys):
    cfg = VerifyConfig(samples=50, seed=102)
    _report(capsys, 2, "Good factorization vs direct transform, n in {6,10,12,15,30,36}",
            vf.suite_good(cfg))


def test_criterion_03_hw_group_law(capsys):
    cfg = VerifyConfig(samples=20, seed=103)  # 200 pairs per dimension
    _report(capsys, 3, "HW group law vs matrices + exact ZX commutator, n<=16",
            vf.suite_hw(cfg))


def test_criterion_04_resolution_and_expansion(capsys):
    cfg = VerifyConfig(samples=20, seed=104)
    _report(capsys, 4, "resolution of identity + displacement expansion, 20 theta, n<=12",
            vf.suite_tomography(cfg))


def test_criterion_05_parity_suite(capsys):
    cfg = VerifyConfig(samples=20, seed=105)
    _report(capsys, 5, "parity involution/Hermiticity n<=12 + odd-n parity identities",
            vf.suite_parity(cfg))


def test_criterion_06_marginal_identities(capsys):
    cfg = VerifyConfig(seed=106)
    _report(capsys, 6, "marginal pairings n<=16 incl. the p=2 hat path and parity marginals",
            vf.suite_marginals(cfg))


def test_criterion_07_coherent_resolution(capsys):
    cfg = VerifyConfig(samples=20, seed=107)  # 10 fiducials per n
    _report(capsys, 7, "coherent-state resolution of identity, n<=12",
            vf.suite_coherent(cfg))


def test_criterion_08_embedding_suite(capsys):
    cfg = VerifyConfig(seed=108)
    _report(capsys, 8, "embedding composition/characters exact, intertwining, ubiquity, labels<=64",
            vf.suite_embeddings(cfg))


def test_criterion_09_number_theory(capsys):
    cfg = VerifyConfig(seed=109)
    _report(capsys, 9, "digit patterns, Ostrowski, CRT bijections n<=1000, character factorization",
            vf.suite_numbers(cfg))


def test_criterion_10_poset_topology(capsys):
    cfg = VerifyConfig(seed=110)
    _report(capsys, 10, "T0/T1 scans n<=120, width/length oracle values, symbolic suprema",
            vf.suite_poset(cfg))


def test_criterion_11_schwartz_bruhat(capsys):
    cfg = VerifyConfig(seed=111)
    _report(capsys, 11, "refinement invariance, degree swap, canonicalization isometry",
            vf.suite_schwartz(cfg))


def test_criterion_12_cli(tmp_path, capsys):
    src = tmp_path / "state.json"
    dump_state(random_state(6, np.random.default_rng(112)), str(src))
    round1 = load_state(str(src))
    copy = tmp_path / "copy.json"
    dump_state(round1, str(copy))
    bit_identical = src.read_bytes() == copy.read_bytes()

    report = tmp_path / "report.json"
    code = main(["verify", "--json", str(report)])
    captured = capsys.readouterr()
    data = json.loads(report.read_text())
    ok = bit_identical and code == 0 and data["passed"]
    with capsys.disabled():
        print(
            f"\n[criterion 12] {'PASS' if ok else 'FAIL'} state round-trip bit-identical "
            f"+ pqm verify exit 0 on default config ({len(data['checks'])} checks)",
            end="",
        )
    assert bit_identical
    assert code == 0, captured.out
    assert data["passed"]

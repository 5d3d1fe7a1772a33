"""Checks that only the tests call: unitarity, the exact CRT factorization
of a displacement matrix, and the partial-order axioms of a finite poset."""

import numpy as np

from pqm.finiteqm import POSITION, HWElement, _flat_indices, hw_factor, hw_matrix
from pqm.numbers import crt_idempotents
from pqm.poset import FinitePoset


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= tol)


def hw_factor_matrix_check(d: HWElement) -> float:
    """Max-norm gap between matrix(D) and the remapped tensor of its factors."""
    factors = crt_idempotents(d.n)
    parts = hw_factor(d)
    full = np.array([[1.0 + 0j]])
    for fac in factors:
        full = np.kron(full, hw_matrix(parts[fac.p]))
    src, _ = _flat_indices(d.n, POSITION)
    remapped = full[np.ix_(src, src)]
    return float(np.max(np.abs(remapped - hw_matrix(d))))


def poset_axioms_hold(poset: FinitePoset) -> bool:
    """Reflexivity, antisymmetry and transitivity of ``poset.leq``."""
    els, leq = poset.elements, poset.leq
    for a in els:
        if not leq(a, a):
            return False
    for a in els:
        for b in els:
            if a != b and leq(a, b) and leq(b, a):
                return False
            for c in els:
                if leq(a, b) and leq(b, c) and not leq(a, c):
                    return False
    return True

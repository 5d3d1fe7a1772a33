"""Exact arithmetic and finite phase-space machinery for quantum mechanics
on profinite groups.

Subpackages follow the layered structure of the problem:

* :mod:`pqm.numbers` -- p-adic / rational-mod-1 arithmetic, CRT machinery,
  characters.
* :mod:`pqm.poset` -- supernatural numbers, divisor posets, divisor topology.
* :mod:`pqm.finiteqm` -- the finite system on Z(n): Fourier transforms,
  displacement and parity operators, Wigner/Weyl functions, tomography.
* :mod:`pqm.schwartz_bruhat` -- locally constant / compact-support functions
  on Z_p and Q_p/Z_p and their restricted tensor products.
* :mod:`pqm.embeddings` -- subsystem embeddings and ubiquitous quantities.
* :mod:`pqm.profinite_hw` -- the non-quantum profinite Heisenberg-Weyl groups.
* :mod:`pqm.verify` -- the verification harness behind ``pqm verify``.

Importing :mod:`pqm` loads no submodule; ``pqm.<name>`` imports one on first
access (PEP 562), so the exact layers and the ``pqm padic`` / ``pqm poset``
commands run without loading numpy.
"""

import importlib

__version__ = "0.1.0"

# the suites of ``pqm verify``, in run order; here so that the CLI parser can
# offer them as choices without importing the harness and numpy
SUITES = (
    "fourier",
    "good",
    "hw",
    "tomography",
    "parity",
    "marginals",
    "coherent",
    "embeddings",
    "numbers",
    "poset",
    "schwartz",
)

_SUBMODULES = frozenset({
    "cli", "embeddings", "finiteqm", "numbers", "poset", "profinite_hw",
    "schwartz_bruhat", "verify",
})


def __getattr__(name: str):
    """``pqm.<submodule>``, imported on first access."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

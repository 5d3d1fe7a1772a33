"""Per-layer tracing installed from the benchmark, not from the program.

Every traced function gets an aggregated counter: calls, inclusive time and
self time (inclusive time minus the time spent in traced callees).  Functions
at coarse boundaries additionally record one span per call (name, start, end,
parent span, request id); hot functions such as the CRT maps, which the
``numbers`` suite calls about two million times per run, stay counter-only
because a span per call would dominate the run.  Spans are kept in memory and
written out once, after the pass.

A wrapper only takes effect where the caller looks the name up, so
``install`` replaces the original function object under every name that holds
it in every ``pqm`` module (``verify`` imports ``compat_suite`` by name, while
it reaches ``finiteqm`` through ``fq.``), plus the suite table in ``verify``.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# layer -> functions whose calls, inclusive and self time are reported
TRACED = {
    "cli": (
        "load_state", "dump_state", "cmd_fourier", "cmd_displace", "cmd_embed",
        "cmd_wigner", "cmd_poset", "cmd_padic", "cmd_verify",
    ),
    "finiteqm": (
        "fourier", "fourier_good", "to_position", "to_momentum", "displace",
        "weyl_wigner", "hw_mul", "hw_adjoint", "hw_matrix", "parity_matrix",
        "resolution_identity_check", "operator_expand", "parity_expand_check",
        "coherent_check", "tensor_factor",
    ),
    "numbers": (
        "crt_split_mu", "crt_split_nu_hat", "crt_join_mu", "crt_join_nu_hat",
        "ostrowski_product", "padic_ord_abs", "rat_decompose",
        "PadicInt.from_rational",
    ),
    "embeddings": ("compat_suite", "ubiquity_check", "state_embed", "hw_embed"),
    "poset": ("divisor_poset", "poset_width_length", "check_t0", "check_t1"),
    "schwartz_bruhat": (
        "canonicalize_global", "global_displace", "local_fourier", "refine",
    ),
    "profinite_hw": (
        "phw_mul", "phw_commutator", "phw_global_mul", "phw_global_project_factors",
    ),
}

# the coarse boundaries that also get one span per call
SPANNED = frozenset(
    [f"cli.{name}" for name in TRACED["cli"]]
    + [
        "finiteqm.fourier_good", "finiteqm.resolution_identity_check",
        "finiteqm.operator_expand", "finiteqm.parity_expand_check",
        "finiteqm.coherent_check", "finiteqm.tensor_factor",
        "embeddings.compat_suite", "embeddings.ubiquity_check",
        "poset.divisor_poset", "poset.poset_width_length",
    ]
)

MODULES = ("cli", "verify", "finiteqm", "numbers", "embeddings", "poset",
           "schwartz_bruhat", "profinite_hw")


class Tracer:
    """Counters and spans for one pass; ``active`` is cleared around checks."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.spans: list[tuple] = []  # (name, start, end, parent, request_id)
        self.active = True
        self.request_id = -1
        self.grid_visits = self.grid_hits = 0
        self._frames: list[list] = []  # [child_s] of each open traced call
        self._open_spans: list[int] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        spanned = name in SPANNED or name.startswith("verify.")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            if spanned:
                parent = open_spans[-1] if open_spans else -1
                index = len(spans)
                spans.append(None)
                open_spans.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                took = end - start
                frames.pop()
                if frames:
                    frames[-1][0] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[0]
                if spanned:
                    open_spans.pop()
                    spans[index] = (name, start, end, parent, tracer.request_id)

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"pqm.{m}") for m in MODULES}
        for layer, names in TRACED.items():
            home = mods[layer]
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:  # a classmethod such as PadicInt.from_rational
                    owner = getattr(home, owner_name)
                    orig = owner.__dict__[attr].__func__
                    setattr(owner, attr, classmethod(self.wrap(f"{layer}.{qual}", orig)))
                    continue
                orig = getattr(home, attr)
                wrapped = self.wrap(f"{layer}.{qual}", orig)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
        table = mods["verify"]._SUITE_FUNCS
        for suite, fn in table.items():
            table[suite] = self.wrap(f"verify.suite_{suite}", fn)
        # the displacement-grid cache: a visit hits when n is already cached
        fq = mods["finiteqm"]
        grid = fq._displacement_grid

        def counted_grid(n):
            if self.active:
                self.grid_visits += 1
                self.grid_hits += n in fq._GRID_CACHE
            return grid(n)

        fq._displacement_grid = counted_grid

    def summary(self) -> dict:
        return {
            name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
            for name, s in self.stats.items()
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "request": rid}) + "\n")


def layer_metric_names() -> list[str]:
    """The per-layer metric names, in the order ``BENCHMARK.json`` lists them."""
    names = []
    for layer, funcs in TRACED.items():
        for fn in funcs:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
    return names

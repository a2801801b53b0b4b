"""Outside-in tracer for the benchmark's traced run.

``install`` replaces every module-level binding of a traced function in
the ``sunbch.*`` namespaces with a timing wrapper, including the copies
that ``from .x import f`` makes, so calls from one module into another
are seen.  The package source is untouched; ``uninstall`` puts the
original objects back.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import gzip
import sys
from time import perf_counter

# Per-layer metrics are reported for exactly these functions.
TRACED = {
    "algebra": ("structure_constants", "cross", "dot_sym", "algebra_matrix", "to_matrix", "from_matrix"),
    "spectral": (
        "eig_hermitian", "eig_unitary", "expansion_coeffs", "expansion_coeffs_derivative",
        "char_poly", "lagrange_projectors", "apply_spectral",
    ),
    "linsolve": ("lu_factor", "solve", "inverse", "condition_number", "determinant"),
    "linearize": ("power_table", "linearize_fn", "log_coords", "delinearize_exp", "exp_matrix", "f0_trace"),
    "bch": ("compose", "compose_linear", "similarity", "build_adjoint_kernel", "compose_direct", "similarity_direct"),
    "sampling": ("random_coords",),
    "verify": ("run_suite",),
    "cli": ("main",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Functions in which a domain error can originate; each gets a `.failed` count.
FAILURE_SITES = (
    "spectral.eig_hermitian", "spectral.expansion_coeffs", "spectral.lagrange_projectors",
    "linsolve.lu_factor", "linearize.power_table", "linearize.log_coords",
    "bch.similarity", "bch.similarity_direct",
)


class Tracer:
    """Records (name, start, end, parent index, request) for every traced call."""

    def __init__(self, domain_error: type[BaseException]):
        self.spans: list = []
        self.request = None
        self._domain_error = domain_error
        self._stack: list[int] = []
        self._origins: dict[int, str] = {}  # span index -> error code raised there
        self._seen: dict[int, BaseException] = {}  # errors already attributed
        self._patched: list = []

    def install(self) -> None:
        wrappers = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"sunbch.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self.wrap(f"{mod}.{fn}", original))
        for modname, module in list(sys.modules.items()):
            if modname != "sunbch" and not modname.startswith("sunbch."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call.  Spans of names outside ``NAMES``
        get no metrics; they only take their time out of the parent's self time."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except self._domain_error as exc:
                # The innermost span an error leaves first is where it originated.
                if id(exc) not in self._seen:
                    self._seen[id(exc)] = exc
                    self._origins[index] = exc.code
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return traced

    def mark(self) -> int:
        """Index of the next span; also forgets errors attributed so far."""
        self._seen.clear()
        return len(self.spans)

    def summary(self, lo: int, hi: int) -> dict[str, list]:
        """name -> [calls, self seconds, failures originated] over spans[lo:hi]."""
        out = {name: [0, 0.0, 0] for name in NAMES}
        child = [0.0] * (hi - lo)
        for name, start, end, parent, _ in self.spans[lo:hi]:
            if parent >= lo:
                child[parent - lo] += end - start
        for offset, (name, start, end, _, _) in enumerate(self.spans[lo:hi]):
            row = out.get(name)
            if row is None:
                continue
            row[0] += 1
            row[1] += (end - start) - child[offset]
            if lo + offset in self._origins:
                row[2] += 1
        return out

    def write(self, path) -> None:
        """Spans as gzip CSV: index, name, start and end (s from the first span), parent, request."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("index,name,start_s,end_s,parent,request,error\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(
                    f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{request},"
                    f"{self._origins.get(i, '')}\n"
                )

"""Spans around calls into cyclosvp's modules, installed at run time.

The program itself records nothing, so the benchmark wraps the public
functions of each module and keeps one span per call: (id, parent id,
name, start, end).  Self time is a span's duration minus the time its
direct child spans cover; calls on one thread nest strictly, so a stack
of child-time accumulators gives it without a second pass.

A wrapper must replace the function in every namespace that holds it:
``idealsvp``, ``pell`` and ``cli`` bind names with ``from .x import y``,
while ``lattice`` and ``ntheory`` internals call through their own
module globals.  ``install`` therefore swaps every attribute of every
loaded ``cyclosvp`` module that *is* the original function object.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Public functions per layer.  Every one of them reports calls and self
# time; the table in README.md says which end-to-end metric each should
# move.  Functions called at a very high rate (rings.element, which runs
# for every coefficient vector) are left out: a span there would cost
# more than the work it times.
WRAPPED = {
    "ntheory": ("is_prime", "legendre", "sqrt_mod", "root_of_minus_one",
                "classify_prime", "class_label", "sieve_primes"),
    "pell": ("solve_pell",),
    "rings": ("mul", "lift_element", "canonical_inner", "canonical_sq_length",
              "field_norm", "element_to_json"),
    "lattice": ("lattice_from_rows", "hnf_rows", "prime_ideal_lattice",
                "principal_ideal_lattice", "lift_ideal_lattice", "contains",
                "gauss_reduce_gram", "lll_reduce", "svp_enumerate",
                "svp_with_doubling", "enumerate_all"),
    "idealsvp": ("lambda1_squared", "shortest_vector", "cornacchia", "theta_roots",
                 "canonical_torsion_rep", "iroot_floor", "result_to_json",
                 "sqrt_decimal", "fourth_root_decimal"),
    "cli": ("run",),
}
MODULES = tuple(WRAPPED)


def _gram_bits(lat) -> int:
    return max(abs(v).bit_length() for row in lat.gram for v in row)


class Tracer:
    """Per-function counters plus the first KEEP_SPANS raw spans."""

    KEEP_SPANS = 20000  # about 1.5 MB of JSON lines; the counters see every call

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s, raised]
        self.gram_bits_max = 0
        self.root_s = 0.0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        measure_gram = name == "lattice.lll_reduce"

        def wrapper(*args, **kwargs):
            if measure_gram and args:
                bits = _gram_bits(args[0])
                if bits > self.gram_bits_max:
                    self.gram_bits_max = bits
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[1]
                stats[2] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
                if len(spans) < self.KEEP_SPANS:
                    spans.append((sid, parent, name, start, end))
                else:
                    self.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever a cyclosvp module binds it."""
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == "cyclosvp" or key.startswith("cyclosvp."))]
        for mod_name, funcs in WRAPPED.items():
            home = sys.modules[f"cyclosvp.{mod_name}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end"],
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

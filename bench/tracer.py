"""In-process tracing of scfact's public functions, from outside the package.

:class:`Tracer` replaces each traced function, in every ``scfact`` module
namespace that holds it (the modules import names from one another), with a
wrapper that records a span (id, parent, request, name, start, end) and
accumulates calls, inclusive time and self time.  A span covers only the call
of the original function.  The wrapper's own work around it (hooks, ids,
bookkeeping) is charged to :attr:`Tracer.overhead`, not to the parent, so a
span's self time is its duration minus the whole time its traced children's
wrappers ran, and the self times of one request plus that overhead add up to
its root span.  Nothing under ``src/`` is modified; :meth:`Tracer.uninstall`
restores the originals.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Optional

# (module, attribute) of every traced function; ``Class.method`` patches the class.
TRACED = {
    "expressions": ("parse_expression", "evaluate"),
    "equations": ("load_equation_file", "DifferenceEquation.step", "iterate_orbit", "detect_period",
                  "write_orbit_csv"),
    "polynomials": ("find_roots", "sigma", "solve_order2_closed_form"),
    "symmetry": ("solve_reduction_constant", "check_hd1", "evaluate_form_symmetry",
                 "build_additive_form_symmetry", "build_multiplicative_form_symmetry"),
    "factorization": ("factor_hd1", "factor_separable_additive", "factor_separable_multiplicative",
                      "factor_linear_full", "verify_semiconjugacy", "verify_equivalence",
                      "simulate_factorization", "TriangularSystem.simulate"),
    "dynamics": ("bifurcation_sweep", "write_bifurcation_csv"),
}
ROOT_SPAN = "cli.command"
SPAN_CAP = 50_000  # span tuples kept, to bound memory on the first traced round of sweep
SPAN_NAMES = {"DifferenceEquation.step": "step"}  # shorter metric names
STEP_KINDS = {"General": "general", "Linear": "linear", "SeparableAdditive": "sep_add",
              "SeparableMultiplicative": "sep_mult"}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.step_kinds: dict[str, Stat] = {k: Stat() for k in STEP_KINDS.values()}
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.recording = True  # record span tuples (stats are always kept)
        self.overhead = 0.0  # wrapper time of non-root calls outside their spans
        self.request = 0
        self._stack: list[list] = []  # frames [child_time, span_id]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._node_counts: dict[int, tuple[object, int]] = {}

    # -- accounting ----------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn: Callable, before: Optional[Callable] = None,
              after: Optional[Callable] = None, on_error: Optional[Callable] = None) -> Callable:
        """Hooks run outside the span: ``before(args)``, ``after(args, result,
        duration)`` and ``on_error(exc)``."""
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            enter = perf_counter()
            if before is not None:
                before(args)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                if on_error is not None:
                    on_error(exc)
                raise
            else:
                t1 = perf_counter()
                if after is not None:
                    after(args, result, t1 - t0)
                return result
            finally:
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if self.recording and len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, self.request, name, t0, t1))
                if stack:
                    outer = perf_counter() - enter
                    stack[-1][0] += outer
                    self.overhead += outer - dur

        return traced

    def run_request(self, fn: Callable, *args, **kwargs):
        """Run one CLI invocation as the root span of a new request."""
        self.request += 1
        root = self._wrap(ROOT_SPAN, fn)
        return root(*args, **kwargs)

    # -- per-function hooks -------------------------------------------

    def _nodes(self, expr) -> int:
        hit = self._node_counts.get(id(expr))
        if hit is not None and hit[0] is expr:
            return hit[1]
        total, todo = 0, [expr]
        while todo:
            node = todo.pop()
            total += 1
            for child in ("operand", "left", "right", "arg"):
                sub = getattr(node, child, None)
                if sub is not None:
                    todo.append(sub)
        self._node_counts[id(expr)] = (expr, total)  # keep expr alive so its id stays unique
        return total

    def _hooks(self, attr: str, domain_error: type):
        """(before, after, on_error) hooks that keep a function's counters."""

        def evaluating(args):
            self.count("expressions.nodes", self._nodes(args[0]))

        def evaluate_failed(exc):
            if isinstance(exc, domain_error):
                self.count("expressions.domain_errors")

        def stepped(args, result, dur):
            kind = self.step_kinds[STEP_KINDS[type(args[0].kind).__name__]]
            kind.calls += 1
            kind.total += dur

        def orbit(args, result, dur):
            self.count("equations.iterate_orbit.steps", len(result.values))
            self.count("equations.truncated", result.truncated_at is not None)

        def constants(args, result, dur):
            self.count("symmetry.constants_kept", len(result.constants))

        def sweep(args, result, dur):
            self.count("dynamics.points", len(result.grid))
            self.count("dynamics.invalid", sum(f is not None for f in result.failures))

        hooks = {
            "evaluate": (evaluating, None, evaluate_failed),
            "DifferenceEquation.step": (None, stepped, None),
            "iterate_orbit": (None, orbit, None),
            "solve_reduction_constant": (None, constants, None),
            "bifurcation_sweep": (None, sweep, None),
        }
        return hooks.get(attr, (None, None, None))

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items() if name == "scfact" or name.startswith("scfact.")}
        domain_error = modules["scfact.expressions"].DomainError
        for module, attrs in TRACED.items():
            mod = modules[f"scfact.{module}"]
            for attr in attrs:
                owner, _, method = attr.rpartition(".")
                target = getattr(mod, owner) if owner else mod
                original = getattr(target, method)
                name = f"{module}.{SPAN_NAMES.get(attr, attr)}"
                wrapper = self._wrap(name, original, *self._hooks(attr, domain_error))
                if owner:
                    self._patch(target, method, wrapper)
                else:
                    for holder in modules.values():
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                self._patch(holder, key, wrapper)

    def _patch(self, holder, key: str, value) -> None:
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patched):
            setattr(holder, key, value)
        self._patched.clear()

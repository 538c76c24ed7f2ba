"""Per-layer tracer for hmvol, kept outside the program.

`Tracer.install()` wraps every public function of every loaded `hmvol.*`
module, plus `Lattice.__init__`, and rebinds each wrapped name in every
`hmvol.*` namespace that holds it, so calls from other modules (which
imported the name) and calls inside the defining module (which look it up in
their own globals) both go through the wrapper.  A layer is a module.

Each wrapped call is a span.  For every function the tracer keeps
- `calls`: exact call count;
- `self_ns`: span time minus the time of its direct child spans, summed per
  module this gives the module's self time;
- `layer_ns`: span time minus the time spent in spans of other modules
  beneath it, counted only for outermost calls of the function (so
  recursion is not counted twice): the time the function's own layer spent
  on its behalf;
- `distinct`: for the functions in KEYED, the number of distinct argument
  keys per op, summed over ops (`distinct / calls` is the useful fraction);
- `guard_trips`: FeasibilityError raised out of the function.
"""

from __future__ import annotations

import functools
import sys
import time

KEYED = {
    "jordan.jordan_decompose": lambda lattice, p: (lattice.gram, p),
    "volumes.euler_alpha_product": lambda lattice: lattice.gram,
    "discforms.discriminant_form": lambda lattice: lattice.gram,
    "special_values.generalized_bernoulli": lambda k, disc: (k, disc),
}

_clock = time.perf_counter_ns


class _Stat:
    __slots__ = ("calls", "self_ns", "layer_ns", "depth", "keys", "distinct", "guard_trips")

    def __init__(self):
        self.calls = self.self_ns = self.layer_ns = self.depth = 0
        self.distinct = self.guard_trips = 0
        self.keys: set = set()


class Tracer:
    def __init__(self):
        from hmvol.errors import FeasibilityError

        self.stats: dict[str, _Stat] = {}
        self.stack: list[list] = []  # [module, start_ns, child_ns, foreign_ns]
        self._undo: list[tuple[object, str, object]] = []
        self._guard_error = FeasibilityError

    # ---------------------------------------------------------------- spans

    def begin_op(self) -> None:
        """Start a new op: distinct-argument sets restart, and a stack left
        over by an op cut at its deadline is dropped."""
        for st in self.stats.values():
            st.keys.clear()
        self.stack.clear()

    def _wrap(self, name: str, fn):
        module = name.split(".")[0]
        st = self.stats.setdefault(name, _Stat())
        key_of = KEYED.get(name)
        stack = self.stack
        guard_error = self._guard_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st.calls += 1
            if key_of is not None:
                key = key_of(*args, **kwargs)
                if key not in st.keys:
                    st.keys.add(key)
                    st.distinct += 1
            st.depth += 1
            frame = [module, _clock(), 0, 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except guard_error as exc:
                if not getattr(exc, "_hmbench_counted", False):
                    exc._hmbench_counted = True
                    st.guard_trips += 1
                raise
            finally:
                dur = _clock() - frame[1]
                st.depth -= 1
                if stack and stack[-1] is frame:
                    stack.pop()
                    st.self_ns += dur - frame[2]
                    if st.depth == 0:
                        st.layer_ns += dur - frame[3]
                    if stack:
                        parent = stack[-1]
                        parent[2] += dur
                        parent[3] += dur if parent[0] != module else frame[3]

        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        from hmvol.lattices import Lattice

        mods = {n: m for n, m in sys.modules.items() if n == "hmvol" or n.startswith("hmvol.")}
        wrapped: dict[int, object] = {}
        for modname, mod in mods.items():
            short = modname.split(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != modname):
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        init = Lattice.__init__
        self._undo.append((Lattice, "__init__", init))
        Lattice.__init__ = self._wrap("lattices.Lattice", init)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # ------------------------------------------------------------- results

    def summary(self) -> dict:
        """Per-function and per-module totals, seconds and counts."""
        funcs = {}
        modules: dict[str, float] = {}
        for name, st in sorted(self.stats.items()):
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + st.self_ns / 1e9
            if st.calls:
                funcs[name] = {
                    "calls": st.calls,
                    "self_s": st.self_ns / 1e9,
                    "layer_s": st.layer_ns / 1e9,
                    "distinct": st.distinct,
                    "guard_trips": st.guard_trips,
                }
        return {"functions": funcs, "module_self_s": modules}

"""Outside-in tracer for the brw2 layers.

The tracer never edits the package: it replaces a public function with a
wrapper at every ``brw2`` namespace that binds the function object.  One
function is often bound under several names (``brw2.cli.run_replica`` is
``brw2.simulate.run``, ``brw2.clusters.map_replicas`` is
``brw2.simulate.map_replicas``), and ``simulate._replica_job`` looks
``run`` up in its own module, so patching only the defining module would
miss calls.

Spans live in memory as ``[name, start, end, parent, op, error]`` lists and
are written out once at the end.  A span's self time is its duration minus
the time covered by its direct children.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    """Wraps functions in every loaded ``brw2`` namespace.

    With ``timed=False`` no clock is read and no span is kept: only the
    result hooks run.  The benchmark's untimed runs use that to count
    simulated records at the cost of one Python call per wrapped call.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[list] = []
        self.op = -1
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, func_name: str, hook=None) -> None:
        """Wrap ``module_name.func_name`` wherever a brw2 module binds it.

        ``hook(result, args, kwargs)`` runs after the call returns and
        outside the call's own span.
        """
        original = getattr(sys.modules[module_name], func_name)
        name = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"
        wrapper = self._timed(name, original, hook) if self.timed \
            else self._hooked(original, hook)
        bound = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "brw2" or mod_name.startswith("brw2.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
                    bound.append(f"{mod_name}.{attr}")
        self.bindings[name] = sorted(bound)

    def _timed(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _hooked(fn, hook):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        counted.__wrapped__ = fn
        return counted

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- reductions ------------------------------------------------------
    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_times(self, keep=None) -> dict[str, float]:
        """Per-name sum of span duration minus direct-child coverage, over
        the spans for which ``keep(span)`` is true (all by default)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, covered):
            if keep is None or keep(s):
                out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - c
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"bindings": self.bindings,
                       "fields": ["name", "start", "end", "parent", "op", "error"],
                       "spans": self.spans}, fh)

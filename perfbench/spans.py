"""In-memory span tracer that wraps library functions from the outside.

`Tracer.install` replaces each named function with a timing wrapper in every
loaded module that binds it, so a call is recorded whichever import site it
goes through (`stscq.router.group_errors` and `stscq.trainer.group_errors`
are the same function bound twice). Nothing in the library is edited; a site
that no longer exists is listed in `missing`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records spans as [name, phase, start, end, parent] lists in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, sites: list[str], package: str) -> None:
        """Wrap each `<module>.<function>` of `package` at every module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        self.missing = []
        for name in sites:
            module_name, attr = name.rsplit(".", 1)
            try:
                fn = getattr(importlib.import_module(f"{package}.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            traced = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)
                        self._patches.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    @contextmanager
    def span(self, name: str):
        """Record one span, with the innermost open span as its parent."""
        record = [name, self.phase, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = perf_counter()
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def summary(self) -> dict[tuple[str, str], tuple[list[float], list[float]]]:
        """{(name, phase): (durations, self times)}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
        for i, (name, phase, start, end, _) in enumerate(self.spans):
            durs, selfs = out.setdefault((name, phase), ([], []))
            durs.append(end - start)
            selfs.append(end - start - child[i])
        return out


@contextmanager
def phase(tracer: Tracer | None, name: str):
    """Tag spans recorded inside the block with `name`; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    before, tracer.phase = tracer.phase, name
    try:
        yield
    finally:
        tracer.phase = before

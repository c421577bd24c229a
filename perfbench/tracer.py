"""Outside tracer: wraps a package's public functions and methods in timing spans.

Nothing in the traced package is edited. ``install`` replaces every public
function of every module (and every public method, classmethod and
staticmethod of every class a module defines) with a wrapper that records a
span, and also rebinds the names other modules imported with
``from .x import y``. ``Patch.restore`` puts every original back.

A span is ``[name, start_ns, end_ns, parent_index]``; ``parent_index`` is
the index of the enclosing span in the same list, or -1. Names are
``<module>.<qualname>`` with the package prefix dropped, e.g.
``sre.sre_ridge`` or ``data.Dataset.subset``.

Limits: a function captured as a default argument value (for example a
``scorer=`` default) or held inside a closure created before ``install`` is
not seen. Dunder methods are not wrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

ORIGINAL_ATTR = "__perfbench_original__"


class Tracer:
    """Collects spans in memory; single-threaded callers only."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper


def package_modules(package: str) -> list:
    return sorted(
        (m for name, m in list(sys.modules.items())
         if m is not None and (name == package or name.startswith(package + "."))),
        key=lambda m: m.__name__,
    )


def _short(module_name: str, package: str) -> str:
    return module_name[len(package) + 1:] if module_name != package else module_name


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _public_classes(module):
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _method_targets(cls):
    """(attribute, function, rebuild) for each public callable in a class body."""
    for attr, raw in vars(cls).items():
        if attr.startswith("_"):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
            yield attr, raw.__func__, kind
        elif inspect.isfunction(raw) and not getattr(raw, "__isabstractmethod__", False):
            yield attr, raw, None


class Patch:
    """The attribute replacements made by :func:`install`, in order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, package: str) -> Patch:
    """Wrap the public callables of every imported module of ``package``."""
    modules = package_modules(package)
    wrappers: dict[int, object] = {}
    patch = Patch()
    for module in modules:
        short = _short(module.__name__, package)
        for name, fn in _public_functions(module):
            wrappers[id(fn)] = tracer.wrap(f"{short}.{name}", fn)
        for cls_name, cls in _public_classes(module):
            for attr, fn, kind in _method_targets(cls):
                wrapped = tracer.wrap(f"{short}.{cls_name}.{attr}", fn)
                patch.set(cls, attr, kind(wrapped) if kind else wrapped)
    for module in modules:
        for name, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None and inspect.isfunction(obj):
                patch.set(module, name, wrapper)
    return patch


def leftover_wrappers(package: str) -> list[str]:
    """Names of module or class attributes that still hold a tracer wrapper."""
    found = []
    for module in package_modules(package):
        for name, obj in vars(module).items():
            if hasattr(obj, ORIGINAL_ATTR):
                found.append(f"{module.__name__}.{name}")
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, raw in vars(obj).items():
                    inner = getattr(raw, "__func__", raw)
                    if hasattr(inner, ORIGINAL_ATTR):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


def self_times(spans: list[list]) -> list[int]:
    """Per-span self time in ns: duration minus the union of its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out

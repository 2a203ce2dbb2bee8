"""Spans, counts and cache statistics recorded from outside ``seclab``.

The tracer wraps the public functions and validating constructors of the
package's modules while a traced pass runs, and puts every original object
back afterwards.  Nothing under ``src/`` knows it is being traced: each span
starts and ends at a call into a layer, and a layer's self time is its span
minus the spans of the calls it made into other wrapped layers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Modules whose public functions and constructors are wrapped.
TRACED_MODULES = (
    "groups",
    "extensions",
    "cohomology",
    "localglobal",
    "catalog",
    "manifest",
    "cli",
)

#: Cached searches whose misses are counted along with the candidate maps
#: each miss has to try: |tgt|^|gens(src)| for homs, |M|^|gens(gamma)| for
#: cocycles.  ``h1`` has no candidate count of its own; its cocycles are
#: counted by the ``enumerate_cocycles`` miss it causes.
MISS_COUNTED = ("groups.enumerate_homs", "cohomology.enumerate_cocycles", "cohomology.h1")

#: How many raw spans one run keeps for its result file; the per-layer
#: totals are exact whatever this is.
KEPT_SPANS = 10000


def seclab_modules() -> Dict[str, object]:
    """The imported ``seclab`` modules, by short name (``""`` is the package)."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "seclab" or name.startswith("seclab."):
            out[name[len("seclab."):] if "." in name else ""] = mod
    return out


def cache_sites() -> Dict[str, object]:
    """Every ``functools`` cache in the ``seclab`` modules, keyed
    ``<module>.<qualname>``.

    Module globals and the attributes of classes defined in each module
    are scanned; a function re-exported by another module is one site.
    """
    sites: Dict[str, object] = {}
    for short, mod in seclab_modules().items():
        for value in list(vars(mod).values()):
            found = [value]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(vars(value).values())
            for obj in found:
                if callable(getattr(obj, "cache_info", None)) and callable(
                    getattr(obj, "cache_clear", None)
                ):
                    home = obj.__module__.split(".", 1)[-1]
                    sites[f"{home}.{obj.__qualname__}"] = obj
    return dict(sorted(sites.items()))


def clear_caches(sites: Dict[str, object]) -> None:
    for fn in sites.values():
        fn.cache_clear()


class Tracer:
    """Span stack with per-name totals, self times and counts.

    ``clock`` is injectable so the self-time arithmetic can be checked on
    synthetic spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: List[list] = []  # [span id, name, start, child time]
        self._active: Counter = Counter()
        self._next_id = 0
        self.calls: Counter = Counter()
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.spans_dropped = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._active[name] += 1

    def exit(self) -> None:
        end = self.clock()
        span_id, name, start, child = self._stack.pop()
        self._active[name] -= 1
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._active[name] == 0:
            # a name nested inside itself counts its outermost span once
            self.total_s[name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < KEPT_SPANS:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None))
        else:
            self.spans_dropped += 1

    def count_outside_spans(self, key: str, fn: Callable, *args, **kwargs) -> None:
        """Add ``fn(*args)`` to a count; its time is kept out of every span."""
        start = self.clock()
        self.counts[key] += fn(*args, **kwargs)
        if self._stack:
            self._stack[-1][3] += self.clock() - start

    def harvest_caches(self, sites: Dict[str, object]) -> None:
        """Add each site's hits and misses since its last clear, then clear it."""
        for key, fn in sites.items():
            info = fn.cache_info()
            self.counts[f"cache.{key}.hits"] += info.hits
            self.counts[f"cache.{key}.misses"] += info.misses
            fn.cache_clear()

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if name in MISS_COUNTED:
            gens = self._generating_set
            candidates = {
                "groups.enumerate_homs": lambda src, tgt: tgt.order ** len(gens(src)),
                "cohomology.enumerate_cocycles": lambda c: c.M.order ** len(gens(c.gamma)),
            }.get(name)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                before = fn.cache_info().misses
                tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit()
                if fn.cache_info().misses > before:
                    tracer.counts[f"{name}.misses"] += 1
                    if candidates is not None:
                        tracer.count_outside_spans(
                            f"{name}.candidates", candidates, *args, **kwargs
                        )
                return result

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            checked = getattr(result, "classes_checked", None)
            if isinstance(checked, int) and name.startswith("localglobal.decide_a"):
                tracer.counts["localglobal.classes_checked"] += checked
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced attribute of every ``seclab`` module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for short in TRACED_MODULES:
            importlib.import_module(f"seclab.{short}")
        modules = seclab_modules()
        # the uncached search, so counting candidates moves no cache statistic
        self._generating_set = modules["groups"].generating_set.__wrapped__
        targets: Dict[int, Tuple[str, object]] = {}
        for short in TRACED_MODULES:
            mod = modules[short]
            public = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for attr in public:
                obj = getattr(mod, attr)
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    post = vars(obj).get("__post_init__")
                    if post is not None:
                        wrapped = self._wrap(f"{short}.{attr}.validate", post)
                        self._patches.append((obj, "__post_init__", post))
                        setattr(obj, "__post_init__", wrapped)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and targets[id(value)][1] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


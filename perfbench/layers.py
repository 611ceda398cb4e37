"""Attribute a cProfile run's host time to the simulator's layers.

Only the benchmark's traced run is profiled; the timed runs never are,
because profiling inflates time about 4x and unevenly across layers.
The shares below are therefore reported next to the untraced ``run_s``.

Simulator runs bucket self time (``tottime``) by the file that holds the
function, so C builtins and the standard library get buckets of their
own.  Analysis runs instead hand the self time of library and builtin
functions to the ``repro.analysis`` pass that called them: the passes
spend much of their time in ``ast`` helpers, and that time is part of
what an optimisation of the pass would change.  ``ast.parse`` is its own
bucket, ``parse``.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Optional, Tuple

#: a pstats function key: (filename, first line, function name)
Func = Tuple[str, int, str]

#: GC methods of ``ftl/base.py``; the rest of that file is ``ftl.base``
GC_METHOD = re.compile(r"^(_run_gc|_collect|_gc_|_select_victim|"
                       r"background_collect)")
#: ftl/ modules shared by every FTL; every other ftl/ module is a policy
FTL_BASE_FILES = {"base.py", "mappings.py", "gtd.py", "factory.py",
                  "__init__.py"}
#: simulator packages that are a layer of their own
SIM_PACKAGES = {"cache", "flash", "gc", "ssd", "metrics", "workloads"}
#: buckets of a simulator run, in report order
SIM_BUCKETS = ("ftl.policy", "cache", "ftl.base", "gc", "flash", "ssd",
               "metrics", "workloads", "builtins", "other")

#: repro/analysis modules, by the pass they implement
ANALYSIS_PASSES = {
    "lint.py": "lint",
    "flow/__init__.py": "flow", "flow/callgraph.py": "flow",
    "flow/engine.py": "flow", "flow/state.py": "flow",
    "flow/rules.py": "flow",
    "flow/domains.py": "domains",
    "flow/cfg.py": "protocols", "flow/typestate.py": "protocols",
}
#: buckets of an analysis run, in report order
ANALYSIS_BUCKETS = ("parse", "lint", "flow", "domains", "protocols",
                    "other")


def _repro_relpath(filename: str) -> Optional[str]:
    """``ftl/base.py`` for ``.../src/repro/ftl/base.py``, else None."""
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    index = path.rfind(marker)
    if index < 0:
        return None
    return path[index + len(marker):]


def sim_layer(func: Func) -> str:
    """The simulator bucket one profiled function belongs to."""
    filename, _, name = func
    if filename == "~":
        return "builtins"
    rel = _repro_relpath(filename)
    if rel is None:
        return "other"
    package, _, module = rel.partition("/")
    if package == "ftl":
        if module == "base.py" and GC_METHOD.match(name):
            return "gc"
        return "ftl.base" if module in FTL_BASE_FILES else "ftl.policy"
    if package in SIM_PACKAGES:
        return package
    return "other"


def analysis_layer(func: Func) -> Optional[str]:
    """The analysis pass of a function, or None to inherit its caller's."""
    filename, _, name = func
    if name == "parse" and filename.replace("\\", "/").endswith("/ast.py"):
        return "parse"
    rel = _repro_relpath(filename)
    if rel is None:
        return None
    if rel.startswith("analysis/"):
        return ANALYSIS_PASSES.get(rel[len("analysis/"):], "other")
    return "other"


def _attribute(stats: Dict, classify: Callable[[Func], Optional[str]]
               ) -> Dict[str, float]:
    """Self seconds per bucket; unclassified time goes to the callers.

    A function ``classify`` leaves as None passes its self time to its
    callers in proportion to the time it spent when called from each,
    up the call chain until a classified function owns it.  Cycles and
    root frames without a classified caller land in ``other``.
    """
    owners: Dict[Func, Dict[str, float]] = {}

    def owner(func: Func, active: frozenset) -> Dict[str, float]:
        layer = classify(func)
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(entry[2] for entry in callers.values())
        if func in active or not total:
            return {"other": 1.0}
        share: Dict[str, float] = {}
        for caller, entry in callers.items():
            weight = entry[2] / total
            for bucket, part in owner(caller, active | {func}).items():
                share[bucket] = share.get(bucket, 0.0) + weight * part
        owners[func] = share
        return share

    seconds: Dict[str, float] = {}
    for func, (_, _, tottime, _, _) in stats.items():
        for bucket, part in owner(func, frozenset()).items():
            seconds[bucket] = seconds.get(bucket, 0.0) + tottime * part
    return seconds


def shares(stats: Dict, analysis: bool) -> Dict[str, float]:
    """Each bucket's fraction of the profiled self time (sums to 1)."""
    if analysis:
        seconds = _attribute(stats, analysis_layer)
        buckets = ANALYSIS_BUCKETS
    else:
        seconds = _attribute(stats, sim_layer)
        buckets = SIM_BUCKETS
    total = sum(seconds.values()) or 1.0
    return {bucket: seconds.get(bucket, 0.0) / total for bucket in buckets}


def call_count(stats: Dict, module_suffix: str, name: str) -> int:
    """Primitive calls of one function, e.g. ``ast.py`` ``parse``."""
    return sum(entry[0] for func, entry in stats.items()
               if func[2] == name
               and func[0].replace("\\", "/").endswith(module_suffix))

"""Mutation self-validation of the TP2xx domain and TP3xx protocol passes.

A static analysis that never fires is indistinguishable from one that
works.  This harness keeps the flow passes honest from both sides: it
applies a curated list of **seeded mutants** — each the minimal,
realistic version of a bug class a pass exists for.  The **domain
mutants** (``M01``–``M10``) cover the TP2xx value bugs: swapped
``lpn``/``ppn`` arguments, an ``lpn``-indexed structure indexed by
VPN, a dropped ``* pages_per_block`` conversion, milliseconds handed
to a microsecond parameter, a byte budget stored as an entry count.
The **protocol mutants** (``P01``–``P10``) cover the TP3xx temporal
bugs: a deleted ``finally`` that leaves a file handle open on the
normal path, file handles closed twice, a started worker process
dropped by an early return before it is tracked, the supervisor's
spawn-failure cleanup removed, ``with`` blocks rewritten as manual
``open``/``close``, an early ``return`` before the ``close()``, and
the per-run device reset dropped or swapped behind the warmup serve
loop.  The harness asserts that

* the **pristine tree is clean**: zero findings beyond the committed
  baseline (the analysis does not cry wolf at HEAD), and
* **every mutant is killed**: the analysis of the mutated tree yields
  at least one *new* finding of the expected rule in the mutated file.

Each mutant is an exact-text substitution that must match its file
exactly once; when the underlying source drifts, the harness fails
loudly (:class:`MutantApplyError`) instead of silently validating
nothing.  Run it as ``python -m repro.analysis mutants`` (CI does, in
the ``analysis-mutants`` job) or through
``tests/test_analysis_mutants.py``.

Nothing is copied or written to disk.  :func:`run_mutants` reads the
tree once into a ``{normalized path: source}`` map, applies each mutant
to a copy of that map, and runs every pass
(:func:`~repro.analysis.flow.analyze_tree`) over each version through
one shared :class:`~repro.analysis.flow.callgraph.ParseCache`: a module
whose text is unchanged reuses its parsed tree and its per-function
typestate facts, so a mutant costs one re-parse of the module it
changes plus the interprocedural passes, which are rebuilt from
scratch every time.  Findings carry the real source paths, so the
pristine check keys them exactly like the baseline.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .flow import Project, analyze_tree
from .flow.callgraph import ParseCache
from .lint import Finding, iter_python_files, load_baseline, normalize_path

__all__ = [
    "DOMAIN_MUTANTS",
    "MUTANTS",
    "Mutant",
    "MutantApplyError",
    "MutantResult",
    "MutationReport",
    "PROTOCOL_MUTANTS",
    "run_mutants",
]


class MutantApplyError(RuntimeError):
    """A mutant's before-text no longer matches its file exactly once."""


@dataclass(frozen=True)
class Mutant:
    """One seeded domain/unit bug: an exact-text substitution."""

    mid: str
    #: file to mutate, relative to the ``src`` root
    path: str
    #: rule expected to kill the mutant (TP201..TP204, TP301..TP305)
    rule: str
    description: str
    before: str
    after: str


#: the seeded domain/unit mutants: every one must be killed by TP2xx
DOMAIN_MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        mid="M01", path="repro/ftl/base.py", rule="TP201",
        description="read-modify-write reads the LPN instead of the "
                    "old PPN",
        before="self.flash.read(ppn_old, PageKind.DATA)",
        after="self.flash.read(lpn, PageKind.DATA)"),
    Mutant(
        mid="M02", path="repro/ftl/base.py", rule="TP201",
        description="swapped lpn/ppn arguments when recording a "
                    "mapping",
        before="self._record_mapping(lpn, ppn_new, result)",
        after="self._record_mapping(ppn_new, lpn, result)"),
    Mutant(
        mid="M03", path="repro/ftl/base.py", rule="TP201",
        description="flash_table indexed by PPN and fed an LPN on the "
                    "translation-write path",
        before="            self.flash_table[lpn] = ppn\n"
               "        old_ptpn",
        after="            self.flash_table[ppn] = lpn\n"
              "        old_ptpn"),
    Mutant(
        mid="M04", path="repro/ftl/base.py", rule="TP201",
        description="GC migration derives the VTPN from the new PPN "
                    "instead of the LPN",
        before="vtpn = self.geometry.vtpn_of(lpn)",
        after="vtpn = self.geometry.vtpn_of(new_ppn)"),
    Mutant(
        mid="M05", path="repro/ftl/base.py", rule="TP202",
        description="unmapped-check compares a PPN against an LPN",
        before="if ppn_old == UNMAPPED:",
        after="if ppn_old == lpn:"),
    Mutant(
        mid="M06", path="repro/ftl/dftl.py", rule="TP201",
        description="double translation: flash_table indexed by VTPN "
                    "instead of LPN",
        before="ppn = self.flash_table[lpn]",
        after="ppn = self.flash_table[self.geometry.vtpn_of(lpn)]"),
    Mutant(
        mid="M07", path="repro/ftl/dftl.py", rule="TP204",
        description="byte budget stored as an entry count (missing "
                    "// entry_bytes)",
        before="self.capacity_entries = budget // entry_bytes",
        after="self.capacity_entries = budget"),
    Mutant(
        mid="M08", path="repro/ssd/device.py", rule="TP203",
        description="per-request service time converted to ms and "
                    "dispatched where µs are expected",
        before="            service = reads * read_us + writes * write_us"
               " + erases * erase_us\n",
        after="            response_ms = (reads * read_us + writes * write_us"
              " + erases * erase_us) / 1000.0\n"
              "            service = response_ms\n"),
    Mutant(
        mid="M09", path="repro/ssd/parallel.py", rule="TP203",
        description="channel finish time adds milliseconds to a "
                    "microsecond clock",
        before="            # are bit-for-bit identical to the "
               "single-server model.\n"
               "            start = max(arrival, self._busy[0])\n"
               "            finish = start + service_us\n",
        after="            # are bit-for-bit identical to the "
              "single-server model.\n"
              "            service_ms = service_us / 1000.0\n"
              "            start = max(arrival, self._busy[0])\n"
              "            finish = start + service_ms\n"),
    Mutant(
        mid="M10", path="repro/ftl/block_ftl.py", rule="TP201",
        description="dropped * pages_per_block: a block index used as "
                    "the block's base LPN",
        before="        base_lpn = lbn * ppb",
        after="        base_lpn = lbn"),
)


#: the seeded protocol mutants: every one must be killed by TP3xx
PROTOCOL_MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        mid="P01", path="repro/experiments/cli.py", rule="TP301",
        description="deleted finally around the result-file write: the "
                    "handle is only closed when the write raises",
        before="                path.write_text(result.to_json(), "
               "encoding=\"utf-8\")\n",
        after="                handle = open(path, \"w\", "
              "encoding=\"utf-8\")\n"
              "                try:\n"
              "                    handle.write(result.to_json())\n"
              "                except OSError:\n"
              "                    handle.close()\n"
              "                    raise\n"),
    Mutant(
        mid="P02", path="repro/experiments/fastbench.py", rule="TP302",
        description="trajectory handle closed by a finally and then "
                    "closed again after it",
        before="    Path(args.out).write_text(json.dumps(report, "
               "indent=2) + \"\\n\",\n"
               "                              encoding=\"utf-8\")\n",
        after="    handle = open(args.out, \"w\", encoding=\"utf-8\")\n"
              "    try:\n"
              "        handle.write(json.dumps(report, indent=2) + "
              "\"\\n\")\n"
              "    finally:\n"
              "        handle.close()\n"
              "    handle.close()\n"),
    Mutant(
        mid="P03", path="repro/experiments/supervisor.py", rule="TP302",
        description="journal handle closed by a finally and then "
                    "closed again after it",
        before="            with open(self.path, \"a\", "
               "encoding=\"utf-8\") as handle:\n"
               "                handle.write(json.dumps(payload) + "
               "\"\\n\")",
        after="            handle = open(self.path, \"a\", "
              "encoding=\"utf-8\")\n"
              "            try:\n"
              "                handle.write(json.dumps(payload) + "
              "\"\\n\")\n"
              "            finally:\n"
              "                handle.close()\n"
              "            handle.close()"),
    Mutant(
        mid="P04", path="repro/experiments/supervisor.py", rule="TP303",
        description="early return between spawning a worker and "
                    "tracking it: the started process and its pipe leak",
        before="            self._spawn_failures = 0\n",
        after="            if self.degraded:\n"
              "                return None\n"
              "            self._spawn_failures = 0\n"),
    Mutant(
        mid="P05", path="repro/experiments/supervisor.py", rule="TP303",
        description="dropped spawn-failure cleanup: a partially-spawned "
                    "worker's pipe ends and process leak on the retry "
                    "path",
        before="                self._discard_spawn(parent_conn, "
               "child_conn, process)\n"
               "                self._spawn_failures += 1",
        after="                self._spawn_failures += 1"),
    Mutant(
        mid="P06", path="repro/experiments/supervisor.py", rule="TP305",
        description="journal append rewritten as manual open/close "
                    "outside with/try-finally",
        before="            with open(self.path, \"a\", "
               "encoding=\"utf-8\") as handle:\n"
               "                handle.write(json.dumps(payload) + "
               "\"\\n\")",
        after="            handle = open(self.path, \"a\", "
              "encoding=\"utf-8\")\n"
              "            handle.write(json.dumps(payload) + "
              "\"\\n\")\n"
              "            handle.close()"),
    Mutant(
        mid="P07", path="repro/ssd/device.py", rule="TP304",
        description="swapped the per-run reset and the warmup serve "
                    "loop: warmup requests run on the previous replay's "
                    "queue state",
        before="        self._reset_state()\n"
               "        ftl = self.ftl\n"
               "        ssd = ftl.ssd\n"
               "        measured = trace.requests\n"
               "        if warmup_requests > 0:\n"
               "            for request in trace.requests[:warmup_requests]:\n"
               "                ftl.serve_request(request)\n",
        after="        ftl = self.ftl\n"
              "        ssd = ftl.ssd\n"
              "        measured = trace.requests\n"
              "        if warmup_requests > 0:\n"
              "            for request in trace.requests[:warmup_requests]:\n"
              "                ftl.serve_request(request)\n"
              "            self._reset_state()\n"),
    Mutant(
        mid="P08", path="repro/ssd/device.py", rule="TP304",
        description="dropped per-run reset in DeviceModel.run: "
                    "serve_request reachable without the reset",
        before="        self._validate_trace(trace)\n"
               "        self._reset_state()",
        after="        self._validate_trace(trace)"),
    Mutant(
        mid="P09", path="repro/experiments/runner.py", rule="TP305",
        description="bench report written with manual open/close "
                    "outside with/try-finally",
        before="        target.write_text(json.dumps(self.bench_report(), "
               "indent=2)\n"
               "                          + \"\\n\", encoding=\"utf-8\")\n",
        after="        handle = open(target, \"w\", encoding=\"utf-8\")\n"
              "        handle.write(json.dumps(self.bench_report(), "
              "indent=2) + \"\\n\")\n"
              "        handle.close()\n"),
    Mutant(
        mid="P10", path="repro/experiments/supervisor.py", rule="TP301",
        description="early return before the journal handle is closed",
        before="            with open(self.path, \"a\", "
               "encoding=\"utf-8\") as handle:\n"
               "                handle.write(json.dumps(payload) + "
               "\"\\n\")",
        after="            handle = open(self.path, \"a\", "
              "encoding=\"utf-8\")\n"
              "            if not payload:\n"
              "                return\n"
              "            handle.write(json.dumps(payload) + "
              "\"\\n\")\n"
              "            handle.close()"),
)


#: the full corpus the CLI and CI run: domain + protocol mutants
MUTANTS: Tuple[Mutant, ...] = DOMAIN_MUTANTS + PROTOCOL_MUTANTS


@dataclass
class MutantResult:
    """Outcome of one mutant: killed or survived, with the delta."""

    mutant: Mutant
    #: findings present in the mutated tree but not the pristine one
    delta: List[Finding]

    @property
    def killed(self) -> bool:
        """True when the expected rule fired in the mutated file."""
        return any(f.rule == self.mutant.rule
                   and f.path.endswith(self.mutant.path)
                   for f in self.delta)


@dataclass
class MutationReport:
    """The full harness outcome: pristine check + per-mutant verdicts."""

    #: findings on the pristine tree beyond the committed baseline
    pristine_new: List[Finding]
    results: List[MutantResult]

    @property
    def survivors(self) -> List[MutantResult]:
        """Mutants the analysis failed to flag."""
        return [r for r in self.results if not r.killed]

    @property
    def ok(self) -> bool:
        """True when HEAD is clean and every mutant is killed."""
        return not self.pristine_new and not self.survivors

    def to_json(self) -> Dict[str, object]:
        """JSON document for ``--format json``."""
        return {
            "tool": "repro.analysis mutants",
            "pristine_new": [f.render() for f in self.pristine_new],
            "mutants": [{
                "id": r.mutant.mid,
                "path": r.mutant.path,
                "rule": r.mutant.rule,
                "description": r.mutant.description,
                "killed": r.killed,
                "delta": [f.render() for f in r.delta],
            } for r in self.results],
            "ok": self.ok,
        }


def _read_sources(src: pathlib.Path) -> Dict[str, str]:
    """``{normalized path: source}`` for every Python file under
    ``src``, keyed the way the passes name findings."""
    return {normalize_path(file): file.read_text(encoding="utf-8")
            for file in iter_python_files([str(src)])}


def _apply(sources: Mapping[str, str], src: pathlib.Path,
           mutant: Mutant) -> Dict[str, str]:
    """The source map with one mutant applied; ``sources`` is left
    untouched.  The before-text must occur exactly once."""
    path = normalize_path(src / mutant.path)
    original = sources.get(path, "")
    occurrences = original.count(mutant.before)
    if occurrences != 1:
        raise MutantApplyError(
            f"{mutant.mid}: expected exactly one occurrence of the "
            f"before-text in {mutant.path}, found {occurrences} — the "
            "source drifted; update the mutant list")
    mutated = dict(sources)
    mutated[path] = original.replace(mutant.before, mutant.after)
    return mutated


def run_mutants(src_root: str = "src",
                baseline: Optional[str] = ".analysis-baseline.json",
                mutants: Sequence[Mutant] = MUTANTS) -> MutationReport:
    """Run the full harness against an in-memory image of ``src_root``.

    Reads the tree once, analyzes it pristine (comparing against the
    committed ``baseline`` for the HEAD-clean check), then analyzes the
    tree once per mutant with that mutant applied and records the
    finding delta.  All analyses share one :class:`ParseCache`, so a
    mutant re-parses and re-scans only the module it changes; the cache
    is dropped when the call returns.
    """
    src = pathlib.Path(src_root)
    grandfathered = (load_baseline(pathlib.Path(baseline))
                     if baseline else set())
    sources = _read_sources(src)
    cache = ParseCache()
    pristine = analyze_tree(Project.from_sources(sources, cache=cache))
    pristine_keys: Set[Tuple[str, str, str]] = {f.key for f in pristine}
    results: List[MutantResult] = []
    for mutant in mutants:
        mutated = analyze_tree(Project.from_sources(
            _apply(sources, src, mutant), cache=cache))
        delta = [f for f in mutated if f.key not in pristine_keys]
        results.append(MutantResult(mutant=mutant, delta=delta))
    return MutationReport(
        pristine_new=[f for f in pristine if f.key not in grandfathered],
        results=results)

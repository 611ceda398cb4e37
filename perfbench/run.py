"""Outside-in benchmark of the TPFTL reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fin1-tpftl --seed 7 --seconds 20 --trace 0

One invocation runs one workload in this process, on one thread, with
the default execution core (every ``REPRO_*`` variable is cleared) and
no run cache, runner pool or supervisor.  It times calls into the
program's public entry points from outside:

* simulator workloads build their trace with ``build_spec_trace`` (the
  set-up) and run the cell with ``execute_spec``, the path every
  paper-figure cell takes: prefill, warmup, replay and fold;
* ``analysis-mutants`` imports ``repro.analysis`` and unpacks a frozen
  snapshot of ``src/repro`` (the set-up), then runs ``run_mutants`` on
  it with the benchmark's own mutant list.

Set-up is repeated ``SETUP_REPEATS`` times and the main phase as often
as fits in ``--seconds`` (at least once); ``setup_s`` and ``run_s`` are
the medians.  Both are seconds at the reference host speed
(``calibrate.py``), since the wall time of a shared host drifts too far
between minutes to compare two commits by; the wall times are in the
detail line.  Every main-phase run is checked, and a failed check counts
as a failed operation.  ``--trace 1`` adds one cProfile run of the main
phase, never used for timing, whose self time is split into the layers
of ``layers.py``.

Standard output ends with one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
``end_to_end`` list of ``BENCHMARK.json``, with ``--trace 1`` the
``per_layer`` list; a layer a workload does not exercise reads 0.  The
lines before it are a header (bench, schema, revision, host, cache
state, seed, line counts) and the per-run detail, including each
simulator run's result digest.  README.md maps every per-layer metric
to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib
import json
import math
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers
from calibrate import Calibrated

ROOT = Path.cwd()
SRC = ROOT / "src"
ARCHIVE = Path(__file__).resolve().parent / "corpus" / "src-repro.tar.gz"
#: working space inside the checkout: unpacked corpora, mutant copies
WORK_ROOT = ROOT / ".perfbench-work"

BENCH = "perfbench"
SCHEMA = 1
CACHE_STATE = "warm cache after warmup, device prefilled"
SETUP_REPEATS = 9

#: trace length and warmup of every simulator workload, those of the
#: small preset; the warmup fills the mapping cache before statistics
#: start.  Short runs give many runs per invocation, so the median is
#: steady on a noisy host.
NUM_REQUESTS = 60_000
WARMUP_REQUESTS = 15_000
#: 512 MB of 4 KB pages: the paper's Financial geometry and the small
#: scale's MSR geometry
FINANCIAL_PAGES = 131_072
MSR_PAGES = 131_072

#: workload -> (trace preset, FTL, flash channels)
SIM_WORKLOADS = {
    "fin1-tpftl": ("financial1", "tpftl", 1),
    "fin2-tpftl": ("financial2", "tpftl", 1),
    "msrts-optimal-4ch": ("msr-ts", "optimal", 4),
}
ANALYSIS = "analysis-mutants"
WORKLOADS = tuple(SIM_WORKLOADS) + (ANALYSIS,)


class Runs:
    """Main-phase runs: times, outcomes and failed checks.

    ``seconds`` holds the wall time of each run that passed its checks,
    ``ref_seconds`` its time at the reference host speed and
    ``loop_ms`` the calibration loop's mean time during it.
    """

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.ref_seconds: List[float] = []
        self.loop_ms: List[float] = []
        self.outcomes: List[Any] = []
        self.attempted = 0
        self.failed = 0

    def run(self, call: Callable[[], Tuple[Any, List[str]]],
            timing: Optional[Calibrated] = None) -> Optional[Any]:
        """One checked run, timed by ``timing`` if given.

        Returns the run's outcome, or None if it failed.
        """
        self.attempted += 1
        try:
            with timing or contextlib.nullcontext():
                outcome, problems = call()
        except Exception:  # a crash is a failed operation, not an abort
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if problems:
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return outcome

    def timed(self, call: Callable[[], Tuple[Any, List[str]]],
              seconds: float) -> None:
        """Repeat ``call`` while another run still fits in ``seconds``."""
        started = time.perf_counter()
        while True:
            run_started = time.perf_counter()
            timing = Calibrated()
            outcome = self.run(call, timing)
            if outcome is not None:
                self.seconds.append(timing.wall_s)
                self.ref_seconds.append(timing.reference_s)
                self.loop_ms.append(timing.loop_s * 1e3)
                self.outcomes.append(outcome)
            elapsed = time.perf_counter() - run_started
            spent = time.perf_counter() - started
            if spent + elapsed > seconds:
                break
        if not self.outcomes:
            raise SystemExit("perfbench: every run failed")

    @property
    def median_s(self) -> float:
        return statistics.median(self.seconds)

    @property
    def median_ref_s(self) -> float:
        return statistics.median(self.ref_seconds)

    def detail(self) -> Dict[str, List[float]]:
        return {"run_s": self.ref_seconds, "run_wall_s": self.seconds,
                "loop_ms": self.loop_ms}


def profiled(call: Callable[[], Any]) -> Tuple[Any, float, Dict]:
    """Run ``call`` under cProfile: (result, wall seconds, raw stats)."""
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    elapsed = time.perf_counter() - started
    return result, elapsed, pstats.Stats(profiler).stats


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def _sim_problems(result: Any, requests: int, pages: int) -> List[str]:
    """Correctness checks on one simulator run."""
    metrics = result.metrics
    problems = []
    if result.requests != requests:
        problems.append(f"{result.requests} requests measured, the "
                        f"trace has {requests} after warmup")
    accessed = (metrics.user_page_reads + metrics.user_page_writes
                + metrics.user_page_trims)
    if accessed != pages:
        problems.append(f"{accessed} user page accesses measured, the "
                        f"measured requests span {pages} pages")
    if not 0.0 <= metrics.hit_ratio <= 1.0:
        problems.append(f"hit ratio {metrics.hit_ratio} outside [0, 1]")
    if not result.gc_time_fraction <= 1.0:
        problems.append(f"GC time fraction {result.gc_time_fraction} > 1")
    return problems


def _model_ratios(result: Any, ssd: Any) -> Tuple[float, float]:
    """Eq. 13 and Eq. 1 over the simulated values, as model_check does.

    There is no hardware reference, so the paper's analytical model is
    the only check on the simulator's accuracy.
    """
    from repro.models import params_from_run, write_amplification
    from repro.models.performance import avg_translation_time

    params = params_from_run(result, ssd)
    metrics = result.metrics
    wa_ratio = write_amplification(params) / metrics.write_amplification
    measured_tat = ((metrics.trans_reads_load
                     + metrics.trans_reads_writeback) * ssd.read_us
                    + metrics.trans_writes_writeback * ssd.write_us
                    ) / max(1, metrics.user_page_accesses)
    modeled_tat = avg_translation_time(params)
    # with no translation traffic both are 0: the model is exact
    tat_ratio = (modeled_tat / measured_tat if measured_tat
                 else float(modeled_tat == 0))
    return wa_ratio, tat_ratio


def _sim_layer_metrics(result: Any, run_ref_s: float) -> Dict[str, float]:
    """Per-layer counts of one run, from FTLMetrics' by-cause counters."""
    m = result.metrics
    collections = m.gc_data_collections + m.gc_translation_collections
    reads = ((m.user_page_reads - m.unmapped_reads)
             + m.translation_page_reads + m.data_reads_migration)
    writes = m.user_page_writes + m.extra_writes
    return {
        "cache.lookups": m.lookups,
        "cache.hits": m.hits,
        "cache.prefetched_entries": m.prefetched_entries,
        "cache.prefetch_useful_ratio": (
            m.prefetch_hits / m.prefetched_entries
            if m.prefetched_entries else 0.0),
        "cache.p_replace_dirty": m.p_replace_dirty,
        "cache.batch_cleaned_entries": m.batch_cleaned_entries,
        "trans.reads_load": m.trans_reads_load,
        "trans.reads_writeback": m.trans_reads_writeback,
        "trans.writes_writeback": m.trans_writes_writeback,
        "trans.reads_gc": m.trans_reads_gc,
        "trans.writes_gc_update": m.trans_writes_gc_update,
        "trans.migration": m.trans_writes_migration,
        "gc.data_collections": m.gc_data_collections,
        "gc.translation_collections": m.gc_translation_collections,
        "gc.mean_valid_per_victim": (
            (m.gc_data_valid_migrated + m.gc_trans_valid_migrated)
            / collections if collections else 0.0),
        "gc.erases": m.total_erases,
        "gc.time_fraction": result.gc_time_fraction,
        "flash.reads": reads,
        "flash.writes": writes,
        "flash.erases": m.total_erases,
        "flash.host_ns_per_op": (
            run_ref_s * 1e9 / (reads + writes + m.total_erases)),
        "ssd.sim_mean_queue_delay_us": result.response.mean_queue_delay,
        "ssd.sim_mean_service_us": result.response.mean_service_time,
        "ssd.makespan_us": result.makespan,
        "sim.mean_response_us": result.response.mean,
        "sim.hit_ratio": m.hit_ratio,
        "sim.write_amp": m.write_amplification,
    }


def run_sim(name: str, seed: Optional[int], seconds: float,
            trace: bool) -> Tuple[Runs, Dict[str, float], Dict[str, Any]]:
    from repro.experiments.common import ExperimentScale, simulation_config
    from repro.experiments.fastbench import result_digest
    from repro.experiments.runner import (RunSpec, build_spec_trace,
                                          clear_run_caches, execute_spec)
    from repro.ftl import make_ftl

    workload, ftl, channels = SIM_WORKLOADS[name]
    scale = ExperimentScale(num_requests=NUM_REQUESTS,
                            warmup_requests=WARMUP_REQUESTS,
                            financial_pages=FINANCIAL_PAGES,
                            msr_pages=MSR_PAGES)
    spec = RunSpec(workload=workload, ftl=ftl, scale=scale, seed=seed,
                   channels=channels)

    setups = []
    for _ in range(SETUP_REPEATS):
        clear_run_caches()
        with Calibrated() as timing:
            sim_trace = build_spec_trace(spec)
        setups.append(timing)
    setup_s = [timing.reference_s for timing in setups]
    # execute_spec finds the last trace in the runner's trace memo
    measured = sim_trace.requests[WARMUP_REQUESTS:]
    measured_pages = sum(request.npages for request in measured)
    digests: List[str] = []

    def one_run() -> Tuple[Any, List[str]]:
        result = execute_spec(spec)
        problems = _sim_problems(result, len(measured), measured_pages)
        digest = result_digest(result)
        if digests and digest != digests[0]:
            problems.append(f"result digest {digest[:12]} differs from "
                            f"the first run's {digests[0][:12]}")
        digests.append(digest)
        return result, problems

    runs = Runs()
    runs.timed(one_run, seconds)
    values: Dict[str, float] = {"setup_s": statistics.median(setup_s),
                                "run_s": runs.median_ref_s}
    detail: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_wall_s": [timing.wall_s for timing in setups],
        **runs.detail(), "result_digest": digests[0]}
    if trace:
        config = simulation_config(sim_trace,
                                   cache_fraction=spec.cache_fraction,
                                   tpftl=spec.tpftl, channels=channels)
        prefill_s = []
        for _ in range(SETUP_REPEATS):
            with Calibrated() as timing:
                make_ftl(spec.ftl, config)
            prefill_s.append(timing.reference_s)
        result, traced_s, stats = profiled(lambda: runs.run(one_run))
        result = result or runs.outcomes[0]
        wa_ratio, tat_ratio = _model_ratios(result, config.ssd)
        values.update(_sim_layer_metrics(result, runs.median_ref_s))
        values.update({
            f"{bucket}.share": share
            for bucket, share in layers.shares(stats, False).items()})
        values.update({
            "workloads.trace_s": statistics.median(setup_s),
            "workloads.requests": len(sim_trace.requests),
            "workloads.pages": sum(r.npages for r in sim_trace.requests),
            "ftl.prefill_s": statistics.median(prefill_s),
            "model.wa_ratio": wa_ratio,
            "model.tat_ratio": tat_ratio,
            "trace.run_wall_s": runs.median_s,
            "trace.overhead_x": traced_s / runs.median_s,
        })
        detail.update({"prefill_s": prefill_s, "traced_s": traced_s})
    return runs, values, detail


# ----------------------------------------------------------------------
# Analysis workload
# ----------------------------------------------------------------------
def _import_analysis() -> None:
    """Import ``repro.analysis`` afresh (drops every loaded repro module)."""
    for module in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[module]
    importlib.import_module("repro.analysis.mutants")


def _unpack(dest: Path) -> Path:
    """Extract the frozen ``src/repro`` snapshot; returns its src root."""
    with tarfile.open(ARCHIVE, "r:gz") as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def run_analysis(seconds: float, trace: bool, work: Path
                 ) -> Tuple[Runs, Dict[str, float], Dict[str, Any]]:
    setups = []
    corpus = work
    for attempt in range(SETUP_REPEATS):
        if attempt:
            shutil.rmtree(corpus.parent)
        with Calibrated() as timing:
            _import_analysis()
            corpus = _unpack(work / f"corpus-{attempt}")
        setups.append(timing)
    setup_s = [timing.reference_s for timing in setups]

    from mutant_corpus import BENCH_MUTANTS
    from repro.analysis.mutants import run_mutants

    def one_run() -> Tuple[Any, List[str]]:
        report = run_mutants(str(corpus), baseline=None,
                             mutants=BENCH_MUTANTS)
        problems = [f"pristine corpus finding: {finding.render()}"
                    for finding in report.pristine_new]
        problems += [f"mutant {result.mutant.mid} not killed by "
                     f"{result.mutant.rule}"
                     for result in report.survivors]
        return report, problems

    runs = Runs()
    runs.timed(one_run, seconds)
    values: Dict[str, float] = {"setup_s": statistics.median(setup_s),
                                "run_s": runs.median_ref_s}
    detail: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_wall_s": [timing.wall_s for timing in setups],
        **runs.detail()}
    if trace:
        _, traced_s, stats = profiled(lambda: runs.run(one_run))
        for bucket, share in layers.shares(stats, True).items():
            if bucket != "other":
                values[f"analysis.{bucket}_s"] = share * runs.median_ref_s
        values.update({
            "analysis.analyses": 1 + len(BENCH_MUTANTS),
            "analysis.files_parsed": layers.call_count(
                stats, "/ast.py", "parse"),
            "trace.run_wall_s": runs.median_s,
            "trace.overhead_x": traced_s / runs.median_s,
        })
        detail["traced_s"] = traced_s
    return runs, values, detail


# ----------------------------------------------------------------------
# Header and output
# ----------------------------------------------------------------------
def _git_rev() -> Optional[str]:
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30,
                          check=False)
    return done.stdout.strip() or None


def _lines(root: Path) -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in root.rglob("*.py"))


def header(workload: str, seed: Optional[int]) -> Dict[str, Any]:
    from repro.experiments.runner import code_fingerprint
    return {
        "bench": BENCH,
        "schema": SCHEMA,
        "git_rev": _git_rev(),
        "src_fingerprint": code_fingerprint(),
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version()},
        "cache_state": CACHE_STATE,
        "workload": workload,
        "seed": seed if seed is not None else "preset default",
        "src_lines": _lines(SRC),
        "analysis_lines": _lines(SRC / "repro" / "analysis"),
    }


def select_metrics(contract: Dict[str, Any], values: Dict[str, float],
                   trace: bool) -> Dict[str, Dict[str, Any]]:
    """The contract's metric list for this mode, with units.

    Per-layer metrics of a layer the workload does not exercise read 0;
    a computed value the contract does not declare is a benchmark bug.
    """
    declared = {spec["name"]: spec["unit"]
                for key in ("end_to_end", "per_layer")
                for spec in contract[key]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    selected = {}
    for spec in contract["per_layer" if trace else "end_to_end"]:
        value = values.get(spec["name"], 0) if trace else values[spec["name"]]
        if not math.isfinite(value):
            raise ValueError(f"{spec['name']} is not finite: {value}")
        selected[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return selected


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="trace seed of simulator workloads "
                             "(default: the preset's seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time budget of the main phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one profiled run and print the "
                             "per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run it from the root of a "
              "checkout", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    try:
        if args.workload == ANALYSIS:
            runs, values, detail = run_analysis(args.seconds,
                                                bool(args.trace), work)
        else:
            runs, values, detail = run_sim(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)

    print(json.dumps(header(args.workload, args.seed)))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": select_metrics(contract, values, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

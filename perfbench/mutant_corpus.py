"""The frozen input of the ``analysis-mutants`` workload.

``corpus/src-repro.tar.gz`` is a snapshot of ``src/repro``; the
workload analyses that snapshot with the checkout's own
``repro.analysis``.  Freezing the input keeps ``run_s`` a measure of the
analysis code alone: a change that adds or deletes lines elsewhere in
``src/`` does not move it.

``BENCH_MUTANTS`` is the benchmark's own mutant list.  Its substitutions
match the snapshot, not ``src/`` at HEAD, and it names only protocols
and domains the analysis is meant to keep: the address domains (TP201),
microsecond/millisecond units (TP203), the supervisor's worker and pipe
lifecycle (TP303), reset-before-run (TP304) and the journal handle
(TP301).  It uses no fast-mode protocol, which is due to be removed.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.mutants import Mutant

BENCH_MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        mid="M01", path="repro/ftl/base.py", rule="TP201",
        description="read-modify-write reads the LPN instead of the "
                    "old PPN",
        before="self.flash.read(ppn_old, PageKind.DATA)",
        after="self.flash.read(lpn, PageKind.DATA)"),
    Mutant(
        mid="M08", path="repro/ssd/device.py", rule="TP203",
        description="per-request service time converted to ms and "
                    "dispatched where us are expected",
        before="            service = cost.service_time(ssd.read_us,"
               " ssd.write_us,\n"
               "                                        ssd.erase_us)"
               "\n",
        after="            response_ms = cost.service_time("
              "ssd.read_us, ssd.write_us,\n"
              "                                        ssd.erase_us)"
              " / 1000.0\n"
              "            service = response_ms\n"),
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
        mid="P08", path="repro/ssd/device.py", rule="TP304",
        description="dropped per-run reset in DeviceModel.run: "
                    "serve_request reachable without the reset",
        before="        self._validate_trace(trace)\n"
               "        self._reset_state()",
        after="        self._validate_trace(trace)"),
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


"""Mutation self-validation of the TP2xx domain and TP3xx protocol passes.

The acceptance gate for the flow analyses: every seeded mutant in
``repro.analysis.mutants`` — the TP2xx domain corpus and the TP3xx
protocol corpus alike — must be killed by its expected rule while the
pristine ``src`` tree stays clean.  One harness run analyzes the tree
once pristine and once per mutant, re-parsing only the mutated module
each time (~20 s on a 2-core host); everything else here is cheap:
corpus and plumbing checks, and an equivalence oracle that replays a
small fixture tree from scratch on disk.
"""

import ast
import collections
import os
import pathlib

import pytest

from repro.analysis.__main__ import main
from repro.analysis.flow import analyze_paths
from repro.analysis.flow.domains import DOMAIN_RULES
from repro.analysis.flow.typestate import PROTOCOL_RULES
from repro.analysis.lint import lint_paths, write_baseline
from repro.analysis.mutants import (DOMAIN_MUTANTS, MUTANTS,
                                    PROTOCOL_MUTANTS, Mutant,
                                    MutantApplyError, _apply,
                                    _read_sources, run_mutants)

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Corpus shape
# ----------------------------------------------------------------------
def test_corpus_is_well_formed():
    assert len(DOMAIN_MUTANTS) >= 10
    assert len(PROTOCOL_MUTANTS) >= 8
    assert MUTANTS == DOMAIN_MUTANTS + PROTOCOL_MUTANTS
    assert len({m.mid for m in MUTANTS}) == len(MUTANTS)
    for mutant in DOMAIN_MUTANTS:
        assert mutant.rule in DOMAIN_RULES
        assert mutant.path.startswith(("repro/ftl/", "repro/ssd/"))
    for mutant in PROTOCOL_MUTANTS:
        assert mutant.rule in PROTOCOL_RULES
        assert mutant.path.startswith(
            ("repro/ftl/", "repro/ssd/", "repro/experiments/"))
    for mutant in MUTANTS:
        assert mutant.before != mutant.after
        assert (ROOT / "src" / mutant.path).is_file()


def test_corpus_covers_every_domain_rule():
    assert {m.rule for m in DOMAIN_MUTANTS} == set(DOMAIN_RULES)


def test_corpus_covers_every_protocol_rule():
    assert {m.rule for m in PROTOCOL_MUTANTS} == set(PROTOCOL_RULES)


def test_protocol_corpus_spans_the_advertised_bug_classes():
    """The ISSUE's named mutant classes are all represented: a deleted
    finally, a swapped acquire/release, a dropped lifecycle cleanup,
    and an early return before the release."""
    blurbs = " | ".join(m.description.lower() for m in PROTOCOL_MUTANTS)
    for needle in ("deleted finally", "swapped", "dropped",
                   "early return"):
        assert needle in blurbs, needle


def test_before_text_matches_head_exactly_once():
    """The drift guard the harness relies on, checked directly so a
    stale mutant fails fast with the offending file named."""
    for mutant in MUTANTS:
        text = (ROOT / "src" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.before) == 1, mutant.mid


def test_apply_rejects_drifted_before_text(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1\ny = 2\ny = 2\n",
                                     encoding="utf-8")
    sources = _read_sources(tmp_path)
    for before, found in (("z = 3", "found 0"), ("y = 2", "found 2")):
        drifted = Mutant(mid="MX", path="mod.py", rule="TP201",
                         description="drifted", before=before, after="y")
        with pytest.raises(MutantApplyError, match=f"MX.*{found}"):
            _apply(sources, tmp_path, drifted)
    missing = Mutant(mid="MZ", path="gone.py", rule="TP201",
                     description="no such module", before="x = 1",
                     after="x = 2")
    with pytest.raises(MutantApplyError, match="MZ.*gone.py"):
        _apply(sources, tmp_path, missing)


def test_apply_and_restore_round_trip(tmp_path):
    """Applying works on a copy of the in-memory tree: the pristine map
    (and the file on disk) are never touched, so nothing needs
    restoring between mutants."""
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n", encoding="utf-8")
    sources = _read_sources(tmp_path)
    mutant = Mutant(mid="MY", path="mod.py", rule="TP201",
                    description="swap", before="x = 1", after="x = 2")
    mutated = _apply(sources, tmp_path, mutant)
    assert list(mutated.values()) == ["x = 2\n"]
    assert list(sources.values()) == ["x = 1\n"]
    assert mutated.keys() == sources.keys()
    assert target.read_text(encoding="utf-8") == "x = 1\n"


# ----------------------------------------------------------------------
# The incremental harness against a from-scratch oracle (small tree)
# ----------------------------------------------------------------------
_FIXTURE = {
    "app/__init__.py": "",
    "app/store.py": (
        "import random\n\n\n"
        "class Store:\n"
        "    def retire(self, ppn):\n"
        "        self.last_dead = ppn\n\n\n"
        "class FTL:\n"
        "    def __init__(self):\n"
        "        self.store = Store()\n\n"
        "    def serve(self, lpn, ppn):\n"
        "        self.store.retire(ppn)\n\n"
        "    def jitter(self):\n"
        "        return random.random()\n"),
    "app/journal.py": (
        "import json\n\n\n"
        "class Journal:\n"
        "    def __init__(self, path):\n"
        "        self.path = path\n\n"
        "    def append(self, payload):\n"
        "        with open(self.path, \"a\", encoding=\"utf-8\") as handle:\n"
        "            handle.write(json.dumps(payload) + \"\\n\")\n"),
}

_FIXTURE_MUTANTS = (
    Mutant(mid="FD", path="app/store.py", rule="TP201",
           description="LPN handed to a PPN parameter",
           before="self.store.retire(ppn)",
           after="self.store.retire(lpn)"),
    Mutant(mid="FP", path="app/journal.py", rule="TP301",
           description="with block dropped: the handle is never closed",
           before=("        with open(self.path, \"a\", "
                   "encoding=\"utf-8\") as handle:\n"
                   "            handle.write"),
           after=("        handle = open(self.path, \"a\", "
                  "encoding=\"utf-8\")\n"
                  "        handle.write")),
)


def _fixture_tree(root):
    for rel, text in _FIXTURE.items():
        path = root / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root / "src"


def _from_scratch(src):
    findings = lint_paths([str(src)]) + analyze_paths([str(src)])
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule,
                                           f.col, f.message))


def test_incremental_harness_matches_from_scratch_analysis(
        tmp_path, monkeypatch):
    src = _fixture_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    parsed = collections.Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ast, "parse", counting_parse)
        report = run_mutants("src", baseline=None,
                             mutants=_FIXTURE_MUTANTS)
    # every module parsed once pristine; a mutant re-parses only its own
    assert parsed == {"src/app/__init__.py": 1, "src/app/store.py": 2,
                      "src/app/journal.py": 2}

    pristine = _from_scratch(src)
    assert [f.rule for f in pristine] == ["TP001"]
    assert sorted(report.pristine_new, key=lambda f: (
        f.path, f.line, f.rule, f.col, f.message)) == pristine
    pristine_keys = {f.key for f in pristine}
    for mutant, result in zip(_FIXTURE_MUTANTS, report.results):
        target = src / mutant.path
        original = target.read_text(encoding="utf-8")
        target.write_text(original.replace(mutant.before, mutant.after),
                          encoding="utf-8")
        try:
            expected = [f for f in _from_scratch(src)
                        if f.key not in pristine_keys]
        finally:
            target.write_text(original, encoding="utf-8")
        assert sorted(result.delta, key=lambda f: (
            f.path, f.line, f.rule, f.col, f.message)) == expected
        assert result.killed, (mutant.mid, expected)


def test_baseline_applies_for_absolute_and_relative_src(
        tmp_path, monkeypatch):
    """Pristine findings are keyed like the baseline whichever way the
    source root is spelled (``mutants --src $PWD/src`` included)."""
    _fixture_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    findings = lint_paths(["src"])
    assert [f.rule for f in findings] == ["TP001"]
    write_baseline(tmp_path / "baseline.json", findings)
    for src_root in ("src", os.path.abspath("src")):
        report = run_mutants(src_root, baseline="baseline.json",
                             mutants=())
        assert report.pristine_new == [], src_root
        assert report.ok


# ----------------------------------------------------------------------
# The acceptance gate (one full harness run)
# ----------------------------------------------------------------------
def test_every_mutant_killed_and_head_clean():
    report = run_mutants(
        src_root=str(ROOT / "src"),
        baseline=str(ROOT / ".analysis-baseline.json"))
    assert report.pristine_new == [], report.pristine_new
    survivors = [(r.mutant.mid, r.mutant.rule)
                 for r in report.survivors]
    assert survivors == []
    # each mutant is killed by its *expected* rule, not a bystander
    for result in report.results:
        rules = {f.rule for f in result.delta}
        assert result.mutant.rule in rules, (result.mutant.mid, rules)
    assert report.ok


# ----------------------------------------------------------------------
# CLI plumbing (cheap paths only)
# ----------------------------------------------------------------------
def test_cli_list_prints_corpus_without_running(capsys):
    assert main(["mutants", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(MUTANTS)
    assert lines[0].startswith("M01")

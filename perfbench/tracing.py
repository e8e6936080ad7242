"""Operation timing and layer tracing, installed from outside the package.

A :class:`Recorder` collects operation latencies and, in traced runs,
replaces module attributes and methods of ``grouptower`` with wrappers.
Traced runs wrap every call that crosses a module boundary, under the
name the caller imported it as (``constructions._nf``, ``oracles.nf_word``),
so calls from one module into another are spans and ``tower``'s internal
recursion is not.  Spans stay in memory and are written out when the run
ends; a span's self time is its duration minus the time its child spans
cover.
"""
from __future__ import annotations

import functools
from time import perf_counter_ns

from grouptower import cli, constructions, fieldext, minstruct, oracles, report, tower, words
from grouptower.tower import MembershipUndecided

# tower functions as other modules imported them -> layer metric name
TOWER_IMPORTS = {
    "_nf": "nf", "nf_word": "nf", "normal_form": "nf", "_member": "member", "in_cyclic": "member",
    "britton_reduce": "britton_reduce", "cyclically_reduce": "cyclically_reduce",
    "minimal_root": "minimal_root", "commutes": "commutes", "ball_words": "ball_words",
    "is_conjugate_into_base": "is_conjugate_into_base",
}
TOWER_FUNCS = ("nf", "member", "britton_reduce", "cyclically_reduce", "minimal_root", "commutes",
               "ball_words", "extend_hnn", "is_conjugate_into_base")
CACHES = {"reduce": "_reduce", "nf": "_nf", "coset": "_coset",
          "cyclically_reduce": "cyclically_reduce", "minimal_root": "minimal_root"}
CONSTRUCTION_FUNCS = ("initial_state", "tower_step", "check_conditions", "cyclic_key", "root_witness")
LEMMAS = ("aabb", "dodatkowy", "cent", "cykr", "ip", "nn", "jsc", "torsion")
FIELD_FUNCS = ("explicit_inverse", "mul_matrix", "m_matrix", "m_entry_formula", "m_entry_numerator_symbolic")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {"words.word_new.calls": "count", "words.max_stage.calls": "count"}
    for f in TOWER_FUNCS:
        units[f"tower.{f}.calls"] = "count"
        units[f"tower.{f}.self_s"] = "s"
    for c in CACHES:
        for part in ("hits", "misses", "size"):
            units[f"tower.cache.{c}.{part}"] = "count"
    units["tower.cache.nf.hit_ratio"] = "ratio"
    for name in ("tower.power_tables.count", "tower.power_tables.entries", "tower.ball_cache.count",
                 "tower.undecided"):
        units[name] = "count"
    for f in CONSTRUCTION_FUNCS:
        units[f"constructions.{f}.self_s"] = "s"
    for name in ("constructions.check_conditions.checked", "constructions.check_conditions.undecided",
                 "constructions.ledger.size", "constructions.queue.pending"):
        units[name] = "count"
    for lemma in LEMMAS:
        units[f"oracles.{lemma}.self_s"] = "s"
        units[f"oracles.{lemma}.checked"] = "count"
        units[f"oracles.{lemma}.premise_hits"] = "count"
        units[f"oracles.{lemma}.hit_ratio"] = "ratio"
    for f in FIELD_FUNCS:
        units[f"fieldext.{f}.self_s"] = "s"
    units["fieldext.instances"] = "count"
    for mode in (minstruct.OMEGA, minstruct.MODE_I):
        units[f"minstruct.axiom_suite.{mode}.self_s"] = "s"
    units["minstruct.axiom1.checked"] = "count"
    units["minstruct.max_chain_brute.calls"] = "count"
    units["minstruct.max_chain_brute.self_s"] = "s"
    units["minstruct.embedding_check.self_s"] = "s"
    units["report.to_json.self_s"] = "s"
    units["cli.self_s"] = "s"
    units["towers.reproducer.wrong"] = "count"
    units["towers.reproducer.undecided"] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Recorder:
    def __init__(self):
        self.op_latencies: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        # spans: (name id, parent index, start ns, end ns); -1 = no parent
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []
        self._stack: list[list] = []   # [span index, name, start, child ns]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, float] = {}

    # ----------------------------------------------------------- operations

    def record(self, seconds: float) -> None:
        self.op_latencies.append(seconds)

    # ---------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call is a span named ``name``."""
        nid = self._name_id(name)
        stack, spans, calls, self_ns = self._stack, self.spans, self.calls, self.self_ns
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        tower_span = name.startswith("tower.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), name, perf_counter_ns(), 0]
            spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except MembershipUndecided:
                if tower_span and not (parent and parent[1].startswith("tower.")):
                    self.counts["tower.undecided"] = self.counts.get("tower.undecided", 0) + 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[2]
                calls[name] += 1
                self_ns[name] += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                spans[frame[0]] = (nid, parent[0] if parent else -1, frame[2], end)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _count_only(self, name: str, fn):
        self.counts.setdefault(name, 0)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install_layers(self, extra_tower_callers=()) -> None:
        """Wrap every cross-module call the traced metrics need.

        ``extra_tower_callers`` are further namespaces (the benchmark's own
        workload module) whose imported tower functions become spans.
        """
        counts = self.counts
        # words: count-only
        self._patch(words.Word, "__init__", self._count_only("words.word_new.calls", words.Word.__init__))
        max_stage = self._count_only("words.max_stage.calls", words.max_stage)
        for module in (words, tower, constructions):
            self._patch(module, "max_stage", max_stage)
        # tower, under the name each caller imported it as
        for module in (constructions, oracles, cli, *extra_tower_callers):
            for attr, metric in TOWER_IMPORTS.items():
                if hasattr(module, attr) and getattr(module, attr) is getattr(tower, attr):
                    self._patch(module, attr, self.span(f"tower.{metric}", getattr(module, attr)))
        self._patch(tower.ExtensionTower, "extend_hnn",
                    self.span("tower.extend_hnn", tower.ExtensionTower.extend_hnn))

        # constructions: module attributes serve callers inside and outside
        def construction_state(state):
            counts["constructions.ledger.size"] = len(state.ledger)
            counts["constructions.queue.pending"] = len(state.z_queue)

        def condition_report(rep):
            for part in ("checked", "undecided"):
                key = f"constructions.check_conditions.{part}"
                counts[key] = counts.get(key, 0) + getattr(rep, part)

        hooks = {"initial_state": construction_state, "tower_step": construction_state,
                 "check_conditions": condition_report}
        for f in CONSTRUCTION_FUNCS:
            self._patch(constructions, f, self.span(f"constructions.{f}", getattr(constructions, f), hooks.get(f)))
        self._patch(oracles, "root_witness", constructions.root_witness)

        # oracles: one span per lemma scan, counts from its verdict
        def verdict(v):
            for part in ("checked", "premise_hits"):
                key = f"oracles.{v.lemma_id}.{part}"
                counts[key] = counts.get(key, 0) + getattr(v, part)

        for lemma in LEMMAS:
            attr = f"check_{lemma}"
            self._patch(oracles, attr, self.span(f"oracles.{lemma}", getattr(oracles, attr), verdict))

        # fieldext
        for f in FIELD_FUNCS:
            self._patch(fieldext, f, self.span(f"fieldext.{f}", getattr(fieldext, f)))
        self._patch(fieldext, "random_instance", self._count_only("fieldext.instances", fieldext.random_instance))

        # minstruct: the axiom suite is named by its mode argument
        suite = minstruct.axiom_suite
        suites = {mode: self.span(f"minstruct.axiom_suite.{mode}", suite)
                  for mode in (minstruct.OMEGA, minstruct.MODE_I)}

        def axiom_suite(mode, *args, **kwargs):
            rep = suites[mode](mode, *args, **kwargs)
            for res in rep.results:
                if res.axiom.startswith("1-"):
                    counts["minstruct.axiom1.checked"] = counts.get("minstruct.axiom1.checked", 0) + res.checked
            return rep

        self._patch(minstruct, "axiom_suite", axiom_suite)
        for f in ("max_chain_brute", "embedding_check"):
            self._patch(minstruct, f, self.span(f"minstruct.{f}", getattr(minstruct, f)))
        self._patch(report.RunReport, "to_json", self.span("report.to_json", report.RunReport.to_json))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of this run; the caller adds overhead and probe."""
        out = {name: 0 for name in layer_metric_units()}
        out.update(self.counts)
        for name, n in self.calls.items():
            if name.startswith("tower.") or name == "minstruct.max_chain_brute":
                out[f"{name}.calls"] = n
        for name, ns in self.self_ns.items():
            if name == "workload":
                out["cli.self_s"] = ns / 1e9
            else:
                out[f"{name}.self_s"] = ns / 1e9
        for lemma in LEMMAS:
            checked = out[f"oracles.{lemma}.checked"]
            out[f"oracles.{lemma}.hit_ratio"] = out[f"oracles.{lemma}.premise_hits"] / checked if checked else 0
        out.update(cache_metrics())
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path, run_id: str) -> None:
        with open(path, "w") as fh:
            fh.write(f"# run={run_id}\n# index\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i, (nid, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{names[nid]}\t{start}\t{end}\n")


def cache_metrics() -> dict[str, float]:
    """Sizes and hit counts of the tower module's caches.  A cache a later
    version no longer has reads 0 and is listed in ``absent``."""
    out: dict[str, float] = {}
    absent = []
    for metric, attr in CACHES.items():
        fn = getattr(tower, attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        if info is None:
            absent.append(f"tower.cache.{metric}")
            info_vals = (0, 0, 0)
        else:
            info_vals = (info.hits, info.misses, info.currsize)
        for part, value in zip(("hits", "misses", "size"), info_vals):
            out[f"tower.cache.{metric}.{part}"] = value
    lookups = out["tower.cache.nf.hits"] + out["tower.cache.nf.misses"]
    out["tower.cache.nf.hit_ratio"] = out["tower.cache.nf.hits"] / lookups if lookups else 0
    tables = getattr(tower, "_power_tables", None)
    if tables is None:
        absent.append("tower.power_tables")
    out["tower.power_tables.count"] = len(tables or ())
    out["tower.power_tables.entries"] = sum(len(t.words) for t in (tables or {}).values())
    balls = getattr(tower, "_ball_cache", None)
    if balls is None:
        absent.append("tower.ball_cache")
    out["tower.ball_cache.count"] = len(balls or ())
    out["absent"] = absent
    return out

"""Spans and counters for the traced in-process replay.

``Tracer.install`` wraps the public functions of every ``aci3`` module, plus
the CLI's parse, handler, validation and serialization steps, from outside
the package: each wrapper records a span (name, start, end, parent, request
id) in memory.  A function imported with ``from .x import f`` is bound in
the importing module too (``int_rank`` is called as ``aci3.koszul.int_rank``),
so every module namespace holding the original object gets the wrapper.
``Tracer.remove`` puts the originals back.

A few functions run thousands of times per request (the cancellations of
the classification poset); they get a call counter instead of a span.
"""

from __future__ import annotations

import argparse
import importlib
import json
from collections import Counter, defaultdict
from math import prod
from time import perf_counter_ns

MODULES = ("hilbert", "monomials", "intmat", "koszul", "liaison", "classify",
           "pfaffians", "cas", "verify", "cli")

SPANNED = {
    "hilbert": ("ci_hilbert", "koszul_table", "difference", "socle_degree",
                "betti_alternating_sum", "hilbert_from_betti", "recognize_ci",
                "min_generator_bound"),
    "monomials": ("minimalize", "is_artinian", "standard_monomials", "hilbert_function",
                  "intersect", "colon", "aci_construction", "rigid_witness", "ci_type"),
    "intmat": ("int_rank", "int_det"),
    "koszul": ("strand_matrices", "betti_numbers", "verify_resolution"),
    "liaison": ("link_hilbert", "ci_link_identity", "mapping_cone_twists"),
    "classify": ("gaeta_check", "maximal_table", "enumerate_tables", "t_max", "delta_low",
                 "delta_high"),
    "pfaffians": ("alt_matrix", "pfaffian", "pfaffian_last_row", "sub_pfaffians",
                  "pfaffian_int", "pf_squared_equals_det", "witness_ideals_a3_h5"),
    "cas": ("export_cas", "script_is_balanced"),
    "verify": ("check_aci_hilbert", "check_colon_link", "check_rigid_resolution",
               "check_classification_coherence", "check_t_max", "check_ah_cancellation",
               "check_ci_link_identity", "check_gaeta", "check_pfaffian_degrees",
               "check_pf_squared", "check_witness_degrees", "check_cas_scripts",
               "verify_suite"),
    "cli": ("run", "build_parser", "validate_payload", "_dumps"),
}

COUNTED = ("cancel_couple", "cancel_ah")   # in classify; counted as cancel_attempts

# verify_suite's plan: which scope runs which check.
VERIFY_SCOPE = {
    "check_aci_hilbert": "monomial", "check_colon_link": "monomial",
    "check_rigid_resolution": "betti",
    "check_classification_coherence": "classification", "check_t_max": "classification",
    "check_ah_cancellation": "classification",
    "check_ci_link_identity": "liaison", "check_gaeta": "gaeta",
    "check_pfaffian_degrees": "pfaffian", "check_pf_squared": "pfaffian",
    "check_witness_degrees": "pfaffian", "check_cas_scripts": "cas",
}

ERROR_CODES = ("input-error", "h-out-of-range")


def _box(ideal) -> int:
    """Product of the pure-power bounds: the box standard_monomials walks."""
    bounds = []
    for i in range(ideal.c):
        bounds.append(min(g[i] for g in ideal.gens
                          if all(e == 0 for k, e in enumerate(g) if k != i)))
    return prod(bounds)


def _count_std(tracer, args, result):
    tracer.counts["monomials.box_visited"] += _box(args[0])
    tracer.counts["monomials.std_total"] += sum(len(b) for b in result)


def _count_strand(tracer, args, result):
    cells = sum(len(m) * len(m[0]) for m in result if m and m[0])
    tracer.counts["koszul.strands"] += 1
    tracer.counts["koszul.max_strand_cells"] = max(tracer.counts["koszul.max_strand_cells"], cells)


def _count_rank(tracer, args, result):
    rows = args[0]
    cells = len(rows) * len(rows[0]) if rows and rows[0] else 0
    tracer.counts["intmat.rank_cells"] += cells
    tracer.counts["intmat.rank_nonzero"] += cells - sum(r.count(0) for r in rows)


def _count_poset(tracer, args, result):
    tracer.counts["classify.nodes"] += len(result.nodes)
    tracer.counts["classify.edges"] += len(result.edges)


def _count_terms(tracer, args, result):
    tracer.counts["pfaffians.terms_out"] += sum(len(p.terms) for p in result)


def _count_outcome(tracer, args, result):
    if result.status == "error":
        code = result.code if result.code in ERROR_CODES else "other"
        tracer.counts[f"cli.errors.{code}"] += 1


ON_RESULT = {
    "monomials.standard_monomials": _count_std,
    "koszul.strand_matrices": _count_strand,
    "intmat.int_rank": _count_rank,
    "classify.enumerate_tables": _count_poset,
    "pfaffians.sub_pfaffians": _count_terms,
    "cli.run": _count_outcome,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index, request id]
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ----- recording -----

    def _span_wrapper(self, name, fn):
        on_result = ON_RESULT.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def request_span(self, request_id, route):
        """Open the top-level span of one replayed request; returns a closer."""
        self.request = request_id
        record = [f"request {route}", 0, 0, None, request_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter_ns()

        def close():
            record[2] = perf_counter_ns()
            self._stack.pop()
            self.request = None

        return close

    # ----- patching -----

    def _patch_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        modules = [importlib.import_module("aci3")] + \
                  [importlib.import_module(f"aci3.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, modules[1:]))
        for mod_name, names in SPANNED.items():
            for fn_name in names:
                original = getattr(by_name[mod_name], fn_name)
                span_name = f"{mod_name}.{fn_name.lstrip('_')}"
                self._patch_everywhere(modules, original, self._span_wrapper(span_name, original))
        cli = by_name["cli"]
        for attr in [a for a in vars(cli) if a.startswith("_cmd_")]:
            original = getattr(cli, attr)
            self._patch_everywhere([cli], original, self._span_wrapper("cli.handler", original))
        for fn_name in COUNTED:
            original = getattr(by_name["classify"], fn_name)
            self._patch_everywhere(modules, original,
                                   self._count_wrapper("classify.cancel_attempts", original))
        original = argparse.ArgumentParser.parse_args
        self._patches.append((argparse.ArgumentParser, "parse_args", original))
        argparse.ArgumentParser.parse_args = self._span_wrapper("cli.parse_args", original)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----- output -----

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": request}) + "\n")


def layer_metrics(tracer: Tracer, requests: dict) -> dict:
    """Per-layer figures from the spans and counters, per replayed request.

    ``requests`` maps each traced request id to its call.  A time is the
    summed duration of the outermost spans of that name (or module); a
    self time subtracts the time covered by the span's direct children.
    """
    spans = tracer.spans
    n = len(requests)
    duration = [s[2] - s[1] for s in spans]
    child_time = [0] * len(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[3] is not None:
            child_time[s[3]] += duration[i]

    def total_ms(names):
        """Summed time of the outermost spans whose name is in ``names``."""
        names = set(names)
        ns = 0
        for name in names:
            for i in by_name[name]:
                p = spans[i][3]
                while p is not None and spans[p][0] not in names:
                    p = spans[p][3]
                if p is None:
                    ns += duration[i]
        return ns / 1e6 / n

    def module(prefix):
        return [name for name in by_name if name.startswith(prefix + ".")]

    def calls(name):
        return len(by_name[name]) / n

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    oracle = [rid for rid, call in requests.items()
              if call.route == "betti oracle" and "error" not in call.expect]
    expected = [rid for rid in oracle if "expected" in requests[rid].expect]
    betti = by_name["koszul.betti_numbers"]
    betti_by_request = Counter(spans[i][4] for i in betti)
    self_ms = sum(duration[i] - child_time[i] for i in betti) / 1e6 / n

    m = {
        "cli.parse_ms": total_ms(("cli.build_parser", "cli.parse_args")),
        "cli.handler_ms": total_ms(["cli.handler"]),
        "cli.validate_ms": total_ms(["cli.validate_payload"]),
        "cli.validate_calls": calls("cli.validate_payload"),
        "cli.dumps_ms": total_ms(["cli.dumps"]),
    }
    for code in ERROR_CODES + ("other",):
        m[f"cli.errors.{code}"] = c[f"cli.errors.{code}"] / n
    m.update({
        "monomials.standard_monomials.ms": total_ms(["monomials.standard_monomials"]),
        "monomials.standard_monomials.calls": calls("monomials.standard_monomials"),
        "monomials.box_visited": c["monomials.box_visited"] / n,
        "monomials.std_yield": ratio(c["monomials.std_total"], c["monomials.box_visited"]),
        "monomials.colon.ms": total_ms(["monomials.colon"]),
        "koszul.betti_numbers.ms": total_ms(["koszul.betti_numbers"]),
        "koszul.betti_numbers.self_ms": self_ms,
        "koszul.betti_numbers.calls_per_request":
            ratio(sum(betti_by_request[r] for r in oracle), len(oracle)),
        "koszul.betti_numbers.calls_per_expected_request":
            ratio(sum(betti_by_request[r] for r in expected), len(expected)),
        "koszul.strand_matrices.ms": total_ms(["koszul.strand_matrices"]),
        "koszul.strands": c["koszul.strands"] / n,
        "koszul.max_strand_cells": c["koszul.max_strand_cells"],
        "intmat.int_rank.ms": total_ms(["intmat.int_rank"]),
        "intmat.int_rank.calls": calls("intmat.int_rank"),
        "intmat.rank_cells": c["intmat.rank_cells"] / n,
        "intmat.rank_nonzero_ratio": ratio(c["intmat.rank_nonzero"], c["intmat.rank_cells"]),
        "intmat.int_det.ms": total_ms(["intmat.int_det"]),
        "classify.enumerate_tables.ms": total_ms(["classify.enumerate_tables"]),
        "classify.nodes": c["classify.nodes"] / n,
        "classify.edges": c["classify.edges"] / n,
        "classify.cancel_attempts": c["classify.cancel_attempts"] / n,
        "classify.edge_yield": ratio(c["classify.edges"], c["classify.cancel_attempts"]),
        "pfaffians.sub_pfaffians.ms": total_ms(["pfaffians.sub_pfaffians"]),
        "pfaffians.sub_pfaffians.calls": calls("pfaffians.sub_pfaffians"),
        "pfaffians.alt_matrix.ms": total_ms(["pfaffians.alt_matrix"]),
        "pfaffians.terms_out": c["pfaffians.terms_out"] / n,
        "pfaffians.pfaffian_int.ms": total_ms(["pfaffians.pfaffian_int"]),
        "hilbert.ms": total_ms(module("hilbert")),
        "liaison.ms": total_ms(module("liaison")),
        "cas.export_ms": total_ms(["cas.export_cas"]),
    })
    for scope in ("monomial", "betti", "classification", "liaison", "gaeta", "pfaffian", "cas"):
        m[f"verify.{scope}.ms"] = total_ms(f"verify.{f}" for f, s in VERIFY_SCOPE.items()
                                           if s == scope)
    return m

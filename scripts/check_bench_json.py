#!/usr/bin/env python3
"""Validate the machine-readable run artifacts the C++ side emits.

Two schemas are checked (see docs/OBSERVABILITY.md):

  ufc-bench-v1   BENCH_ufc.json — written by the bench binaries through
                 obs::update_bench_artifact(). A document with a "benchmarks"
                 list of {"name", "metrics"} entries; names must be unique
                 non-empty snake_case identifiers and metrics a JSON object.
                 Known sections are checked row by row; the scaling
                 frontier fails closed on any row with kkt_passed false.
  ufc-run-v1     ufc_cli --metrics manifests — written by obs::RunManifest.
                 Must carry "command" and, when present, a well-formed
                 "metrics" registry snapshot (counters are non-negative
                 integers, histogram bucket_counts have exactly
                 len(boundaries) + 1 entries summing to "count").

Non-finite doubles are serialized as the pinned strings "nan"/"inf"/"-inf"
(shared with the CSV layer); the validator accepts those wherever a number is
expected, and rejects bare NaN/Infinity tokens, which are not JSON.

Usage:
  scripts/check_bench_json.py FILE...     validate artifacts, exit 1 on errors
  scripts/check_bench_json.py --self-test run the validator's own test suite
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

NAME_RE = re.compile(r"[a-z][a-z0-9_]*$")
NONFINITE_STRINGS = {"nan", "inf", "-inf"}


class Errors:
    def __init__(self, path: str):
        self.path = path
        self.messages: list[str] = []

    def add(self, where: str, message: str) -> None:
        self.messages.append(f"{self.path}: {where}: {message}")


def is_number(value) -> bool:
    """A JSON number, or the pinned non-finite string encoding."""
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return True
    return isinstance(value, str) and value in NONFINITE_STRINGS


def load(path: Path, errors: Errors):
    try:
        text = path.read_text()
    except OSError as error:
        errors.add("file", f"unreadable: {error}")
        return None
    try:
        # parse_constant rejects the bare NaN/Infinity tokens Python's json
        # otherwise tolerates; the C++ emitter never writes them.
        return json.loads(text, parse_constant=lambda token: (_ for _ in ()).throw(
            ValueError(f"non-standard JSON token {token!r}")))
    except ValueError as error:
        errors.add("file", f"not valid JSON: {error}")
        return None


# --------------------------------------------------------------------------
# Metrics registry snapshot (shared by both schemas).
# --------------------------------------------------------------------------
def check_metrics(metrics, errors: Errors, where: str) -> None:
    if not isinstance(metrics, dict):
        errors.add(where, "metrics must be an object")
        return
    for section in metrics:
        if section not in ("counters", "gauges", "histograms"):
            errors.add(where, f"unknown metrics section {section!r}")
    for name, value in metrics.get("counters", {}).items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.add(where, f"counter {name!r} must be a non-negative integer")
    for name, value in metrics.get("gauges", {}).items():
        if not is_number(value):
            errors.add(where, f"gauge {name!r} must be a number")
    for name, histogram in metrics.get("histograms", {}).items():
        if not isinstance(histogram, dict):
            errors.add(where, f"histogram {name!r} must be an object")
            continue
        boundaries = histogram.get("boundaries")
        counts = histogram.get("bucket_counts")
        if not isinstance(boundaries, list) or not boundaries or \
                not all(is_number(b) for b in boundaries):
            errors.add(where, f"histogram {name!r}: boundaries must be a "
                              "non-empty number list")
            continue
        finite = [b for b in boundaries if isinstance(b, (int, float))]
        if finite != sorted(finite) or len(set(finite)) != len(finite):
            errors.add(where, f"histogram {name!r}: boundaries must be "
                              "strictly increasing")
        if not isinstance(counts, list) or \
                not all(isinstance(c, int) and not isinstance(c, bool) and c >= 0
                        for c in counts):
            errors.add(where, f"histogram {name!r}: bucket_counts must be "
                              "non-negative integers")
            continue
        if len(counts) != len(boundaries) + 1:
            errors.add(where, f"histogram {name!r}: expected "
                              f"{len(boundaries) + 1} buckets, got {len(counts)}")
        total = histogram.get("count")
        if isinstance(total, int) and sum(counts) != total:
            errors.add(where, f"histogram {name!r}: bucket_counts sum "
                              f"{sum(counts)} != count {total}")
        if not is_number(histogram.get("sum")):
            errors.add(where, f"histogram {name!r}: sum must be a number")


# --------------------------------------------------------------------------
# ufc-bench-v1
# --------------------------------------------------------------------------
def check_bench_document(doc, errors: Errors) -> None:
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list):
        errors.add("document", '"benchmarks" must be a list')
        return
    if not benchmarks:
        errors.add("document", '"benchmarks" is empty — no bench has run')
        return
    seen: set[str] = set()
    for index, entry in enumerate(benchmarks):
        where = f"benchmarks[{index}]"
        if not isinstance(entry, dict):
            errors.add(where, "entry must be an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.add(where, f"name {name!r} must match [a-z][a-z0-9_]*")
        elif name in seen:
            errors.add(where, f"duplicate bench name {name!r}")
        else:
            seen.add(name)
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            errors.add(where, '"metrics" must be a non-empty object')
            continue
        if "solver" in metrics and isinstance(metrics["solver"], dict):
            check_metrics(metrics["solver"], errors, f"{where}.metrics.solver")
        if "transport_overhead" in metrics:
            check_transport_overhead(metrics["transport_overhead"], errors,
                                     f"{where}.metrics.transport_overhead")
        if name == "scaling_frontier":
            check_scaling_frontier(metrics.get("rows"), errors,
                                   f"{where}.metrics.rows")
        if "iteration_frontier" in metrics:
            check_iteration_frontier(metrics["iteration_frontier"], errors,
                                     f"{where}.metrics.iteration_frontier")
        if "controller" in metrics:
            check_controller(metrics["controller"], errors,
                             f"{where}.metrics.controller")


TRANSPORTS = {"in_process", "unix", "tcp"}


def check_transport_overhead(section, errors: Errors, where: str) -> None:
    """The socket_bus bench's section: rows of {transport, m, n,
    rounds_per_sec, bytes_per_round} comparing in-process, Unix-domain and
    TCP-loopback transports at a few protocol sizes."""
    if not isinstance(section, list) or not section:
        errors.add(where, "must be a non-empty list of rows")
        return
    for index, row in enumerate(section):
        here = f"{where}[{index}]"
        if not isinstance(row, dict):
            errors.add(here, "row must be an object")
            continue
        if row.get("transport") not in TRANSPORTS:
            errors.add(here, f"transport {row.get('transport')!r} must be one "
                             f"of {sorted(TRANSPORTS)}")
        for key in ("m", "n"):
            value = row.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value <= 0:
                errors.add(here, f"{key!r} must be a positive integer")
        for key in ("rounds_per_sec", "bytes_per_round"):
            value = row.get(key)
            if not is_number(value) or \
                    (isinstance(value, (int, float)) and value <= 0):
                errors.add(here, f"{key!r} must be a positive number")


ACCELERATIONS = {"none", "anderson"}


def check_iteration_frontier(section, errors: Errors, where: str) -> None:
    """The bench_ingredients section: rows of {m, n, acceleration,
    iterations, converged, wall_seconds, speedup_vs_none} comparing the
    Anderson mixer against the plain loop per size. Every (m, n) size must
    carry the plain ("none") row, or the speedup column has no
    denominator."""
    if not isinstance(section, list) or not section:
        errors.add(where, "must be a non-empty list of rows")
        return
    sizes: set[tuple] = set()
    baselines: set[tuple] = set()
    for index, row in enumerate(section):
        here = f"{where}[{index}]"
        if not isinstance(row, dict):
            errors.add(here, "row must be an object")
            continue
        for key in ("m", "n", "iterations"):
            value = row.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value <= 0:
                errors.add(here, f"{key!r} must be a positive integer")
        acceleration = row.get("acceleration")
        if acceleration not in ACCELERATIONS:
            errors.add(here, f"acceleration {acceleration!r} must be one of "
                             f"{sorted(ACCELERATIONS)}")
        if not isinstance(row.get("converged"), bool):
            errors.add(here, '"converged" must be a boolean')
        for key in ("wall_seconds", "speedup_vs_none"):
            value = row.get(key)
            if not is_number(value) or \
                    (isinstance(value, (int, float)) and value < 0):
                errors.add(here, f"{key!r} must be a non-negative number")
        if isinstance(row.get("m"), int) and isinstance(row.get("n"), int):
            size = (row["m"], row["n"])
            sizes.add(size)
            if acceleration == "none":
                baselines.add(size)
    for size in sorted(sizes - baselines):
        errors.add(where, f"size {size[0]}x{size[1]} has no acceleration = "
                          "none baseline row")


def check_scaling_frontier(section, errors: Errors, where: str) -> None:
    """The bench_parallel_scaling frontier: rows of {m, n, iterations,
    default_us_per_iter, ..., kkt_max_residual, kkt_passed}. Fails closed: a
    row whose default-kernel lambda rows failed the KKT check is an error,
    not a number to report."""
    if not isinstance(section, list) or not section:
        errors.add(where, "must be a non-empty list of rows")
        return
    for index, row in enumerate(section):
        here = f"{where}[{index}]"
        if not isinstance(row, dict):
            errors.add(here, "row must be an object")
            continue
        for key in ("m", "n", "iterations"):
            value = row.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value <= 0:
                errors.add(here, f"{key!r} must be a positive integer")
        for key in ("default_us_per_iter", "kkt_max_residual"):
            value = row.get(key)
            if not is_number(value) or \
                    (isinstance(value, (int, float)) and value < 0):
                errors.add(here, f"{key!r} must be a non-negative number")
        passed = row.get("kkt_passed")
        if not isinstance(passed, bool):
            errors.add(here, '"kkt_passed" must be a boolean')
        elif not passed:
            errors.add(here, f"KKT check failed (kkt_max_residual "
                             f"{row.get('kkt_max_residual')!r}): the "
                             "default kernels' lambda rows are not optimal")


def check_controller(section, errors: Errors, where: str) -> None:
    """The bench_controller section: warm-vs-cold receding-horizon totals
    {ticks, budget_per_tick, warm_iterations, cold_iterations,
    warm_budget_exhausted, cold_budget_exhausted, savings_ratio}. The
    savings ratio must agree with the iteration totals it summarizes."""
    if not isinstance(section, dict):
        errors.add(where, "must be an object")
        return
    for key in ("ticks", "budget_per_tick"):
        value = section.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            errors.add(where, f"{key!r} must be a positive integer")
    for key in ("warm_iterations", "cold_iterations",
                "warm_budget_exhausted", "cold_budget_exhausted"):
        value = section.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.add(where, f"{key!r} must be a non-negative integer")
    savings = section.get("savings_ratio")
    if not is_number(savings) or isinstance(savings, str):
        errors.add(where, '"savings_ratio" must be a finite number')
        return
    warm = section.get("warm_iterations")
    cold = section.get("cold_iterations")
    if isinstance(warm, int) and isinstance(cold, int) and cold > 0:
        expected = 1.0 - warm / cold
        if abs(savings - expected) > 1e-6:
            errors.add(where, f'"savings_ratio" {savings} does not match '
                              f"1 - warm/cold = {expected}")


# --------------------------------------------------------------------------
# ufc-run-v1
# --------------------------------------------------------------------------
RUN_COMMANDS = {"solve", "simulate", "sweep-price", "sweep-tax", "traces",
                "distributed_demo", "controller_demo"}


def check_run_document(doc, errors: Errors) -> None:
    command = doc.get("command")
    if command not in RUN_COMMANDS:
        errors.add("document", f'"command" {command!r} must be one of '
                               f"{sorted(RUN_COMMANDS)}")
    if "metrics" in doc:
        check_metrics(doc["metrics"], errors, "metrics")
    strategies = doc.get("strategies")
    if strategies is not None:
        if not isinstance(strategies, dict) or not strategies:
            errors.add("strategies", "must be a non-empty object")
        else:
            for name, core in strategies.items():
                if not isinstance(core, dict):
                    errors.add(f"strategies.{name}", "must be an object")
                    continue
                for key in ("iterations", "converged", "breakdown"):
                    if key not in core:
                        errors.add(f"strategies.{name}", f"missing {key!r}")


def check_file(path: Path) -> list[str]:
    errors = Errors(str(path))
    doc = load(path, errors)
    if doc is None:
        return errors.messages
    if not isinstance(doc, dict):
        errors.add("document", "top level must be an object")
        return errors.messages
    schema = doc.get("schema")
    if schema == "ufc-bench-v1":
        check_bench_document(doc, errors)
    elif schema == "ufc-run-v1":
        check_run_document(doc, errors)
    else:
        errors.add("document", f'unknown "schema" {schema!r} (expected '
                               '"ufc-bench-v1" or "ufc-run-v1")')
    return errors.messages


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------
def self_test() -> int:
    import tempfile
    import unittest

    def messages_for(document) -> list[str]:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "artifact.json"
            if isinstance(document, str):
                path.write_text(document)
            else:
                path.write_text(json.dumps(document))
            return check_file(path)

    GOOD_BENCH = {
        "schema": "ufc-bench-v1",
        "benchmarks": [
            {"name": "fig11_convergence_cdf",
             "metrics": {
                 "runs": 168,
                 "solver": {
                     "counters": {"solver.iterations": 100},
                     "histograms": {"t": {"boundaries": [1.0, 2.0],
                                          "bucket_counts": [1, 2, 0],
                                          "count": 3, "sum": 4.5}}}}},
            {"name": "parallel_scaling", "metrics": {"rows": []}},
        ],
    }
    GOOD_RUN = {
        "schema": "ufc-run-v1",
        "command": "solve",
        "strategies": {"Hybrid": {"iterations": 109, "converged": True,
                                  "breakdown": {"ufc": -1355.0}}},
        "metrics": {"counters": {"solver.solves": 3},
                    "gauges": {"solver.last.objective": -1355.0}},
    }

    class CheckTests(unittest.TestCase):
        def test_good_bench_document_passes(self):
            self.assertEqual(messages_for(GOOD_BENCH), [])

        def test_good_run_document_passes(self):
            self.assertEqual(messages_for(GOOD_RUN), [])

        def test_invalid_json_fails(self):
            self.assertTrue(messages_for("{not json"))

        def test_bare_nan_token_rejected(self):
            self.assertTrue(messages_for('{"schema": "ufc-run-v1", "x": NaN}'))

        def test_pinned_nonfinite_strings_accepted(self):
            doc = dict(GOOD_RUN)
            doc["metrics"] = {"gauges": {"g": "inf"}}
            self.assertEqual(messages_for(doc), [])

        def test_unknown_schema_fails(self):
            self.assertTrue(messages_for({"schema": "something-else"}))

        def test_missing_schema_fails(self):
            self.assertTrue(messages_for({"benchmarks": []}))

        def test_empty_benchmarks_fails(self):
            self.assertTrue(messages_for({"schema": "ufc-bench-v1",
                                          "benchmarks": []}))

        def test_duplicate_bench_names_fail(self):
            doc = {"schema": "ufc-bench-v1",
                   "benchmarks": [{"name": "a", "metrics": {"x": 1}},
                                  {"name": "a", "metrics": {"x": 2}}]}
            self.assertTrue(messages_for(doc))

        def test_bad_bench_name_fails(self):
            doc = {"schema": "ufc-bench-v1",
                   "benchmarks": [{"name": "Fig 11!", "metrics": {"x": 1}}]}
            self.assertTrue(messages_for(doc))

        def test_empty_metrics_fails(self):
            doc = {"schema": "ufc-bench-v1",
                   "benchmarks": [{"name": "a", "metrics": {}}]}
            self.assertTrue(messages_for(doc))

        def test_good_transport_overhead_passes(self):
            doc = {"schema": "ufc-bench-v1",
                   "benchmarks": [{"name": "socket_bus", "metrics": {
                       "transport_overhead": [
                           {"transport": "in_process", "m": 4, "n": 3,
                            "rounds": 200, "rounds_per_sec": 120000.0,
                            "bytes_per_round": 1224.0},
                           {"transport": "unix", "m": 4, "n": 3,
                            "rounds": 200, "rounds_per_sec": 9000.0,
                            "bytes_per_round": 1416.0}]}}]}
            self.assertEqual(messages_for(doc), [])

        def test_transport_overhead_unknown_transport_fails(self):
            doc = {"schema": "ufc-bench-v1",
                   "benchmarks": [{"name": "socket_bus", "metrics": {
                       "transport_overhead": [
                           {"transport": "carrier_pigeon", "m": 4, "n": 3,
                            "rounds_per_sec": 1.0,
                            "bytes_per_round": 1.0}]}}]}
            self.assertTrue(messages_for(doc))

        def test_transport_overhead_nonpositive_rate_fails(self):
            doc = {"schema": "ufc-bench-v1",
                   "benchmarks": [{"name": "socket_bus", "metrics": {
                       "transport_overhead": [
                           {"transport": "tcp", "m": 4, "n": 3,
                            "rounds_per_sec": 0.0,
                            "bytes_per_round": 100.0}]}}]}
            self.assertTrue(messages_for(doc))

        def test_transport_overhead_empty_list_fails(self):
            doc = {"schema": "ufc-bench-v1",
                   "benchmarks": [{"name": "socket_bus", "metrics": {
                       "transport_overhead": []}}]}
            self.assertTrue(messages_for(doc))

        def _frontier_doc(self, rows):
            return {"schema": "ufc-bench-v1",
                    "benchmarks": [{"name": "ingredients", "metrics": {
                        "iteration_frontier": rows}}]}

        def test_good_iteration_frontier_passes(self):
            doc = self._frontier_doc([
                {"m": 64, "n": 16, "acceleration": "none",
                 "iterations": 500, "converged": True, "wall_seconds": 1.5,
                 "speedup_vs_none": 1.0},
                {"m": 64, "n": 16, "acceleration": "anderson",
                 "iterations": 200, "converged": True, "wall_seconds": 0.7,
                 "speedup_vs_none": 2.5}])
            self.assertEqual(messages_for(doc), [])

        def test_iteration_frontier_unknown_acceleration_fails(self):
            for acceleration in ("nesterov", "fixed"):
                doc = self._frontier_doc([
                    {"m": 64, "n": 16, "acceleration": acceleration,
                     "iterations": 1, "converged": True,
                     "wall_seconds": 0.1, "speedup_vs_none": 1.0}])
                self.assertTrue(messages_for(doc))

        def test_iteration_frontier_missing_baseline_fails(self):
            doc = self._frontier_doc([
                {"m": 64, "n": 16, "acceleration": "anderson",
                 "iterations": 200, "converged": True, "wall_seconds": 0.7,
                 "speedup_vs_none": 2.5}])
            self.assertTrue(messages_for(doc))

        def test_iteration_frontier_nonboolean_converged_fails(self):
            doc = self._frontier_doc([
                {"m": 64, "n": 16, "acceleration": "none",
                 "iterations": 1, "converged": 1, "wall_seconds": 0.1,
                 "speedup_vs_none": 1.0}])
            self.assertTrue(messages_for(doc))

        def test_iteration_frontier_negative_speedup_fails(self):
            doc = self._frontier_doc([
                {"m": 64, "n": 16, "acceleration": "none",
                 "iterations": 1, "converged": True, "wall_seconds": 0.1,
                 "speedup_vs_none": -2.0}])
            self.assertTrue(messages_for(doc))

        def test_iteration_frontier_empty_list_fails(self):
            self.assertTrue(messages_for(self._frontier_doc([])))

        SCALING_ROW = {"m": 64, "n": 16, "iterations": 8,
                       "default_us_per_iter": 40.0, "pre_pr_us": 5424.5,
                       "default_speedup": 135.6, "kkt_max_residual": 8.8e-16,
                       "kkt_passed": True}

        def _scaling_doc(self, rows):
            return {"schema": "ufc-bench-v1",
                    "benchmarks": [{"name": "scaling_frontier",
                                    "metrics": {"rows": rows}}]}

        def test_good_scaling_frontier_passes(self):
            doc = self._scaling_doc([dict(self.SCALING_ROW)])
            self.assertEqual(messages_for(doc), [])

        def test_scaling_frontier_failed_kkt_fails(self):
            row = dict(self.SCALING_ROW, kkt_max_residual=1.29e-5,
                       kkt_passed=False)
            messages = messages_for(self._scaling_doc([row]))
            self.assertTrue(any("KKT check failed" in m for m in messages))

        def test_scaling_frontier_missing_kkt_verdict_fails(self):
            row = dict(self.SCALING_ROW)
            del row["kkt_passed"]
            self.assertTrue(messages_for(self._scaling_doc([row])))

        def test_scaling_frontier_missing_default_time_fails(self):
            row = dict(self.SCALING_ROW)
            del row["default_us_per_iter"]
            self.assertTrue(messages_for(self._scaling_doc([row])))

        def test_scaling_frontier_empty_rows_fail(self):
            self.assertTrue(messages_for(self._scaling_doc([])))

        def _controller_doc(self, section):
            return {"schema": "ufc-bench-v1",
                    "benchmarks": [{"name": "controller", "metrics": {
                        "controller": section}}]}

        def test_good_controller_section_passes(self):
            doc = self._controller_doc(
                {"ticks": 24, "budget_per_tick": 400,
                 "warm_iterations": 470, "cold_iterations": 678,
                 "warm_budget_exhausted": 0, "cold_budget_exhausted": 0,
                 "savings_ratio": 1.0 - 470 / 678})
            self.assertEqual(messages_for(doc), [])

        def test_controller_nonpositive_ticks_fails(self):
            doc = self._controller_doc(
                {"ticks": 0, "budget_per_tick": 400,
                 "warm_iterations": 1, "cold_iterations": 1,
                 "warm_budget_exhausted": 0, "cold_budget_exhausted": 0,
                 "savings_ratio": 0.0})
            self.assertTrue(messages_for(doc))

        def test_controller_negative_iterations_fails(self):
            doc = self._controller_doc(
                {"ticks": 24, "budget_per_tick": 400,
                 "warm_iterations": -1, "cold_iterations": 1,
                 "warm_budget_exhausted": 0, "cold_budget_exhausted": 0,
                 "savings_ratio": 0.0})
            self.assertTrue(messages_for(doc))

        def test_controller_inconsistent_savings_ratio_fails(self):
            doc = self._controller_doc(
                {"ticks": 24, "budget_per_tick": 400,
                 "warm_iterations": 470, "cold_iterations": 678,
                 "warm_budget_exhausted": 0, "cold_budget_exhausted": 0,
                 "savings_ratio": 0.9})
            self.assertTrue(messages_for(doc))

        def test_controller_nonfinite_savings_ratio_fails(self):
            doc = self._controller_doc(
                {"ticks": 24, "budget_per_tick": 400,
                 "warm_iterations": 470, "cold_iterations": 678,
                 "warm_budget_exhausted": 0, "cold_budget_exhausted": 0,
                 "savings_ratio": "nan"})
            self.assertTrue(messages_for(doc))

        def test_controller_demo_run_command_accepted(self):
            doc = dict(GOOD_RUN)
            doc["command"] = "controller_demo"
            del doc["strategies"]
            self.assertEqual(messages_for(doc), [])

        def test_negative_counter_fails(self):
            doc = dict(GOOD_RUN)
            doc["metrics"] = {"counters": {"c": -1}}
            self.assertTrue(messages_for(doc))

        def test_boolean_counter_fails(self):
            doc = dict(GOOD_RUN)
            doc["metrics"] = {"counters": {"c": True}}
            self.assertTrue(messages_for(doc))

        def test_histogram_bucket_count_mismatch_fails(self):
            doc = dict(GOOD_RUN)
            doc["metrics"] = {"histograms": {
                "h": {"boundaries": [1.0], "bucket_counts": [1],
                      "count": 1, "sum": 0.5}}}
            self.assertTrue(messages_for(doc))

        def test_histogram_sum_mismatch_fails(self):
            doc = dict(GOOD_RUN)
            doc["metrics"] = {"histograms": {
                "h": {"boundaries": [1.0], "bucket_counts": [1, 1],
                      "count": 3, "sum": 0.5}}}
            self.assertTrue(messages_for(doc))

        def test_unsorted_histogram_boundaries_fail(self):
            doc = dict(GOOD_RUN)
            doc["metrics"] = {"histograms": {
                "h": {"boundaries": [2.0, 1.0], "bucket_counts": [0, 0, 0],
                      "count": 0, "sum": 0.0}}}
            self.assertTrue(messages_for(doc))

        def test_unknown_metrics_section_fails(self):
            doc = dict(GOOD_RUN)
            doc["metrics"] = {"timers": {}}
            self.assertTrue(messages_for(doc))

        def test_unknown_run_command_fails(self):
            doc = dict(GOOD_RUN)
            doc["command"] = "frobnicate"
            self.assertTrue(messages_for(doc))

        def test_strategy_missing_breakdown_fails(self):
            doc = dict(GOOD_RUN)
            doc["strategies"] = {"Hybrid": {"iterations": 1, "converged": True}}
            self.assertTrue(messages_for(doc))

    suite = unittest.defaultTestLoader.loadTestsFromTestCase(CheckTests)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path,
                        help="artifact files to validate")
    parser.add_argument("--self-test", action="store_true",
                        help="run the validator's test suite")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.paths:
        parser.error("no artifact files given (or use --self-test)")

    failures = 0
    for path in args.paths:
        messages = check_file(path)
        for message in messages:
            print(message, file=sys.stderr)
        if messages:
            failures += 1
        else:
            print(f"{path}: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

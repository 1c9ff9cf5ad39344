#!/usr/bin/env python3
"""Validate the run manifests the C++ side emits.

One schema is checked (see docs/OBSERVABILITY.md):

  ufc-run-v1     ufc_cli --metrics manifests and the example demos' --metrics
                 manifests — written by obs::RunManifest. Must carry a known
                 "command" and, when present, a well-formed "metrics"
                 registry snapshot (counters are non-negative integers,
                 histogram bucket_counts have exactly len(boundaries) + 1
                 entries summing to "count"). Any other schema is
                 refused.

Non-finite doubles are serialized as the pinned strings "nan"/"inf"/"-inf"
(shared with the CSV layer); the validator accepts those wherever a number is
expected, and rejects bare NaN/Infinity tokens, which are not JSON.

Usage:
  scripts/check_bench_json.py FILE...     validate manifests, exit 1 on errors
  scripts/check_bench_json.py --self-test run the validator's own test suite
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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
# Metrics registry snapshot.
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
    if schema == "ufc-run-v1":
        check_run_document(doc, errors)
    else:
        errors.add("document", f'unknown "schema" {schema!r} (expected '
                               '"ufc-run-v1")')
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

    GOOD_RUN = {
        "schema": "ufc-run-v1",
        "command": "solve",
        "strategies": {"Hybrid": {"iterations": 109, "converged": True,
                                  "breakdown": {"ufc": -1355.0}}},
        "metrics": {"counters": {"solver.solves": 3},
                    "gauges": {"solver.last.objective": -1355.0},
                    "histograms": {"t": {"boundaries": [1.0, 2.0],
                                         "bucket_counts": [1, 2, 0],
                                         "count": 3, "sum": 4.5}}},
    }

    class CheckTests(unittest.TestCase):
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
            doc = dict(GOOD_RUN)
            del doc["schema"]
            self.assertTrue(messages_for(doc))

        def test_retired_bench_artifact_schema_refused(self):
            # The retired bench-artifact schema is refused like any other.
            messages = messages_for({
                "schema": "ufc-bench-v1",
                "benchmarks": [{"name": "controller",
                                "metrics": {"controller": {"ticks": 6}}}]})
            self.assertTrue(any("unknown \"schema\"" in m for m in messages))

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
                        help="manifest files to validate")
    parser.add_argument("--self-test", action="store_true",
                        help="run the validator's test suite")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.paths:
        parser.error("no manifest files given (or use --self-test)")

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

#!/usr/bin/env python3
"""Self-tests for scripts/ufc_analyze.py, on synthetic trees.

Each case materializes a tiny repository in a tempdir (the same src/<layer>/
shape as the real tree), runs the analyzer's rule functions on it and asserts
the pass or fail fixture produces exactly the expected findings. Run via
`scripts/ufc_analyze.py --self-test` (registered in ctest as
ufc_analyze_selftest).
"""

from __future__ import annotations

import tempfile
import unittest
from pathlib import Path

import ufc_analyze as ua
from ufc_findings import validate_findings_json


def make_tree(tmp: str, files: dict[str, str]) -> ua.Tree:
    for rel, text in files.items():
        path = Path(tmp) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return ua.build_tree(Path(tmp))


def rules_of(findings) -> list[str]:
    return sorted({f.rule for f in findings})


class LayeringTests(unittest.TestCase):
    def _layering(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            return ua.check_layering(make_tree(tmp, files))

    def test_declared_edge_passes(self):
        findings = self._layering({
            "src/admm/solver.hpp": '#include "math/vec.hpp"\n',
            "src/math/vec.hpp": "#pragma once\n",
        })
        self.assertEqual(findings, [])

    def test_back_edge_fails(self):
        findings = self._layering({
            "src/math/vec.hpp": '#include "admm/solver.hpp"\n',
            "src/admm/solver.hpp": "#pragma once\n",
        })
        self.assertEqual(rules_of(findings), ["include-layering"])
        self.assertIn("back-edge", findings[0].message)

    def test_undeclared_edge_fails(self):
        # model -> opt is not in the manifest even though opt is lower.
        findings = self._layering({
            "src/model/problem.hpp": '#include "opt/bisect.hpp"\n',
            "src/opt/bisect.hpp": "#pragma once\n",
        })
        self.assertEqual(rules_of(findings), ["include-layering"])
        self.assertIn("undeclared layer edge", findings[0].message)

    def test_src_must_not_include_umbrella(self):
        findings = self._layering({
            "src/admm/solver.cpp": '#include "ufc.hpp"\n',
            "src/ufc.hpp": "#pragma once\n",
        })
        self.assertEqual(rules_of(findings), ["include-layering"])
        self.assertIn("umbrella", findings[0].message)

    def test_tests_may_include_umbrella(self):
        findings = self._layering({
            "tests/test_all.cpp": '#include "ufc.hpp"\n',
            "src/ufc.hpp": "#pragma once\n",
        })
        self.assertEqual(findings, [])

    def test_obs_seam_header_passes(self):
        findings = self._layering({
            "src/obs/metrics.cpp": '#include "admm/solve_core.hpp"\n',
            "src/admm/solve_core.hpp": "#pragma once\n",
        })
        self.assertEqual(findings, [])

    def test_obs_nonseam_admm_include_fails(self):
        findings = self._layering({
            "src/obs/metrics.cpp": '#include "admm/engine.hpp"\n',
            "src/admm/engine.hpp": "#pragma once\n",
        })
        self.assertEqual(rules_of(findings), ["include-layering"])
        self.assertIn("seam", findings[0].message)

    def test_ctrl_may_include_sim_and_admm(self):
        findings = self._layering({
            "src/ctrl/controller.hpp": '#include "admm/admg.hpp"\n'
                                       '#include "sim/session.hpp"\n',
            "src/admm/admg.hpp": "#pragma once\n",
            "src/sim/session.hpp": "#pragma once\n",
        })
        self.assertEqual(findings, [])

    def test_sim_must_not_include_ctrl(self):
        findings = self._layering({
            "src/sim/session.cpp": '#include "ctrl/controller.hpp"\n',
            "src/ctrl/controller.hpp": "#pragma once\n",
        })
        self.assertEqual(rules_of(findings), ["include-layering"])
        self.assertIn("back-edge", findings[0].message)

    def test_undeclared_directory_fails(self):
        findings = self._layering({
            "src/magic/widget.hpp": "#pragma once\n",
            "src/admm/solver.cpp": '#include "magic/widget.hpp"\n',
        })
        self.assertEqual(rules_of(findings), ["include-layering"])
        self.assertIn("not a declared layer", findings[0].message)

    def test_dangling_include_fails(self):
        findings = self._layering({
            "src/admm/solver.cpp": '#include "math/gone.hpp"\n',
        })
        self.assertEqual(rules_of(findings), ["dangling-include"])

    def test_dangling_include_suppressed(self):
        findings = self._layering({
            "src/admm/solver.cpp":
                '// ufc-analyze: allow(dangling-include)\n'
                '#include "math/gone.hpp"\n',
        })
        self.assertEqual(findings, [])

    def test_include_cycle_fails(self):
        findings = self._layering({
            "src/util/a.hpp": '#include "util/b.hpp"\n',
            "src/util/b.hpp": '#include "util/a.hpp"\n',
        })
        self.assertEqual(rules_of(findings), ["include-cycle"])

    def test_acyclic_chain_passes(self):
        findings = self._layering({
            "src/util/a.hpp": '#include "util/b.hpp"\n',
            "src/util/b.hpp": '#include "util/c.hpp"\n',
            "src/util/c.hpp": "#pragma once\n",
        })
        self.assertEqual(findings, [])


class ConstructBanTests(unittest.TestCase):
    CHRONO = "auto t = std::chrono::steady_clock::now();\n"

    def test_wall_clock_in_solver_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {"src/admm/engine.cpp": self.CHRONO})
            self.assertEqual(rules_of(ua.check_wall_clock(tree)),
                             ["wall-clock"])

    def test_wall_clock_in_obs_and_seam_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {"src/obs/timer.hpp": self.CHRONO,
                                   "src/util/clock.hpp": self.CHRONO})
            self.assertEqual(ua.check_wall_clock(tree), [])

    def test_wall_clock_suppression(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/admm/engine.cpp":
                    "auto t = std::chrono::steady_clock::now();"
                    "  // ufc-analyze: allow(wall-clock)\n"})
            self.assertEqual(ua.check_wall_clock(tree), [])

    def test_ctrl_chrono_caught_by_generic_wall_clock(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {"src/ctrl/controller.cpp": self.CHRONO})
            self.assertEqual(rules_of(ua.check_wall_clock(tree)),
                             ["wall-clock"])

    def test_ctrl_clock_seam_include_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/ctrl/controller.cpp": '#include "util/clock.hpp"\n',
                "src/util/clock.hpp": "#pragma once\n"})
            self.assertEqual(rules_of(ua.check_ctrl_wall_clock(tree)),
                             ["no-wall-clock-in-ctrl-tick"])

    def test_ctrl_timer_identifier_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/ctrl/scheduler.cpp":
                    "const double t0 = util::monotonic_now();\n"})
            self.assertEqual(rules_of(ua.check_ctrl_wall_clock(tree)),
                             ["no-wall-clock-in-ctrl-tick"])

    def test_ctrl_timer_name_in_comment_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/ctrl/controller.hpp":
                    "#pragma once\n// never call monotonic_now() here\n"})
            self.assertEqual(ua.check_ctrl_wall_clock(tree), [])

    def test_clock_seam_outside_ctrl_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/sim/sweep.cpp":
                    '#include "util/clock.hpp"\n'
                    "const double t0 = util::monotonic_now();\n",
                "src/util/clock.hpp": "#pragma once\n"})
            self.assertEqual(ua.check_ctrl_wall_clock(tree), [])

    def test_ctrl_clock_suppression(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/ctrl/scheduler.cpp":
                    "// ufc-analyze: allow(no-wall-clock-in-ctrl-tick)\n"
                    "const double t0 = util::monotonic_now();\n"})
            self.assertEqual(ua.check_ctrl_wall_clock(tree), [])

    def test_unordered_container_in_net_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/net/bus.hpp": "std::unordered_map<int, int> queues_;\n"})
            self.assertEqual(rules_of(ua.check_ordered_containers(tree)),
                             ["ordered-containers"])

    def test_unordered_container_outside_solver_layers_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/model/cache.hpp": "std::unordered_map<int, int> c_;\n"})
            self.assertEqual(ua.check_ordered_containers(tree), [])

    def test_std_rng_outside_rng_home_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {"src/admm/x.cpp": "std::mt19937 gen_;\n"})
            self.assertEqual(rules_of(ua.check_rng_discipline(tree)),
                             ["rng-discipline"])

    def test_std_rng_inside_rng_home_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/util/rng.cpp": "std::mt19937_64 engine_;\n"})
            self.assertEqual(ua.check_rng_discipline(tree), [])

    def test_mutable_global_in_solver_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/admm/state.cpp":
                    "namespace ufc::admm {\nint call_count = 0;\n}\n"})
            findings = ua.check_global_state(tree)
            self.assertEqual(rules_of(findings), ["global-state"])
            self.assertIn("call_count", findings[0].message)

    def test_const_global_and_locals_pass(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/admm/state.cpp":
                    "namespace ufc::admm {\n"
                    "constexpr int kLimit = 3;\n"
                    "const double kScale = 2.0;\n"
                    "int bump(int v) {\n  int local = v;\n  return local;\n}\n"
                    "}\n"})
            self.assertEqual(ua.check_global_state(tree), [])

    def test_throw_in_hot_loop_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/admm/engine.cpp":
                    "namespace ufc::admm {\n"
                    "void InProcessExecutor::step(int iteration) {\n"
                    "  if (iteration < 0) throw 1;\n"
                    "}\n}\n"})
            self.assertEqual(rules_of(ua.check_step_exceptions(tree)),
                             ["step-exceptions"])

    def test_throw_outside_hot_loop_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/admm/engine.cpp":
                    "namespace ufc::admm {\n"
                    "void InProcessExecutor::reset() { throw 1; }\n"
                    "void InProcessExecutor::step(int iteration) {\n"
                    "  counter_ += iteration;\n"
                    "}\n}\n"})
            self.assertEqual(ua.check_step_exceptions(tree), [])


HEADER = """#pragma once
class Widget {
 public:
  void poke(int value);
};
"""


class ExpectsReachTests(unittest.TestCase):
    def _reach(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            return ua.check_expects_reach(make_tree(tmp, files))

    def test_missing_guard_fails(self):
        findings = self._reach({
            "src/admm/widget.hpp": HEADER,
            "src/admm/widget.cpp":
                "void Widget::poke(int value) { state_ += value; }\n",
        })
        self.assertEqual(rules_of(findings), ["expects-reach"])
        self.assertIn("Widget::poke", findings[0].message)

    def test_direct_guard_passes(self):
        findings = self._reach({
            "src/admm/widget.hpp": HEADER,
            "src/admm/widget.cpp":
                "void Widget::poke(int value) {\n"
                "  UFC_EXPECTS(value >= 0);\n  state_ += value;\n}\n",
        })
        self.assertEqual(findings, [])

    def test_guard_through_callee_passes(self):
        findings = self._reach({
            "src/admm/widget.hpp": HEADER,
            "src/admm/widget.cpp":
                "void Widget::poke(int value) { check_input(value); }\n"
                "void check_input(int value) { UFC_EXPECTS(value >= 0); }\n",
        })
        self.assertEqual(findings, [])

    def test_callee_without_parameter_does_not_count(self):
        # The callee is guarded, but none of poke's parameters flow into it,
        # so its guard says nothing about poke's inputs.
        findings = self._reach({
            "src/admm/widget.hpp": HEADER,
            "src/admm/widget.cpp":
                "void Widget::poke(int value) {\n"
                "  refresh();\n  state_ += value;\n}\n"
                "void refresh() { UFC_EXPECTS(limit_ >= 0); }\n",
        })
        self.assertEqual(rules_of(findings), ["expects-reach"])

    def test_delegating_constructor_reaches_guard(self):
        findings = self._reach({
            "src/net/widget.hpp":
                "#pragma once\n"
                "class Widget {\n public:\n"
                "  explicit Widget(int limit);\n"
                "  explicit Widget(Config config);\n};\n",
            "src/net/widget.cpp":
                "Widget::Widget(int limit) : Widget(make_config(limit)) {}\n"
                "Widget::Widget(Config config) {\n"
                "  UFC_EXPECTS(config.limit >= 0);\n}\n"
                "Config make_config(int limit) { return Config{limit}; }\n",
        })
        self.assertEqual(findings, [])

    def test_unnamed_parameter_noop_is_skipped(self):
        findings = self._reach({
            "src/admm/widget.hpp":
                "#pragma once\nclass Widget {\n public:\n"
                "  void on_event(const State& state);\n};\n",
            "src/admm/widget.cpp":
                "void Widget::on_event(const State& /*state*/) {}\n",
        })
        self.assertEqual(findings, [])

    def test_suppression_at_definition(self):
        findings = self._reach({
            "src/admm/widget.hpp": HEADER,
            "src/admm/widget.cpp":
                "// ufc-analyze: allow(expects-reach)\n"
                "void Widget::poke(int value) { state_ += value; }\n",
        })
        self.assertEqual(findings, [])

    def test_layers_outside_admm_net_not_audited(self):
        findings = self._reach({
            "src/model/widget.hpp": HEADER,
            "src/model/widget.cpp":
                "void Widget::poke(int value) { state_ += value; }\n",
        })
        self.assertEqual(findings, [])


class NetIoConfinementTests(unittest.TestCase):
    def _confine(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            return ua.check_net_io_confinement(make_tree(tmp, files))

    def test_os_call_outside_confined_files_fails(self):
        findings = self._confine({
            "src/net/bus.cpp": "int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n",
        })
        self.assertEqual(rules_of(findings), ["net-io-confinement"])
        self.assertIn("socket", findings[0].message)

    def test_fork_in_runtime_fails(self):
        findings = self._confine({
            "src/net/runtime.cpp": "const pid_t pid = fork();\n",
        })
        self.assertEqual(rules_of(findings), ["net-io-confinement"])

    def test_os_call_in_confined_file_passes(self):
        findings = self._confine({
            "src/net/socket_bus.cpp":
                "int make(int deadline_ms) {\n"
                "  return ::socket(AF_UNIX, SOCK_STREAM, 0);\n}\n",
        })
        self.assertEqual(findings, [])

    def test_lookalike_identifiers_pass(self):
        # poll_pending / connect_to_hub / std::bind are not OS calls.
        findings = self._confine({
            "src/net/runtime.cpp":
                "auto n = bus.poll_pending(node, deadline_ms);\n"
                "bool up = socket_->connect_to_hub(timeout);\n"
                "auto f = std::bind(&Runtime::round, this);\n",
        })
        self.assertEqual(findings, [])

    def test_blocking_call_without_deadline_parameter_fails(self):
        findings = self._confine({
            "src/net/socket_bus.cpp":
                "void SocketBus::spin() {\n"
                "  ::poll(fds.data(), fds.size(), 50);\n}\n",
        })
        self.assertEqual(rules_of(findings), ["net-io-confinement"])
        self.assertIn("deadline", findings[0].message)

    def test_blocking_call_with_deadline_parameter_passes(self):
        findings = self._confine({
            "src/net/socket_bus.cpp":
                "bool SocketBus::pump(int deadline_ms) {\n"
                "  return ::poll(fds.data(), fds.size(), deadline_ms) > 0;\n"
                "}\n",
            "src/net/supervisor.cpp":
                "int reap(pid_t pid, int deadline_ms) {\n"
                "  int status = 0;\n"
                "  return ::waitpid(pid, &status, WNOHANG);\n}\n",
        })
        self.assertEqual(findings, [])

    def test_infinite_poll_timeout_fails_even_with_deadline_param(self):
        findings = self._confine({
            "src/net/socket_bus.cpp":
                "bool SocketBus::pump(int deadline_ms) {\n"
                "  return ::poll(fds.data(), fds.size(), -1) > 0;\n}\n",
        })
        self.assertEqual(rules_of(findings), ["net-io-confinement"])
        self.assertIn("infinite", findings[0].message)

    def test_tests_and_bench_not_audited(self):
        findings = self._confine({
            "tests/net/test_socket_bus.cpp": "int fd = ::socket(1, 2, 3);\n",
            "bench/bench_socket_bus.cpp": "pid_t pid = fork();\n",
        })
        self.assertEqual(findings, [])

    def test_suppression(self):
        findings = self._confine({
            "src/net/bus.cpp":
                "// ufc-analyze: allow(net-io-confinement)\n"
                "int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n",
        })
        self.assertEqual(findings, [])


class GraphAndReportTests(unittest.TestCase):
    FILES = {
        "src/admm/solver.hpp": '#include "math/vec.hpp"\n',
        "src/math/vec.hpp": '#include "util/span.hpp"\n',
        "src/util/span.hpp": "#pragma once\n",
    }

    def test_dot_contains_observed_edges(self):
        with tempfile.TemporaryDirectory() as tmp:
            dot = ua.layer_graph_dot(make_tree(tmp, self.FILES))
            self.assertIn('"admm" -> "math" [label="1"];', dot)
            self.assertIn('"math" -> "util" [label="1"];', dot)

    def test_fresh_dot_passes_and_stale_dot_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, self.FILES)
            dot_path = Path(tmp) / "layers.dot"
            dot_path.write_text(ua.layer_graph_dot(tree))
            self.assertEqual(ua.check_dot_fresh(tree, dot_path), [])
            dot_path.write_text("digraph stale {}\n")
            self.assertEqual(rules_of(ua.check_dot_fresh(tree, dot_path)),
                             ["dot-stale"])

    def test_missing_dot_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, self.FILES)
            findings = ua.check_dot_fresh(tree, Path(tmp) / "missing.dot")
            self.assertEqual(rules_of(findings), ["dot-stale"])

    def test_findings_serialize_to_valid_schema(self):
        from ufc_findings import findings_to_json
        with tempfile.TemporaryDirectory() as tmp:
            tree = make_tree(tmp, {
                "src/math/vec.hpp": '#include "admm/solver.hpp"\n',
                "src/admm/solver.hpp": "#pragma once\n",
            })
            doc = findings_to_json("ufc_analyze", ua.check_layering(tree))
            self.assertEqual(validate_findings_json(doc), [])
            self.assertEqual(doc["counts"]["error"], 1)

    def test_every_rule_is_documented(self):
        for rule in ("include-layering", "include-cycle", "dangling-include",
                     "wall-clock", "ordered-containers", "rng-discipline",
                     "global-state", "step-exceptions", "expects-reach",
                     "net-io-confinement", "dot-stale"):
            self.assertIn(rule, ua.RULES)
            self.assertTrue(ua.RULES[rule][1])


def run() -> int:
    loader = unittest.defaultTestLoader
    suite = unittest.TestSuite([
        loader.loadTestsFromTestCase(LayeringTests),
        loader.loadTestsFromTestCase(ConstructBanTests),
        loader.loadTestsFromTestCase(ExpectsReachTests),
        loader.loadTestsFromTestCase(NetIoConfinementTests),
        loader.loadTestsFromTestCase(GraphAndReportTests),
    ])
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    import sys
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(run())

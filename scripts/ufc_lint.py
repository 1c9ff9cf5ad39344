#!/usr/bin/env python3
"""UFC repository lint: project invariants clang-tidy cannot express.

Rules (each documented in docs/STATIC_ANALYSIS.md):

  expects-guard     Public solver entry points (free functions declared in
                    src/math, src/opt, src/admm headers) must validate their
                    inputs with UFC_EXPECTS / UFC_ENSURES in the definition.
  float-equal       No ==/!= against floating-point literals outside the
                    tolerance helpers in src/util/stats.*; use approx_equal()
                    or annotate an intentional exact-zero guard.
  no-c-rand         No rand()/srand()/random_shuffle; use ufc::Rng so runs
                    are reproducible and seeds flow through one place.
  pragma-once       Every header starts with #pragma once.
  using-namespace-header
                    No `using namespace` at any scope in headers.
  bench-csv-name    Benchmark binaries may only write ufc_*.csv files, so
                    .gitignore and scripts/plot_figures.gp can rely on the
                    prefix.
  no-alloc-in-step  No Mat/Vec construction inside the ADM-G step hot path
                    (InProcessExecutor::step / the legacy AdmgSolver::step)
                    or the lambda and a block solvers it calls
                    (solve_{lambda,a}_block_into) — they work entirely out of
                    workspaces allocated in reset() or on the first call, so
                    steady-state iterations are allocation-free.
  finite-iterate-guard
                    The one solver iteration loop (AdmgEngine::solve) must
                    route iterations through SolverWatchdog::observe so
                    non-finite iterates and stalls are caught instead of
                    corrupting reports or spinning.
  engine-single-loop
                    The GBS correction-step arithmetic (`x += eps * (...)`)
                    may appear only in src/admm/engine.cpp; every other file
                    must call the shared correct_* helpers, so all four
                    drivers provably run the same prediction/correction loop.
  no-sort-in-hot-path
                    No std::sort / std::stable_sort / std::partial_sort in the
                    ADM-G hot path (src/admm/**, src/opt/**, src/math/**): the
                    O(n) Condat projection and the sort-free root finder exist
                    precisely so the per-iteration cost has no n log n term.
                    The sort-based projection survives only as the test
                    oracle in tests/math/sort_projection.hpp.
  obs-layering      The observability layer (src/obs) consumes solver results,
                    never drives solves: it may include only obs/, util/,
                    model/ headers and the dedicated result/telemetry seams
                    (admm/solve_core.hpp, admm/telemetry.hpp,
                    admm/watchdog.hpp, net/link_stats.hpp). Including a
                    solver-driver header (admm/engine.hpp, admm/admg.hpp,
                    net/bus.hpp, sim/...) from src/obs inverts the layering;
                    domain adapters belong in src/sim/manifest.cpp.

Tree rule (whole-repository lint only):

  ci-filter-live    Every --gtest_filter pattern in .github/workflows/ci.yml
                    must select at least one TEST / TEST_F / TEST_P under
                    tests/, matched against GoogleTest full names (a trailing
                    `*` is a prefix glob). GoogleTest exits 0 when a filter
                    selects nothing, so a deleted or renamed suite would
                    leave a sanitizer step green while it checks nothing.

Suppressing a finding: append `// ufc-lint: allow(<rule>)` (with a reason!)
to the offending line, or place it alone on the line above.

Findings, severities, exit codes and the --json report are shared with
scripts/ufc_analyze.py through scripts/ufc_findings.py, so the two tools
report identically.

Usage:
  scripts/ufc_lint.py              lint the repository, exit 1 on findings
  scripts/ufc_lint.py PATH...      lint specific files or directories
  scripts/ufc_lint.py --json PATH  also write the ufc-findings-v1 report
  scripts/ufc_lint.py --self-test  run the linter's own test suite
  scripts/ufc_lint.py --list-rules print rule names and one-line summaries
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ufc_findings import Finding, report  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOTS = ("src", "tests", "bench", "examples")
SOLVER_DIRS = ("src/math", "src/opt", "src/admm")
TOLERANCE_HELPER_FILES = {"src/util/stats.hpp", "src/util/stats.cpp"}

ALLOW_RE = re.compile(r"ufc-lint:\s*allow\(([a-z0-9-]+)\)")


def _suppressed(lines: list[str], index: int, rule: str) -> bool:
    """True if line `index` (0-based) carries an allow() marker, either on the
    line itself or anywhere in the contiguous comment block above it."""
    def carries(line: str) -> bool:
        m = ALLOW_RE.search(line)
        return bool(m) and m.group(1) == rule

    if 0 <= index < len(lines) and carries(lines[index]):
        return True
    probe = index - 1
    while probe >= 0 and lines[probe].strip().startswith("//"):
        if carries(lines[probe]):
            return True
        probe -= 1
    return False


def _strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of // comments and "..." contents for matching."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line.split("//", 1)[0]


# --------------------------------------------------------------------------
# Rule: pragma-once
# --------------------------------------------------------------------------
def check_pragma_once(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.endswith(".hpp"):
        return []
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("#pragma once"):
            return []
        if stripped and not stripped.startswith("//") and not stripped.startswith("/*") and not stripped.startswith("*"):
            break  # first real code line reached without the pragma
    return [Finding(rel, 1, "pragma-once", "header does not start with #pragma once")]


# --------------------------------------------------------------------------
# Rule: using-namespace-header
# --------------------------------------------------------------------------
def check_using_namespace_header(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.endswith(".hpp"):
        return []
    findings = []
    for i, line in enumerate(lines):
        code = _strip_comments_and_strings(line)
        if re.search(r"\busing\s+namespace\b", code) and not _suppressed(lines, i, "using-namespace-header"):
            findings.append(Finding(rel, i + 1, "using-namespace-header",
                                    "`using namespace` in a header leaks into every includer"))
    return findings


# --------------------------------------------------------------------------
# Rule: no-c-rand
# --------------------------------------------------------------------------
def check_no_c_rand(rel: str, lines: list[str]) -> list[Finding]:
    findings = []
    pattern = re.compile(r"(?<![\w:])(s?rand|random_shuffle)\s*\(")
    for i, line in enumerate(lines):
        code = _strip_comments_and_strings(line)
        if pattern.search(code) and not _suppressed(lines, i, "no-c-rand"):
            findings.append(Finding(rel, i + 1, "no-c-rand",
                                    "use ufc::Rng instead of C rand()/srand()"))
    return findings


# --------------------------------------------------------------------------
# Rule: float-equal
# --------------------------------------------------------------------------
FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+|\d+[eE][-+]?\d+|\d+\.\d*[eE][-+]?\d+)[fFlL]?"
FLOAT_EQ_RE = re.compile(
    rf"(?:{FLOAT_LITERAL}\s*[!=]=|[!=]=\s*{FLOAT_LITERAL})")


def check_float_equal(rel: str, lines: list[str]) -> list[Finding]:
    if rel in TOLERANCE_HELPER_FILES:
        return []
    findings = []
    for i, line in enumerate(lines):
        code = _strip_comments_and_strings(line)
        if FLOAT_EQ_RE.search(code) and not _suppressed(lines, i, "float-equal"):
            findings.append(Finding(
                rel, i + 1, "float-equal",
                "==/!= on a floating-point literal; use ufc::approx_equal or "
                "annotate an intentional exact-zero guard"))
    return findings


# --------------------------------------------------------------------------
# Rule: bench-csv-name
# --------------------------------------------------------------------------
CSV_LITERAL_RE = re.compile(r'"([^"]*\.csv)"')


def check_bench_csv_name(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("bench/"):
        return []
    findings = []
    for i, line in enumerate(lines):
        for m in CSV_LITERAL_RE.finditer(line.split("//", 1)[0]):
            name = m.group(1).rsplit("/", 1)[-1]
            if not re.fullmatch(r"ufc_[a-z0-9_]+\.csv", name) and not _suppressed(lines, i, "bench-csv-name"):
                findings.append(Finding(
                    rel, i + 1, "bench-csv-name",
                    f'bench output "{name}" must match ufc_*.csv'))
    return findings


# --------------------------------------------------------------------------
# Rule: no-alloc-in-step
# --------------------------------------------------------------------------
# InProcessExecutor::step() (and the legacy AdmgSolver::step facade) is the
# per-iteration hot path; every Mat/Vec it needs lives in workspaces sized
# once in reset(), and the lambda and a block solvers it calls per row and
# column work in a BlockWorkspace that stops growing after the first call.
# Constructing a Mat or Vec inside any of these bodies reintroduces
# per-iteration heap traffic, so any `Mat(...)` / `Vec(...)` construction
# (temporary, named local, or a local copy-initialized from a returned
# value) is flagged. References and pointers (`const Vec&`, `Vec*`) do not
# allocate and pass.
ALLOC_RE = re.compile(r"\b(Mat|Vec)\s*(?:[A-Za-z_]\w*\s*[({=]|[({])")
# The per-iteration hot path: step() plus the pass helpers it dispatches to
# (full/screened lambda and datacenter passes extracted from the step body)
# and the two block solvers those passes call once per row or column.
STEP_DEF_RE = re.compile(
    r"\b(?:(?:AdmgSolver|InProcessExecutor)\s*::\s*"
    r"(?:step|run_full_datacenter_pass|run_screened_lambda_pass|"
    r"run_screened_datacenter_pass)|solve_lambda_block_into|"
    r"solve_a_block_into)\s*\(")


def _body_span(text: str, open_paren: int) -> tuple[int, int] | None:
    """Given the index of a '(' opening a parameter list, return the character
    range [start, end) of the brace-delimited body that follows, or None if
    this is a declaration/call rather than a definition."""
    depth, j = 0, open_paren
    while j < len(text):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                break
        j += 1
    rest = text[j + 1:]
    brace_rel = rest.find("{")
    if brace_rel < 0 or ";" in rest[:brace_rel]:
        return None
    start = j + 1 + brace_rel
    depth, k = 0, start
    while k < len(text):
        if text[k] == "{":
            depth += 1
        elif text[k] == "}":
            depth -= 1
            if depth == 0:
                return start, k + 1
        k += 1
    return None


def check_no_alloc_in_step(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.endswith(".cpp"):
        return []
    text = "\n".join(lines)
    findings = []
    for m in STEP_DEF_RE.finditer(text):
        span = _body_span(text, m.end() - 1)
        if span is None:
            continue
        first = text.count("\n", 0, span[0])  # 0-based line of the '{'
        last = text.count("\n", 0, span[1])
        for i in range(first, min(last + 1, len(lines))):
            code = _strip_comments_and_strings(lines[i])
            if ALLOC_RE.search(code) and not _suppressed(lines, i, "no-alloc-in-step"):
                findings.append(Finding(
                    rel, i + 1, "no-alloc-in-step",
                    "Mat/Vec constructed inside the ADM-G step hot path; "
                    "allocate it once in reset() and reuse the workspace"))
    return findings


# --------------------------------------------------------------------------
# Rule: no-sort-in-hot-path
# --------------------------------------------------------------------------
# The ADM-G step's per-iteration cost must stay O(n) per projection: every
# block solve is a handful of Condat projections (src/math/projections.cpp)
# driven by the sort-free root finder (src/opt/scalar.hpp), and the n log n
# sort-and-threshold method survives only as the test oracle in
# tests/math/sort_projection.hpp. A std::sort reappearing under src/admm,
# src/opt or src/math silently reintroduces the scaling term the frontier
# bench exists to keep out.
SORT_HOT_PATH_PREFIXES = ("src/admm/", "src/opt/", "src/math/")
SORT_CALL_RE = re.compile(r"\bstd\s*::\s*(?:stable_sort|partial_sort|sort)\s*\(")


def check_no_sort_in_hot_path(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith(SORT_HOT_PATH_PREFIXES):
        return []
    findings = []
    for i, line in enumerate(lines):
        code = _strip_comments_and_strings(line)
        if SORT_CALL_RE.search(code) and not _suppressed(lines, i, "no-sort-in-hot-path"):
            findings.append(Finding(
                rel, i + 1, "no-sort-in-hot-path",
                "std::sort in the ADM-G hot path; use the O(n) Condat "
                "projection — the sort-based oracle lives only in "
                "tests/math/sort_projection.hpp"))
    return findings


# --------------------------------------------------------------------------
# Rule: finite-iterate-guard
# --------------------------------------------------------------------------
# The engine's iteration loop is the only place a non-finite iterate or a
# residual stall can be caught before it corrupts a report or spins to
# max_iterations: it must consult the shared SolverWatchdog
# (`watchdog.observe(...)`) — see docs/ROBUSTNESS.md. Every driver
# (AdmgSolver, solve_async_admg, DistributedAdmgRuntime::run) delegates its
# loop to AdmgEngine::solve, so guarding that one definition covers them all;
# a solve definition without an observe call has silently lost the
# degradation path.
GUARDED_DRIVER_RES = [
    re.compile(r"\bAdmgEngine\s*::\s*solve\s*\("),
]


def check_finite_iterate_guard(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.endswith(".cpp"):
        return []
    text = "\n".join(lines)
    findings = []
    for pattern in GUARDED_DRIVER_RES:
        for m in pattern.finditer(text):
            span = _body_span(text, m.end() - 1)
            if span is None:
                continue  # declaration or call, not a definition
            start_line = text.count("\n", 0, m.start()) + 1
            if ".observe(" in text[span[0]:span[1]]:
                continue
            if _suppressed(lines, start_line - 1, "finite-iterate-guard"):
                continue
            name = re.sub(r"\s+", "", m.group(0))[:-1]
            findings.append(Finding(
                rel, start_line, "finite-iterate-guard",
                f"solver driver `{name}` never calls SolverWatchdog::observe; "
                "non-finite iterates and stalls would go undetected"))
    return findings


# --------------------------------------------------------------------------
# Rule: engine-single-loop
# --------------------------------------------------------------------------
# The bit-identity guarantee across the four drivers (monolithic, async,
# message-passing agents, legacy facade) rests on all of them executing the
# same Gaussian-back-substitution correction arithmetic. That arithmetic —
# recognizable as `x += eps * (...)` relaxation updates — lives in the
# correct_* helpers in src/admm/engine.cpp and nowhere else; a copy anywhere
# else will drift and break the equivalence tests one rounding mode at a time.
ENGINE_LOOP_FILE = "src/admm/engine.cpp"
ENGINE_LOOP_RE = re.compile(r"\+=\s*eps\w*\s*\*\s*\(")


def check_engine_single_loop(rel: str, lines: list[str]) -> list[Finding]:
    if rel == ENGINE_LOOP_FILE:
        return []
    findings = []
    for i, line in enumerate(lines):
        code = _strip_comments_and_strings(line)
        if ENGINE_LOOP_RE.search(code) and not _suppressed(lines, i, "engine-single-loop"):
            findings.append(Finding(
                rel, i + 1, "engine-single-loop",
                "GBS correction arithmetic outside admm/engine.cpp; call the "
                "shared admm::correct_* helpers so every driver runs the same "
                "loop"))
    return findings


# --------------------------------------------------------------------------
# Rule: obs-layering
# --------------------------------------------------------------------------
# src/obs holds generic observability primitives (JSON, metrics, manifests).
# It consumes solver *results* through deliberately small seam headers and
# must never see driver machinery — otherwise metrics code can reach into a
# solve and the bit-neutrality guarantee ("attaching observers changes
# nothing") stops being checkable by layering alone. Adapters that need
# AdmgOptions / Scenario / engine types live in src/sim/manifest.cpp.
OBS_ALLOWED_PREFIXES = ("obs/", "util/", "model/")
OBS_ALLOWED_HEADERS = {
    "admm/solve_core.hpp",   # driver-independent result types
    "admm/telemetry.hpp",    # IterationObserver / IterationSample seam
    "admm/watchdog.hpp",     # WatchdogVerdict named in SolveCore
    "net/link_stats.hpp",    # traffic counters, no bus machinery
}
PROJECT_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_obs_layering(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/obs/"):
        return []
    findings = []
    for i, line in enumerate(lines):
        m = PROJECT_INCLUDE_RE.match(line)
        if not m:
            continue
        header = m.group(1)
        if header.startswith(OBS_ALLOWED_PREFIXES) or header in OBS_ALLOWED_HEADERS:
            continue
        if _suppressed(lines, i, "obs-layering"):
            continue
        findings.append(Finding(
            rel, i + 1, "obs-layering",
            f'src/obs must not include "{header}"; the observability layer '
            "reads results through the seam headers only — put domain "
            "adapters in src/sim/manifest.cpp"))
    return findings


# --------------------------------------------------------------------------
# Rule: expects-guard
# --------------------------------------------------------------------------
# A public solver entry point is a free function declared at column 0 in a
# header under SOLVER_DIRS. Its definition (in the sibling .cpp) must contain
# UFC_EXPECTS/UFC_ENSURES: solver inputs are exactly where silent numerical
# misuse (wrong sizes, negative caps, non-finite data) enters the system.
DECL_NAME_RE = re.compile(r"^[A-Za-z_][\w:<>,&*\s]*?\b([a-z_][a-z0-9_]*)\s*\(")


def _public_solver_names(header_text: str) -> set[str]:
    names = set()
    for line in header_text.splitlines():
        if line.startswith((" ", "\t", "//", "#", "}", "using ", "class ", "struct ", "enum ", "namespace ", "template")):
            continue
        m = DECL_NAME_RE.match(line)
        if m:
            names.add(m.group(1))
    return names


def _function_bodies(text: str, names: set[str]):
    """Yield (name, start_line, body) for definitions of `names` in `text`."""
    for name in sorted(names):
        for m in re.finditer(rf"\b{re.escape(name)}\s*\(", text):
            # Find the matching ')' then require an opening '{' (definition,
            # not a call or declaration).
            depth, j = 0, m.end() - 1
            while j < len(text):
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            rest = text[j + 1:]
            brace_rel = rest.find("{")
            between = rest[:brace_rel] if brace_rel >= 0 else ""
            if brace_rel < 0 or ";" in between or "=" in between:
                continue
            body_start = j + 1 + brace_rel
            depth, k = 0, body_start
            while k < len(text):
                if text[k] == "{":
                    depth += 1
                elif text[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            start_line = text.count("\n", 0, m.start()) + 1
            yield name, start_line, text[body_start:k + 1]
            break  # first definition is enough


def check_expects_guard(rel: str, lines: list[str], repo_root: Path = REPO_ROOT) -> list[Finding]:
    if not rel.endswith(".cpp") or not any(rel.startswith(d + "/") for d in SOLVER_DIRS):
        return []
    header = repo_root / rel.replace(".cpp", ".hpp")
    if not header.exists():
        return []
    names = _public_solver_names(header.read_text())
    if not names:
        return []
    text = "\n".join(lines)
    findings = []
    for name, start_line, body in _function_bodies(text, names):
        # Zero-argument entry points have no inputs to guard.
        sig = text.splitlines()[start_line - 1]
        if re.search(rf"\b{re.escape(name)}\s*\(\s*\)", sig):
            continue
        # A problem.validate() call counts: it is the canonical aggregated
        # UFC_EXPECTS bundle for whole-problem inputs.
        if "UFC_EXPECTS" in body or "UFC_ENSURES" in body or re.search(r"\bvalidate\s*\(", body):
            continue
        if _suppressed(lines, start_line - 1, "expects-guard"):
            continue
        findings.append(Finding(
            rel, start_line, "expects-guard",
            f"public solver entry point `{name}` does not guard its inputs "
            "with UFC_EXPECTS"))
    return findings


# --------------------------------------------------------------------------
# Tree rule: ci-filter-live
# --------------------------------------------------------------------------
CI_WORKFLOW = ".github/workflows/ci.yml"
GTEST_FILTER_RE = re.compile(r"""--gtest_filter=(?:'([^']*)'|"([^"]*)"|(\S+))""")
TEST_DECL_RE = re.compile(r"\b(TEST|TEST_F|TEST_P)\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)")
INSTANTIATE_RE = re.compile(r"\bINSTANTIATE_TEST_SUITE_P\s*\(\s*(\w+)\s*,\s*(\w+)\s*,")


def collect_test_names(repo_root: Path) -> set[str]:
    """Every test under tests/ by its GoogleTest full name: `Suite.Test` for
    TEST / TEST_F, `Prefix/Suite.Test/0` for each INSTANTIATE_TEST_SUITE_P
    of a TEST_P suite (default parameter naming; every instantiation has a
    parameter 0)."""
    names = set()
    parameterized: dict[str, list[str]] = {}
    prefixes: dict[str, list[str]] = {}
    for path in sorted((repo_root / "tests").rglob("*.cpp")):
        text = path.read_text(errors="replace")
        for macro, suite, test in TEST_DECL_RE.findall(text):
            if macro == "TEST_P":
                parameterized.setdefault(suite, []).append(test)
            else:
                names.add(f"{suite}.{test}")
        for prefix, suite in INSTANTIATE_RE.findall(text):
            prefixes.setdefault(suite, []).append(prefix)
    for suite, tests in parameterized.items():
        for prefix in prefixes.get(suite, []):
            names.update(f"{prefix}/{suite}.{test}/0" for test in tests)
    return names


def check_ci_filter_live(rel: str, lines: list[str],
                         test_names: set[str]) -> list[Finding]:
    findings = []
    for i, line in enumerate(lines):
        for m in GTEST_FILTER_RE.finditer(line):
            spec = next(group for group in m.groups() if group is not None)
            # POSITIVE[-NEGATIVE]: only the positive patterns select tests.
            positive = spec.split("-", 1)[0]
            for pattern in filter(None, positive.split(":")):
                if any(fnmatch.fnmatchcase(name, pattern) for name in test_names):
                    continue
                findings.append(Finding(
                    rel, i + 1, "ci-filter-live",
                    f"--gtest_filter pattern {pattern!r} selects no TEST / "
                    "TEST_F / TEST_P under tests/ — GoogleTest exits 0 on an "
                    "empty selection, so this step would check nothing"))
    return findings


def run_tree_rules(repo_root: Path = REPO_ROOT) -> list[Finding]:
    workflow = repo_root / CI_WORKFLOW
    if not workflow.exists():
        return []
    return check_ci_filter_live(CI_WORKFLOW,
                                workflow.read_text().splitlines(),
                                collect_test_names(repo_root))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------
RULES = {
    "pragma-once": (check_pragma_once, "headers must start with #pragma once"),
    "using-namespace-header": (check_using_namespace_header, "no `using namespace` in headers"),
    "no-c-rand": (check_no_c_rand, "use ufc::Rng, not rand()/srand()"),
    "float-equal": (check_float_equal, "no ==/!= on float literals outside tolerance helpers"),
    "bench-csv-name": (check_bench_csv_name, "bench binaries write only ufc_*.csv"),
    "no-alloc-in-step": (check_no_alloc_in_step, "no Mat/Vec construction inside the ADM-G step hot path"),
    "no-sort-in-hot-path": (check_no_sort_in_hot_path, "no std::sort in src/admm, src/opt or src/math"),
    "finite-iterate-guard": (check_finite_iterate_guard, "the engine iteration loop must consult SolverWatchdog::observe"),
    "engine-single-loop": (check_engine_single_loop, "GBS correction arithmetic only in src/admm/engine.cpp"),
    "obs-layering": (check_obs_layering, "src/obs includes only seam headers, never solver drivers"),
    "expects-guard": (check_expects_guard, "solver entry points must use UFC_EXPECTS"),
}
# Rules over the whole repository rather than one C++ file; run only when the
# full tree is linted.
TREE_RULES = {
    "ci-filter-live": (run_tree_rules, "every CI --gtest_filter pattern selects a test"),
}


def lint_file(path: Path, repo_root: Path = REPO_ROOT) -> list[Finding]:
    rel = path.resolve().relative_to(repo_root).as_posix()
    lines = path.read_text(errors="replace").splitlines()
    findings = []
    for rule, (fn, _) in RULES.items():
        if rule == "expects-guard":
            findings.extend(fn(rel, lines, repo_root))
        else:
            findings.extend(fn(rel, lines))
    return findings


def collect_files(paths: list[Path]) -> list[Path]:
    files = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.hpp")) + sorted(p.rglob("*.cpp")))
        elif p.suffix in (".hpp", ".cpp"):
            if not p.exists():
                raise SystemExit(f"ufc_lint: no such file: {p}")
            if not p.resolve().is_relative_to(REPO_ROOT):
                raise SystemExit(
                    f"ufc_lint: {p} is outside the repository ({REPO_ROOT}); "
                    "rules are defined on repo-relative paths")
            files.append(p)
        elif not p.exists():
            raise SystemExit(f"ufc_lint: no such file or directory: {p}")
    return files


def run_lint(paths: list[Path], json_path: Path | None = None,
             tree: bool = False) -> int:
    files = collect_files(paths)
    findings = []
    for f in files:
        findings.extend(lint_file(f))
    if tree:
        for fn, _ in TREE_RULES.values():
            findings.extend(fn())
    return report("ufc_lint", findings, checked=len(files),
                  json_path=json_path)


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------
def self_test() -> int:
    import tempfile
    import unittest

    class LintTests(unittest.TestCase):
        def lint_source(self, rel: str, content: str, root_files: dict | None = None):
            with tempfile.TemporaryDirectory() as tmp:
                root = Path(tmp)
                for extra_rel, extra_content in (root_files or {}).items():
                    target = root / extra_rel
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_text(extra_content)
                target = root / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content)
                lines = content.splitlines()
                findings = []
                for rule, (fn, _) in RULES.items():
                    if rule == "expects-guard":
                        findings.extend(fn(rel, lines, root))
                    else:
                        findings.extend(fn(rel, lines))
                return findings

        def rules_of(self, findings):
            return {f.rule for f in findings}

        def test_pragma_once_missing(self):
            findings = self.lint_source("src/x/a.hpp", "#include <vector>\nint f();\n")
            self.assertIn("pragma-once", self.rules_of(findings))

        def test_pragma_once_present_after_comment(self):
            findings = self.lint_source("src/x/a.hpp", "// doc\n#pragma once\nint f();\n")
            self.assertNotIn("pragma-once", self.rules_of(findings))

        def test_pragma_once_ignores_cpp(self):
            findings = self.lint_source("src/x/a.cpp", "int f() { return 1; }\n")
            self.assertNotIn("pragma-once", self.rules_of(findings))

        def test_using_namespace_in_header(self):
            findings = self.lint_source("src/x/a.hpp", "#pragma once\nusing namespace std;\n")
            self.assertIn("using-namespace-header", self.rules_of(findings))

        def test_using_namespace_in_cpp_ok(self):
            findings = self.lint_source("src/x/a.cpp", "using namespace std;\n")
            self.assertNotIn("using-namespace-header", self.rules_of(findings))

        def test_using_namespace_suppressed(self):
            findings = self.lint_source(
                "src/x/a.hpp",
                "#pragma once\nusing namespace std;  // ufc-lint: allow(using-namespace-header)\n")
            self.assertNotIn("using-namespace-header", self.rules_of(findings))

        def test_c_rand_flagged(self):
            findings = self.lint_source("src/x/a.cpp", "int f() { return rand(); }\n")
            self.assertIn("no-c-rand", self.rules_of(findings))

        def test_srand_flagged(self):
            findings = self.lint_source("src/x/a.cpp", "void f() { srand(42); }\n")
            self.assertIn("no-c-rand", self.rules_of(findings))

        def test_rng_uniform_not_flagged(self):
            findings = self.lint_source("src/x/a.cpp", "double f(Rng& r) { return r.grand(); }\n")
            self.assertNotIn("no-c-rand", self.rules_of(findings))

        def test_rand_in_comment_ignored(self):
            findings = self.lint_source("src/x/a.cpp", "// calls rand() internally\n")
            self.assertNotIn("no-c-rand", self.rules_of(findings))

        def test_float_equal_flagged(self):
            findings = self.lint_source("src/x/a.cpp", "bool f(double x) { return x == 1.5; }\n")
            self.assertIn("float-equal", self.rules_of(findings))

        def test_float_equal_zero_flagged(self):
            findings = self.lint_source("src/x/a.cpp", "bool f(double x) { return x != 0.0; }\n")
            self.assertIn("float-equal", self.rules_of(findings))

        def test_float_equal_suppressed_line_above(self):
            findings = self.lint_source(
                "src/x/a.cpp",
                "// ufc-lint: allow(float-equal)\nbool f(double x) { return x == 0.0; }\n")
            self.assertNotIn("float-equal", self.rules_of(findings))

        def test_float_equal_suppressed_multiline_comment(self):
            findings = self.lint_source(
                "src/x/a.cpp",
                "// ufc-lint: allow(float-equal) — exact-zero guard,\n"
                "// explained over two comment lines.\n"
                "bool f(double x) { return x == 0.0; }\n")
            self.assertNotIn("float-equal", self.rules_of(findings))

        def test_float_equal_tolerance_helper_exempt(self):
            findings = self.lint_source("src/util/stats.hpp", "#pragma once\nbool eq(double a) { return a == 0.0; }\n")
            self.assertNotIn("float-equal", self.rules_of(findings))

        def test_int_equal_not_flagged(self):
            findings = self.lint_source("src/x/a.cpp", "bool f(int x) { return x == 15; }\n")
            self.assertNotIn("float-equal", self.rules_of(findings))

        def test_bench_csv_bad_name(self):
            findings = self.lint_source("bench/bench_x.cpp", 'const char* out = "results.csv";\n')
            self.assertIn("bench-csv-name", self.rules_of(findings))

        def test_bench_csv_good_name(self):
            findings = self.lint_source("bench/bench_x.cpp", 'const char* out = "ufc_fig1.csv";\n')
            self.assertNotIn("bench-csv-name", self.rules_of(findings))

        def test_bench_csv_rule_only_in_bench(self):
            findings = self.lint_source("src/x/a.cpp", 'const char* out = "results.csv";\n')
            self.assertNotIn("bench-csv-name", self.rules_of(findings))

        def test_no_alloc_in_step_named_local_flagged(self):
            cpp = ("void AdmgSolver::step() {\n"
                   "  Vec scratch(n_);\n"
                   "  use(scratch);\n"
                   "}\n")
            findings = self.lint_source("src/admm/admg.cpp", cpp)
            self.assertIn("no-alloc-in-step", self.rules_of(findings))

        def test_no_alloc_in_step_executor_flagged(self):
            cpp = ("void InProcessExecutor::step(int iteration) {\n"
                   "  Vec scratch(n_);\n"
                   "  use(scratch, iteration);\n"
                   "}\n")
            findings = self.lint_source("src/admm/engine.cpp", cpp)
            self.assertIn("no-alloc-in-step", self.rules_of(findings))

        def test_no_alloc_in_step_temporary_flagged(self):
            cpp = ("void AdmgSolver::step() {\n"
                   "  a_ = Mat(m_, n_);\n"
                   "}\n")
            findings = self.lint_source("src/admm/admg.cpp", cpp)
            self.assertIn("no-alloc-in-step", self.rules_of(findings))

        def test_no_alloc_outside_step_ok(self):
            cpp = ("void AdmgSolver::reset() {\n"
                   "  Vec scratch(n_);\n"
                   "  use(scratch);\n"
                   "}\n"
                   "void AdmgSolver::step() {\n"
                   "  scratch_.fill(0.0);\n"
                   "}\n")
            findings = self.lint_source("src/admm/admg.cpp", cpp)
            self.assertNotIn("no-alloc-in-step", self.rules_of(findings))

        def test_no_alloc_in_step_reference_param_ok(self):
            cpp = ("void AdmgSolver::step() {\n"
                   "  pool_.parallel_for(0, m_, [&](const Vec& row) {\n"
                   "    consume(row);\n"
                   "  });\n"
                   "}\n")
            findings = self.lint_source("src/admm/admg.cpp", cpp)
            self.assertNotIn("no-alloc-in-step", self.rules_of(findings))

        def test_no_alloc_in_step_declaration_not_matched(self):
            cpp = "void AdmgSolver::step();\n"
            findings = self.lint_source("src/admm/admg.cpp", cpp)
            self.assertNotIn("no-alloc-in-step", self.rules_of(findings))

        def test_no_alloc_in_step_suppressed(self):
            cpp = ("void AdmgSolver::step() {\n"
                   "  // ufc-lint: allow(no-alloc-in-step)\n"
                   "  Vec scratch(n_);\n"
                   "  use(scratch);\n"
                   "}\n")
            findings = self.lint_source("src/admm/admg.cpp", cpp)
            self.assertNotIn("no-alloc-in-step", self.rules_of(findings))

        def test_no_sort_in_hot_path_admm_flagged(self):
            cpp = "void f(double* a, double* b) { std::sort(a, b); }\n"
            findings = self.lint_source("src/admm/blocks.cpp", cpp)
            self.assertIn("no-sort-in-hot-path", self.rules_of(findings))

        def test_no_sort_in_hot_path_projection_fast_path_flagged(self):
            cpp = "void p(std::vector<double>& s) { std::stable_sort(s.begin(), s.end()); }\n"
            findings = self.lint_source("src/math/projections.cpp", cpp)
            self.assertIn("no-sort-in-hot-path", self.rules_of(findings))

        def test_no_sort_in_hot_path_whole_math_layer_flagged(self):
            # No file under src/math is exempt, the old reference included.
            cpp = "void p(std::vector<double>& s) { std::sort(s.begin(), s.end()); }\n"
            findings = self.lint_source("src/math/projections_reference.cpp", cpp)
            self.assertIn("no-sort-in-hot-path", self.rules_of(findings))

        def test_no_sort_in_hot_path_test_oracle_ok(self):
            # The sort-based oracle lives under tests/, outside every scope.
            cpp = "inline void p(std::vector<double>& s) { std::sort(s.begin(), s.end()); }\n"
            findings = self.lint_source("tests/math/sort_projection.hpp", cpp)
            self.assertNotIn("no-sort-in-hot-path", self.rules_of(findings))

        def test_no_sort_in_hot_path_opt_layer_flagged(self):
            cpp = "double q(std::vector<double>& s) { std::partial_sort(s.begin(), s.begin() + 1, s.end()); return s[0]; }\n"
            findings = self.lint_source("src/opt/scalar.hpp", cpp)
            self.assertIn("no-sort-in-hot-path", self.rules_of(findings))

        def test_no_sort_in_hot_path_opt_layer_sort_free_ok(self):
            cpp = "double q(std::vector<double>& s) { std::nth_element(s.begin(), s.begin(), s.end()); return s[0]; }\n"
            findings = self.lint_source("src/opt/scalar.hpp", cpp)
            self.assertNotIn("no-sort-in-hot-path", self.rules_of(findings))

        def test_no_sort_in_hot_path_other_layers_exempt(self):
            cpp = "void f(std::vector<double>& s) { std::sort(s.begin(), s.end()); }\n"
            findings = self.lint_source("src/util/stats.cpp", cpp)
            self.assertNotIn("no-sort-in-hot-path", self.rules_of(findings))

        def test_no_sort_in_hot_path_comment_ignored(self):
            cpp = "// the reference uses std::sort(v.begin(), v.end())\nint f();\n"
            findings = self.lint_source("src/admm/engine.cpp", cpp)
            self.assertNotIn("no-sort-in-hot-path", self.rules_of(findings))

        def test_no_sort_in_hot_path_suppressed(self):
            cpp = ("void f(double* a, double* b) {\n"
                   "  // ufc-lint: allow(no-sort-in-hot-path)\n"
                   "  std::sort(a, b);\n"
                   "}\n")
            findings = self.lint_source("src/admm/blocks.cpp", cpp)
            self.assertNotIn("no-sort-in-hot-path", self.rules_of(findings))

        def test_no_alloc_in_lambda_block_solver_flagged(self):
            cpp = ("void solve_lambda_block_into(const LambdaBlockInputs& in,\n"
                   "                             std::span<double> out) {\n"
                   "  Vec point(out.size());\n"
                   "  use(point, in);\n"
                   "}\n")
            findings = self.lint_source("src/admm/blocks.cpp", cpp)
            self.assertIn("no-alloc-in-step", self.rules_of(findings))

        def test_no_alloc_in_a_block_solver_flagged(self):
            cpp = ("void solve_a_block_into(const ABlockInputs& in,\n"
                   "                        std::span<double> out) {\n"
                   "  const Vec solution = solve(in);\n"
                   "  copy(solution, out);\n"
                   "}\n")
            findings = self.lint_source("src/admm/blocks.cpp", cpp)
            self.assertIn("no-alloc-in-step", self.rules_of(findings))

        def test_no_alloc_in_block_solver_workspace_ok(self):
            # Workspace growth is fine; so is a Vec built by a caller that
            # merely calls the solver.
            cpp = ("void solve_a_block_into(const ABlockInputs& in,\n"
                   "                        std::span<double> out,\n"
                   "                        BlockWorkspace& ws) {\n"
                   "  ws.base.resize(out.size());\n"
                   "}\n"
                   "Vec solve_a(const ABlockInputs& in, BlockWorkspace& ws) {\n"
                   "  Vec out(in.varphi_col.size());\n"
                   "  solve_a_block_into(in, out.span(), ws);\n"
                   "  return out;\n"
                   "}\n")
            findings = self.lint_source("src/admm/blocks.cpp", cpp)
            self.assertNotIn("no-alloc-in-step", self.rules_of(findings))

        def test_no_alloc_in_step_pass_helper_flagged(self):
            cpp = ("void InProcessExecutor::run_screened_datacenter_pass() {\n"
                   "  Vec scratch(n_);\n"
                   "  use(scratch);\n"
                   "}\n")
            findings = self.lint_source("src/admm/engine.cpp", cpp)
            self.assertIn("no-alloc-in-step", self.rules_of(findings))

        def test_finite_iterate_guard_missing_observe_flagged(self):
            cpp = ("SolveCore AdmgEngine::solve(BlockExecutor& executor, int first) {\n"
                   "  for (int k = first; k < max; ++k) executor.step(k);\n"
                   "  return core;\n"
                   "}\n")
            findings = self.lint_source("src/admm/engine.cpp", cpp)
            self.assertIn("finite-iterate-guard", self.rules_of(findings))

        def test_finite_iterate_guard_observe_present_ok(self):
            cpp = ("SolveCore AdmgEngine::solve(BlockExecutor& executor, int first) {\n"
                   "  SolverWatchdog watchdog(options_.watchdog);\n"
                   "  for (int k = first; k < max; ++k) {\n"
                   "    executor.step(k);\n"
                   "    watchdog.observe(r, s, finite);\n"
                   "  }\n"
                   "  return core;\n"
                   "}\n")
            findings = self.lint_source("src/admm/engine.cpp", cpp)
            self.assertNotIn("finite-iterate-guard", self.rules_of(findings))

        def test_finite_iterate_guard_declaration_not_matched(self):
            cpp = "SolveCore AdmgEngine::solve(BlockExecutor& executor, int first);\n"
            findings = self.lint_source("src/admm/engine.cpp", cpp)
            self.assertNotIn("finite-iterate-guard", self.rules_of(findings))

        def test_finite_iterate_guard_other_functions_exempt(self):
            cpp = ("void InProcessExecutor::reset() {\n"
                   "  for (int k = 0; k < max; ++k) clear(k);\n"
                   "}\n")
            findings = self.lint_source("src/admm/engine.cpp", cpp)
            self.assertNotIn("finite-iterate-guard", self.rules_of(findings))

        def test_finite_iterate_guard_suppressed(self):
            cpp = ("// ufc-lint: allow(finite-iterate-guard)\n"
                   "SolveCore AdmgEngine::solve(BlockExecutor& executor, int first) {\n"
                   "  return core;\n"
                   "}\n")
            findings = self.lint_source("src/admm/engine.cpp", cpp)
            self.assertNotIn("finite-iterate-guard", self.rules_of(findings))

        def test_engine_single_loop_copy_flagged(self):
            cpp = ("void DatacenterAgent::correct() {\n"
                   "  phi_ += eps * (phi_tilde - phi_);\n"
                   "}\n")
            findings = self.lint_source("src/net/agents.cpp", cpp)
            self.assertIn("engine-single-loop", self.rules_of(findings))

        def test_engine_single_loop_epsilon_variable_flagged(self):
            cpp = "void f() { x += epsilon * (y - x); }\n"
            findings = self.lint_source("src/admm/other.cpp", cpp)
            self.assertIn("engine-single-loop", self.rules_of(findings))

        def test_engine_single_loop_engine_file_exempt(self):
            cpp = ("void correct_varphi_block() {\n"
                   "  varphi[i] += eps * (varphi_tilde - varphi[i]);\n"
                   "}\n")
            findings = self.lint_source("src/admm/engine.cpp", cpp)
            self.assertNotIn("engine-single-loop", self.rules_of(findings))

        def test_engine_single_loop_other_updates_ok(self):
            cpp = "void f() { total += weight * (hi - lo); }\n"
            findings = self.lint_source("src/sim/x.cpp", cpp)
            self.assertNotIn("engine-single-loop", self.rules_of(findings))

        def test_engine_single_loop_comment_ignored(self):
            cpp = "// the engine applies x += eps * (tilde - x) here\nint f();\n"
            findings = self.lint_source("src/net/agents.cpp", cpp)
            self.assertNotIn("engine-single-loop", self.rules_of(findings))

        def test_engine_single_loop_suppressed(self):
            cpp = ("void f() {\n"
                   "  // ufc-lint: allow(engine-single-loop)\n"
                   "  x += eps * (y - x);\n"
                   "}\n")
            findings = self.lint_source("src/net/agents.cpp", cpp)
            self.assertNotIn("engine-single-loop", self.rules_of(findings))

        def test_obs_layering_driver_header_flagged(self):
            cpp = '#include "admm/engine.hpp"\nint f();\n'
            findings = self.lint_source("src/obs/manifest.cpp", cpp)
            self.assertIn("obs-layering", self.rules_of(findings))

        def test_obs_layering_sim_header_flagged(self):
            cpp = '#include "sim/simulator.hpp"\nint f();\n'
            findings = self.lint_source("src/obs/metrics.cpp", cpp)
            self.assertIn("obs-layering", self.rules_of(findings))

        def test_obs_layering_seam_headers_ok(self):
            cpp = ('#include "admm/solve_core.hpp"\n'
                   '#include "admm/telemetry.hpp"\n'
                   '#include "net/link_stats.hpp"\n'
                   '#include "obs/json.hpp"\n'
                   '#include "util/contract.hpp"\n')
            findings = self.lint_source("src/obs/manifest.cpp", cpp)
            self.assertNotIn("obs-layering", self.rules_of(findings))

        def test_obs_layering_system_includes_ignored(self):
            cpp = "#include <vector>\n#include <string>\n"
            findings = self.lint_source("src/obs/json.cpp", cpp)
            self.assertNotIn("obs-layering", self.rules_of(findings))

        def test_obs_layering_rule_scoped_to_obs(self):
            cpp = '#include "admm/engine.hpp"\nint f();\n'
            findings = self.lint_source("src/sim/manifest.cpp", cpp)
            self.assertNotIn("obs-layering", self.rules_of(findings))

        def test_obs_layering_suppressed(self):
            cpp = ('// ufc-lint: allow(obs-layering)\n'
                   '#include "net/bus.hpp"\nint f();\n')
            findings = self.lint_source("src/obs/manifest.cpp", cpp)
            self.assertNotIn("obs-layering", self.rules_of(findings))

        def test_expects_guard_missing(self):
            header = "#pragma once\nVec project_simplex(const Vec& v, double total);\n"
            cpp = "Vec project_simplex(const Vec& v, double total) {\n  return v;\n}\n"
            findings = self.lint_source("src/math/p.cpp", cpp, {"src/math/p.hpp": header})
            self.assertIn("expects-guard", self.rules_of(findings))

        def test_expects_guard_present(self):
            header = "#pragma once\nVec project_simplex(const Vec& v, double total);\n"
            cpp = ("Vec project_simplex(const Vec& v, double total) {\n"
                   "  UFC_EXPECTS(total >= 0.0);\n  return v;\n}\n")
            findings = self.lint_source("src/math/p.cpp", cpp, {"src/math/p.hpp": header})
            self.assertNotIn("expects-guard", self.rules_of(findings))

        def test_expects_guard_validate_call_counts(self):
            header = "#pragma once\nVec entry(const Problem& p);\n"
            cpp = "Vec entry(const Problem& p) {\n  p.validate();\n  return Vec();\n}\n"
            findings = self.lint_source("src/admm/p.cpp", cpp, {"src/admm/p.hpp": header})
            self.assertNotIn("expects-guard", self.rules_of(findings))

        def test_expects_guard_private_helper_exempt(self):
            header = "#pragma once\nVec entry(const Vec& v);\n"
            cpp = ("static Vec helper(const Vec& v) { return v; }\n"
                   "Vec entry(const Vec& v) {\n  UFC_EXPECTS(!v.empty());\n  return helper(v);\n}\n")
            findings = self.lint_source("src/opt/p.cpp", cpp, {"src/opt/p.hpp": header})
            self.assertNotIn("expects-guard", self.rules_of(findings))

        def test_expects_guard_outside_solver_dirs_exempt(self):
            header = "#pragma once\nvoid log_line(const char* msg);\n"
            cpp = "void log_line(const char* msg) { (void)msg; }\n"
            findings = self.lint_source("src/util/l.cpp", cpp, {"src/util/l.hpp": header})
            self.assertNotIn("expects-guard", self.rules_of(findings))

        def test_expects_guard_suppressed(self):
            header = "#pragma once\nVec entry(const Vec& v);\n"
            cpp = ("// ufc-lint: allow(expects-guard)\n"
                   "Vec entry(const Vec& v) {\n  return v;\n}\n")
            findings = self.lint_source("src/math/p.cpp", cpp, {"src/math/p.hpp": header})
            self.assertNotIn("expects-guard", self.rules_of(findings))

        CI_NAMES = {"ThreadPool.RunsEveryChunk", "ProblemUpdate.Applies",
                    "ProblemUpdateTest.ClampsMu",
                    "Seeds/AdmgRandomized.Matches/0"}

        def test_ci_filter_dead_pattern_flagged(self):
            lines = ["run: ufc_tests --gtest_filter='ThreadPool.*:PenaltyPolicies.*'"]
            findings = check_ci_filter_live(CI_WORKFLOW, lines, self.CI_NAMES)
            self.assertEqual(len(findings), 1)
            self.assertEqual(findings[0].rule, "ci-filter-live")
            self.assertIn("PenaltyPolicies.*", findings[0].message)

        def test_ci_filter_live_pattern_ok(self):
            lines = ['run: ufc_tests --gtest_filter="ThreadPool.*"',
                     "run: ufc_tests --gtest_filter=ThreadPool.RunsEveryChunk"]
            self.assertEqual(
                check_ci_filter_live(CI_WORKFLOW, lines, self.CI_NAMES), [])

        def test_ci_filter_prefix_glob_ok(self):
            # `ProblemUpdate*` has no '.': a prefix glob over full names,
            # selecting both ProblemUpdate.* and ProblemUpdateTest.*.
            lines = ["run: ufc_tests --gtest_filter='ProblemUpdate*:Thread*'"]
            self.assertEqual(
                check_ci_filter_live(CI_WORKFLOW, lines, self.CI_NAMES), [])

        def test_ci_filter_negative_patterns_ignored(self):
            lines = ["run: ufc_tests --gtest_filter='ThreadPool.*-Gone.*'"]
            self.assertEqual(
                check_ci_filter_live(CI_WORKFLOW, lines, self.CI_NAMES), [])

        def test_ci_filter_parameterized_suite_needs_its_prefix(self):
            # GoogleTest names TEST_P tests Prefix/Suite.Test/N, so the bare
            # suite name selects nothing.
            live = ["run: ufc_tests --gtest_filter='Seeds/AdmgRandomized.*'"]
            self.assertEqual(
                check_ci_filter_live(CI_WORKFLOW, live, self.CI_NAMES), [])
            dead = ["run: ufc_tests --gtest_filter='AdmgRandomized.*'"]
            self.assertEqual(
                len(check_ci_filter_live(CI_WORKFLOW, dead, self.CI_NAMES)), 1)

        def test_collect_test_names_reads_every_macro(self):
            with tempfile.TemporaryDirectory() as tmp:
                root = Path(tmp)
                (root / "tests" / "admm").mkdir(parents=True)
                (root / "tests" / "admm" / "test_x.cpp").write_text(
                    "TEST(Plain, A) {}\nTEST_F(Fixture, B) {}\n"
                    "TEST_P(Param, C) {}\nTEST_P(Orphan, D) {}\n"
                    "INSTANTIATE_TEST_SUITE_P(\n    Seeds, Param, Range(0, 3));\n"
                    "// TESTS(NotATest, E)\n")
                self.assertEqual(collect_test_names(root),
                                 {"Plain.A", "Fixture.B", "Seeds/Param.C/0"})

    suite = unittest.defaultTestLoader.loadTestsFromTestCase(LintTests)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint (default: repo source roots)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="write the ufc-findings-v1 JSON report")
    parser.add_argument("--self-test", action="store_true", help="run the linter's test suite")
    parser.add_argument("--list-rules", action="store_true", help="list rules and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.list_rules:
        for rule, (_, summary) in {**RULES, **TREE_RULES}.items():
            print(f"{rule:24s} {summary}")
        return 0

    paths = args.paths or [REPO_ROOT / root for root in SOURCE_ROOTS]
    return run_lint(paths, json_path=args.json, tree=not args.paths)


if __name__ == "__main__":
    sys.exit(main())

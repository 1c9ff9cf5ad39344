#!/usr/bin/env python3
"""UFC architecture & determinism analyzer.

Where scripts/ufc_lint.py checks per-line repo invariants, this tool builds a
parsed model of the whole tree (files, layers, the #include graph, function
definitions and an approximate call graph) and checks the properties the
bit-identity guarantee of the ADM-G engine actually rests on (see
docs/ARCHITECTURE.md "Layer DAG" and docs/STATIC_ANALYSIS.md):

  include-layering  The #include graph of src/ must match the declared layer
                    DAG (LAYER_DEPS below): no back-edges, no undeclared
                    cross-layer edges, no src file including the ufc.hpp
                    umbrella. src/obs may reach admm/net only through the
                    frozen seam headers (OBS_SEAM_HEADERS).
  include-cycle     The file-level include graph must be acyclic.
  dangling-include  Every project-form include ("...") must resolve to a file
                    in the tree (catches renames that leave stale includes).
  wall-clock        No raw clock reads (std::chrono, clock_gettime, time(),
                    ...) outside src/obs, the sanctioned monotonic seam
                    src/util/clock.hpp, and src/util/thread_pool.*. Solver
                    code that needs timing goes through util::monotonic_now()
                    so every clock dependency is reviewable in one place and
                    can never leak into iterate arithmetic.
  no-wall-clock-in-ctrl-tick
                    src/ctrl (the receding-horizon controller) may not read
                    any clock at all — not even the sanctioned
                    util/clock.hpp / obs/timer.hpp monotonic seam. Tick
                    deadlines are iteration budgets by design, which is what
                    keeps N-tick controller runs bit-reproducible and makes
                    the budget-resume identity testable exactly.
  ordered-containers
                    No std::unordered_{map,set,multimap,multiset} in src/admm
                    or src/net: iteration order is implementation-defined and
                    one range-for away from making iterate-producing paths
                    depend on the hash seed. Use std::map / sorted vectors
                    (the coordinator's health table is a std::map for exactly
                    this reason).
  rng-discipline    No std:: random engines or std::random_device outside
                    src/util/rng.*: all randomness flows through ufc::Rng so
                    seeds are explicit and runs reproducible.
  global-state      No mutable namespace-scope state in the solver layers
                    (src/math, src/opt, src/admm, src/net): hidden globals
                    break the "same inputs, same iterates" contract across
                    runs and across concurrently-running solves.
  step-exceptions   No try/catch/throw inside the engine iteration hot path
                    (InProcessExecutor::step, AdmgSolver::step,
                    AdmgEngine::solve): contract guards belong at entry
                    points, recovery belongs to the SolverWatchdog; an
                    exception escaping mid-iterate leaves the workspace
                    half-written.
  expects-reach     Every public entry point declared in src/admm and src/net
                    headers (free functions and out-of-line public methods
                    with parameters) must reach a UFC_EXPECTS/UFC_ENSURES/
                    validate() guard — either directly in its body, or
                    through a callee that its parameters are passed into
                    (call-graph-aware version of ufc_lint's per-file
                    expects-guard).
  net-io-confinement
                    Raw OS networking/process calls (socket, connect, bind,
                    accept, poll, fork, kill, waitpid, recv*, ...) may appear
                    only in src/net/socket_bus.cpp and src/net/supervisor.cpp
                    — everything else talks through the Transport/Supervisor
                    APIs, so the entire OS surface stays reviewable in two
                    files. Within those two files the genuinely blocking
                    calls (poll, waitpid — every fd is O_NONBLOCK, so the
                    rest cannot block) must sit inside a function that takes
                    an explicit deadline parameter, and poll's literal
                    infinite timeout (-1) is banned outright: no socket path
                    may wait forever (docs/DISTRIBUTION.md).

Suppressing a finding: append `// ufc-analyze: allow(<rule>)` (with a
reason!) to the offending line, or place it alone on a comment line above.

Usage:
  scripts/ufc_analyze.py                analyze the repository, exit 1 on
                                        error findings
  scripts/ufc_analyze.py --json PATH    also write the ufc-findings-v1 report
  scripts/ufc_analyze.py --dot PATH     write the observed layer graph as
                                        Graphviz dot (docs/include_layers.dot
                                        is the committed copy)
  scripts/ufc_analyze.py --check-dot PATH
                                        fail if PATH is stale vs the tree
  scripts/ufc_analyze.py --self-test    run the analyzer's own test suite
  scripts/ufc_analyze.py --list-rules   print rule names and summaries
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ufc_findings import (EXIT_USAGE, Finding, report,  # noqa: E402
                          validate_findings_json)

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOTS = ("src", "tests", "bench", "examples")

# ---------------------------------------------------------------------------
# The layer manifest: the architecture, as a machine-checkable contract.
#
# A layer may include itself and exactly the layers listed here (its direct
# dependencies; transitive closure is intentional repetition — an edge is
# only legal if it is declared, whether or not it is reachable). Bottom to
# top: util -> math -> {opt, model} -> traces -> admm -> net -> obs -> sim
# -> ctrl, with src/ufc.hpp as the umbrella only examples/tests may include.
# ---------------------------------------------------------------------------
LAYER_ORDER = ["util", "math", "opt", "model", "traces", "admm", "net", "obs",
               "sim", "ctrl"]
LAYER_DEPS: dict[str, set[str]] = {
    "util": set(),
    "math": {"util"},
    "opt": {"math", "util"},
    "model": {"math", "util"},
    "traces": {"model", "math", "util"},
    "admm": {"opt", "model", "math", "util"},
    "net": {"admm", "opt", "model", "math", "util"},
    # src/obs consumes solver *results* only; its reach into admm/net is
    # restricted to the seam headers below (same contract as ufc_lint's
    # obs-layering rule, here enforced graph-wide).
    "obs": {"model", "util"},
    "sim": {"obs", "admm", "traces", "model", "math", "opt", "util"},
    # The receding-horizon controller service sits on top of everything it
    # orchestrates; nothing may include it back (it is the top layer).
    "ctrl": {"sim", "obs", "admm", "traces", "model", "util"},
}
OBS_SEAM_HEADERS = {
    "src/admm/solve_core.hpp",   # driver-independent result types
    "src/admm/telemetry.hpp",    # IterationObserver / IterationSample seam
    "src/admm/watchdog.hpp",     # WatchdogVerdict named in SolveCore
    "src/net/link_stats.hpp",    # traffic counters, no bus machinery
}
UMBRELLA = "src/ufc.hpp"

SOLVER_LAYERS = ("math", "opt", "admm", "net")
CLOCK_ALLOWED = ("src/obs/", "src/util/clock.hpp", "src/util/thread_pool")
RNG_HOME = ("src/util/rng.hpp", "src/util/rng.cpp")
HOT_PATH_FUNCTIONS = ("InProcessExecutor::step", "AdmgSolver::step",
                      "AdmgEngine::solve")
EXPECTS_LAYERS = ("admm", "net")

ALLOW_RE = re.compile(r"ufc-analyze:\s*allow\(([a-z0-9-]+)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


# ---------------------------------------------------------------------------
# Tree model
# ---------------------------------------------------------------------------
@dataclass
class SourceFile:
    rel: str                 # repo-relative posix path
    layer: str               # LAYER_ORDER entry, "umbrella", "top" or "?"
    lines: list[str]
    text: str
    # (0-based line, include text as written, resolved rel path or None)
    includes: list[tuple[int, str, str | None]] = field(default_factory=list)


@dataclass
class Tree:
    root: Path
    files: dict[str, SourceFile]


def layer_of(rel: str) -> str:
    if rel == UMBRELLA:
        return "umbrella"
    if rel.startswith("src/"):
        parts = rel.split("/")
        return parts[1] if len(parts) > 2 else "?"
    return "top"  # tests/, bench/, examples/


def _strip_comments_and_strings(line: str) -> str:
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//", 1)[0]


def _suppressed(lines: list[str], index: int, rule: str) -> bool:
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


def _resolve_include(tree_files: set[str], includer: str, header: str) -> str | None:
    # Project includes are rooted at src/ (the ufc library's include dir);
    # tests/bench also include siblings relative to their own directory.
    for candidate in (f"src/{header}",
                      str(Path(includer).parent / header),
                      f"tests/{header}"):
        candidate = Path(candidate).as_posix()
        if candidate in tree_files:
            return candidate
    return None


def build_tree(root: Path) -> Tree:
    files: dict[str, SourceFile] = {}
    for source_root in SOURCE_ROOTS:
        base = root / source_root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            rel = path.relative_to(root).as_posix()
            text = path.read_text(errors="replace")
            files[rel] = SourceFile(rel=rel, layer=layer_of(rel),
                                    lines=text.splitlines(), text=text)
    names = set(files)
    for source in files.values():
        for i, line in enumerate(source.lines):
            m = INCLUDE_RE.match(line)
            if m:
                source.includes.append(
                    (i, m.group(1), _resolve_include(names, source.rel,
                                                     m.group(1))))
    return Tree(root=root, files=files)


# ---------------------------------------------------------------------------
# Rule: include-layering / dangling-include / include-cycle
# ---------------------------------------------------------------------------
def _layer_edge_allowed(includer: SourceFile, target_rel: str) -> str | None:
    """Returns None if the edge is legal, else the finding message."""
    target_layer = layer_of(target_rel)
    source_layer = includer.layer
    if source_layer == "top":
        return None
    if target_rel == UMBRELLA or target_layer == "umbrella":
        return (f'"{target_rel}" is the umbrella header; only examples and '
                "tests may include it — src files include the specific "
                "headers they use")
    if source_layer == "umbrella":
        return None  # the umbrella deliberately includes everything
    if source_layer == "?" or source_layer not in LAYER_DEPS:
        return (f"src/{source_layer}/ is not a declared layer; add it to the "
                "LAYER_DEPS manifest in scripts/ufc_analyze.py")
    if target_layer == source_layer:
        return None
    if target_layer == "?" or target_layer not in LAYER_DEPS:
        return (f"src/{target_layer}/ is not a declared layer; add it to the "
                "LAYER_DEPS manifest in scripts/ufc_analyze.py")
    if source_layer == "obs" and target_layer in ("admm", "net"):
        if target_rel in OBS_SEAM_HEADERS:
            return None
        return (f'src/obs may reach {target_layer} only through the seam '
                f'headers {sorted(Path(h).name for h in OBS_SEAM_HEADERS)}; '
                f'"{target_rel}" is driver machinery — adapters belong in '
                "src/sim/manifest.cpp")
    if target_layer in LAYER_DEPS.get(source_layer, set()):
        return None
    if target_layer in LAYER_ORDER and source_layer in LAYER_ORDER and \
            LAYER_ORDER.index(target_layer) > LAYER_ORDER.index(source_layer):
        return (f"layering back-edge: {source_layer} (lower) must not include "
                f'"{target_rel}" ({target_layer} is a higher layer)')
    return (f"undeclared layer edge {source_layer} -> {target_layer}: not in "
            "the LAYER_DEPS manifest (declare it deliberately or remove the "
            "include)")


def check_layering(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        for index, header, resolved in source.includes:
            if resolved is None:
                if source.layer == "top" and not _suppressed(
                        source.lines, index, "dangling-include"):
                    # tests/bench may include generated or external headers;
                    # report unresolved project-style includes there too —
                    # they name files, so a miss is a rename gone stale.
                    findings.append(Finding(
                        source.rel, index + 1, "dangling-include",
                        f'include "{header}" does not resolve to a file in '
                        "the tree"))
                elif source.layer != "top" and not _suppressed(
                        source.lines, index, "dangling-include"):
                    findings.append(Finding(
                        source.rel, index + 1, "dangling-include",
                        f'include "{header}" does not resolve to a file in '
                        "the tree"))
                continue
            message = _layer_edge_allowed(source, resolved)
            if message and not _suppressed(source.lines, index,
                                           "include-layering"):
                findings.append(Finding(source.rel, index + 1,
                                        "include-layering", message))
    findings.extend(_check_cycles(tree))
    return findings


def _check_cycles(tree: Tree) -> list[Finding]:
    graph = {rel: [resolved for _, _, resolved in source.includes
                   if resolved is not None and resolved in tree.files]
             for rel, source in tree.files.items() if rel.startswith("src/")}
    index_counter = [0]
    stack: list[str] = []
    on_stack: set[str] = set()
    indices: dict[str, int] = {}
    low: dict[str, int] = {}
    sccs: list[list[str]] = []

    def strongconnect(start: str) -> None:
        work = [(start, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                indices[node] = low[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = [c for c in graph.get(node, []) if c in graph]
            for i in range(child_index, len(children)):
                child = children[i]
                if child not in indices:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], indices[child])
            if recurse:
                continue
            if low[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for node in sorted(graph):
        if node not in indices:
            strongconnect(node)

    findings = []
    for component in sorted(sccs):
        findings.append(Finding(
            component[0], 1, "include-cycle",
            "include cycle between " + ", ".join(component)))
    for rel, targets in sorted(graph.items()):
        if rel in targets:
            findings.append(Finding(rel, 1, "include-cycle",
                                    f"{rel} includes itself"))
    return findings


# ---------------------------------------------------------------------------
# Rule: wall-clock
# ---------------------------------------------------------------------------
CLOCK_RE = re.compile(
    r"std\s*::\s*chrono|steady_clock|system_clock|high_resolution_clock|"
    r"\bclock_gettime\b|\bgettimeofday\b|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)")


def check_wall_clock(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if not source.rel.startswith("src/"):
            continue
        if source.rel.startswith(CLOCK_ALLOWED):
            continue
        for i, line in enumerate(source.lines):
            code = _strip_comments_and_strings(line)
            if CLOCK_RE.search(code) and not _suppressed(source.lines, i,
                                                         "wall-clock"):
                findings.append(Finding(
                    source.rel, i + 1, "wall-clock",
                    "raw clock read outside src/obs and the util/clock.hpp "
                    "seam; use util::monotonic_now()/MonotonicTimer so every "
                    "clock dependency stays reviewable in one place"))
    return findings


# ---------------------------------------------------------------------------
# Rule: no-wall-clock-in-ctrl-tick
# ---------------------------------------------------------------------------
# The generic wall-clock rule already keeps raw std::chrono out of src/ctrl;
# this rule goes one step further: the controller layer may not consume even
# the sanctioned monotonic seam (util/clock.hpp, obs/timer.hpp). Tick
# deadlines in ctrl are iteration budgets by design — a clock read anywhere
# in the tick path would make N-tick runs irreproducible and break the
# budget-resume bit-identity the controller tests pin (docs/CONTROLLER.md).
CTRL_CLOCK_HEADERS = ("util/clock.hpp", "obs/timer.hpp")
CTRL_CLOCK_IDENT_RE = re.compile(
    r"\b(?:monotonic_now|MonotonicTimer|ScopedTimer|MonotonicTick)\b")


def check_ctrl_wall_clock(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if not source.rel.startswith("src/ctrl/"):
            continue
        banned_includes = {index for index, header, _ in source.includes
                           if header in CTRL_CLOCK_HEADERS}
        for i, line in enumerate(source.lines):
            code = _strip_comments_and_strings(line)
            if i not in banned_includes and not CTRL_CLOCK_IDENT_RE.search(code):
                continue
            if _suppressed(source.lines, i, "no-wall-clock-in-ctrl-tick"):
                continue
            findings.append(Finding(
                source.rel, i + 1, "no-wall-clock-in-ctrl-tick",
                "the controller layer must not read any clock — not even the "
                "util/clock.hpp monotonic seam: tick deadlines are iteration "
                "budgets, which is what keeps N-tick controller runs "
                "bit-reproducible"))
    return findings


# ---------------------------------------------------------------------------
# Rule: ordered-containers
# ---------------------------------------------------------------------------
UNORDERED_RE = re.compile(r"\bstd\s*::\s*unordered_(?:multi)?(?:map|set)\b")


def check_ordered_containers(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if layer_of(source.rel) not in ("admm", "net"):
            continue
        for i, line in enumerate(source.lines):
            code = _strip_comments_and_strings(line)
            if UNORDERED_RE.search(code) and not _suppressed(
                    source.lines, i, "ordered-containers"):
                findings.append(Finding(
                    source.rel, i + 1, "ordered-containers",
                    "unordered container on an iterate-producing layer: "
                    "iteration order is implementation-defined and would make "
                    "iterates depend on the hash seed — use std::map or a "
                    "sorted vector"))
    return findings


# ---------------------------------------------------------------------------
# Rule: rng-discipline
# ---------------------------------------------------------------------------
RNG_RE = re.compile(
    r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"random_device|ranlux\w+|knuth_b|subtract_with_carry_engine|"
    r"linear_congruential_engine|mersenne_twister_engine)\b")


def check_rng_discipline(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if not source.rel.startswith("src/") or source.rel in RNG_HOME:
            continue
        for i, line in enumerate(source.lines):
            code = _strip_comments_and_strings(line)
            if RNG_RE.search(code) and not _suppressed(source.lines, i,
                                                       "rng-discipline"):
                findings.append(Finding(
                    source.rel, i + 1, "rng-discipline",
                    "std:: random engine outside src/util/rng: all "
                    "randomness flows through ufc::Rng with an explicit seed "
                    "so runs are reproducible"))
    return findings


# ---------------------------------------------------------------------------
# Rule: global-state
# ---------------------------------------------------------------------------
# Keep only the characters at namespace scope (brace depth contributed by
# anything that is not a `namespace ... {` block drops the text), then look
# for variable declarations that are not const/constexpr.
_NS_OPEN_RE = re.compile(r"namespace\s+[\w:]*\s*(?:::\s*)?$|namespace\s*$")
_GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:static\s+|inline\s+)*"
    r"(?!(?:const|constexpr|constinit|using|typedef|template|class|struct|"
    r"enum|namespace|friend|extern|static_assert|return|if|for|while|switch|"
    r"public|private|protected)\b)"
    r"[A-Za-z_][\w:<>,*&\s]*?[\s&*]([A-Za-z_]\w*)\s*(?:=[^=]|;|\{)")
_KEEP_QUALIFIERS_RE = re.compile(r"\b(?:const|constexpr|constinit)\b")


def _namespace_scope_lines(text: str) -> list[tuple[int, str]]:
    """Returns (0-based line, code) pairs for code at namespace scope."""
    out: list[tuple[int, str]] = []
    depth_stack: list[str] = []  # "ns" or "other" per open brace
    pending = ""  # code since the last ; { or } — classifies the next '{'
    for lineno, raw in enumerate(text.splitlines()):
        code = _strip_comments_and_strings(raw)
        at_ns_scope = all(kind == "ns" for kind in depth_stack)
        emitted = False
        for ch in code:
            if ch == "{":
                kind = "ns" if _NS_OPEN_RE.search(pending.strip()) else "other"
                depth_stack.append(kind)
                pending = ""
            elif ch == "}":
                if depth_stack:
                    depth_stack.pop()
                pending = ""
            elif ch == ";":
                if at_ns_scope and not emitted and pending.strip():
                    out.append((lineno, pending + ";"))
                    emitted = True
                pending = ""
            else:
                pending += ch
        # A declaration with an initializer brace list ends on the same line
        # in this codebase; multi-line namespace-scope statements are rare
        # enough that per-line classification is accurate.
        if at_ns_scope and not emitted and code.strip() and \
                all(kind == "ns" for kind in depth_stack) and \
                code.strip().endswith(";"):
            pass  # already handled through the ';' branch above
    return out


def check_global_state(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if layer_of(source.rel) not in SOLVER_LAYERS:
            continue
        for lineno, statement in _namespace_scope_lines(source.text):
            if _KEEP_QUALIFIERS_RE.search(statement):
                continue
            m = _GLOBAL_DECL_RE.match(statement)
            if not m:
                continue
            # A '(' before the declared name means a function declaration,
            # not a variable.
            if "(" in statement[:m.start(1)]:
                continue
            if _suppressed(source.lines, lineno, "global-state"):
                continue
            findings.append(Finding(
                source.rel, lineno + 1, "global-state",
                f"mutable namespace-scope state `{m.group(1)}` in a solver "
                "layer: hidden globals break the same-inputs-same-iterates "
                "contract (and race under the thread-pool passes) — make it "
                "const/constexpr, or thread it through explicit state"))
    return findings


# ---------------------------------------------------------------------------
# Rule: step-exceptions
# ---------------------------------------------------------------------------
EXCEPTION_RE = re.compile(r"\b(?:throw|try|catch)\b")


def _match_brace(text: str, start: int) -> int | None:
    """Index one past the `}` matching the `{` at `start`, or None."""
    depth, k = 0, start
    while k < len(text):
        if text[k] == "{":
            depth += 1
        elif text[k] == "}":
            depth -= 1
            if depth == 0:
                return k + 1
        k += 1
    return None


def _body_span(text: str, open_paren: int) -> tuple[int, int] | None:
    """(start, end) of the function body brace block for a definition whose
    parameter list opens at `open_paren`. Skips braces that belong to
    constructor member-initializer lists: braces inside parentheses
    (`csv_(std::vector<T>{...})`) and brace-initializers glued to a member
    name (`a_{1}`)."""
    depth, j = 0, open_paren
    while j < len(text):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                break
        j += 1
    if j >= len(text):
        return None
    k, paren_depth = j + 1, 0
    while k < len(text):
        ch = text[k]
        if ch == "(":
            paren_depth += 1
        elif ch == ")":
            paren_depth -= 1
        elif paren_depth == 0:
            if ch == ";":
                return None  # a declaration, not a definition
            if ch == "{":
                if k > 0 and (text[k - 1].isalnum() or text[k - 1] == "_"):
                    end = _match_brace(text, k)  # member brace-init `a_{...}`
                    if end is None:
                        return None
                    k = end
                    continue
                end = _match_brace(text, k)
                return None if end is None else (k, end)
        k += 1
    return None


def check_step_exceptions(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if layer_of(source.rel) != "admm" or not source.rel.endswith(".cpp"):
            continue
        for qualified in HOT_PATH_FUNCTIONS:
            cls, method = qualified.split("::")
            for m in re.finditer(
                    rf"\b{cls}\s*::\s*{method}\s*\(", source.text):
                span = _body_span(source.text, m.end() - 1)
                if span is None:
                    continue
                first = source.text.count("\n", 0, span[0])
                last = source.text.count("\n", 0, span[1])
                for i in range(first, min(last + 1, len(source.lines))):
                    code = _strip_comments_and_strings(source.lines[i])
                    if EXCEPTION_RE.search(code) and not _suppressed(
                            source.lines, i, "step-exceptions"):
                        findings.append(Finding(
                            source.rel, i + 1, "step-exceptions",
                            f"exception machinery inside {qualified}: the "
                            "iteration hot loop must stay exception-free — "
                            "guard at entry points, recover through the "
                            "SolverWatchdog"))
    return findings


# ---------------------------------------------------------------------------
# Rule: expects-reach (call-graph-aware contract audit)
# ---------------------------------------------------------------------------
GUARD_RE = re.compile(r"\bUFC_EXPECTS\b|\bUFC_ENSURES\b|[.>]\s*validate\s*\(")
CALL_RE = re.compile(r"(?:\b([A-Za-z_]\w*)\s*::\s*)?([A-Za-z_]\w*)\s*\(")
FREE_DECL_RE = re.compile(r"^[A-Za-z_][\w:<>,&*\s]*?\b([a-z_]\w*)\s*\(")
_CALL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                  "static_cast", "const_cast", "reinterpret_cast", "catch",
                  "assert", "defined"}


@dataclass
class Definition:
    rel: str
    name: str            # "method" or bare function name
    qualifier: str       # "Class" or "" for free functions
    start_line: int      # 1-based
    params: list[str]    # parameter names
    body: str


_TYPE_TOKENS = ("void", "const", "int", "double", "float", "bool", "auto",
                "char", "size_t", "uint64_t", "int64_t", "uint32_t",
                "int32_t", "byte")


def _parameter_names(signature: str) -> list[str]:
    """Parameter names of a definition's signature. Unnamed parameters
    (`const SolveCore& /*core*/`) yield nothing: their last token is either a
    comment (stripped) or a CamelCase/builtin type name."""
    signature = re.sub(r"/\*.*?\*/", " ", signature, flags=re.S)
    open_paren = signature.find("(")
    close_paren = _body_span_args(signature, open_paren)
    if open_paren < 0 or close_paren is None:
        return []
    inner = signature[open_paren + 1:close_paren]
    names = []
    depth = 0
    part = ""
    parts = []
    for ch in inner:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(part)
            part = ""
        else:
            part += ch
    if part.strip():
        parts.append(part)
    for part in parts:
        part = part.split("=")[0].strip()
        tokens = re.findall(r"[A-Za-z_]\w*", part)
        if not tokens:
            continue
        last = tokens[-1]
        if last in _TYPE_TOKENS or last[0].isupper():
            continue  # a type name, not a parameter name (unnamed parameter)
        names.append(last)
    return names


DEF_RE = re.compile(
    r"^(?!\s)(?:[\w:<>,*&\s]+?[\s&*])?"
    r"(?:([A-Za-z_]\w*)\s*::\s*)?(~?[A-Za-z_]\w*)\s*\(",
    re.MULTILINE)


def _definitions_in(source: SourceFile) -> list[Definition]:
    defs = []
    for m in DEF_RE.finditer(source.text):
        prefix = source.text[m.start():m.end()]
        if prefix.lstrip().startswith(("if", "for", "while", "switch",
                                       "return", "else")):
            continue
        span = _body_span(source.text, m.end() - 1)
        if span is None:
            continue
        signature = source.text[m.start():span[0]]
        if re.search(r"=\s*(?:default|delete|0)\s*[;,]", signature):
            continue
        # The searched "body" starts after the parameter list so that
        # constructor member-initializer lists (delegating constructors,
        # member construction from parameters) participate in the call scan.
        params_close = _body_span_args(source.text, m.end() - 1)
        body_from = span[0] if params_close is None else params_close + 1
        defs.append(Definition(
            rel=source.rel,
            name=m.group(2),
            qualifier=m.group(1) or "",
            start_line=source.text.count("\n", 0, m.start()) + 1,
            params=_parameter_names(source.text[m.start():span[0]]),
            body=source.text[body_from:span[1]]))
    return defs


def _build_def_index(tree: Tree) -> dict[str, list[Definition]]:
    """Indexes every function definition in src/ by "Class::name" and by the
    bare name (bare-name lookups are only trusted when unambiguous)."""
    index: dict[str, list[Definition]] = {}
    for source in tree.files.values():
        if not source.rel.startswith("src/") or not source.rel.endswith(".cpp"):
            continue
        for definition in _definitions_in(source):
            if definition.qualifier:
                index.setdefault(
                    f"{definition.qualifier}::{definition.name}",
                    []).append(definition)
            index.setdefault(definition.name, []).append(definition)
    return index


def _guard_reachable(definition: Definition,
                     index: dict[str, list[Definition]],
                     depth: int, visited: set[str]) -> bool:
    if GUARD_RE.search(definition.body):
        return True
    if depth == 0:
        return False
    key = f"{definition.rel}:{definition.qualifier}::{definition.name}:{definition.start_line}"
    if key in visited:
        return False
    visited.add(key)
    params = set(definition.params)
    for m in CALL_RE.finditer(definition.body):
        qualifier, callee = m.group(1), m.group(2)
        if callee in _CALL_KEYWORDS or callee.isupper():
            continue  # keywords and macro invocations are not calls to follow
        # The call's argument list must mention one of this function's
        # parameters — otherwise the callee's guards say nothing about OUR
        # inputs. A member call on a parameter object also counts.
        span = _body_span_args(definition.body, m.end() - 1)
        args = definition.body[m.end():span] if span else ""
        receiver = definition.body[max(0, m.start() - 40):m.start()]
        mentions = any(re.search(rf"\b{re.escape(p)}\b", args) for p in params)
        receiver_is_param = bool(re.search(
            r"([A-Za-z_]\w*)\s*(?:\.|->)\s*$", receiver)) and \
            (re.search(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*$", receiver).group(1)
             in params)
        if not mentions and not receiver_is_param:
            continue
        candidates = None
        if qualifier:
            candidates = index.get(f"{qualifier}::{callee}")
        elif callee[0].isupper():
            # An unqualified CamelCase call is a constructor — delegating
            # constructors and members built from parameters resolve to
            # Class::Class.
            candidates = index.get(f"{callee}::{callee}")
        if not candidates:
            candidates = index.get(callee, [])
            # Bare-name resolution is only trusted when every definition of
            # that name agrees (same body scanned, or unique).
            if len({(c.rel, c.start_line) for c in candidates}) > 1 and \
                    len({_guard_direct(c) for c in candidates}) > 1:
                continue
        for candidate in candidates or []:
            if _guard_reachable(candidate, index, depth - 1, visited):
                return True
    return False


def _guard_direct(definition: Definition) -> bool:
    return bool(GUARD_RE.search(definition.body))


def _body_span_args(text: str, open_paren: int) -> int | None:
    depth, j = 0, open_paren
    while j < len(text):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j
        j += 1
    return None


def _public_entry_points(source: SourceFile) -> list[tuple[int, str, str]]:
    """Yields (0-based decl line, qualifier, name) for the public entry
    points a header declares: free functions at column 0 and public
    out-of-line member functions with at least one parameter."""
    entries: list[tuple[int, str, str]] = []
    class_stack: list[tuple[str, int, bool]] = []  # (name, depth, public)
    depth = 0
    for i, raw in enumerate(source.lines):
        code = _strip_comments_and_strings(raw)
        stripped = code.strip()
        m_class = re.match(r"(?:class|struct)\s+([A-Za-z_]\w*)[^;]*$", stripped)
        if m_class and "{" in code:
            class_stack.append((m_class.group(1), depth,
                                stripped.startswith("struct")))
        elif m_class:
            # brace on the next line; treat as opening now (depth catches up)
            class_stack.append((m_class.group(1), depth,
                                stripped.startswith("struct")))
        if stripped.startswith("public:"):
            if class_stack:
                name, d, _ = class_stack[-1]
                class_stack[-1] = (name, d, True)
        elif stripped.startswith(("private:", "protected:")):
            if class_stack:
                name, d, _ = class_stack[-1]
                class_stack[-1] = (name, d, False)
        if not class_stack and depth == 0 and not raw.startswith(
                (" ", "\t", "//", "#", "}", "using ", "class ", "struct ",
                 "enum ", "namespace ", "template", "typedef")):
            m = FREE_DECL_RE.match(raw)
            if m and code.rstrip().endswith(";") and "=" not in code and \
                    not re.search(rf"\b{m.group(1)}\s*\(\s*\)", code):
                entries.append((i, "", m.group(1)))
        elif class_stack and class_stack[-1][2]:
            cls = class_stack[-1][0]
            m = re.match(r"\s+(?:virtual\s+|static\s+|explicit\s+)*"
                         r"[\w:<>,*&\s]*?\b(~?[A-Za-z_]\w*)\s*\(", raw)
            if m and code.rstrip().endswith(";") and \
                    "= default" not in code and "= delete" not in code and \
                    "= 0" not in code and "{" not in code and \
                    not m.group(1).startswith("~") and \
                    not re.search(rf"\b{re.escape(m.group(1))}\s*\(\s*\)",
                                  code) and \
                    not stripped.startswith(("return", "if", "for", "while")):
                entries.append((i, cls, m.group(1)))
        depth += code.count("{") - code.count("}")
        while class_stack and depth <= class_stack[-1][1]:
            class_stack.pop()
    return entries


def check_expects_reach(tree: Tree) -> list[Finding]:
    index = _build_def_index(tree)
    findings = []
    for source in tree.files.values():
        if layer_of(source.rel) not in EXPECTS_LAYERS or \
                not source.rel.endswith(".hpp"):
            continue
        for decl_line, qualifier, name in _public_entry_points(source):
            key = f"{qualifier}::{name}" if qualifier else name
            candidates = index.get(key, [])
            if not qualifier:
                candidates = [c for c in index.get(name, [])
                              if not c.qualifier]
            if not candidates:
                continue  # declared but not defined out-of-line in src/
            definition = candidates[0]
            if not definition.params:
                continue
            if _guard_reachable(definition, index, depth=3, visited=set()):
                continue
            if _suppressed(source.lines, decl_line, "expects-reach") or \
                    _suppressed(tree.files[definition.rel].lines,
                                definition.start_line - 1, "expects-reach"):
                continue
            label = f"{qualifier}::{name}" if qualifier else name
            findings.append(Finding(
                definition.rel, definition.start_line, "expects-reach",
                f"public entry point `{label}` (declared in {source.rel}:"
                f"{decl_line + 1}) never reaches a UFC_EXPECTS/validate() "
                "guard through any call its parameters are passed into"))
    return findings


# ---------------------------------------------------------------------------
# Rule: net-io-confinement
# ---------------------------------------------------------------------------
# The two files allowed to touch the OS: the socket transport and the process
# supervisor. Everything else in src/ goes through their APIs.
NET_IO_HOME = ("src/net/socket_bus.cpp", "src/net/supervisor.cpp")
# Call-form matches only: `::poll(` / `poll(`, never `poll_pending(` (the \b
# plus the following `(` excludes identifiers that merely embed a name) and
# never `std::bind(` (the lookbehind rejects a qualified scope).
_OS_CALL_NAMES = (
    r"socketpair|socket|connect|bind|listen|accept4|accept|poll|fork|"
    r"exec[lv]p?e?|kill|waitpid|recvfrom|recvmsg|recv|sendto|sendmsg|"
    r"setsockopt|getsockopt|getsockname|getpeername|inet_pton|inet_ntop|"
    r"select|epoll_wait|epoll_create1?|sigaction")
OS_CALL_RE = re.compile(
    rf"(?<![\w.>:])(?:::\s*)?\b({_OS_CALL_NAMES})\s*\(")
# With every fd O_NONBLOCK, these are the only two calls that can park the
# process; each call site must live in a deadline-scoped function.
BLOCKING_CALL_RE = re.compile(r"(?<![\w.>:])(?:::\s*)?\b(poll|waitpid)\s*\(")
POLL_FOREVER_RE = re.compile(r"\bpoll\s*\([^;()]*(?:\([^()]*\)[^;()]*)*,\s*-1\s*\)")
# Tokens that may legally precede a genuine call expression. Any OTHER
# identifier before the name means a return type — i.e. the line declares a
# same-named function (Rng::fork, Widget::connect, ...), which is not an OS
# call.
_CALL_CONTEXT_KEYWORDS = {"return", "case", "throw", "else", "do", "goto",
                          "co_return", "co_await", "co_yield"}


def _declares_not_calls(code: str, match_start: int) -> bool:
    before = code[:match_start].rstrip()
    m = re.search(r"([A-Za-z_]\w*)$", before)
    return bool(m) and m.group(1) not in _CALL_CONTEXT_KEYWORDS


def _enclosing_params(source: SourceFile, offset: int) -> list[str] | None:
    """Parameter names of the function definition whose body contains text
    offset `offset`, or None when the offset is outside every definition."""
    for m in DEF_RE.finditer(source.text):
        span = _body_span(source.text, m.end() - 1)
        if span is not None and span[0] <= offset < span[1]:
            return _parameter_names(source.text[m.start():span[0]])
    return None


def check_net_io_confinement(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if not source.rel.startswith("src/"):
            continue
        confined = source.rel in NET_IO_HOME
        offset = 0
        for i, line in enumerate(source.lines):
            code = _strip_comments_and_strings(line)
            line_offset = offset
            offset += len(source.lines[i]) + 1
            if not confined:
                m = OS_CALL_RE.search(code)
                if m and _declares_not_calls(code, m.start()):
                    m = None
                if m and not _suppressed(source.lines, i,
                                         "net-io-confinement"):
                    findings.append(Finding(
                        source.rel, i + 1, "net-io-confinement",
                        f"raw OS call `{m.group(1)}` outside the confined "
                        f"files {list(NET_IO_HOME)}: all socket and process "
                        "machinery flows through SocketBus/Supervisor so the "
                        "OS surface stays reviewable in one place"))
                continue
            if POLL_FOREVER_RE.search(code) and not _suppressed(
                    source.lines, i, "net-io-confinement"):
                findings.append(Finding(
                    source.rel, i + 1, "net-io-confinement",
                    "poll with an infinite timeout (-1): every socket wait "
                    "must be bounded by an explicit deadline — use "
                    "IoDeadline::remaining_ms()"))
                continue
            m = BLOCKING_CALL_RE.search(code)
            if m and not _suppressed(source.lines, i, "net-io-confinement"):
                params = _enclosing_params(
                    source, line_offset + code.find(m.group(1)))
                if params is None or not any("deadline" in p for p in params):
                    findings.append(Finding(
                        source.rel, i + 1, "net-io-confinement",
                        f"blocking call `{m.group(1)}` in a function without "
                        "a deadline parameter: the no-call-blocks-forever "
                        "contract requires every potentially blocking wait "
                        "to be scoped by a caller-supplied deadline"))
    return findings


# ---------------------------------------------------------------------------
# Layer graph emission
# ---------------------------------------------------------------------------
def layer_graph_dot(tree: Tree) -> str:
    edges: dict[tuple[str, str], int] = {}
    for source in tree.files.values():
        if not source.rel.startswith("src/") or source.layer == "umbrella":
            continue
        for _, _, resolved in source.includes:
            if resolved is None:
                continue
            target = layer_of(resolved)
            if target == source.layer or target in ("top", "umbrella"):
                continue
            edges[(source.layer, target)] = edges.get(
                (source.layer, target), 0) + 1
    lines = [
        "// Observed src/ layer graph. Generated by scripts/ufc_analyze.py "
        "--dot;",
        "// regenerate after layering changes (the check-dot ctest entry "
        "keeps it fresh).",
        "digraph ufc_layers {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    present = sorted({layer for pair in edges for layer in pair},
                     key=LAYER_ORDER.index)
    for layer in present:
        lines.append(f'  "{layer}";')
    for (source_layer, target), count in sorted(edges.items()):
        lines.append(f'  "{source_layer}" -> "{target}" [label="{count}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_dot_fresh(tree: Tree, dot_path: Path) -> list[Finding]:
    expected = layer_graph_dot(tree)
    try:
        actual = dot_path.read_text()
    except OSError:
        return [Finding(str(dot_path), 1, "dot-stale",
                        "committed layer graph missing; regenerate with "
                        "scripts/ufc_analyze.py --dot " + str(dot_path))]
    if actual != expected:
        return [Finding(str(dot_path), 1, "dot-stale",
                        "committed layer graph is stale; regenerate with "
                        "scripts/ufc_analyze.py --dot " + str(dot_path))]
    return []


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
RULES = {
    "include-layering": (None, "src #include graph matches the declared layer DAG"),
    "include-cycle": (None, "file-level include graph is acyclic"),
    "dangling-include": (None, "every project include resolves to a file"),
    "wall-clock": (check_wall_clock, "no raw clock reads outside obs + util/clock seam"),
    "no-wall-clock-in-ctrl-tick": (check_ctrl_wall_clock,
                                   "src/ctrl never reads a clock, not even "
                                   "the monotonic seam"),
    "ordered-containers": (check_ordered_containers, "no unordered containers in admm/net"),
    "rng-discipline": (check_rng_discipline, "std:: random engines only inside util/rng"),
    "global-state": (check_global_state, "no mutable namespace-scope state in solver layers"),
    "step-exceptions": (check_step_exceptions, "no try/catch/throw in the iteration hot path"),
    "expects-reach": (check_expects_reach, "admm/net entry points reach a UFC_EXPECTS guard"),
    "net-io-confinement": (check_net_io_confinement,
                           "raw OS calls only in socket_bus/supervisor; "
                           "blocking waits deadline-scoped"),
    "dot-stale": (None, "committed docs layer graph matches the tree"),
}


def analyze_tree(root: Path) -> list[Finding]:
    tree = build_tree(root)
    findings = check_layering(tree)
    for rule, (fn, _) in RULES.items():
        if fn is not None:
            findings.extend(fn(tree))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree to analyze (default: the repository)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="write the ufc-findings-v1 JSON report")
    parser.add_argument("--dot", type=Path, metavar="PATH",
                        help="write the observed layer graph as Graphviz dot")
    parser.add_argument("--check-dot", type=Path, metavar="PATH",
                        help="fail when PATH is stale w.r.t. the tree")
    parser.add_argument("--self-test", action="store_true",
                        help="run the analyzer's test suite")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rules and exit")
    args = parser.parse_args()

    if args.self_test:
        from ufc_analyze_selftest import run  # noqa: PLC0415
        return run()
    if args.list_rules:
        for rule, (_, summary) in RULES.items():
            print(f"{rule:20s} {summary}")
        return 0
    if not args.root.is_dir():
        print(f"ufc_analyze: no such directory: {args.root}", file=sys.stderr)
        return EXIT_USAGE

    tree = build_tree(args.root)
    findings = check_layering(tree)
    for rule, (fn, _) in RULES.items():
        if fn is not None:
            findings.extend(fn(tree))
    if args.check_dot is not None:
        findings.extend(check_dot_fresh(tree, args.check_dot))
    if args.dot is not None:
        args.dot.write_text(layer_graph_dot(tree))
    return report("ufc_analyze", findings, checked=len(tree.files),
                  json_path=args.json)


if __name__ == "__main__":
    sys.exit(main())

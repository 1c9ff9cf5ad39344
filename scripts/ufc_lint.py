#!/usr/bin/env python3
"""UFC static analyzer: the project invariants compilers and clang-tidy
cannot express.

It parses the whole tree (src/, tests/, bench/, examples/, perfbench/) once
into one model — files, layers, the #include graph, function definitions and
an approximate call graph — and runs every rule of RULES over it. Each rule
and its reason is documented in docs/STATIC_ANALYSIS.md; `--list-rules`
prints the one-line summaries.

Suppressing a finding: append `// ufc-lint: allow(<rule>)` (with a reason!)
to the offending line, or put it in the contiguous comment block directly
above. A marker that names no rule, or suppresses no finding, is itself a
finding (unused-suppression).

A finding prints as `path:line: [rule] message`. Exit codes: 0 clean,
1 findings, 2 usage error. `--json PATH` writes the ufc-findings-v2 report:

  {"schema": "ufc-findings-v2", "count": N,
   "findings": [{"path", "line", "rule", "message"}, ...]}

Usage:
  scripts/ufc_lint.py              analyze the repository, exit 1 on findings
  scripts/ufc_lint.py PATH...      print only the findings under PATH
  scripts/ufc_lint.py --json PATH  also write the ufc-findings-v2 report
  scripts/ufc_lint.py --dot PATH   write the observed src/ layer graph
                                   (docs/include_layers.dot is the copy the
                                   dot-stale rule keeps fresh)
  scripts/ufc_lint.py --self-test  run the analyzer's own test suite
  scripts/ufc_lint.py --list-rules print rule names and summaries
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import io
import json
import re
import sys
import tempfile
import unittest
from dataclasses import asdict, dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOTS = ("src", "tests", "bench", "examples", "perfbench")
DOT_PATH = "docs/include_layers.dot"
LINT_SCRIPT = "scripts/ufc_lint.py"
CI_WORKFLOW = ".github/workflows/ci.yml"
SCHEMA = "ufc-findings-v2"
EXIT_USAGE = 2

ALLOW_RE = re.compile(r"ufc-lint:\s*allow\(([a-z0-9-]+)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# ---------------------------------------------------------------------------
# The layer manifest: the architecture, as a machine-checkable contract.
#
# A layer may include itself and exactly the layers listed here (its direct
# dependencies; an edge is legal only if it is declared, whether or not it is
# reachable transitively). Bottom to top: util -> math -> {opt, model} ->
# traces -> admm -> net -> obs -> sim -> ctrl, with src/ufc.hpp as the
# umbrella only the top-level trees may include.
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
    # src/obs consumes solver *results* only: it reaches admm/net through the
    # seam headers below and never sees driver machinery, so "attaching
    # observers changes nothing" stays checkable by layering alone. Adapters
    # that need engine or scenario types live in src/sim/manifest.cpp.
    "obs": {"model", "util"},
    # sim reaches net for the paper's Fig. 2 protocol accounting and the
    # fault sweep, which run the message-passing runtime (sim/reproduce.cpp).
    "sim": {"obs", "net", "admm", "traces", "model", "math", "opt", "util"},
    # The receding-horizon controller is the top layer: it orchestrates
    # everything below it, and nothing may include it back.
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


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


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
class Definition:
    rel: str
    qualifier: str       # "Class" for a member, "" for a free function
    name: str
    start_line: int      # 1-based line where the definition starts
    params: list[str]    # named parameters
    body: str            # from the end of the parameter list to the '}'
    span: tuple[int, int]  # character range of the body braces


@dataclass
class Tree:
    root: Path
    files: dict[str, SourceFile]
    # Every function defined in src/ (a .cpp, or a header's column-0
    # definitions, such as the templates of opt/scalar.hpp), by
    # "Class::name" and by bare name (a bare-name key holds members too).
    index: dict[str, list[Definition]] = field(default_factory=dict)


def layer_of(rel: str) -> str:
    if rel == UMBRELLA:
        return "umbrella"
    if rel.startswith("src/"):
        parts = rel.split("/")
        return parts[1] if len(parts) > 2 else "?"
    return "top"  # tests/, bench/, examples/, perfbench/


def _strip_comments_and_strings(line: str) -> str:
    """The code of one line: string and char literals blanked, the trailing
    // comment dropped."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//", 1)[0]


def _resolve_include(tree_files: set[str], includer: str, header: str) -> str | None:
    # Project includes are rooted at src/ (the ufc library's include dir);
    # the top-level trees also include siblings relative to their directory.
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
    tree = Tree(root=root, files=files)
    names = set(files)
    for source in files.values():
        for i, line in enumerate(source.lines):
            m = INCLUDE_RE.match(line)
            if m:
                source.includes.append(
                    (i, m.group(1), _resolve_include(names, source.rel,
                                                     m.group(1))))
        if source.rel.startswith("src/"):
            for definition in _definitions_in(source):
                if definition.qualifier:
                    tree.index.setdefault(
                        f"{definition.qualifier}::{definition.name}",
                        []).append(definition)
                tree.index.setdefault(definition.name, []).append(definition)
    return tree


# ---------------------------------------------------------------------------
# Function definitions
# ---------------------------------------------------------------------------
DEF_RE = re.compile(
    r"^(?!\s)(?:[\w:<>,*&\s]+?[\s&*])?"
    r"(?:([A-Za-z_]\w*)\s*::\s*)?(~?[A-Za-z_]\w*)\s*\(",
    re.MULTILINE)
_TYPE_TOKENS = ("void", "const", "int", "double", "float", "bool", "auto",
                "char", "size_t", "uint64_t", "int64_t", "uint32_t",
                "int32_t", "byte")


def _close_paren(text: str, open_paren: int) -> int | None:
    """Index of the ')' matching the '(' at `open_paren`, or None."""
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
    parameter list opens at `open_paren`, or None for a declaration or call.
    Skips braces that belong to constructor member-initializer lists: braces
    inside parentheses (`csv_(std::vector<T>{...})`) and brace-initializers
    glued to a member name (`a_{1}`)."""
    j = _close_paren(text, open_paren)
    if j is None:
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
                if text[k - 1].isalnum() or text[k - 1] == "_":
                    end = _match_brace(text, k)  # member brace-init `a_{...}`
                    if end is None:
                        return None
                    k = end
                    continue
                end = _match_brace(text, k)
                return None if end is None else (k, end)
        k += 1
    return None


def _parameter_names(signature: str) -> list[str]:
    """Parameter names of a definition's signature. Unnamed parameters
    (`const SolveCore& /*core*/`) yield nothing: their last token is either a
    comment (stripped) or a CamelCase/builtin type name."""
    signature = re.sub(r"/\*.*?\*/", " ", signature, flags=re.S)
    open_paren = signature.find("(")
    close_paren = _close_paren(signature, open_paren)
    if open_paren < 0 or close_paren is None:
        return []
    parts, part, depth = [], "", 0
    for ch in signature[open_paren + 1:close_paren]:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(part)
            part = ""
        else:
            part += ch
    parts.append(part)
    names = []
    for part in parts:
        tokens = re.findall(r"[A-Za-z_]\w*", part.split("=")[0])
        if tokens and tokens[-1] not in _TYPE_TOKENS and \
                not tokens[-1][0].isupper():
            names.append(tokens[-1])
    return names


def _definitions_in(source: SourceFile) -> list[Definition]:
    defs = []
    for m in DEF_RE.finditer(source.text):
        if m.group(0).lstrip().startswith(("if", "for", "while", "switch",
                                           "return", "else")):
            continue
        span = _body_span(source.text, m.end() - 1)
        if span is None:
            continue
        signature = source.text[m.start():span[0]]
        if re.search(r"=\s*(?:default|delete|0)\s*[;,]", signature):
            continue
        # The body starts right after the parameter list, so constructor
        # member-initializer lists (delegating constructors, members built
        # from parameters) take part in the call scan.
        defs.append(Definition(
            rel=source.rel, qualifier=m.group(1) or "", name=m.group(2),
            start_line=source.text.count("\n", 0, m.start()) + 1,
            params=_parameter_names(signature),
            body=source.text[_close_paren(source.text, m.end() - 1) + 1:
                             span[1]],
            span=span))
    return defs


def _body_lines(tree: Tree, definition: Definition) -> range:
    """0-based lines from a definition's `{` to its `}`."""
    text = tree.files[definition.rel].text
    return range(text.count("\n", 0, definition.span[0]),
                 text.count("\n", 0, definition.span[1]) + 1)


# ---------------------------------------------------------------------------
# Per-line rules
# ---------------------------------------------------------------------------
def _line_rule(applies, pattern: re.Pattern, message: str):
    """A check flagging every code line of an in-scope file that matches
    `pattern` (comments and literals do not count)."""
    def check(tree: Tree):
        return [(source.rel, i + 1, message)
                for source in tree.files.values() if applies(source.rel)
                for i, line in enumerate(source.lines)
                if pattern.search(_strip_comments_and_strings(line))]
    return check


FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+|\d+[eE][-+]?\d+|\d+\.\d*[eE][-+]?\d+)[fFlL]?"
FLOAT_EQ_RE = re.compile(
    rf"(?:{FLOAT_LITERAL}\s*[!=]=|[!=]=\s*{FLOAT_LITERAL})")
TOLERANCE_HELPER_FILES = {"src/util/stats.hpp", "src/util/stats.cpp"}

# One randomness policy: no C rand API and no std:: engine anywhere but the
# one seeded ufc::Rng.
RNG_RE = re.compile(
    r"(?<![\w:])(?:s?rand|random_shuffle)\s*\(|"
    r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"random_device|ranlux\w+|knuth_b|subtract_with_carry_engine|"
    r"linear_congruential_engine|mersenne_twister_engine)\b")
RNG_HOME = ("src/util/rng.hpp", "src/util/rng.cpp")

# Every block solve is a handful of O(n) Condat projections driven by the
# sort-free root finder; a std::sort under these layers reintroduces the
# n log n term the scaling frontier keeps out. The sort-based projection
# survives only as the test oracle tests/math/sort_projection.hpp.
SORT_HOT_PATH_PREFIXES = ("src/admm/", "src/opt/", "src/math/")
SORT_CALL_RE = re.compile(r"\bstd\s*::\s*(?:stable_sort|partial_sort|sort)\s*\(")

# The bit-identity of the drivers rests on one copy of the Gaussian back
# substitution arithmetic (`x += eps * (...)`), in the correct_* helpers.
ENGINE_LOOP_FILE = "src/admm/engine.cpp"
ENGINE_LOOP_RE = re.compile(r"\+=\s*eps\w*\s*\*\s*\(")

CLOCK_RE = re.compile(
    r"std\s*::\s*chrono|steady_clock|system_clock|high_resolution_clock|"
    r"\bclock_gettime\b|\bgettimeofday\b|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)")
CLOCK_ALLOWED = ("src/obs/", "src/util/clock.hpp", "src/util/thread_pool")

UNORDERED_RE = re.compile(r"\bstd\s*::\s*unordered_(?:multi)?(?:map|set)\b")

check_using_namespace_header = _line_rule(
    lambda rel: rel.endswith(".hpp"), re.compile(r"\busing\s+namespace\b"),
    "`using namespace` in a header leaks into every includer")
check_float_equal = _line_rule(
    lambda rel: rel not in TOLERANCE_HELPER_FILES, FLOAT_EQ_RE,
    "==/!= on a floating-point literal; use ufc::approx_equal or annotate "
    "an intentional exact-zero guard")
check_rng_discipline = _line_rule(
    lambda rel: rel not in RNG_HOME, RNG_RE,
    "randomness outside src/util/rng: use ufc::Rng with an explicit seed, "
    "not rand()/srand() or a std:: engine, so runs are reproducible")
check_no_sort_in_hot_path = _line_rule(
    lambda rel: rel.startswith(SORT_HOT_PATH_PREFIXES), SORT_CALL_RE,
    "std::sort in the ADM-G hot path; use the O(n) Condat projection — the "
    "sort-based oracle lives only in tests/math/sort_projection.hpp")
check_engine_single_loop = _line_rule(
    lambda rel: rel != ENGINE_LOOP_FILE, ENGINE_LOOP_RE,
    "GBS correction arithmetic outside admm/engine.cpp; call the shared "
    "admm::correct_* helpers so every driver runs the same loop")
check_wall_clock = _line_rule(
    lambda rel: rel.startswith("src/") and not rel.startswith(CLOCK_ALLOWED),
    CLOCK_RE,
    "raw clock read outside src/obs and the util/clock.hpp seam; use "
    "util::monotonic_now()/MonotonicTimer so every clock dependency stays "
    "reviewable in one place")
check_ordered_containers = _line_rule(
    lambda rel: layer_of(rel) in ("admm", "net"), UNORDERED_RE,
    "unordered container on an iterate-producing layer: iteration order is "
    "implementation-defined and would make iterates depend on the hash seed "
    "— use std::map or a sorted vector")


def check_pragma_once(tree: Tree):
    findings = []
    for source in tree.files.values():
        code = (line.strip() for line in source.lines)
        first = next((line for line in code
                      if line and not line.startswith(("//", "/*", "*"))), "")
        if source.rel.endswith(".hpp") and not first.startswith("#pragma once"):
            findings.append((source.rel, 1,
                             "header does not start with #pragma once"))
    return findings


CSV_LITERAL_RE = re.compile(r'"([^"]*\.csv)"')
# Besides bench/, the sources that name the CSV series a run leaves in the
# working directory: the paper reproduction and the CLI that writes them.
CSV_WRITERS = ("src/sim/reproduce.cpp", "examples/ufc_cli.cpp")
# A literal passed as a Config key (e.g. the INI key "output.csv") names a
# setting, not a file.
CONFIG_KEY_CALL_RE = re.compile(
    r"\b(?:get_string|get_double|get_int|get_bool|has)\(\s*$")


def check_bench_csv_name(tree: Tree):
    findings = []
    for source in tree.files.values():
        if not (source.rel.startswith("bench/") or source.rel in CSV_WRITERS):
            continue
        for i, line in enumerate(source.lines):
            code = line.split("//", 1)[0]
            for m in CSV_LITERAL_RE.finditer(code):
                name = m.group(1).rsplit("/", 1)[-1]
                if CONFIG_KEY_CALL_RE.search(code[:m.start()]):
                    continue
                if not re.fullmatch(r"ufc_[a-z0-9_]+\.csv", name):
                    findings.append((source.rel, i + 1,
                                     f'output "{name}" must match ufc_*.csv, '
                                     "the pattern .gitignore ignores"))
    return findings


# The controller may not read any clock, not even the sanctioned monotonic
# seam: tick deadlines are iteration budgets, which keeps N-tick runs
# bit-reproducible and the budget-resume identity testable exactly.
CTRL_CLOCK_HEADERS = ("util/clock.hpp",)
CTRL_CLOCK_IDENT_RE = re.compile(
    r"\b(?:monotonic_now|MonotonicTimer|ScopedTimer|MonotonicTick)\b")


def check_ctrl_wall_clock(tree: Tree):
    findings = []
    for source in tree.files.values():
        if not source.rel.startswith("src/ctrl/"):
            continue
        banned_includes = {index for index, header, _ in source.includes
                           if header in CTRL_CLOCK_HEADERS}
        for i, line in enumerate(source.lines):
            if i in banned_includes or CTRL_CLOCK_IDENT_RE.search(
                    _strip_comments_and_strings(line)):
                findings.append((
                    source.rel, i + 1,
                    "the controller layer must not read any clock — not "
                    "even the util/clock.hpp monotonic seam: tick deadlines "
                    "are iteration budgets, which is what keeps N-tick "
                    "controller runs bit-reproducible"))
    return findings


# ---------------------------------------------------------------------------
# Rules: include-layering, dangling-include, include-cycle
# ---------------------------------------------------------------------------
def _layer_edge_allowed(includer: SourceFile, target_rel: str) -> str | None:
    """Returns None if the edge is legal, else the finding message."""
    target_layer = layer_of(target_rel)
    source_layer = includer.layer
    if source_layer == "top":
        return None
    if target_layer == "umbrella":
        return (f'"{target_rel}" is the umbrella header; only examples and '
                "tests may include it — src files include the specific "
                "headers they use")
    if source_layer == "umbrella":
        return None  # the umbrella deliberately includes everything
    for layer in (source_layer, target_layer):
        if layer not in LAYER_DEPS:
            return (f"src/{layer}/ is not a declared layer; add it to the "
                    "LAYER_DEPS manifest in scripts/ufc_lint.py")
    if target_layer == source_layer:
        return None
    if source_layer == "obs" and target_layer in ("admm", "net"):
        if target_rel in OBS_SEAM_HEADERS:
            return None
        return (f"src/obs may reach {target_layer} only through the seam "
                f"headers {sorted(Path(h).name for h in OBS_SEAM_HEADERS)}; "
                f'"{target_rel}" is driver machinery — adapters belong in '
                "src/sim/manifest.cpp")
    if target_layer in LAYER_DEPS[source_layer]:
        return None
    if LAYER_ORDER.index(target_layer) > LAYER_ORDER.index(source_layer):
        return (f"layering back-edge: {source_layer} (lower) must not include "
                f'"{target_rel}" ({target_layer} is a higher layer)')
    return (f"undeclared layer edge {source_layer} -> {target_layer}: not in "
            "the LAYER_DEPS manifest (declare it deliberately or remove the "
            "include)")


def check_include_layering(tree: Tree):
    findings = []
    for source in tree.files.values():
        for index, _, resolved in source.includes:
            message = _layer_edge_allowed(source, resolved) if resolved else None
            if message:
                findings.append((source.rel, index + 1, message))
    return findings


def check_dangling_include(tree: Tree):
    # Project-form includes name files, so a miss is a rename gone stale —
    # in the top-level trees too.
    return [(source.rel, index + 1,
             f'include "{header}" does not resolve to a file in the tree')
            for source in tree.files.values()
            for index, header, resolved in source.includes if resolved is None]


def check_include_cycle(tree: Tree):
    graph = {rel: [resolved for _, _, resolved in source.includes
                   if resolved is not None and resolved in tree.files]
             for rel, source in tree.files.items() if rel.startswith("src/")}
    index_counter = [0]
    stack: list[str] = []
    on_stack: set[str] = set()
    indices: dict[str, int] = {}
    low: dict[str, int] = {}
    sccs: list[list[str]] = []

    def strongconnect(start: str) -> None:  # Tarjan, iteratively
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
    findings = [(component[0], 1,
                 "include cycle between " + ", ".join(component))
                for component in sorted(sccs)]
    findings.extend((rel, 1, f"{rel} includes itself")
                    for rel, targets in sorted(graph.items()) if rel in targets)
    return findings


# ---------------------------------------------------------------------------
# Rule: global-state
# ---------------------------------------------------------------------------
# Keep only the statements at namespace scope (anything inside a brace that
# is not a `namespace ... {` block is dropped), then look for variable
# declarations that are not const/constexpr.
_NS_OPEN_RE = re.compile(r"namespace\s+[\w:]*\s*(?:::\s*)?$|namespace\s*$")
_GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:static\s+|inline\s+)*"
    r"(?!(?:const|constexpr|constinit|using|typedef|template|class|struct|"
    r"enum|namespace|friend|extern|static_assert|return|if|for|while|switch|"
    r"public|private|protected)\b)"
    r"[A-Za-z_][\w:<>,*&\s]*?[\s&*]([A-Za-z_]\w*)\s*(?:=[^=]|;|\{)")
_KEEP_QUALIFIERS_RE = re.compile(r"\b(?:const|constexpr|constinit)\b")


def _namespace_scope_lines(text: str) -> list[tuple[int, str]]:
    """Returns (0-based line, statement) pairs for code at namespace scope."""
    out: list[tuple[int, str]] = []
    depth_stack: list[str] = []  # "ns" or "other" per open brace
    pending = ""  # code since the last ; { or } — classifies the next '{'
    for lineno, raw in enumerate(text.splitlines()):
        at_ns_scope = all(kind == "ns" for kind in depth_stack)
        emitted = False
        for ch in _strip_comments_and_strings(raw):
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
    return out


def check_global_state(tree: Tree):
    findings = []
    for source in tree.files.values():
        if source.layer not in SOLVER_LAYERS:
            continue
        for lineno, statement in _namespace_scope_lines(source.text):
            if _KEEP_QUALIFIERS_RE.search(statement):
                continue
            m = _GLOBAL_DECL_RE.match(statement)
            # A '(' before the declared name means a function declaration.
            if not m or "(" in statement[:m.start(1)]:
                continue
            findings.append((
                source.rel, lineno + 1,
                f"mutable namespace-scope state `{m.group(1)}` in a solver "
                "layer: hidden globals break the same-inputs-same-iterates "
                "contract (and race under the thread-pool passes) — make it "
                "const/constexpr, or thread it through explicit state"))
    return findings


# ---------------------------------------------------------------------------
# Rules on the iteration hot path: no-alloc-in-step, step-exceptions,
# finite-iterate-guard, hot-path-live
# ---------------------------------------------------------------------------
# The per-iteration hot path: AdmgSolver::step, the datacenter pass it calls,
# the datacenter procedures that pass shares with net::DatacenterAgent, the
# two block solvers the passes call once per row or column with their
# helpers (the lambda block's support-model root, support spread and
# warm-support projection, the a block's scan, and the simplex threshold a
# capped column takes), the root finder every lambda and nu probe runs
# (both forms, header templates in opt/scalar.hpp), the message-passing
# runtime's round, whose coordinator folds per-datacenter scalars instead
# of gathering the iterate, and the objective every traced or observed
# iteration evaluates (the runtime's, into buffers it sizes on a
# membership change, and `evaluate`, which every executor's objective
# reaches). Every Mat/Vec they need lives in workspaces sized once in
# reset() (or by the agent's constructor) or grown on the first block
# solve. (The no-argument AdmgSolver::step() is inline in admm/admg.hpp and
# only forwards to step(int).)
HOT_PATH = ("AdmgSolver::step", "AdmgSolver::run_full_datacenter_pass",
            "predict_datacenter", "correct_datacenter",
            "solve_lambda_block_into", "solve_a_block_into",
            "lambda_model_root", "support_spread", "project_on_support",
            "a_block_scan", "simplex_threshold",
            "monotone_root", "monotone_root_from",
            "DistributedAdmgRuntime::step", "DistributedAdmgRuntime::objective",
            "evaluate")
# The iteration loop itself. It is exception-free like the hot path, but
# not allocation-free: it packages the report once, after the loop.
ENGINE_LOOP = "AdmgEngine::solve"
# Any `Mat(...)` / `Vec(...)` construction: a temporary, a named local, or a
# local copy-initialized from a returned value. References and pointers
# (`const Vec&`, `Vec*`) do not allocate and pass.
ALLOC_RE = re.compile(r"\b(Mat|Vec)\s*(?:[A-Za-z_]\w*\s*[({=]|[({])")
EXCEPTION_RE = re.compile(r"\b(?:throw|try|catch)\b")


def _definitions_of(tree: Tree, qualified: str) -> list[Definition]:
    return [d for d in tree.index.get(qualified, [])
            if "::" in qualified or not d.qualifier]


def _hot_lines(tree: Tree, functions, pattern: re.Pattern):
    """(function, source, 0-based line) for each body line of `functions`
    whose code matches `pattern`."""
    for qualified in functions:
        for definition in _definitions_of(tree, qualified):
            source = tree.files[definition.rel]
            for i in _body_lines(tree, definition):
                if pattern.search(_strip_comments_and_strings(source.lines[i])):
                    yield qualified, source, i


def check_no_alloc_in_step(tree: Tree):
    return [(source.rel, i + 1,
             f"Mat/Vec constructed inside {qualified} on the ADM-G step hot "
             "path; allocate it once in reset() and reuse the workspace")
            for qualified, source, i in _hot_lines(tree, HOT_PATH, ALLOC_RE)]


def check_step_exceptions(tree: Tree):
    return [(source.rel, i + 1,
             f"exception machinery inside {qualified}: the iteration hot "
             "loop must stay exception-free — guard at entry points, "
             "recover through the SolverWatchdog")
            for qualified, source, i in _hot_lines(
                tree, HOT_PATH + (ENGINE_LOOP,), EXCEPTION_RE)]


def check_finite_iterate_guard(tree: Tree):
    # Every driver delegates its loop to AdmgEngine::solve, so guarding that
    # one definition covers them all.
    return [(d.rel, d.start_line,
             f"solver driver `{ENGINE_LOOP}` never calls "
             "SolverWatchdog::observe; non-finite iterates and stalls would "
             "go undetected")
            for d in _definitions_of(tree, ENGINE_LOOP)
            if ".observe(" not in d.body]


def check_hot_path_live(tree: Tree):
    # The hot-path rules audit only the functions the tables name, so an
    # entry left behind by a rename or deletion would silently audit nothing.
    script = Path(__file__).read_text().splitlines()
    return [(LINT_SCRIPT,
             next((i + 1 for i, line in enumerate(script)
                   if f'"{name}"' in line), 1),
             f"hot-path table entry `{name}` names no definition under "
             f"{', '.join(SOURCE_ROOTS)}: the hot-path rules would check "
             "nothing for it — update HOT_PATH / ENGINE_LOOP")
            for name in HOT_PATH + (ENGINE_LOOP,)
            if not _definitions_of(tree, name)]


# ---------------------------------------------------------------------------
# Rule: expects-reach (call-graph-aware contract audit)
# ---------------------------------------------------------------------------
GUARD_RE = re.compile(r"\bUFC_EXPECTS\b|\bUFC_ENSURES\b|[.>]\s*validate\s*\(")
CALL_RE = re.compile(r"(?:\b([A-Za-z_]\w*)\s*::\s*)?([A-Za-z_]\w*)\s*\(")
RECEIVER_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*$")
FREE_DECL_RE = re.compile(r"^[A-Za-z_][\w:<>,&*\s]*?\b([a-z_]\w*)\s*\(")
MEMBER_DECL_RE = re.compile(
    r"\s+(?:virtual\s+|static\s+|explicit\s+)*[\w:<>,*&\s]*?"
    r"\b([A-Za-z_]\w*)\s*\(")
CLASS_OPEN_RE = re.compile(r"(?:class|struct)\s+([A-Za-z_]\w*)[^;]*\{")
NOT_A_FREE_DECL = (" ", "\t", "//", "#", "}", "using ", "class ", "struct ",
                   "enum ", "namespace ", "template", "typedef")
_CALL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                  "static_cast", "const_cast", "reinterpret_cast", "catch",
                  "assert", "defined"}


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
        close = _close_paren(definition.body, m.end() - 1)
        args = definition.body[m.end():close] if close else ""
        receiver = RECEIVER_RE.search(
            definition.body[max(0, m.start() - 40):m.start()])
        if not any(re.search(rf"\b{re.escape(p)}\b", args) for p in params) \
                and not (receiver and receiver.group(1) in params):
            continue
        candidates = None
        if qualifier:
            candidates = index.get(f"{qualifier}::{callee}")
        elif callee[0].isupper():
            # An unqualified CamelCase call is a constructor: delegating
            # constructors and members built from parameters resolve to
            # Class::Class.
            candidates = index.get(f"{callee}::{callee}")
        if not candidates:
            candidates = index.get(callee, [])
            # Bare-name resolution is only trusted when every definition of
            # that name agrees.
            if len({(c.rel, c.start_line) for c in candidates}) > 1 and \
                    len({bool(GUARD_RE.search(c.body))
                         for c in candidates}) > 1:
                continue
        for candidate in candidates:
            if _guard_reachable(candidate, index, depth - 1, visited):
                return True
    return False


def declared_entry_points(source: SourceFile) -> list[str]:
    """"Class::name" or "name" for each function a header declares publicly:
    free functions declared at column 0 (inside a namespace or not), and
    functions declared in the public section of a class body."""
    entries: list[str] = []
    classes: list[tuple[str, int, bool]] = []  # (name, depth, public)
    depth = 0
    for raw in source.lines:
        code = _strip_comments_and_strings(raw)
        stripped = code.strip()
        if classes and depth == classes[-1][1] + 1:  # directly in the body
            name, opened, public = classes[-1]
            if stripped.startswith(("public:", "private:", "protected:")):
                classes[-1] = (name, opened, stripped.startswith("public:"))
            elif public and (m := MEMBER_DECL_RE.match(code)):
                entries.append(f"{name}::{m.group(1)}")
        elif not classes and not raw.startswith(NOT_A_FREE_DECL) and \
                (m := FREE_DECL_RE.match(code)):
            entries.append(m.group(1))
        if m := CLASS_OPEN_RE.match(stripped):
            classes.append((m.group(1), depth, stripped.startswith("struct")))
        depth += code.count("{") - code.count("}")
        while classes and depth <= classes[-1][1]:
            classes.pop()
    return entries


def audited_entry_points(tree: Tree):
    """(header, label, definition) for every definition with parameters that
    a math/opt/admm/net header declares publicly. A declaration resolves to
    the definitions in the header's sibling .cpp, so every overload is
    audited, not the first bare-name match."""
    for source in tree.files.values():
        if source.layer not in SOLVER_LAYERS or \
                not source.rel.endswith(".hpp"):
            continue
        sibling = source.rel[:-len(".hpp")] + ".cpp"
        for label in dict.fromkeys(declared_entry_points(source)):
            for definition in _definitions_of(tree, label):
                if definition.rel == sibling and definition.params:
                    yield source.rel, label, definition


def check_expects_reach(tree: Tree):
    return [(d.rel, d.start_line,
             f"public entry point `{label}` (declared in {header}) never "
             "reaches a UFC_EXPECTS/validate() guard through any call its "
             "parameters are passed into")
            for header, label, d in audited_entry_points(tree)
            if not _guard_reachable(d, tree.index, depth=3, visited=set())]


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
    m = re.search(r"([A-Za-z_]\w*)$", code[:match_start].rstrip())
    return bool(m) and m.group(1) not in _CALL_CONTEXT_KEYWORDS


def _enclosing_params(tree: Tree, rel: str, offset: int) -> list[str] | None:
    """Parameter names of the function definition in `rel` whose body
    contains text offset `offset`, or None outside every definition."""
    for definitions in tree.index.values():
        for d in definitions:
            if d.rel == rel and d.span[0] <= offset < d.span[1]:
                return d.params
    return None


def check_net_io_confinement(tree: Tree):
    findings = []
    for source in tree.files.values():
        if not source.rel.startswith("src/"):
            continue
        confined = source.rel in NET_IO_HOME
        offset = 0
        for i, line in enumerate(source.lines):
            code = _strip_comments_and_strings(line)
            line_offset = offset
            offset += len(line) + 1
            if not confined:
                m = OS_CALL_RE.search(code)
                if m and not _declares_not_calls(code, m.start()):
                    findings.append((
                        source.rel, i + 1,
                        f"raw OS call `{m.group(1)}` outside the confined "
                        f"files {list(NET_IO_HOME)}: all socket and process "
                        "machinery flows through SocketBus/Supervisor so the "
                        "OS surface stays reviewable in one place"))
            elif POLL_FOREVER_RE.search(code):
                findings.append((
                    source.rel, i + 1,
                    "poll with an infinite timeout (-1): every socket wait "
                    "must be bounded by an explicit deadline — use "
                    "IoDeadline::remaining_ms()"))
            elif m := BLOCKING_CALL_RE.search(code):
                params = _enclosing_params(
                    tree, source.rel, line_offset + code.find(m.group(1)))
                if params is None or not any("deadline" in p for p in params):
                    findings.append((
                        source.rel, i + 1,
                        f"blocking call `{m.group(1)}` in a function without "
                        "a deadline parameter: the no-call-blocks-forever "
                        "contract requires every potentially blocking wait "
                        "to be scoped by a caller-supplied deadline"))
    return findings


# ---------------------------------------------------------------------------
# Rules on files outside the C++ tree: dot-stale, ci-filter-live
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
        "// Observed src/ layer graph. Generated by scripts/ufc_lint.py "
        "--dot;",
        "// regenerate after layering changes (the dot-stale rule keeps it "
        "fresh).",
        "digraph ufc_layers {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    present = sorted({layer for pair in edges for layer in pair},
                     key=LAYER_ORDER.index)
    lines.extend(f'  "{layer}";' for layer in present)
    lines.extend(f'  "{source_layer}" -> "{target}" [label="{count}"];'
                 for (source_layer, target), count in sorted(edges.items()))
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_dot_stale(tree: Tree):
    path = tree.root / DOT_PATH
    state = "missing" if not path.exists() else \
        "stale" if path.read_text() != layer_graph_dot(tree) else None
    if state is None:
        return []
    return [(DOT_PATH, 1, f"committed layer graph is {state}; regenerate "
             f"with scripts/ufc_lint.py --dot {DOT_PATH}")]


GTEST_FILTER_RE = re.compile(r"""--gtest_filter=(?:'([^']*)'|"([^"]*)"|(\S+))""")
TEST_DECL_RE = re.compile(r"\b(TEST|TEST_F|TEST_P)\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)")
INSTANTIATE_RE = re.compile(r"\bINSTANTIATE_TEST_SUITE_P\s*\(\s*(\w+)\s*,\s*(\w+)\s*,")


def collect_test_names(tree: Tree) -> set[str]:
    """Every test under tests/ by its GoogleTest full name: `Suite.Test` for
    TEST / TEST_F, `Prefix/Suite.Test/0` for each INSTANTIATE_TEST_SUITE_P
    of a TEST_P suite (default parameter naming; every instantiation has a
    parameter 0)."""
    names = set()
    parameterized: dict[str, list[str]] = {}
    prefixes: dict[str, list[str]] = {}
    for rel, source in sorted(tree.files.items()):
        if not rel.startswith("tests/") or not rel.endswith(".cpp"):
            continue
        for macro, suite, test in TEST_DECL_RE.findall(source.text):
            if macro == "TEST_P":
                parameterized.setdefault(suite, []).append(test)
            else:
                names.add(f"{suite}.{test}")
        for prefix, suite in INSTANTIATE_RE.findall(source.text):
            prefixes.setdefault(suite, []).append(prefix)
    for suite, tests in parameterized.items():
        for prefix in prefixes.get(suite, []):
            names.update(f"{prefix}/{suite}.{test}/0" for test in tests)
    return names


def dead_gtest_filters(lines: list[str], test_names: set[str]):
    """(1-based line, message) for each --gtest_filter pattern that selects
    no test."""
    dead = []
    for i, line in enumerate(lines):
        for m in GTEST_FILTER_RE.finditer(line):
            spec = next(group for group in m.groups() if group is not None)
            # POSITIVE[-NEGATIVE]: only the positive patterns select tests.
            for pattern in filter(None, spec.split("-", 1)[0].split(":")):
                if not any(fnmatch.fnmatchcase(name, pattern)
                           for name in test_names):
                    dead.append((i + 1, (
                        f"--gtest_filter pattern {pattern!r} selects no TEST "
                        "/ TEST_F / TEST_P under tests/ — GoogleTest exits 0 "
                        "on an empty selection, so this step would check "
                        "nothing")))
    return dead


def check_ci_filter_live(tree: Tree):
    workflow = tree.root / CI_WORKFLOW
    if not workflow.exists():
        return []
    return [(CI_WORKFLOW, line, message) for line, message in
            dead_gtest_filters(workflow.read_text().splitlines(),
                               collect_test_names(tree))]


# ---------------------------------------------------------------------------
# The rule table, suppression and the run
# ---------------------------------------------------------------------------
RULES = {
    "pragma-once": (check_pragma_once, "headers must start with #pragma once"),
    "using-namespace-header": (check_using_namespace_header,
                               "no `using namespace` in headers"),
    "float-equal": (check_float_equal,
                    "no ==/!= on float literals outside tolerance helpers"),
    "bench-csv-name": (check_bench_csv_name,
                       "bench binaries and the paper reproduction write "
                       "only ufc_*.csv"),
    "rng-discipline": (check_rng_discipline,
                       "no rand()/srand() or std:: engine outside util/rng"),
    "wall-clock": (check_wall_clock,
                   "no raw clock reads outside obs + util/clock seam"),
    "no-wall-clock-in-ctrl-tick": (check_ctrl_wall_clock,
                                   "src/ctrl never reads a clock, not even "
                                   "the monotonic seam"),
    "ordered-containers": (check_ordered_containers,
                           "no unordered containers in admm/net"),
    "global-state": (check_global_state,
                     "no mutable namespace-scope state in solver layers"),
    "no-sort-in-hot-path": (check_no_sort_in_hot_path,
                            "no std::sort in src/admm, src/opt or src/math"),
    "no-alloc-in-step": (check_no_alloc_in_step,
                         "no Mat/Vec construction on the ADM-G step hot path"),
    "step-exceptions": (check_step_exceptions,
                        "no try/catch/throw on the hot path or in the "
                        "engine loop"),
    "finite-iterate-guard": (check_finite_iterate_guard,
                             "the engine loop consults "
                             "SolverWatchdog::observe"),
    "hot-path-live": (check_hot_path_live,
                      "every HOT_PATH / ENGINE_LOOP entry names a "
                      "definition"),
    "engine-single-loop": (check_engine_single_loop,
                           "GBS correction arithmetic only in "
                           "src/admm/engine.cpp"),
    "expects-reach": (check_expects_reach,
                      "math/opt/admm/net entry points reach a UFC_EXPECTS "
                      "guard"),
    "net-io-confinement": (check_net_io_confinement,
                           "raw OS calls only in socket_bus/supervisor; "
                           "blocking waits deadline-scoped"),
    "include-layering": (check_include_layering,
                         "src #include graph matches the declared layer DAG"),
    "include-cycle": (check_include_cycle,
                      "file-level include graph is acyclic"),
    "dangling-include": (check_dangling_include,
                         "every project include resolves to a file"),
    "dot-stale": (check_dot_stale,
                  "docs/include_layers.dot matches the tree"),
    "ci-filter-live": (check_ci_filter_live,
                       "every CI --gtest_filter pattern selects a test"),
    # Applied by analyze() after every other rule has run.
    "unused-suppression": (None,
                           "every allow() marker names a rule and "
                           "suppresses a finding"),
}


def _suppressed(lines: list[str], index: int, rule: str) -> int | None:
    """The 0-based line of the allow(rule) marker covering line `index`: on
    the line itself or in the contiguous comment block above it."""
    probe = index
    while 0 <= probe < len(lines) and (
            probe == index or lines[probe].strip().startswith("//")):
        if any(m.group(1) == rule for m in ALLOW_RE.finditer(lines[probe])):
            return probe
        probe -= 1
    return None


def analyze(tree: Tree) -> list[Finding]:
    """Runs every rule over the tree and applies the allow() markers. A
    marker that names no rule or suppresses nothing is itself a finding."""
    findings, used = [], set()
    for rule, (check, _) in RULES.items():
        for path, line, message in check(tree) if check else []:
            source = tree.files.get(path)
            marker = _suppressed(source.lines, line - 1, rule) if source else None
            if marker is None:
                findings.append(Finding(path, line, rule, message))
            else:
                used.add((path, marker, rule))
    for source in tree.files.values():
        for i, line in enumerate(source.lines):
            for m in ALLOW_RE.finditer(line):
                if m.group(1) not in RULES:
                    message = f"allow({m.group(1)}) names no rule"
                elif (source.rel, i, m.group(1)) not in used:
                    message = (f"allow({m.group(1)}) suppresses no finding; "
                               "delete the stale marker")
                else:
                    continue
                findings.append(Finding(source.rel, i + 1,
                                        "unused-suppression", message))
    return findings


def findings_json(findings: list[Finding]) -> dict:
    return {"schema": SCHEMA, "count": len(findings),
            "findings": [asdict(f) for f in findings]}


def validate_findings_json(doc) -> list[str]:
    """Schema violations of a parsed ufc-findings-v2 document."""
    if not isinstance(doc, dict):
        return ["document: top level must be an object"]
    errors = []
    if doc.get("schema") != SCHEMA:
        errors.append(f'document: "schema" {doc.get("schema")!r} must be '
                      f'"{SCHEMA}"')
    findings = doc.get("findings")
    if not isinstance(findings, list):
        return errors + ['document: "findings" must be a list']
    count = doc.get("count")
    if type(count) is not int or count != len(findings):
        errors.append(f'document: "count" {count!r} must equal the '
                      f"{len(findings)} findings listed")
    keys = {"path", "line", "rule", "message"}
    for index, entry in enumerate(findings):
        where = f"findings[{index}]"
        if not isinstance(entry, dict) or set(entry) != keys:
            errors.append(f"{where}: must be an object with exactly the keys "
                          f"{sorted(keys)}")
            continue
        for key in ("path", "rule", "message"):
            if not isinstance(entry[key], str) or not entry[key]:
                errors.append(f"{where}: {key!r} must be a non-empty string")
        if type(entry["line"]) is not int or entry["line"] < 1:
            errors.append(f"{where}: 'line' must be a positive integer")
    return errors


def report(findings: list[Finding], json_path: Path | None = None,
           checked: int = 0) -> int:
    """Prints the findings (the summary of a failing run goes to stderr, so
    `ufc_lint.py | wc -l` counts findings) and returns the exit code."""
    findings = sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    if json_path is not None:
        json_path.write_text(json.dumps(findings_json(findings), indent=2)
                             + "\n")
    if findings:
        print(f"ufc_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"ufc_lint: clean ({checked} files)")
    return 0


# ---------------------------------------------------------------------------
# Self-test: every rule on synthetic trees
# ---------------------------------------------------------------------------
FLAGGED, CLEAN = [""], []
LAYERING = "include-layering dangling-include include-cycle"
WIDGET_HPP = "#pragma once\nclass Widget {\n public:\n  void poke(int value);\n};\n"
CHRONO = "auto t = std::chrono::steady_clock::now();\n"
# One definition of every HOT_PATH and ENGINE_LOOP entry.
HOT_PATH_ENGINE = ("SolveCore AdmgEngine::solve(BlockExecutor& executor) {\n"
                   "  return run(executor);\n}\n"
                   "Prediction predict_datacenter(const Data& dc) {\n"
                   "  return run(dc);\n}\n"
                   "double correct_datacenter(const Data& dc) {\n"
                   "  return run(dc);\n}\n")
HOT_PATH_SOLVER = "void AdmgSolver::step(int iteration) {\n  run();\n}\n"
HOT_PATH_BLOCKS = ("void solve_lambda_block_into(const LambdaBlockInputs& in) {\n"
                   "  run(in);\n}\n"
                   "void solve_a_block_into(const ABlockInputs& in) {\n"
                   "  run(in);\n}\n"
                   "double lambda_model_root(const LambdaBlockInputs& in) {\n"
                   "  return run(in);\n}\n"
                   "double support_spread(std::size_t count) {\n"
                   "  return run(count);\n}\n"
                   "bool project_on_support(std::span<double> point) {\n"
                   "  return run(point);\n}\n"
                   "AScan a_block_scan(const ABlockInputs& in) {\n"
                   "  return run(in);\n}\n")
HOT_PATH_MATH = ("double simplex_threshold(std::span<const double> v) {\n"
                 "  return run(v);\n}\n")
HOT_PATH_MODEL = ("UfcBreakdown evaluate(const UfcProblem& problem) {\n"
                  "  return run(problem);\n}\n")
HOT_PATH_ROOTS = ("#pragma once\n"
                  "template <typename G>\n"
                  "double monotone_root(G&& g, double lo, double hi) {\n"
                  "  return g(lo) + hi;\n}\n"
                  "template <typename G, typename Model>\n"
                  "double monotone_root_from(G&& g, Model&& model, double x0,\n"
                  "                          double lo, double hi) {\n"
                  "  return model(x0, g(lo)) + hi;\n}\n")
DATACENTER_PASS = "void AdmgSolver::run_full_datacenter_pass() {\n  run();\n}\n"
HOT_PATH_RUNTIME = ("void DistributedAdmgRuntime::step(int iteration) {\n"
                    "  exchange(iteration);\n}\n"
                    "double DistributedAdmgRuntime::objective() const {\n"
                    "  return evaluate(problem_).ufc;\n}\n")

# (case, rules checked, {path: text}, one message substring per expected
# finding of those rules, after suppression)
FIXTURES = [
    # pragma-once, using-namespace-header
    ("pragma_once_missing", "pragma-once",
     {"src/x/a.hpp": "#include <vector>\nint f();\n"}, FLAGGED),
    ("pragma_once_present_after_comment", "pragma-once",
     {"src/x/a.hpp": "// doc\n#pragma once\nint f();\n"}, CLEAN),
    ("pragma_once_ignores_cpp", "pragma-once",
     {"src/x/a.cpp": "int f() { return 1; }\n"}, CLEAN),
    ("using_namespace_in_header", "using-namespace-header",
     {"src/x/a.hpp": "#pragma once\nusing namespace std;\n"}, FLAGGED),
    ("using_namespace_in_cpp_ok", "using-namespace-header",
     {"src/x/a.cpp": "using namespace std;\n"}, CLEAN),
    ("using_namespace_suppressed", "using-namespace-header",
     {"src/x/a.hpp": "#pragma once\nusing namespace std;  "
                     "// ufc-lint: allow(using-namespace-header)\n"}, CLEAN),
    # rng-discipline
    ("c_rand_flagged", "rng-discipline",
     {"src/x/a.cpp": "int f() { return rand(); }\n"}, FLAGGED),
    ("srand_flagged", "rng-discipline",
     {"src/x/a.cpp": "void f() { srand(42); }\n"}, FLAGGED),
    ("rng_uniform_not_flagged", "rng-discipline",
     {"src/x/a.cpp": "double f(Rng& r) { return r.grand(); }\n"}, CLEAN),
    ("rand_in_comment_ignored", "rng-discipline",
     {"src/x/a.cpp": "// calls rand() internally\n"}, CLEAN),
    ("std_rng_outside_rng_home_fails", "rng-discipline",
     {"src/admm/x.cpp": "std::mt19937 gen_;\n"}, FLAGGED),
    ("std_rng_inside_rng_home_passes", "rng-discipline",
     {"src/util/rng.cpp": "std::mt19937_64 engine_;\n"}, CLEAN),
    ("std_rng_in_tests_flagged", "rng-discipline",
     {"tests/x/test_a.cpp": "std::random_device seed;\n"}, FLAGGED),
    ("perfbench_sources_scanned", "rng-discipline",
     {"perfbench/src/a.cpp": "int f() { return rand(); }\n"}, FLAGGED),
    # float-equal
    ("float_equal_flagged", "float-equal",
     {"src/x/a.cpp": "bool f(double x) { return x == 1.5; }\n"}, FLAGGED),
    ("float_equal_zero_flagged", "float-equal",
     {"src/x/a.cpp": "bool f(double x) { return x != 0.0; }\n"}, FLAGGED),
    ("float_equal_suppressed_line_above", "float-equal",
     {"src/x/a.cpp": "// ufc-lint: allow(float-equal)\n"
                     "bool f(double x) { return x == 0.0; }\n"}, CLEAN),
    ("float_equal_suppressed_multiline_comment", "float-equal",
     {"src/x/a.cpp": "// ufc-lint: allow(float-equal) — exact-zero guard,\n"
                     "// explained over two comment lines.\n"
                     "bool f(double x) { return x == 0.0; }\n"}, CLEAN),
    ("float_equal_tolerance_helper_exempt", "float-equal",
     {"src/util/stats.hpp": "#pragma once\n"
                            "bool eq(double a) { return a == 0.0; }\n"}, CLEAN),
    ("int_equal_not_flagged", "float-equal",
     {"src/x/a.cpp": "bool f(int x) { return x == 15; }\n"}, CLEAN),
    # bench-csv-name
    ("bench_csv_bad_name", "bench-csv-name",
     {"bench/bench_x.cpp": 'const char* out = "results.csv";\n'}, FLAGGED),
    ("bench_csv_good_name", "bench-csv-name",
     {"bench/bench_x.cpp": 'const char* out = "ufc_fig1.csv";\n'}, CLEAN),
    ("bench_csv_rule_skips_other_sources", "bench-csv-name",
     {"src/x/a.cpp": 'const char* out = "results.csv";\n'}, CLEAN),
    ("bench_csv_rule_covers_the_reproduction", "bench-csv-name",
     {"src/sim/reproduce.cpp": 'CsvSeries csv{"fig9.csv", {"p0"}};\n'},
     FLAGGED),
    ("bench_csv_rule_skips_config_keys", "bench-csv-name",
     {"examples/ufc_cli.cpp":
      'auto p = c.get_string("output.csv", "ufc_simulate.csv");\n'}, CLEAN),
    # no-alloc-in-step
    ("no_alloc_in_step_named_local_flagged", "no-alloc-in-step",
     {"src/admm/admg.cpp":
      "void AdmgSolver::run_full_datacenter_pass() {\n"
      "  Vec scratch(n_);\n  use(scratch);\n}\n"}, FLAGGED),
    ("no_alloc_in_step_executor_flagged", "no-alloc-in-step",
     {"src/admm/admg.cpp": "void AdmgSolver::step(int iteration) {\n"
                           "  Vec scratch(n_);\n"
                           "  use(scratch, iteration);\n}\n"}, FLAGGED),
    ("no_alloc_in_step_temporary_flagged", "no-alloc-in-step",
     {"src/admm/admg.cpp": "void AdmgSolver::step(int iteration) {\n"
                           "  a_ = Mat(m_, n_);\n}\n"}, FLAGGED),
    ("no_alloc_outside_step_ok", "no-alloc-in-step",
     {"src/admm/admg.cpp": "void AdmgSolver::reset() {\n"
                           "  Vec scratch(n_);\n  use(scratch);\n}\n"
                           "void AdmgSolver::step(int iteration) {\n"
                           "  scratch_.fill(0.0);\n}\n"}, CLEAN),
    ("no_alloc_in_step_reference_param_ok", "no-alloc-in-step",
     {"src/admm/admg.cpp": "void AdmgSolver::step(int iteration) {\n"
                           "  pool_.parallel_for(0, m_, [&](const Vec& row) {\n"
                           "    consume(row);\n  });\n}\n"}, CLEAN),
    ("no_alloc_in_step_declaration_not_matched", "no-alloc-in-step",
     {"src/admm/admg.cpp": "void AdmgSolver::step(int iteration);\n"},
     CLEAN),
    ("no_alloc_in_step_suppressed", "no-alloc-in-step",
     {"src/admm/admg.cpp": "void AdmgSolver::step(int iteration) {\n"
                           "  // ufc-lint: allow(no-alloc-in-step)\n"
                           "  Vec scratch(n_);\n  use(scratch);\n}\n"}, CLEAN),
    ("no_alloc_in_lambda_block_solver_flagged", "no-alloc-in-step",
     {"src/admm/blocks.cpp":
      "void solve_lambda_block_into(const LambdaBlockInputs& in,\n"
      "                             std::span<double> out) {\n"
      "  Vec point(out.size());\n  use(point, in);\n}\n"}, FLAGGED),
    ("no_alloc_in_a_block_solver_flagged", "no-alloc-in-step",
     {"src/admm/blocks.cpp":
      "void solve_a_block_into(const ABlockInputs& in,\n"
      "                        std::span<double> out) {\n"
      "  const Vec solution = solve(in);\n  copy(solution, out);\n}\n"},
     FLAGGED),
    # Workspace growth is fine; so is a Vec built by a caller that merely
    # calls the solver.
    ("no_alloc_in_block_solver_workspace_ok", "no-alloc-in-step",
     {"src/admm/blocks.cpp":
      "void solve_a_block_into(const ABlockInputs& in,\n"
      "                        std::span<double> out,\n"
      "                        BlockWorkspace& ws) {\n"
      "  ws.base.resize(out.size());\n}\n"
      "Vec solve_a(const ABlockInputs& in, BlockWorkspace& ws) {\n"
      "  Vec out(in.varphi_col.size());\n"
      "  solve_a_block_into(in, out.span(), ws);\n  return out;\n}\n"}, CLEAN),
    ("no_alloc_in_step_pass_helper_flagged", "no-alloc-in-step",
     {"src/admm/admg.cpp":
      "void AdmgSolver::run_full_datacenter_pass() {\n"
      "  a_t_ = Mat(n_, m_);\n}\n"}, FLAGGED),
    ("no_alloc_in_shared_datacenter_procedure_flagged", "no-alloc-in-step",
     {"src/admm/engine.cpp":
      "DatacenterPrediction predict_datacenter(std::span<const double> a) {\n"
      "  Vec column(a);\n  return run(column);\n}\n"},
     ["predict_datacenter"]),
    # The block solvers' helpers run once per probe or column, inside an
    # anonymous namespace.
    ("no_alloc_in_block_helper_flagged", "no-alloc-in-step",
     {"src/admm/blocks.cpp":
      "namespace {\n"
      "double a_block_scan(const ABlockInputs& in, std::span<double> b) {\n"
      "  Vec kept(b.size());\n  return scan(in, kept);\n}\n"
      "}  // namespace\n"},
     ["a_block_scan"]),
    ("no_alloc_in_warm_support_projection_flagged", "no-alloc-in-step",
     {"src/admm/blocks.cpp":
      "namespace {\n"
      "bool project_on_support(std::span<double> point,\n"
      "                        std::span<const double> support) {\n"
      "  const Vec before(point);\n  return check(before, support);\n}\n"
      "}  // namespace\n"},
     ["project_on_support"]),
    # The objective runs on every traced or observed iteration: a row copy
    # there allocates M vectors per iteration.
    ("no_alloc_in_objective_row_copy_flagged", "no-alloc-in-step",
     {"src/model/breakdown.cpp":
      "UfcBreakdown evaluate(const UfcProblem& problem, const Mat& lambda,\n"
      "                      const Vec& mu) {\n"
      "  UfcBreakdown out;\n"
      "  for (std::size_t i = 0; i < lambda.rows(); ++i) {\n"
      "    const Vec row = lambda.row(i);\n"
      "    out.utility += problem.average_latency_s(i, row);\n  }\n"
      "  return out;\n}\n"},
     ["evaluate"]),
    ("no_alloc_in_objective_row_view_ok", "no-alloc-in-step",
     {"src/model/breakdown.cpp":
      "UfcBreakdown evaluate(const UfcProblem& problem, const Mat& lambda,\n"
      "                      const Vec& mu) {\n"
      "  UfcBreakdown out;\n"
      "  for (std::size_t i = 0; i < lambda.rows(); ++i)\n"
      "    out.utility += problem.average_latency_s(i, lambda.row_span(i));\n"
      "  return out;\n}\n"}, CLEAN),
    ("no_alloc_in_runtime_objective_flagged", "no-alloc-in-step",
     {"src/net/runtime.cpp":
      "double DistributedAdmgRuntime::objective() const {\n"
      "  return ufc_objective(problem_, gather_lambda(), Vec(mu_));\n}\n"},
     ["DistributedAdmgRuntime::objective"]),
    # The root finder is a header template; its probes run inside every
    # block solve, so a vector built there allocates once per solve.
    ("no_alloc_in_header_root_finder_flagged", "no-alloc-in-step",
     {"src/opt/scalar.hpp":
      "#pragma once\n"
      "template <typename G>\n"
      "double monotone_root_from(G&& g, double x0, double lo, double hi) {\n"
      "  Vec probes(kRootMaxProbes);\n  return search(g, probes, x0);\n}\n"},
     ["monotone_root_from"]),
    # The coordinator reads each datacenter's move; a snapshot of the
    # gathered iterate per round is the allocation the rule keeps out.
    ("no_alloc_in_runtime_step_flagged", "no-alloc-in-step",
     {"src/net/runtime.cpp":
      "void DistributedAdmgRuntime::step(int iteration) {\n"
      "  const Mat before = a();\n  exchange(iteration);\n}\n"},
     ["DistributedAdmgRuntime::step"]),
    # no-sort-in-hot-path
    ("no_sort_in_hot_path_admm_flagged", "no-sort-in-hot-path",
     {"src/admm/blocks.cpp":
      "void f(double* a, double* b) { std::sort(a, b); }\n"}, FLAGGED),
    ("no_sort_in_hot_path_projection_fast_path_flagged", "no-sort-in-hot-path",
     {"src/math/projections.cpp": "void p(std::vector<double>& s) "
                                  "{ std::stable_sort(s.begin(), s.end()); }\n"},
     FLAGGED),
    # No file under src/math is exempt, the old reference included.
    ("no_sort_in_hot_path_whole_math_layer_flagged", "no-sort-in-hot-path",
     {"src/math/projections_reference.cpp": "void p(std::vector<double>& s) "
                                            "{ std::sort(s.begin(), s.end()); }\n"},
     FLAGGED),
    # The sort-based oracle lives under tests/, outside every scope.
    ("no_sort_in_hot_path_test_oracle_ok", "no-sort-in-hot-path",
     {"tests/math/sort_projection.hpp": "inline void p(std::vector<double>& s) "
                                        "{ std::sort(s.begin(), s.end()); }\n"},
     CLEAN),
    ("no_sort_in_hot_path_opt_layer_flagged", "no-sort-in-hot-path",
     {"src/opt/scalar.hpp": "double q(std::vector<double>& s) { std::partial_sort"
                            "(s.begin(), s.begin() + 1, s.end()); return s[0]; }\n"},
     FLAGGED),
    ("no_sort_in_hot_path_opt_layer_sort_free_ok", "no-sort-in-hot-path",
     {"src/opt/scalar.hpp": "double q(std::vector<double>& s) { std::nth_element"
                            "(s.begin(), s.begin(), s.end()); return s[0]; }\n"},
     CLEAN),
    ("no_sort_in_hot_path_other_layers_exempt", "no-sort-in-hot-path",
     {"src/util/stats.cpp": "void f(std::vector<double>& s) "
                            "{ std::sort(s.begin(), s.end()); }\n"}, CLEAN),
    ("no_sort_in_hot_path_comment_ignored", "no-sort-in-hot-path",
     {"src/admm/engine.cpp": "// the reference uses std::sort(v.begin(), v.end())\n"
                             "int f();\n"}, CLEAN),
    ("no_sort_in_hot_path_suppressed", "no-sort-in-hot-path",
     {"src/admm/blocks.cpp": "void f(double* a, double* b) {\n"
                             "  // ufc-lint: allow(no-sort-in-hot-path)\n"
                             "  std::sort(a, b);\n}\n"}, CLEAN),
    # finite-iterate-guard
    ("finite_iterate_guard_missing_observe_flagged", "finite-iterate-guard",
     {"src/admm/engine.cpp":
      "SolveCore AdmgEngine::solve(BlockExecutor& executor, int first) {\n"
      "  for (int k = first; k < max; ++k) executor.step(k);\n"
      "  return core;\n}\n"}, FLAGGED),
    ("finite_iterate_guard_observe_present_ok", "finite-iterate-guard",
     {"src/admm/engine.cpp":
      "SolveCore AdmgEngine::solve(BlockExecutor& executor, int first) {\n"
      "  SolverWatchdog watchdog(options_.watchdog);\n"
      "  for (int k = first; k < max; ++k) {\n    executor.step(k);\n"
      "    watchdog.observe(r, s, finite);\n  }\n  return core;\n}\n"}, CLEAN),
    ("finite_iterate_guard_declaration_not_matched", "finite-iterate-guard",
     {"src/admm/engine.cpp":
      "SolveCore AdmgEngine::solve(BlockExecutor& executor, int first);\n"},
     CLEAN),
    ("finite_iterate_guard_other_functions_exempt", "finite-iterate-guard",
     {"src/admm/admg.cpp": "void AdmgSolver::reset() {\n"
                           "  for (int k = 0; k < max; ++k) clear(k);\n}\n"},
     CLEAN),
    ("finite_iterate_guard_suppressed", "finite-iterate-guard",
     {"src/admm/engine.cpp":
      "// ufc-lint: allow(finite-iterate-guard)\n"
      "SolveCore AdmgEngine::solve(BlockExecutor& executor, int first) {\n"
      "  return core;\n}\n"}, CLEAN),
    # engine-single-loop
    ("engine_single_loop_copy_flagged", "engine-single-loop",
     {"src/net/agents.cpp": "void DatacenterAgent::correct() {\n"
                            "  phi_ += eps * (phi_tilde - phi_);\n}\n"}, FLAGGED),
    ("engine_single_loop_epsilon_variable_flagged", "engine-single-loop",
     {"src/admm/other.cpp": "void f() { x += epsilon * (y - x); }\n"}, FLAGGED),
    ("engine_single_loop_engine_file_exempt", "engine-single-loop",
     {"src/admm/engine.cpp": "void correct_varphi_block() {\n"
                             "  varphi[i] += eps * (varphi_tilde - varphi[i]);\n}\n"},
     CLEAN),
    ("engine_single_loop_other_updates_ok", "engine-single-loop",
     {"src/sim/x.cpp": "void f() { total += weight * (hi - lo); }\n"}, CLEAN),
    ("engine_single_loop_comment_ignored", "engine-single-loop",
     {"src/net/agents.cpp": "// the engine applies x += eps * (tilde - x) here\n"
                            "int f();\n"}, CLEAN),
    ("engine_single_loop_suppressed", "engine-single-loop",
     {"src/net/agents.cpp": "void f() {\n"
                            "  // ufc-lint: allow(engine-single-loop)\n"
                            "  x += eps * (y - x);\n}\n"}, CLEAN),
    # include-layering, dangling-include, include-cycle
    ("declared_edge_passes", LAYERING,
     {"src/admm/solver.hpp": '#include "math/vec.hpp"\n',
      "src/math/vec.hpp": "#pragma once\n"}, CLEAN),
    ("back_edge_fails", LAYERING,
     {"src/math/vec.hpp": '#include "admm/solver.hpp"\n',
      "src/admm/solver.hpp": "#pragma once\n"}, ["back-edge"]),
    # model -> opt is not in the manifest even though opt is lower.
    ("undeclared_edge_fails", LAYERING,
     {"src/model/problem.hpp": '#include "opt/bisect.hpp"\n',
      "src/opt/bisect.hpp": "#pragma once\n"}, ["undeclared layer edge"]),
    ("src_must_not_include_umbrella", LAYERING,
     {"src/admm/solver.cpp": '#include "ufc.hpp"\n',
      "src/ufc.hpp": "#pragma once\n"}, ["umbrella"]),
    ("tests_may_include_umbrella", LAYERING,
     {"tests/test_all.cpp": '#include "ufc.hpp"\n',
      "src/ufc.hpp": "#pragma once\n"}, CLEAN),
    ("obs_seam_header_passes", LAYERING,
     {"src/obs/metrics.cpp": '#include "admm/solve_core.hpp"\n',
      "src/admm/solve_core.hpp": "#pragma once\n"}, CLEAN),
    ("obs_nonseam_admm_include_fails", LAYERING,
     {"src/obs/metrics.cpp": '#include "admm/engine.hpp"\n',
      "src/admm/engine.hpp": "#pragma once\n"}, ["seam"]),
    ("obs_driver_header_flagged", LAYERING,
     {"src/obs/manifest.cpp": '#include "admm/engine.hpp"\nint f();\n',
      "src/admm/engine.hpp": "#pragma once\n"}, ["seam"]),
    ("obs_sim_header_flagged", LAYERING,
     {"src/obs/metrics.cpp": '#include "sim/simulator.hpp"\nint f();\n',
      "src/sim/simulator.hpp": "#pragma once\n"}, ["back-edge"]),
    ("obs_seam_headers_ok", LAYERING,
     {"src/obs/manifest.cpp": '#include "admm/solve_core.hpp"\n'
                              '#include "admm/telemetry.hpp"\n'
                              '#include "net/link_stats.hpp"\n'
                              '#include "obs/json.hpp"\n'
                              '#include "util/contract.hpp"\n',
      "src/admm/solve_core.hpp": "#pragma once\n",
      "src/admm/telemetry.hpp": "#pragma once\n",
      "src/net/link_stats.hpp": "#pragma once\n",
      "src/obs/json.hpp": "#pragma once\n",
      "src/util/contract.hpp": "#pragma once\n"}, CLEAN),
    ("obs_system_includes_ignored", LAYERING,
     {"src/obs/json.cpp": "#include <vector>\n#include <string>\n"}, CLEAN),
    ("sim_may_include_driver_header", LAYERING,
     {"src/sim/manifest.cpp": '#include "admm/engine.hpp"\nint f();\n',
      "src/admm/engine.hpp": "#pragma once\n"}, CLEAN),
    ("obs_include_suppressed", LAYERING,
     {"src/obs/manifest.cpp": "// ufc-lint: allow(include-layering)\n"
                              '#include "net/bus.hpp"\nint f();\n',
      "src/net/bus.hpp": "#pragma once\n"}, CLEAN),
    ("ctrl_may_include_sim_and_admm", LAYERING,
     {"src/ctrl/scheduler.hpp": '#include "admm/admg.hpp"\n'
                                '#include "sim/session.hpp"\n',
      "src/admm/admg.hpp": "#pragma once\n",
      "src/sim/session.hpp": "#pragma once\n"}, CLEAN),
    ("sim_must_not_include_ctrl", LAYERING,
     {"src/sim/session.cpp": '#include "ctrl/scheduler.hpp"\n',
      "src/ctrl/scheduler.hpp": "#pragma once\n"}, ["back-edge"]),
    ("undeclared_directory_fails", LAYERING,
     {"src/magic/widget.hpp": "#pragma once\n",
      "src/admm/solver.cpp": '#include "magic/widget.hpp"\n'},
     ["not a declared layer"]),
    ("dangling_include_fails", LAYERING,
     {"src/admm/solver.cpp": '#include "math/gone.hpp"\n'}, ["does not resolve"]),
    ("dangling_include_suppressed", LAYERING,
     {"src/admm/solver.cpp": "// ufc-lint: allow(dangling-include)\n"
                             '#include "math/gone.hpp"\n'}, CLEAN),
    ("include_cycle_fails", LAYERING,
     {"src/util/a.hpp": '#include "util/b.hpp"\n',
      "src/util/b.hpp": '#include "util/a.hpp"\n'}, ["include cycle"]),
    ("acyclic_chain_passes", LAYERING,
     {"src/util/a.hpp": '#include "util/b.hpp"\n',
      "src/util/b.hpp": '#include "util/c.hpp"\n',
      "src/util/c.hpp": "#pragma once\n"}, CLEAN),
    ("missing_dot_fails", "dot-stale",
     {"src/util/a.hpp": "#pragma once\n"}, ["missing"]),
    # wall-clock, no-wall-clock-in-ctrl-tick
    ("wall_clock_in_solver_fails", "wall-clock",
     {"src/admm/engine.cpp": CHRONO}, FLAGGED),
    ("wall_clock_in_obs_and_seam_passes", "wall-clock",
     {"src/obs/metrics_observer.cpp": CHRONO, "src/util/clock.hpp": CHRONO},
     CLEAN),
    ("wall_clock_suppression", "wall-clock",
     {"src/admm/engine.cpp": CHRONO.rstrip() +
      "  // ufc-lint: allow(wall-clock)\n"}, CLEAN),
    ("ctrl_chrono_caught_by_generic_wall_clock", "wall-clock",
     {"src/ctrl/scheduler.cpp": CHRONO}, FLAGGED),
    ("ctrl_clock_seam_include_fails", "no-wall-clock-in-ctrl-tick",
     {"src/ctrl/scheduler.cpp": '#include "util/clock.hpp"\n',
      "src/util/clock.hpp": "#pragma once\n"}, FLAGGED),
    ("ctrl_timer_identifier_fails", "no-wall-clock-in-ctrl-tick",
     {"src/ctrl/scheduler.cpp": "const double t0 = util::monotonic_now();\n"},
     FLAGGED),
    ("ctrl_timer_name_in_comment_passes", "no-wall-clock-in-ctrl-tick",
     {"src/ctrl/scheduler.hpp":
      "#pragma once\n// never call monotonic_now() here\n"}, CLEAN),
    ("clock_seam_outside_ctrl_passes", "no-wall-clock-in-ctrl-tick",
     {"src/sim/sweep.cpp": '#include "util/clock.hpp"\n'
                           "const double t0 = util::monotonic_now();\n",
      "src/util/clock.hpp": "#pragma once\n"}, CLEAN),
    ("ctrl_clock_suppression", "no-wall-clock-in-ctrl-tick",
     {"src/ctrl/scheduler.cpp":
      "// ufc-lint: allow(no-wall-clock-in-ctrl-tick)\n"
      "const double t0 = util::monotonic_now();\n"}, CLEAN),
    # ordered-containers, global-state
    ("unordered_container_in_net_fails", "ordered-containers",
     {"src/net/bus.hpp": "std::unordered_map<int, int> queues_;\n"}, FLAGGED),
    ("unordered_container_outside_solver_layers_passes", "ordered-containers",
     {"src/model/cache.hpp": "std::unordered_map<int, int> c_;\n"}, CLEAN),
    ("mutable_global_in_solver_fails", "global-state",
     {"src/admm/state.cpp": "namespace ufc::admm {\nint call_count = 0;\n}\n"},
     ["call_count"]),
    ("const_global_and_locals_pass", "global-state",
     {"src/admm/state.cpp": "namespace ufc::admm {\n"
                            "constexpr int kLimit = 3;\n"
                            "const double kScale = 2.0;\n"
                            "int bump(int v) {\n  int local = v;\n"
                            "  return local;\n}\n}\n"}, CLEAN),
    # step-exceptions
    ("throw_in_hot_loop_fails", "step-exceptions",
     {"src/admm/admg.cpp": "namespace ufc::admm {\n"
                           "void AdmgSolver::step(int iteration) {\n"
                           "  if (iteration < 0) throw 1;\n}\n}\n"}, FLAGGED),
    ("throw_outside_hot_loop_passes", "step-exceptions",
     {"src/admm/admg.cpp": "namespace ufc::admm {\n"
                           "void AdmgSolver::reset() { throw 1; }\n"
                           "void AdmgSolver::step(int iteration) {\n"
                           "  counter_ += iteration;\n}\n}\n"}, CLEAN),
    ("throw_in_datacenter_pass_flagged", "step-exceptions",
     {"src/admm/admg.cpp": "void AdmgSolver::run_full_datacenter_pass() {\n"
                           "  if (n_ == 0) throw 1;\n}\n"},
     ["run_full_datacenter_pass"]),
    ("throw_in_shared_datacenter_procedure_flagged", "step-exceptions",
     {"src/admm/engine.cpp": "double correct_datacenter(double& mu) {\n"
                             "  if (mu < 0.0) throw 1;\n  return mu;\n}\n"},
     ["correct_datacenter"]),
    # hot-path-live
    ("hot_path_live_every_entry_defined_ok", "hot-path-live",
     {"src/admm/engine.cpp": HOT_PATH_ENGINE,
      "src/admm/admg.cpp": HOT_PATH_SOLVER + DATACENTER_PASS,
      "src/admm/blocks.cpp": HOT_PATH_BLOCKS,
      "src/math/projections.cpp": HOT_PATH_MATH,
      "src/model/breakdown.cpp": HOT_PATH_MODEL,
      "src/opt/scalar.hpp": HOT_PATH_ROOTS,
      "src/net/runtime.cpp": HOT_PATH_RUNTIME}, CLEAN),
    ("hot_path_live_entry_without_definition_flagged", "hot-path-live",
     {"src/admm/engine.cpp": HOT_PATH_ENGINE,
      "src/admm/admg.cpp": HOT_PATH_SOLVER,
      "src/admm/blocks.cpp": HOT_PATH_BLOCKS,
      "src/math/projections.cpp": HOT_PATH_MATH,
      "src/model/breakdown.cpp": HOT_PATH_MODEL,
      "src/opt/scalar.hpp": HOT_PATH_ROOTS,
      "src/net/runtime.cpp": HOT_PATH_RUNTIME}, ["run_full_datacenter_pass"]),
    # expects-reach
    ("expects_guard_missing", "expects-reach",
     {"src/math/p.hpp": "#pragma once\n"
                        "Vec project_simplex(const Vec& v, double total);\n",
      "src/math/p.cpp": "Vec project_simplex(const Vec& v, double total) {\n"
                        "  return v;\n}\n"}, ["project_simplex"]),
    ("expects_guard_present", "expects-reach",
     {"src/math/p.hpp": "#pragma once\n"
                        "Vec project_simplex(const Vec& v, double total);\n",
      "src/math/p.cpp": "Vec project_simplex(const Vec& v, double total) {\n"
                        "  UFC_EXPECTS(total >= 0.0);\n  return v;\n}\n"}, CLEAN),
    ("expects_guard_validate_call_counts", "expects-reach",
     {"src/admm/p.hpp": "#pragma once\nVec entry(const Problem& p);\n",
      "src/admm/p.cpp": "Vec entry(const Problem& p) {\n  p.validate();\n"
                        "  return Vec();\n}\n"}, CLEAN),
    ("expects_guard_private_helper_exempt", "expects-reach",
     {"src/opt/p.hpp": "#pragma once\nVec entry(const Vec& v);\n",
      "src/opt/p.cpp": "static Vec helper(const Vec& v) { return v; }\n"
                       "Vec entry(const Vec& v) {\n  UFC_EXPECTS(!v.empty());\n"
                       "  return helper(v);\n}\n"}, CLEAN),
    ("expects_guard_outside_solver_dirs_exempt", "expects-reach",
     {"src/util/l.hpp": "#pragma once\nvoid log_line(const char* msg);\n",
      "src/util/l.cpp": "void log_line(const char* msg) { (void)msg; }\n"},
     CLEAN),
    ("expects_guard_suppressed", "expects-reach",
     {"src/math/p.hpp": "#pragma once\nVec entry(const Vec& v);\n",
      "src/math/p.cpp": "// ufc-lint: allow(expects-reach)\n"
                        "Vec entry(const Vec& v) {\n  return v;\n}\n"}, CLEAN),
    ("missing_guard_fails", "expects-reach",
     {"src/admm/widget.hpp": WIDGET_HPP,
      "src/admm/widget.cpp": "void Widget::poke(int value) { state_ += value; }\n"},
     ["Widget::poke"]),
    ("direct_guard_passes", "expects-reach",
     {"src/admm/widget.hpp": WIDGET_HPP,
      "src/admm/widget.cpp": "void Widget::poke(int value) {\n"
                             "  UFC_EXPECTS(value >= 0);\n  state_ += value;\n}\n"},
     CLEAN),
    ("guard_through_callee_passes", "expects-reach",
     {"src/admm/widget.hpp": WIDGET_HPP,
      "src/admm/widget.cpp": "void Widget::poke(int value) { check_input(value); }\n"
                             "void check_input(int value) "
                             "{ UFC_EXPECTS(value >= 0); }\n"}, CLEAN),
    # The callee is guarded, but none of poke's parameters flow into it, so
    # its guard says nothing about poke's inputs.
    ("callee_without_parameter_does_not_count", "expects-reach",
     {"src/admm/widget.hpp": WIDGET_HPP,
      "src/admm/widget.cpp": "void Widget::poke(int value) {\n"
                             "  refresh();\n  state_ += value;\n}\n"
                             "void refresh() { UFC_EXPECTS(limit_ >= 0); }\n"},
     ["Widget::poke"]),
    ("delegating_constructor_reaches_guard", "expects-reach",
     {"src/net/widget.hpp": "#pragma once\nclass Widget {\n public:\n"
                            "  explicit Widget(int limit);\n"
                            "  explicit Widget(Config config);\n};\n",
      "src/net/widget.cpp": "Widget::Widget(int limit) : Widget(make_config(limit)) {}\n"
                            "Widget::Widget(Config config) {\n"
                            "  UFC_EXPECTS(config.limit >= 0);\n}\n"
                            "Config make_config(int limit) { return Config{limit}; }\n"},
     CLEAN),
    ("unnamed_parameter_noop_is_skipped", "expects-reach",
     {"src/admm/widget.hpp": "#pragma once\nclass Widget {\n public:\n"
                             "  void on_event(const State& state);\n};\n",
      "src/admm/widget.cpp": "void Widget::on_event(const State& /*state*/) {}\n"},
     CLEAN),
    ("suppression_at_definition", "expects-reach",
     {"src/admm/widget.hpp": WIDGET_HPP,
      "src/admm/widget.cpp": "// ufc-lint: allow(expects-reach)\n"
                             "void Widget::poke(int value) { state_ += value; }\n"},
     CLEAN),
    ("layers_outside_solver_layers_not_audited", "expects-reach",
     {"src/model/widget.hpp": WIDGET_HPP,
      "src/model/widget.cpp": "void Widget::poke(int value) { state_ += value; }\n"},
     CLEAN),
    ("free_function_in_namespace_flagged", "expects-reach",
     {"src/net/codec.hpp": "#pragma once\nnamespace ufc::net {\n"
                           "Message decode(std::span<const std::byte> bytes);\n"
                           "}  // namespace ufc::net\n",
      "src/net/codec.cpp": "namespace ufc::net {\n"
                           "Message decode(std::span<const std::byte> bytes) {\n"
                           "  return parse(bytes);\n}\n}  // namespace ufc::net\n"},
     ["decode"]),
    ("two_line_declaration_flagged", "expects-reach",
     {"src/net/frame.hpp": "#pragma once\n"
                           "std::vector<std::byte> encode(FrameKind kind,\n"
                           "                              Span body);\n",
      "src/net/frame.cpp": "std::vector<std::byte> encode(FrameKind kind,\n"
                           "                              Span body) {\n"
                           "  return pack(kind, body);\n}\n"}, ["encode"]),
    ("default_argument_flagged", "expects-reach",
     {"src/net/frame.hpp": "#pragma once\n"
                           "Frame make_frame(int kind, int flags = 0);\n",
      "src/net/frame.cpp": "Frame make_frame(int kind, int flags) {\n"
                           "  return Frame{kind, flags};\n}\n"}, ["make_frame"]),
    ("overloads_in_different_files_second_unguarded", "expects-reach",
     {"src/net/a.hpp": "#pragma once\ndouble total(const Vec& v);\n",
      "src/net/a.cpp": "double total(const Vec& v) {\n"
                       "  UFC_EXPECTS(!v.empty());\n  return v[0];\n}\n",
      "src/net/b.hpp": "#pragma once\ndouble total(const Mat& m);\n",
      "src/net/b.cpp": "double total(const Mat& m) {\n  return m(0, 0);\n}\n"},
     ["src/net/b.hpp"]),
    # net-io-confinement
    ("os_call_outside_confined_files_fails", "net-io-confinement",
     {"src/net/bus.cpp": "int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"},
     ["socket"]),
    ("fork_in_runtime_fails", "net-io-confinement",
     {"src/net/runtime.cpp": "const pid_t pid = fork();\n"}, FLAGGED),
    ("os_call_in_confined_file_passes", "net-io-confinement",
     {"src/net/socket_bus.cpp": "int make(int deadline_ms) {\n"
                                "  return ::socket(AF_UNIX, SOCK_STREAM, 0);\n}\n"},
     CLEAN),
    # poll_pending / connect_to_hub / std::bind are not OS calls.
    ("lookalike_identifiers_pass", "net-io-confinement",
     {"src/net/runtime.cpp": "auto n = bus.poll_pending(node, deadline_ms);\n"
                             "bool up = socket_->connect_to_hub(timeout);\n"
                             "auto f = std::bind(&Runtime::round, this);\n"},
     CLEAN),
    ("blocking_call_without_deadline_parameter_fails", "net-io-confinement",
     {"src/net/socket_bus.cpp": "void SocketBus::spin() {\n"
                                "  ::poll(fds.data(), fds.size(), 50);\n}\n"},
     ["deadline"]),
    ("blocking_call_with_deadline_parameter_passes", "net-io-confinement",
     {"src/net/socket_bus.cpp":
      "bool SocketBus::pump(int deadline_ms) {\n"
      "  return ::poll(fds.data(), fds.size(), deadline_ms) > 0;\n}\n",
      "src/net/supervisor.cpp": "int reap(pid_t pid, int deadline_ms) {\n"
                                "  int status = 0;\n"
                                "  return ::waitpid(pid, &status, WNOHANG);\n}\n"},
     CLEAN),
    ("infinite_poll_timeout_fails_even_with_deadline_param", "net-io-confinement",
     {"src/net/socket_bus.cpp": "bool SocketBus::pump(int deadline_ms) {\n"
                                "  return ::poll(fds.data(), fds.size(), -1) > 0;\n}\n"},
     ["infinite"]),
    ("tests_and_bench_not_audited", "net-io-confinement",
     {"tests/net/test_socket_bus.cpp": "int fd = ::socket(1, 2, 3);\n",
      "bench/bench_socket_bus.cpp": "pid_t pid = fork();\n"}, CLEAN),
    ("net_io_suppression", "net-io-confinement",
     {"src/net/bus.cpp": "// ufc-lint: allow(net-io-confinement)\n"
                         "int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"}, CLEAN),
    # unused-suppression
    ("unknown_rule_marker_flagged", "unused-suppression",
     {"src/x/a.cpp": "// ufc-lint: allow(no-such-rule) — a typo\nint f();\n"},
     ["names no rule"]),
    ("marker_suppressing_nothing_flagged", "unused-suppression",
     {"src/x/a.cpp": "// ufc-lint: allow(float-equal) — no longer needed\n"
                     "bool f(int x) { return x == 1; }\n"},
     ["suppresses no finding"]),
    ("live_marker_passes", "unused-suppression float-equal",
     {"src/x/a.cpp": "// ufc-lint: allow(float-equal) — exact-zero guard\n"
                     "bool f(double x) { return x == 0.0; }\n"}, CLEAN),
]


def _write_tree(root: Path, files: dict[str, str]) -> Tree:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return build_tree(root)


def analyze_files(files: dict[str, str]) -> list[Finding]:
    with tempfile.TemporaryDirectory() as tmp:
        return analyze(_write_tree(Path(tmp), files))


class RuleFixtureTests(unittest.TestCase):
    pass


def _fixture_test(rules: str, files: dict[str, str], expected: list[str]):
    def test(self):
        found = [f for f in analyze_files(files) if f.rule in rules.split()]
        self.assertEqual(len(found), len(expected), found)
        for finding, text in zip(found, expected):
            self.assertIn(text, finding.message)
    return test


for _case, _rules, _files, _expected in FIXTURES:
    setattr(RuleFixtureTests, f"test_{_case}",
            _fixture_test(_rules, _files, _expected))


class ToolTests(unittest.TestCase):
    CI_NAMES = {"ThreadPool.RunsEveryChunk", "ProblemUpdate.Applies",
                "ProblemUpdateTest.ClampsMu", "Seeds/AdmgRandomized.Matches/0"}
    LAYERS = {"src/admm/solver.hpp": '#include "math/vec.hpp"\n',
              "src/math/vec.hpp": '#include "util/span.hpp"\n',
              "src/util/span.hpp": "#pragma once\n"}

    def _report(self, findings, **kwargs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = report(findings, **kwargs)
        return code, out.getvalue()

    def test_ci_filter_dead_pattern_flagged(self):
        dead = dead_gtest_filters(
            ["run: ufc_tests --gtest_filter='ThreadPool.*:PenaltyPolicies.*'"],
            self.CI_NAMES)
        self.assertEqual(len(dead), 1)
        self.assertIn("PenaltyPolicies.*", dead[0][1])

    def test_ci_filter_live_pattern_ok(self):
        lines = ['run: ufc_tests --gtest_filter="ThreadPool.*"',
                 "run: ufc_tests --gtest_filter=ThreadPool.RunsEveryChunk"]
        self.assertEqual(dead_gtest_filters(lines, self.CI_NAMES), [])

    def test_ci_filter_prefix_glob_ok(self):
        # `ProblemUpdate*` has no '.': a prefix glob over full names,
        # selecting both ProblemUpdate.* and ProblemUpdateTest.*.
        lines = ["run: ufc_tests --gtest_filter='ProblemUpdate*:Thread*'"]
        self.assertEqual(dead_gtest_filters(lines, self.CI_NAMES), [])

    def test_ci_filter_negative_patterns_ignored(self):
        lines = ["run: ufc_tests --gtest_filter='ThreadPool.*-Gone.*'"]
        self.assertEqual(dead_gtest_filters(lines, self.CI_NAMES), [])

    def test_ci_filter_parameterized_suite_needs_its_prefix(self):
        # GoogleTest names TEST_P tests Prefix/Suite.Test/N, so the bare
        # suite name selects nothing.
        live = ["run: ufc_tests --gtest_filter='Seeds/AdmgRandomized.*'"]
        self.assertEqual(dead_gtest_filters(live, self.CI_NAMES), [])
        dead = ["run: ufc_tests --gtest_filter='AdmgRandomized.*'"]
        self.assertEqual(len(dead_gtest_filters(dead, self.CI_NAMES)), 1)

    def test_collect_test_names_reads_every_macro(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = _write_tree(Path(tmp), {"tests/admm/test_x.cpp": (
                "TEST(Plain, A) {}\nTEST_F(Fixture, B) {}\n"
                "TEST_P(Param, C) {}\nTEST_P(Orphan, D) {}\n"
                "INSTANTIATE_TEST_SUITE_P(\n    Seeds, Param, Range(0, 3));\n"
                "// TESTS(NotATest, E)\n")})
            self.assertEqual(collect_test_names(tree),
                             {"Plain.A", "Fixture.B", "Seeds/Param.C/0"})

    def test_dot_contains_observed_edges(self):
        with tempfile.TemporaryDirectory() as tmp:
            dot = layer_graph_dot(_write_tree(Path(tmp), self.LAYERS))
            self.assertIn('"admm" -> "math" [label="1"];', dot)
            self.assertIn('"math" -> "util" [label="1"];', dot)

    def test_fresh_dot_passes_and_stale_dot_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = _write_tree(Path(tmp), self.LAYERS)
            dot_path = Path(tmp) / DOT_PATH
            dot_path.parent.mkdir(parents=True)
            dot_path.write_text(layer_graph_dot(tree))
            self.assertEqual(check_dot_stale(tree), [])
            dot_path.write_text("digraph stale {}\n")
            self.assertIn("stale", check_dot_stale(tree)[0][2])

    def test_error_format(self):
        self.assertEqual(str(Finding("src/a.cpp", 3, "rule-x", "msg")),
                         "src/a.cpp:3: [rule-x] msg")

    def test_exit_code_clean(self):
        self.assertEqual(self._report([])[0], 0)

    def test_exit_code_error(self):
        self.assertEqual(self._report([Finding("a", 1, "r", "m")])[0], 1)

    def test_findings_sorted_by_path_line(self):
        _, out = self._report([Finding("b.cpp", 2, "r", "m"),
                               Finding("a.cpp", 9, "r", "m")])
        self.assertTrue(out.splitlines()[0].startswith("a.cpp:9"))

    def test_json_round_trip_validates(self):
        doc = findings_json([Finding("a", 1, "r", "m"),
                             Finding("b", 2, "r", "m")])
        self.assertEqual(validate_findings_json(doc), [])
        self.assertEqual(doc["count"], 2)

    def test_json_written_to_disk(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            self._report([Finding("a", 1, "r", "m")], json_path=path)
            self.assertEqual(validate_findings_json(json.loads(
                path.read_text())), [])

    def test_validator_rejects_bad_schema(self):
        self.assertTrue(validate_findings_json({"schema": "nope"}))

    def test_validator_rejects_count_mismatch(self):
        doc = findings_json([Finding("a", 1, "r", "m")])
        doc["count"] = 7
        self.assertTrue(validate_findings_json(doc))

    def test_validator_rejects_bad_line(self):
        doc = findings_json([Finding("a", 1, "r", "m")])
        doc["findings"][0]["line"] = 0
        self.assertTrue(validate_findings_json(doc))

    def test_validator_rejects_unknown_keys(self):
        doc = findings_json([Finding("a", 1, "r", "m")])
        doc["findings"][0]["extra"] = True
        self.assertTrue(validate_findings_json(doc))

    def test_findings_serialize_to_valid_schema(self):
        findings = [f for f in analyze_files({
            "src/math/vec.hpp": '#include "admm/solver.hpp"\n',
            "src/admm/solver.hpp": "#pragma once\n"})
            if f.rule == "include-layering"]
        doc = findings_json(findings)
        self.assertEqual(validate_findings_json(doc), [])
        self.assertEqual(doc["count"], 1)

    def test_every_rule_is_documented(self):
        for rule, (_, summary) in RULES.items():
            self.assertTrue(summary, rule)

    def test_docs_table_matches_rule_table(self):
        lines = (REPO_ROOT / "docs/STATIC_ANALYSIS.md").read_text().splitlines()
        start = lines.index("| Rule | What / why |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            m = re.match(r"\| `([^`]+)` \|", line)
            rows.append(m.group(1) if m else line)
        self.assertEqual(sorted(rows), sorted(RULES))


def self_test() -> int:
    loader = unittest.defaultTestLoader
    suite = unittest.TestSuite([loader.loadTestsFromTestCase(RuleFixtureTests),
                                loader.loadTestsFromTestCase(ToolTests)])
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path, metavar="PATH",
                        help="print only the findings under these files or "
                             "directories (the whole tree is always analyzed)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="write the ufc-findings-v2 JSON report")
    parser.add_argument("--dot", type=Path, metavar="PATH",
                        help="write the observed src/ layer graph as "
                             "Graphviz dot")
    parser.add_argument("--self-test", action="store_true",
                        help="run the analyzer's test suite")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rules and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.list_rules:
        for rule, (_, summary) in RULES.items():
            print(f"{rule:28s} {summary}")
        return 0
    prefixes = []
    for path in args.paths:
        resolved = path.resolve()
        if not resolved.exists() or not resolved.is_relative_to(REPO_ROOT):
            print(f"ufc_lint: {path} is not a file or directory inside the "
                  f"repository ({REPO_ROOT})", file=sys.stderr)
            return EXIT_USAGE
        prefixes.append(resolved.relative_to(REPO_ROOT).as_posix())
    tree = build_tree(REPO_ROOT)
    if args.dot is not None:
        args.dot.write_text(layer_graph_dot(tree))
    findings = [f for f in analyze(tree)
                if not prefixes or any(p in (".", f.path) or
                                       f.path.startswith(p + "/")
                                       for p in prefixes)]
    return report(findings, json_path=args.json, checked=len(tree.files))


if __name__ == "__main__":
    sys.exit(main())

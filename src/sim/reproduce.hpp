// The paper's evaluation (§IV: Table I and Figs. 1–11), its ablations and
// the extension and robustness studies, rendered as named markdown blocks.
//
// This module is the one producer of every measured number in
// EXPERIMENTS.md and docs/ROBUSTNESS.md. A *section* solves once and fills
// one or more *blocks*: `week`, for example, runs the paper week through one
// compare_strategies call and fills the Fig. 3–8 and 11 blocks plus the
// queueing check. A document marks each block it shows,
//
//   <!-- ufc:generated NAME -->
//   ...the rendered block NAME...
//   <!-- /ufc:generated -->
//
// and rewrite_generated_blocks() replaces the text between the markers.
// `ufc_cli reproduce DOC.md...` applies it to documents in place, and the
// tier-1 test `Sections/Reproduce.*` checks that each committed document is
// a fixed point of it, so a drifted digit fails the suite. Every section is
// deterministic (fixed seeds, single-threaded solves), which makes a
// byte-for-byte check possible. Headings, the paper's values and the
// interpretation stay hand-written outside the markers.
#pragma once

#include <string>
#include <vector>

namespace ufc::sim {

/// One rendered block: the text between its markers, ending in '\n'.
struct RenderedBlock {
  std::string name;
  std::string text;
};

/// One figure's data series (written as `file`, a ufc_*.csv name), with
/// every cell already formatted the way CsvWriter formats it.
struct CsvSeries {
  CsvSeries(std::string file_name, std::vector<std::string> columns);

  std::string file;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Appends a numeric row, formatted with csv_number.
  void row(const std::vector<double>& cells);
  /// Appends a text label followed by numeric cells.
  void row(std::string label, const std::vector<double>& cells);
  /// Appends a row of preformatted cells.
  void row_strings(std::vector<std::string> cells);
};

/// What one section renders: its blocks and the series behind them.
struct SectionOutput {
  std::vector<RenderedBlock> blocks;
  std::vector<CsvSeries> series;
};

/// A named unit of the reproduction. `render` solves once and returns
/// exactly the blocks named in `blocks`, in that order.
struct ReproduceSection {
  std::string name;
  std::vector<std::string> blocks;
  SectionOutput (*render)();
};

/// Every section, in document order.
const std::vector<ReproduceSection>& reproduce_sections();

/// `block` between its markers, the way a document holds it (no newline
/// after the close marker).
std::string marked_block(const RenderedBlock& block);

/// Returns `markdown` with the text of every marked block named in
/// `rendered` replaced by the rendered text. Markers naming another
/// section's block keep their text, so one section can be checked alone.
/// Throws ContractViolation on a NAME no section renders, an open marker
/// without a close marker, a stray close marker, or a marker that does not
/// sit on its own line.
std::string rewrite_generated_blocks(
    const std::string& markdown, const std::vector<RenderedBlock>& rendered);

}  // namespace ufc::sim

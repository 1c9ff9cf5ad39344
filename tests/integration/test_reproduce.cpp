// The committed documents against the one producer of their numbers
// (sim/reproduce.hpp): EXPERIMENTS.md and docs/ROBUSTNESS.md must be fixed
// points of rewriting each section's rendered blocks, so a changed digit
// fails exactly the section that renders it. Regenerate both documents by
// running, from the repo root, the example_ufc_cli the build puts in
// build/examples/:
//
//   example_ufc_cli reproduce EXPERIMENTS.md docs/ROBUSTNESS.md
//
// The sections write no CSV here: ctest runs the instances as parallel
// processes that share one working directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/reproduce.hpp"
#include "util/contract.hpp"

namespace ufc::sim {
namespace {

const std::vector<std::string> kDocuments = {
    UFC_REPO_DIR "/EXPERIMENTS.md", UFC_REPO_DIR "/docs/ROBUSTNESS.md"};

std::string read_document(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> section_names() {
  std::vector<std::string> names;
  for (const auto& section : reproduce_sections())
    names.push_back(section.name);
  return names;
}

class Reproduce : public ::testing::TestWithParam<std::string> {};

TEST_P(Reproduce, CommittedBlocksMatchTheRenderedSection) {
  const auto& sections = reproduce_sections();
  const auto section = std::find_if(
      sections.begin(), sections.end(),
      [](const ReproduceSection& s) { return s.name == GetParam(); });
  ASSERT_NE(section, sections.end());
  const SectionOutput output = section->render();

  std::vector<std::string> rendered_names;
  for (const auto& block : output.blocks) rendered_names.push_back(block.name);
  EXPECT_EQ(rendered_names, section->blocks);

  std::vector<std::string> documents;
  for (const auto& path : kDocuments) documents.push_back(read_document(path));
  for (const auto& block : output.blocks) {
    const std::string open = "<!-- ufc:generated " + block.name + " -->\n";
    int placed = 0;
    for (const auto& text : documents)
      for (auto at = text.find(open); at != std::string::npos;
           at = text.find(open, at + 1))
        ++placed;
    EXPECT_EQ(placed, 1) << "block \"" << block.name
                         << "\" must sit in exactly one document";
  }
  for (std::size_t k = 0; k < documents.size(); ++k)
    EXPECT_EQ(rewrite_generated_blocks(documents[k], output.blocks),
              documents[k])
        << "section \"" << GetParam() << "\" drifted from " << kDocuments[k]
        << " (diff: - rendered, + committed); regenerate with "
           "example_ufc_cli reproduce EXPERIMENTS.md docs/ROBUSTNESS.md";
}

INSTANTIATE_TEST_SUITE_P(
    Sections, Reproduce, ::testing::ValuesIn(section_names()),
    [](const ::testing::TestParamInfo<std::string>& section) {
      return section.param;
    });

TEST(GeneratedBlocks, RewriteReplacesOnlyTheRenderedBlocks) {
  const std::string document =
      "# Title\n<!-- ufc:generated fig9 -->\nold 9\n<!-- /ufc:generated -->\n"
      "prose\n<!-- ufc:generated fig10 -->\nold 10\n<!-- /ufc:generated -->";
  const std::string expected =
      "# Title\n<!-- ufc:generated fig9 -->\nnew 9\n<!-- /ufc:generated -->\n"
      "prose\n<!-- ufc:generated fig10 -->\nold 10\n<!-- /ufc:generated -->";
  const std::vector<RenderedBlock> fig9 = {{"fig9", "new 9\n"}};
  EXPECT_EQ(rewrite_generated_blocks(document, fig9), expected);
  EXPECT_EQ(rewrite_generated_blocks(expected, fig9), expected);
  EXPECT_EQ(marked_block(fig9.front()),
            "<!-- ufc:generated fig9 -->\nnew 9\n<!-- /ufc:generated -->");
}

TEST(GeneratedBlocks, RewriteRejectsMalformedMarkers) {
  const std::vector<std::string> malformed = {
      // A name no section renders.
      "<!-- ufc:generated fig12 -->\nx\n<!-- /ufc:generated -->\n",
      // No close marker, and an open marker nested before the close.
      "<!-- ufc:generated fig9 -->\nx\n",
      "<!-- ufc:generated fig9 -->\n<!-- ufc:generated fig10 -->\nx\n"
      "<!-- /ufc:generated -->\n",
      // A close marker without an open marker.
      "x\n<!-- /ufc:generated -->\n",
      // Markers that do not sit on their own lines.
      "see <!-- ufc:generated fig9 -->\nx\n<!-- /ufc:generated -->\n",
      "<!-- ufc:generated fig9 --> x\n<!-- /ufc:generated -->\n",
      "<!-- ufc:generated fig9 -->\nx <!-- /ufc:generated -->\n",
  };
  for (const auto& document : malformed)
    EXPECT_THROW(rewrite_generated_blocks(document, {}), ContractViolation)
        << document;
}

}  // namespace
}  // namespace ufc::sim

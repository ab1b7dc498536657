#include <gtest/gtest.h>

#include "slog/preview.h"
#include "support/text.h"
#include "viz/ascii_render.h"
#include "viz/stats_viewer.h"
#include "viz/svg_render.h"

namespace ute {
namespace {

TimeSpaceModel sampleModel() {
  TimeSpaceModel m;
  m.title = "sample";
  m.kind = ViewKind::kThreadActivity;
  m.minTime = 0;
  m.maxTime = 1000;
  VizTimeline t0;
  t0.label = "n0.t0";
  t0.segments.push_back({1, 0, 500, 0, false});
  t0.segments.push_back({2, 500, 1000, 1, false});
  VizTimeline t1;
  t1.label = "n0.t1";
  t1.segments.push_back({1, 250, 750, 0, true});
  m.rows = {t0, t1};
  m.arrows.push_back({0, 1, 100, 600, 64});
  m.legend[1] = {"Running", 0x4c72b0};
  m.legend[2] = {"MPI_Send", 0xdd8452};
  return m;
}

TEST(AsciiRender, DrawsRowsGlyphsAndLegend) {
  const std::string out = renderAscii(sampleModel(), {.columns = 20});
  EXPECT_NE(out.find("n0.t0"), std::string::npos);
  EXPECT_NE(out.find("n0.t1"), std::string::npos);
  // First half of row 0 is Running ('r'), second half MPI_Send ('S').
  EXPECT_NE(out.find("rrrrrrrrrrSSSSSSSSSS"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("r=Running"), std::string::npos);
  EXPECT_NE(out.find("S=MPI_Send"), std::string::npos);
}

TEST(AsciiRender, DeeperSegmentsWinOverlaps) {
  TimeSpaceModel m = sampleModel();
  m.rows[0].segments.push_back({2, 0, 1000, 2, false});  // covers all
  const std::string out = renderAscii(m, {.columns = 10, .legend = false});
  EXPECT_NE(out.find("SSSSSSSSSS"), std::string::npos);
}

TEST(SvgRender, ProducesWellFormedDocument) {
  const std::string svg = renderSvg(sampleModel());
  EXPECT_EQ(svg.find("<svg"), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // Two segment rects with the legend colors, plus an arrow line.
  EXPECT_NE(svg.find("#4c72b0"), std::string::npos);
  EXPECT_NE(svg.find("#dd8452"), std::string::npos);
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_NE(svg.find("n0.t0"), std::string::npos);
  // Pseudo segments get a dashed outline.
  EXPECT_NE(svg.find("stroke-dasharray"), std::string::npos);
  // Time axis labels in seconds.
  EXPECT_NE(svg.find("s</text>"), std::string::npos);
}

TEST(SvgRender, EscapesXmlInLabels) {
  TimeSpaceModel m = sampleModel();
  m.legend[3] = {"a<b&c", 0x112233};
  m.rows[0].segments.push_back({3, 0, 10, 0, false});
  const std::string svg = renderSvg(m);
  EXPECT_EQ(svg.find("a<b&c"), std::string::npos);
  EXPECT_NE(svg.find("a&lt;b&amp;c"), std::string::npos);
}

SlogPreview samplePreview() {
  PreviewAccumulator acc(64, kMs);
  acc.add(1, 0, 20 * kMs);
  acc.add(2, 10 * kMs, 5 * kMs);
  return acc.snapshot({1, 2});
}

const std::vector<SlogStateDef> kSampleStates = {{1, "Running", 0x4c72b0},
                                                 {2, "MPI_Send", 0xdd8452}};

TEST(PreviewRender, AsciiAndSvg) {
  const SlogPreview p = samplePreview();
  const std::vector<SlogStateDef>& states = kSampleStates;
  const std::string ascii = renderPreviewAscii(p, states, 20);
  EXPECT_NE(ascii.find("Running"), std::string::npos);
  EXPECT_NE(ascii.find("MPI_Send"), std::string::npos);
  const std::string svg = renderPreviewSvg(p, states, 20);
  EXPECT_EQ(svg.find("<svg"), 0u);
  EXPECT_NE(svg.find("Running"), std::string::npos);
}

// Byte-exact pins of both renderers: the substring checks above would
// not notice a drift in how numbers and colours are formatted.
TEST(SvgRender, SampleModelBytesArePinned) {
  const std::string pinned = R"svg(<svg xmlns="http://www.w3.org/2000/svg" width="1200" height="130">
<rect x="0.00" y="0.00" width="1200.00" height="130.00" fill="#ffffff"/>
<text x="8.0" y="18.0" font-family="sans-serif" font-size="13" font-weight="bold">sample (thread-activity)</text>
<rect x="90.00" y="28.00" width="1100.00" height="20.00" fill="#f4f4f4"/>
<text x="4.0" y="43.4" font-family="sans-serif" font-size="10">n0.t0</text>
<rect x="90.00" y="29.00" width="550.00" height="18.00" fill="#4c72b0"/>
<rect x="640.00" y="32.00" width="550.00" height="12.00" fill="#dd8452"/>
<rect x="90.00" y="50.00" width="1100.00" height="20.00" fill="#ececec"/>
<text x="4.0" y="65.4" font-family="sans-serif" font-size="10">n0.t1</text>
<rect x="365.00" y="51.00" width="550.00" height="18.00" fill="#4c72b0" stroke="#333" stroke-dasharray="2,2"/>
<line x1="200.0" y1="39.0" x2="750.0" y2="61.0" stroke="#222" stroke-width="1"/>
<circle cx="750.0" cy="61.0" r="2.2" fill="#222"/>
<line x1="90.0" y1="76.0" x2="90.0" y2="82.0" stroke="#666"/>
<text x="78.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<line x1="200.0" y1="76.0" x2="200.0" y2="82.0" stroke="#666"/>
<text x="188.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<line x1="310.0" y1="76.0" x2="310.0" y2="82.0" stroke="#666"/>
<text x="298.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<line x1="420.0" y1="76.0" x2="420.0" y2="82.0" stroke="#666"/>
<text x="408.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<line x1="530.0" y1="76.0" x2="530.0" y2="82.0" stroke="#666"/>
<text x="518.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<line x1="640.0" y1="76.0" x2="640.0" y2="82.0" stroke="#666"/>
<text x="628.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<line x1="750.0" y1="76.0" x2="750.0" y2="82.0" stroke="#666"/>
<text x="738.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<line x1="860.0" y1="76.0" x2="860.0" y2="82.0" stroke="#666"/>
<text x="848.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<line x1="970.0" y1="76.0" x2="970.0" y2="82.0" stroke="#666"/>
<text x="958.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<line x1="1080.0" y1="76.0" x2="1080.0" y2="82.0" stroke="#666"/>
<text x="1068.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<line x1="1190.0" y1="76.0" x2="1190.0" y2="82.0" stroke="#666"/>
<text x="1178.0" y="94.0" font-family="sans-serif" font-size="9">0.000s</text>
<rect x="90.00" y="101.00" width="10.00" height="10.00" fill="#4c72b0"/>
<text x="104.0" y="110.0" font-family="sans-serif" font-size="10">Running</text>
<rect x="310.00" y="101.00" width="10.00" height="10.00" fill="#dd8452"/>
<text x="324.0" y="110.0" font-family="sans-serif" font-size="10">MPI_Send</text>
</svg>
)svg";
  EXPECT_EQ(renderSvg(sampleModel()), pinned);
}

TEST(PreviewRender, SampleSvgBytesArePinned) {
  const std::string pinned = R"svg(<svg xmlns="http://www.w3.org/2000/svg" width="1200" height="264">
<rect x="0.00" y="0.00" width="1200.00" height="264.00" fill="#ffffff"/>
<text x="8.0" y="18.0" font-family="sans-serif" font-size="13" font-weight="bold">preview: state time per bin</text>
<rect x="90.00" y="112.00" width="54.50" height="96.00" fill="#4c72b0"/>
<rect x="145.00" y="112.00" width="54.50" height="96.00" fill="#4c72b0"/>
<rect x="200.00" y="112.00" width="54.50" height="96.00" fill="#4c72b0"/>
<rect x="255.00" y="112.00" width="54.50" height="96.00" fill="#4c72b0"/>
<rect x="255.00" y="28.00" width="54.50" height="84.00" fill="#dd8452"/>
<rect x="310.00" y="112.00" width="54.50" height="96.00" fill="#4c72b0"/>
<rect x="310.00" y="46.00" width="54.50" height="66.00" fill="#dd8452"/>
<rect x="365.00" y="112.00" width="54.50" height="96.00" fill="#4c72b0"/>
<rect x="420.00" y="184.00" width="54.50" height="24.00" fill="#4c72b0"/>
<text x="78.0" y="228.0" font-family="sans-serif" font-size="9">0.0s</text>
<text x="188.0" y="228.0" font-family="sans-serif" font-size="9">0.0s</text>
<text x="298.0" y="228.0" font-family="sans-serif" font-size="9">0.0s</text>
<text x="408.0" y="228.0" font-family="sans-serif" font-size="9">0.0s</text>
<text x="518.0" y="228.0" font-family="sans-serif" font-size="9">0.0s</text>
<text x="628.0" y="228.0" font-family="sans-serif" font-size="9">0.0s</text>
<text x="738.0" y="228.0" font-family="sans-serif" font-size="9">0.0s</text>
<text x="848.0" y="228.0" font-family="sans-serif" font-size="9">0.0s</text>
<text x="958.0" y="228.0" font-family="sans-serif" font-size="9">0.1s</text>
<text x="1068.0" y="228.0" font-family="sans-serif" font-size="9">0.1s</text>
<text x="1178.0" y="228.0" font-family="sans-serif" font-size="9">0.1s</text>
<rect x="90.00" y="241.00" width="10.00" height="10.00" fill="#4c72b0"/>
<text x="104.0" y="250.0" font-family="sans-serif" font-size="10">Running</text>
<rect x="310.00" y="241.00" width="10.00" height="10.00" fill="#dd8452"/>
<text x="324.0" y="250.0" font-family="sans-serif" font-size="10">MPI_Send</text>
</svg>
)svg";
  EXPECT_EQ(renderPreviewSvg(samplePreview(), kSampleStates, 20), pinned);
}

TEST(StatsViewer, HeatmapAsciiShowsGapsForEmptyBins) {
  StatsTable table;
  table.name = "interesting_by_node_bin";
  table.headers = {"node", "bin", "sum(duration)"};
  table.rows = {{"0", "0", "1.0"}, {"0", "1", "0.5"}, {"0", "5", "1.0"},
                {"1", "0", "0.25"}, {"1", "5", "0.75"}};
  const std::string out =
      renderStatsHeatmapAscii(table, "bin", "node", "sum(duration)");
  // Bins 2..4 are filled in as blank columns (integer gap filling).
  EXPECT_NE(out.find("|"), std::string::npos);
  const auto lines = splitString(out, '\n');
  ASSERT_GE(lines.size(), 3u);
  // Row "0": intensity, intensity, 3 blanks, intensity.
  const std::string& row0 = lines[1];
  const auto bar = row0.substr(row0.find('|') + 1, 6);
  EXPECT_NE(bar[0], ' ');
  EXPECT_NE(bar[1], ' ');
  EXPECT_EQ(bar[2], ' ');
  EXPECT_EQ(bar[3], ' ');
  EXPECT_EQ(bar[4], ' ');
  EXPECT_NE(bar[5], ' ');
}

TEST(StatsViewer, HeatmapSvgRendersCells) {
  StatsTable table;
  table.name = "t";
  table.headers = {"x", "y", "v"};
  table.rows = {{"0", "0", "2.0"}, {"1", "0", "1.0"}};
  const std::string svg = renderStatsHeatmapSvg(table, "x", "y", "v");
  EXPECT_EQ(svg.find("<svg"), 0u);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("y=0"), std::string::npos);
}

TEST(StatsViewer, UnknownColumnThrows) {
  StatsTable table;
  table.name = "t";
  table.headers = {"a", "b"};
  table.rows = {{"1", "2"}};
  EXPECT_THROW(renderStatsHeatmapAscii(table, "a", "b", "missing"),
               UsageError);
}

}  // namespace
}  // namespace ute

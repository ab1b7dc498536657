#include "viz/svg_render.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "slog/preview.h"
#include "support/text.h"

namespace ute {

namespace {

// Every helper appends straight into the document: numbers and colours
// are formatted into a stack buffer, never into a temporary string.

void appendRgb(std::string& svg, std::uint32_t rgb) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "#%06x", rgb & 0xffffff);
  svg += buf;
}

void appendEscapedXml(std::string& svg, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '<': svg += "&lt;"; break;
      case '>': svg += "&gt;"; break;
      case '&': svg += "&amp;"; break;
      case '"': svg += "&quot;"; break;
      default: svg.push_back(c);
    }
  }
}

void rect(std::string& svg, double x, double y, double w, double h,
          std::uint32_t fill, std::string_view extra = {}) {
  svg += "<rect x=\"";
  appendFixed(svg, x, 2);
  svg += "\" y=\"";
  appendFixed(svg, y, 2);
  svg += "\" width=\"";
  appendFixed(svg, std::max(w, 0.5), 2);
  svg += "\" height=\"";
  appendFixed(svg, h, 2);
  svg += "\" fill=\"";
  appendRgb(svg, fill);
  svg += '"';
  svg += extra;
  svg += "/>\n";
}

void text(std::string& svg, double x, double y, std::string_view s,
          int size = 11, std::string_view extra = {}) {
  svg += "<text x=\"";
  appendFixed(svg, x, 1);
  svg += "\" y=\"";
  appendFixed(svg, y, 1);
  svg += "\" font-family=\"sans-serif\" font-size=\"";
  svg += std::to_string(size);
  svg += '"';
  svg += extra;
  svg += '>';
  appendEscapedXml(svg, s);
  svg += "</text>\n";
}

/// "<line x1=.. y1=.. x2=.. y2=.." with one-decimal coordinates; the
/// caller appends the attributes and the closing "/>".
void lineStart(std::string& svg, double x1, double y1, double x2, double y2) {
  svg += "<line x1=\"";
  appendFixed(svg, x1, 1);
  svg += "\" y1=\"";
  appendFixed(svg, y1, 1);
  svg += "\" x2=\"";
  appendFixed(svg, x2, 1);
  svg += "\" y2=\"";
  appendFixed(svg, y2, 1);
  svg += '"';
}

/// An axis label: `v` seconds with `digits` places and an "s" suffix.
void secondsLabel(std::string& svg, double x, double y, double v,
                  int digits) {
  char label[64];
  std::snprintf(label, sizeof label, "%.*fs", digits, v);
  text(svg, x, y, label, 9);
}

std::string svgOpen(int width, int height) {
  std::string svg = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"";
  svg += std::to_string(width);
  svg += "\" height=\"";
  svg += std::to_string(height);
  svg += "\">\n";
  return svg;
}

}  // namespace

std::string renderSvg(const TimeSpaceModel& model, const SvgOptions& options) {
  const int chartLeft = options.labelWidth;
  const int chartWidth = options.width - chartLeft - 10;
  const int topMargin = 28;
  const int axisHeight = 24;
  const int legendRows =
      options.legend
          ? static_cast<int>((model.legend.size() + 4) / 5)
          : 0;
  const int legendHeight = legendRows * 18 + (legendRows > 0 ? 8 : 0);
  const int height = topMargin +
                     static_cast<int>(model.rows.size()) * options.rowHeight +
                     axisHeight + legendHeight + 8;

  const double tMin = static_cast<double>(model.minTime);
  const double tMax = static_cast<double>(std::max(model.maxTime,
                                                   model.minTime + 1));
  const auto xOf = [&](Tick t) {
    return chartLeft + (static_cast<double>(t) - tMin) / (tMax - tMin) *
                           chartWidth;
  };

  std::string svg = svgOpen(options.width, height);
  rect(svg, 0, 0, options.width, height, 0xffffff);
  text(svg, 8, 18, model.title + " (" + viewKindName(model.kind) + ")", 13,
       " font-weight=\"bold\"");

  // Row backgrounds, labels and segments.
  for (std::size_t r = 0; r < model.rows.size(); ++r) {
    const double y = topMargin + static_cast<double>(r) * options.rowHeight;
    rect(svg, chartLeft, y, chartWidth, options.rowHeight - 2,
         r % 2 == 0 ? 0xf4f4f4 : 0xececec);
    text(svg, 4, y + options.rowHeight * 0.7, model.rows[r].label, 10);
    for (const VizSegment& seg : model.rows[r].segments) {
      const double x0 = xOf(seg.start);
      const double x1 = xOf(seg.end);
      const double inset = std::min<double>(seg.depth * 3.0,
                                            options.rowHeight / 3.0);
      const auto legendIt = model.legend.find(seg.colorKey);
      const std::uint32_t rgb =
          legendIt != model.legend.end() ? legendIt->second.second : 0x888888;
      rect(svg, x0, y + 1 + inset, x1 - x0, options.rowHeight - 4 - 2 * inset,
           rgb, seg.pseudo ? " stroke=\"#333\" stroke-dasharray=\"2,2\"" : "");
    }
  }

  // Message arrows.
  for (const VizArrow& a : model.arrows) {
    const double x0 = xOf(a.fromTime);
    const double x1 = xOf(a.toTime);
    const double y0 = topMargin + (a.fromRow + 0.5) * options.rowHeight;
    const double y1 = topMargin + (a.toRow + 0.5) * options.rowHeight;
    lineStart(svg, x0, y0, x1, y1);
    svg += " stroke=\"#222\" stroke-width=\"1\"/>\n<circle cx=\"";
    appendFixed(svg, x1, 1);
    svg += "\" cy=\"";
    appendFixed(svg, y1, 1);
    svg += "\" r=\"2.2\" fill=\"#222\"/>\n";
  }

  // Time axis (seconds).
  const double axisY =
      topMargin + static_cast<double>(model.rows.size()) * options.rowHeight +
      14;
  for (int i = 0; i <= 10; ++i) {
    const double frac = i / 10.0;
    const double x = chartLeft + frac * chartWidth;
    const double tSec = (tMin + frac * (tMax - tMin)) / 1e9;
    lineStart(svg, x, axisY - 10, x, axisY - 4);
    svg += " stroke=\"#666\"/>\n";
    secondsLabel(svg, x - 12, axisY + 8, tSec, 3);
  }

  // Legend.
  if (options.legend) {
    double lx = chartLeft;
    double ly = axisY + 24;
    int col = 0;
    for (const auto& [key, entry] : model.legend) {
      rect(svg, lx, ly - 9, 10, 10, entry.second);
      text(svg, lx + 14, ly, entry.first, 10);
      lx += chartWidth / 5.0;
      if (++col % 5 == 0) {
        lx = chartLeft;
        ly += 18;
      }
    }
  }

  svg += "</svg>\n";
  return svg;
}

std::string renderPreviewSvg(const SlogPreview& preview,
                             const std::vector<SlogStateDef>& states,
                             std::uint32_t bins, const SvgOptions& options) {
  const SlogPreview p = rebinPreview(preview, bins);
  const int chartLeft = options.labelWidth;
  const int chartWidth = options.width - chartLeft - 10;
  const int chartHeight = 180;
  const int legendRows = static_cast<int>((states.size() + 4) / 5);
  const int height = 28 + chartHeight + 30 + legendRows * 18 + 8;

  // Column totals scale the stacked bars.
  double maxTotal = 1.0;
  for (std::uint32_t b = 0; b < p.bins; ++b) {
    double total = 0;
    for (const auto& row : p.perStateBinTime) total += row[b];
    maxTotal = std::max(maxTotal, total);
  }

  std::string svg = svgOpen(options.width, height);
  rect(svg, 0, 0, options.width, height, 0xffffff);
  text(svg, 8, 18, "preview: state time per bin", 13, " font-weight=\"bold\"");

  const double binW = static_cast<double>(chartWidth) / p.bins;
  for (std::uint32_t b = 0; b < p.bins; ++b) {
    double y = 28.0 + chartHeight;
    for (std::size_t s = 0; s < p.perStateBinTime.size(); ++s) {
      const double v = p.perStateBinTime[s][b];
      if (v <= 0) continue;
      const double h = v / maxTotal * chartHeight;
      y -= h;
      rect(svg, chartLeft + b * binW, y, binW - 0.5, h, states[s].rgb);
    }
  }

  const double axisY = 28.0 + chartHeight + 14;
  const double totalSec =
      static_cast<double>(p.binWidth) * p.bins / 1e9;
  for (int i = 0; i <= 10; ++i) {
    const double frac = i / 10.0;
    secondsLabel(svg, chartLeft + frac * chartWidth - 12, axisY + 6,
                 frac * totalSec, 1);
  }

  double lx = chartLeft;
  double ly = axisY + 28;
  int col = 0;
  for (const SlogStateDef& s : states) {
    rect(svg, lx, ly - 9, 10, 10, s.rgb);
    text(svg, lx + 14, ly, s.name, 10);
    lx += chartWidth / 5.0;
    if (++col % 5 == 0) {
      lx = chartLeft;
      ly += 18;
    }
  }
  svg += "</svg>\n";
  return svg;
}

}  // namespace ute

#include "exp/reporting.h"

#include <algorithm>
#include <cstdio>

#include "sim/log.h"

namespace heracles::exp {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
}

void
Table::AddRow(std::vector<std::string> cells)
{
    HERACLES_CHECK_MSG(cells.size() == headers_.size(),
                       "row width " << cells.size() << " != header width "
                                    << headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::Print(std::ostream& os) const
{
    std::vector<size_t> width(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c) {
        width[c] = headers_[c].size();
        for (const auto& row : rows_) {
            width[c] = std::max(width[c], row[c].size());
        }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            os << row[c];
            for (size_t pad = row[c].size(); pad < width[c]; ++pad) {
                os << ' ';
            }
        }
        os << '\n';
    };
    print_row(headers_);
    size_t total = headers_.size() > 0 ? 2 * (headers_.size() - 1) : 0;
    for (size_t w : width) total += w;
    os << std::string(total, '-') << '\n';
    for (const auto& row : rows_) print_row(row);
}

std::string
FormatPct(double fraction, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.*f%%", decimals, fraction * 100.0);
    return buf;
}

std::string
FormatTailFrac(double tail_frac_slo)
{
    if (tail_frac_slo > 3.0) return ">300%";
    return FormatPct(tail_frac_slo);
}

std::string
FormatDouble(double v, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return buf;
}

void
PrintBanner(const std::string& title, std::ostream& os)
{
    os << "\n=== " << title << " ===\n\n";
}

}  // namespace heracles::exp

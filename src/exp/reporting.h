/**
 * @file
 * Table formatting for bench output: aligned text tables (the figures'
 * rows/series) and CSV for downstream plotting.
 */
#ifndef HERACLES_EXP_REPORTING_H
#define HERACLES_EXP_REPORTING_H

#include <iostream>
#include <string>
#include <vector>

namespace heracles::exp {

/** A simple text table with aligned columns. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void AddRow(std::vector<std::string> cells);

    /** Prints with space-aligned columns. */
    void Print(std::ostream& os = std::cout) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** "87%" from 0.87. */
std::string FormatPct(double fraction, int decimals = 0);

/**
 * Latency as % of SLO, capped like the paper's figure: values above 3.0
 * print as ">300%".
 */
std::string FormatTailFrac(double tail_frac_slo);

/** Fixed-precision double. */
std::string FormatDouble(double v, int decimals = 2);

/** Prints a section banner for bench output. */
void PrintBanner(const std::string& title, std::ostream& os = std::cout);

}  // namespace heracles::exp

#endif  // HERACLES_EXP_REPORTING_H

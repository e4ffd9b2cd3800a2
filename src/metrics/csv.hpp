// CSV import/export for MetricStore, for offline analysis and plotting.
#pragma once

#include <iosfwd>
#include <string>

#include "metrics/store.hpp"

namespace hpas::metrics {

/// Writes a wide CSV: first column "timestamp", one column per metric
/// (full "metric::sampler" names), one row per collection epoch. All series
/// are expected to share timestamps (the collector guarantees this);
/// missing values are left empty.
void write_csv(std::ostream& os, const MetricStore& store);

/// Convenience wrapper publishing the CSV at `path` through
/// faultline::write_file_atomic (output domain): a failure throws
/// SystemError and leaves any old file unchanged, with no `.tmp` behind.
void write_csv_file(const std::string& path, const MetricStore& store);

}  // namespace hpas::metrics

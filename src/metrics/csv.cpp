#include "metrics/csv.hpp"

#include <map>
#include <ostream>
#include <sstream>

#include "faultline/durable.hpp"

namespace hpas::metrics {

void write_csv(std::ostream& os, const MetricStore& store) {
  const auto ids = store.metric_ids();
  os << "timestamp";
  for (const auto& id : ids) os << ',' << id.full_name();
  os << '\n';

  // Union of all timestamps, then per-series cursors.
  std::map<double, std::size_t> stamp_rows;
  for (const auto& id : ids) {
    const auto& ts = store.series(id);
    for (std::size_t i = 0; i < ts.size(); ++i) stamp_rows.emplace(ts.timestamp_at(i), 0);
  }
  std::vector<std::size_t> cursor(ids.size(), 0);
  for (const auto& [stamp, unused] : stamp_rows) {
    os << stamp;
    for (std::size_t c = 0; c < ids.size(); ++c) {
      const auto& ts = store.series(ids[c]);
      os << ',';
      if (cursor[c] < ts.size() && ts.timestamp_at(cursor[c]) == stamp) {
        os << ts.value_at(cursor[c]);
        ++cursor[c];
      }
    }
    os << '\n';
  }
}

void write_csv_file(const std::string& path, const MetricStore& store) {
  std::ostringstream out;
  write_csv(out, store);
  faultline::write_file_atomic(faultline::Domain::kOutput, path, out.str());
}

}  // namespace hpas::metrics

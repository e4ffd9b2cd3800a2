#include "common.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/peak_rss.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  hpas::Json entry = hpas::Json::object();
  entry.set("name", name);
  entry.set("ok", ok);
  entry.set("detail", detail);
  checks.push_back(std::move(entry));
}

bool Report::all_ok() const {
  for (const hpas::Json& c : checks.as_array())
    if (!c.find("ok")->as_bool()) return false;
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw hpas::SystemError("perfbench: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (ec) throw hpas::SystemError("perfbench: cannot remove " + path);
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) throw hpas::SystemError("perfbench: cannot create " + path);
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

std::string first_difference(const std::string& a, const std::string& b,
                             const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    std::error_code ec;
    if (!std::filesystem::is_regular_file(b + "/" + name, ec)) return name;
    if (read_file(a + "/" + name) != read_file(b + "/" + name)) return name;
  }
  return {};
}

double peak_rss_mib() {
  return static_cast<double>(hpas::peak_rss_bytes()) / (1024.0 * 1024.0);
}

void TimingSink::on_sample(const hpas::metrics::MetricId& id,
                           double timestamp, double value) {
  if (samples_++ == 0) first_ = Clock::now();
  if (inner_ == nullptr) return;
  const Clock::time_point t0 = Clock::now();
  inner_->on_sample(id, timestamp, value);
  inner_s_ += seconds_between(t0, Clock::now());
}

}  // namespace perfbench

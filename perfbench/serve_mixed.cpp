// serve_mixed: an in-process experiment server under an open-loop mix of
// cache hits, fresh short voltrino runs and coalesced duplicates. Hits
// bypass the engine entirely, so an engine speed-up moves cold latency
// and leaves hit latency flat; reads beside fsync'd writes on one cache
// expose a store change that helps one path and hurts the other.
//
// Set-up: a data directory is populated with kKnownKeys results through a
// first server (their result frames are the reference bytes), then every
// measured server starts on a copy of it, so start-up replays the journal
// and revalidates the spool.
//
// Load: one generator thread multiplexes kConnections client connections
// and sends on a fixed schedule (one slot every 1/rate seconds, whatever
// the server does), timing each submission from its due time. A coalesce
// slot sends one fresh spec on every connection at once; the before_run
// hook holds that run until every duplicate is acknowledged, so the
// duplicates always coalesce and the counts repeat exactly at a seed.
#include <poll.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "common.hpp"
#include "thermometer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "runner/thread_pool.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace perfbench {
namespace {

using hpas::Json;

constexpr std::size_t kKnownKeys = 128;
constexpr int kConnections = 2;
constexpr int kMaxWorkers = 3;
/// Offered slots per second; with the mix below the pool runs about 30%
/// busy on a 4-hw-thread box (README.md says why not more).
constexpr double kRatePerS = 250.0;
constexpr double kHitShare = 0.6;
constexpr double kFreshShare = 0.3;  // the rest coalesce
constexpr int kSetupRepeats = 9;
/// Slots sent before measuring starts: the first seconds of a fresh
/// daemon (cold page cache, growing spool) are not what a long-running
/// server shows. They are checked like any other, but not timed.
constexpr double kWarmupS = 2.0;
constexpr double kGateTimeoutS = 10.0;
constexpr double kDrainTimeoutS = 60.0;

const char* const kApps[] = {"CoMD", "milc", "miniAMR", "sw4lite"};
const char* const kAnomalies[] = {"none",   "cpuoccupy", "cachecopy",
                                  "membw",  "memleak",   "iometadata"};

enum class Kind { kHit, kFresh, kCoalesce };

int worker_count() {
  const int hw = hpas::runner::WorkStealingPool::default_thread_count();
  return std::clamp(hw - 1, 1, kMaxWorkers);
}

hpas::runner::ScenarioSpec short_spec(hpas::Rng& rng, std::string name) {
  hpas::runner::ScenarioSpec spec;
  spec.name = std::move(name);
  spec.system = "voltrino";
  spec.app = kApps[rng.next_below(std::size(kApps))];
  spec.anomaly = kAnomalies[rng.next_below(std::size(kAnomalies))];
  spec.intensity = rng.uniform(0.5, 1.0);
  spec.duration_s = static_cast<double>(rng.uniform_int(300, 600));
  // Coarse sampling keeps each result's CSV, and so the spool bytes every
  // insert writes and fsyncs, small beside the engine work.
  spec.sample_period_s = 5.0;
  spec.seed = rng.next();
  return spec;
}

struct Slot {
  Kind kind = Kind::kHit;
  int conn = 0;
  std::size_t spec = 0;  ///< index into Schedule::specs
};

/// Everything the generator sends, drawn from the seed up front.
struct Schedule {
  std::vector<hpas::runner::ScenarioSpec> specs;  ///< known keys first
  std::vector<Slot> slots;
};

Schedule make_schedule(std::uint64_t seed, std::size_t slots) {
  hpas::Rng rng(hpas::runner::derive_scenario_seed(seed, 0x53525645ULL));
  Schedule s;
  for (std::size_t i = 0; i < kKnownKeys; ++i)
    s.specs.push_back(short_spec(rng, "known-" + std::to_string(i)));
  for (std::size_t i = 0; i < slots; ++i) {
    Slot slot;
    const double u = rng.uniform01();
    slot.conn = static_cast<int>(rng.next_below(kConnections));
    if (u < kHitShare) {
      slot.kind = Kind::kHit;
      slot.spec = rng.next_below(kKnownKeys);
    } else {
      slot.kind = u < kHitShare + kFreshShare ? Kind::kFresh : Kind::kCoalesce;
      slot.spec = s.specs.size();
      s.specs.push_back(short_spec(
          rng, (slot.kind == Kind::kFresh ? "fresh-" : "co-") +
                   std::to_string(i)));
    }
    s.slots.push_back(slot);
  }
  return s;
}

/// A result frame without its per-request "id": the bytes every waiter
/// of one key must agree on.
std::string canonical(Json frame) {
  frame.set("id", Json(std::uint64_t{0}));
  return frame.dump();
}

hpas::server::ServerOptions server_options(const std::string& data_dir,
                                           int workers) {
  hpas::server::ServerOptions options;
  options.data_dir = data_dir;
  options.socket_path = data_dir + "/hpas.sock";
  options.threads = workers;
  return options;
}

/// Runs the known specs through a first server; returns their result
/// frames by scenario name.
std::map<std::string, std::string> populate(const Schedule& schedule,
                                            const std::string& data_dir,
                                            int workers) {
  std::map<std::string, std::string> frames;
  hpas::server::Server server(server_options(data_dir, workers));
  server.start();
  hpas::server::Client client =
      hpas::server::Client::connect(data_dir + "/hpas.sock");
  constexpr std::size_t kWindow = 32;  // under the admission capacity
  for (std::size_t first = 0; first < kKnownKeys; first += kWindow) {
    const std::size_t last = std::min(first + kWindow, kKnownKeys);
    for (std::size_t i = first; i < last; ++i)
      client.submit(i, schedule.specs[i]);
    for (std::size_t i = first; i < last; ++i) {
      const Json frame = client.wait_result(i);
      if (frame.string_or("type", "") != "result" ||
          frame.string_or("status", "") != "done")
        throw hpas::SystemError("perfbench: populating the cache failed");
      frames[frame.string_or("scenario", "")] = canonical(frame);
    }
  }
  client.close();
  server.stop();
  return frames;
}

/// Holds coalesce runs in before_run until every duplicate was
/// acknowledged; records before_run times when tracing.
class RunGate {
 public:
  explicit RunGate(bool record) : record_(record) {}

  void before_run(const hpas::runner::ScenarioSpec& spec) {
    std::unique_lock<std::mutex> lock(mu_);
    if (spec.name.rfind("co-", 0) == 0) {
      const bool released = cv_.wait_for(
          lock, std::chrono::duration<double>(kGateTimeoutS),
          [&] { return acks_[spec.name] >= kConnections; });
      if (!released) timed_out_ = true;
    }
    // The run starts when the hold releases; the hold is queue wait.
    if (record_) started_[spec.name] = Clock::now();
  }

  void acknowledged(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    if (++acks_[name] >= kConnections) cv_.notify_all();
  }

  bool timed_out() {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_out_;
  }
  std::map<std::string, Clock::time_point> started() {
    std::lock_guard<std::mutex> lock(mu_);
    return started_;
  }

 private:
  const bool record_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, int> acks_;
  std::map<std::string, Clock::time_point> started_;
  bool timed_out_ = false;
};

struct Submission {
  std::size_t slot = 0;
  Kind kind = Kind::kHit;
  std::string name;
  Clock::time_point due{}, sent{}, acked{}, done{};
  bool has_ack = false, cached = false, ok = false;
};

struct PassResult {
  double start_s = 0;  ///< Server::start(), cache restore included
  double wall_s = 0;   ///< start through the last result and stop
  std::vector<Submission> subs;
  std::vector<double> lag_ms;  ///< per slot: send time - due time
  std::map<std::string, std::string> frames;  ///< first frame per key
  std::uint64_t mismatched = 0;  ///< waiters whose frame differed
  Json status;
  bool gate_timed_out = false;
  bool drained = true;
  std::map<std::string, Clock::time_point> started;
};

PassResult run_pass(const Schedule& schedule,
                    const std::map<std::string, std::string>& known,
                    const std::string& data_dir, int workers, bool traced) {
  PassResult out;
  out.frames = known;
  RunGate gate(traced);
  hpas::server::ServerOptions options = server_options(data_dir, workers);
  options.before_run = [&gate](const hpas::runner::ScenarioSpec& spec) {
    gate.before_run(spec);
  };
  const Clock::time_point t0 = Clock::now();
  hpas::server::Server server(std::move(options));
  server.start();
  out.start_s = seconds_between(t0, Clock::now());

  std::vector<hpas::server::Client> clients;
  for (int c = 0; c < kConnections; ++c)
    clients.push_back(
        hpas::server::Client::connect(data_dir + "/hpas.sock"));
  std::vector<pollfd> fds;
  for (const hpas::server::Client& c : clients)
    fds.push_back({c.fd(), POLLIN, 0});

  std::size_t pending = 0;
  const auto handle = [&](const Json& frame) {
    const std::string type = frame.string_or("type", "");
    if (type == "status") {
      out.status = frame;
      return;
    }
    const auto id = static_cast<std::size_t>(frame.number_or("id", 0));
    if (id >= out.subs.size()) return;
    Submission& sub = out.subs[id];
    const Clock::time_point now = Clock::now();
    if (type == "accepted") {
      sub.acked = now;
      sub.has_ack = true;
      sub.cached = frame.find("cached") != nullptr &&
                   frame.find("cached")->as_bool();
      if (sub.kind == Kind::kCoalesce) gate.acknowledged(sub.name);
      return;
    }
    // result, busy, draining and error frames all end the submission; a
    // refused duplicate must not leave its twin held at the gate.
    if (sub.kind == Kind::kCoalesce && !sub.has_ack)
      gate.acknowledged(sub.name);
    sub.done = now;
    --pending;
    if (type != "result" || frame.string_or("status", "") != "done") return;
    sub.ok = true;
    const std::string bytes = canonical(frame);
    const auto [it, inserted] = out.frames.emplace(sub.name, bytes);
    if (!inserted && it->second != bytes) ++out.mismatched;
  };
  // Reads every frame that arrives before `until`.
  const auto pump = [&](Clock::time_point until) {
    while (true) {
      const double left = seconds_between(Clock::now(), until);
      timespec ts{};
      if (left > 0) {
        ts.tv_sec = static_cast<time_t>(left);
        ts.tv_nsec = static_cast<long>(
            (left - static_cast<double>(ts.tv_sec)) * 1e9);
      }
      const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (rc < 0 && errno == EINTR) continue;
      if (rc < 0) throw hpas::SystemError("perfbench: ppoll failed");
      if (rc == 0) return;
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Json frame;
        if (!clients[c].recv(frame))
          throw hpas::SystemError("perfbench: server closed a connection");
        handle(frame);
      }
    }
  };

  const double period = 1.0 / kRatePerS;
  const Clock::time_point begin = Clock::now() + std::chrono::milliseconds(20);
  out.subs.reserve(schedule.slots.size() * kConnections);
  for (std::size_t i = 0; i < schedule.slots.size(); ++i) {
    const Slot& slot = schedule.slots[i];
    const Clock::time_point due =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(period *
                                                  static_cast<double>(i)));
    pump(due);
    const hpas::runner::ScenarioSpec& spec = schedule.specs[slot.spec];
    const Clock::time_point sent = Clock::now();
    out.lag_ms.push_back(seconds_between(due, sent) * 1e3);
    const int copies = slot.kind == Kind::kCoalesce ? kConnections : 1;
    for (int k = 0; k < copies; ++k) {
      Submission sub;
      sub.slot = i;
      sub.kind = slot.kind;
      sub.name = spec.name;
      sub.due = due;
      sub.sent = Clock::now();
      const std::size_t id = out.subs.size();
      out.subs.push_back(sub);
      ++pending;
      clients[static_cast<std::size_t>(
                  slot.kind == Kind::kCoalesce ? k : slot.conn)]
          .submit(id, spec);
    }
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDrainTimeoutS));
  while (pending > 0 && Clock::now() < deadline)
    pump(std::min(deadline, Clock::now() + std::chrono::milliseconds(100)));
  out.drained = pending == 0;
  clients.front().request_status();
  while (out.status.find("type") == nullptr && Clock::now() < deadline)
    pump(std::min(deadline, Clock::now() + std::chrono::milliseconds(100)));
  for (hpas::server::Client& c : clients) c.close();
  server.stop();
  out.wall_s = seconds_between(t0, Clock::now());
  out.gate_timed_out = gate.timed_out();
  out.started = gate.started();
  return out;
}

double measured_lag_p99(const PassResult& pass, std::size_t warmup) {
  return quantile(std::vector<double>(
                      pass.lag_ms.begin() + static_cast<std::ptrdiff_t>(warmup),
                      pass.lag_ms.end()),
                  0.99);
}

double status_count(const PassResult& pass, const char* name) {
  return pass.status.number_or(name, -1.0);
}

/// What the server's status op must count after a pass of `schedule`:
/// every hit slot a cache hit, every fresh and coalesce slot one run,
/// every extra copy of a coalesce slot one coalesced waiter.
void check_counts(Report& report, const std::string& name,
                  const Schedule& schedule, const PassResult& pass) {
  std::uint64_t hits = 0, runs = 0, duplicates = 0;
  for (const Slot& slot : schedule.slots) {
    if (slot.kind == Kind::kHit) {
      ++hits;
    } else {
      ++runs;
      if (slot.kind == Kind::kCoalesce) duplicates += kConnections - 1;
    }
  }
  const std::pair<const char*, std::uint64_t> want[] = {
      {"restored", kKnownKeys}, {"cache_hits", hits},
      {"executed", runs},       {"coalesced", duplicates},
      {"busy_rejected", 0},     {"insert_errors", 0}};
  bool ok = true;
  std::string detail;
  for (const auto& [field, expected] : want) {
    const double got = status_count(pass, field);
    ok = ok && got == static_cast<double>(expected);
    detail += std::string(detail.empty() ? "" : ", ") + field + " " +
              std::to_string(static_cast<std::int64_t>(got)) + "/" +
              std::to_string(expected);
  }
  report.check(name, ok, "status count/expected: " + detail);
}

void copy_tree(const std::string& from, const std::string& to) {
  remove_tree(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

}  // namespace

Report run_serve_mixed(const Args& args) {
  Thermometer thermometer(1);
  Report report;
  const int workers = worker_count();
  // A traced run makes an untraced and a traced pass in the same time.
  const double pass_s = args.trace ? args.seconds / 2 : args.seconds;
  const auto warmup = static_cast<std::size_t>(kRatePerS * kWarmupS);
  const auto slots = warmup + static_cast<std::size_t>(kRatePerS * pass_s);
  const Schedule schedule = make_schedule(args.seed, slots);
  report.config.set("workers", workers);
  report.config.set("connections", kConnections);
  report.config.set("offered_slots_per_s", kRatePerS);
  report.config.set("mix_hit_fresh_coalesce",
                    std::to_string(kHitShare) + "/" +
                        std::to_string(kFreshShare) + "/" +
                        std::to_string(1.0 - kHitShare - kFreshShare));
  report.config.set("known_keys", Json(static_cast<std::uint64_t>(kKnownKeys)));
  report.config.set("slots", Json(static_cast<std::uint64_t>(slots)));
  report.config.set("warmup_slots", Json(static_cast<std::uint64_t>(warmup)));
  report.config.set("latency_limit_ms", args.latency_limit_ms);

  const std::string base_dir = args.workdir + "/serve-base";
  remove_tree(base_dir);
  make_dirs(base_dir);
  const std::map<std::string, std::string> known =
      populate(schedule, base_dir, workers);
  std::filesystem::remove(base_dir + "/hpas.sock");

  // Set-up: Server::start() on a copy of the populated directory.
  std::vector<double> setups;
  const std::string probe_dir = args.workdir + "/serve-setup";
  thermometer.pass();
  for (int i = 0; i < kSetupRepeats; ++i) {
    copy_tree(base_dir, probe_dir);
    const Clock::time_point t0 = Clock::now();
    hpas::server::Server server(server_options(probe_dir, workers));
    server.start();
    setups.push_back(seconds_between(t0, Clock::now()));
    server.stop();
    thermometer.pass();
  }
  remove_tree(probe_dir);
  const double setup_s = median(setups);

  const std::string pass_dir = args.workdir + "/serve";
  copy_tree(base_dir, pass_dir);
  const PassResult pass = run_pass(schedule, known, pass_dir, workers, false);

  std::vector<double> all_ms, cold_ms, hit_ms;
  std::uint64_t good = 0;
  for (const Submission& sub : pass.subs) {
    ++report.attempted;
    if (!sub.ok) {
      ++report.failed;
      continue;
    }
    if (sub.slot < warmup) continue;
    const double ms = seconds_between(sub.due, sub.done) * 1e3;
    all_ms.push_back(ms);
    (sub.cached ? hit_ms : cold_ms).push_back(ms);
    if (ms <= args.latency_limit_ms) ++good;
  }
  const double goodput = static_cast<double>(good) / pass_s;
  report.check("serve.drained", pass.drained,
               "every submission reached a terminal frame");
  report.check("serve.no_failures", report.failed == 0,
               std::to_string(report.failed) +
                   " submission(s) ended in busy, draining or error");
  check_counts(report, "serve.counts", schedule, pass);
  report.check("serve.frames_identical", pass.mismatched == 0,
               std::to_string(pass.mismatched) +
                   " hit/coalesced frame(s) differ from the key's first");
  report.check("serve.coalesce_gate", !pass.gate_timed_out,
               "every coalesced duplicate was acknowledged in time");

  report.end_to_end.set(
      "setup_s", setup_s / thermometer.slowdown(args.host_reference_ms));
  report.end_to_end.set("throughput_per_s", goodput);
  report.named.set("setup_raw_s", setup_s);
  report.named.set("host_pass_ms", thermometer.median_ms());
  report.named.set("submit_p50_ms", median(all_ms));
  report.named.set("submit_p99_ms", quantile(all_ms, 0.99));
  report.named.set("cold_p50_ms", median(cold_ms));
  report.named.set("cold_p99_ms", quantile(cold_ms, 0.99));
  report.named.set("hit_p50_ms", median(hit_ms));
  report.named.set("hit_p99_ms", quantile(hit_ms, 0.99));
  report.named.set("goodput_per_s", goodput);
  report.named.set("samples", Json(static_cast<std::uint64_t>(all_ms.size())));
  report.named.set("cold_samples",
                   Json(static_cast<std::uint64_t>(cold_ms.size())));
  report.named.set("hit_samples",
                   Json(static_cast<std::uint64_t>(hit_ms.size())));
  report.named.set("gen_lag_p99_ms", measured_lag_p99(pass, warmup));

  if (args.trace) {
    const std::string traced_dir = args.workdir + "/serve-traced";
    copy_tree(base_dir, traced_dir);
    const PassResult traced =
        run_pass(schedule, known, traced_dir, workers, true);
    // A submission refused in one pass (counted in `failed`) has no frame
    // to compare; every key answered in both passes must match.
    std::uint64_t differ = traced.mismatched;
    for (const auto& [name, bytes] : traced.frames) {
      const auto it = pass.frames.find(name);
      if (it != pass.frames.end() && it->second != bytes) ++differ;
    }
    report.check("serve.traced_identical", differ == 0,
                 std::to_string(differ) +
                     " traced result frame(s) differ from the untraced pass");

    check_counts(report, "serve.traced_counts", schedule, traced);

    // Each submission's latency split into contiguous spans: due -> sent
    // (generator lag) -> accepted -> (cold) before_run -> result. Two
    // observers see the boundaries -- the generator reading frames and a
    // pool worker entering before_run -- so spans can overlap (a run
    // starts before the generator reads its ack) or a boundary can go
    // missing (no ack, or no run for an uncached key). The residue is the
    // time the spans count twice plus the time none of them covers.
    std::vector<double> ack_ms, wait_ms, exec_ms, hit_result_ms;
    double exec_total = 0, latency_total = 0, residue = 0;
    std::set<std::string> first_seen;
    for (const Submission& sub : traced.subs) {
      if (!sub.ok || sub.slot < warmup) continue;
      const double latency = seconds_between(sub.due, sub.done);
      latency_total += latency;
      const auto started = traced.started.find(sub.name);
      std::vector<double> spans = {seconds_between(sub.due, sub.sent)};
      if (sub.has_ack) {
        spans.push_back(seconds_between(sub.sent, sub.acked));
        ack_ms.push_back(spans.back() * 1e3);
        if (sub.cached) {
          spans.push_back(seconds_between(sub.acked, sub.done));
          hit_result_ms.push_back(spans.back() * 1e3);
        } else if (started != traced.started.end()) {
          spans.push_back(seconds_between(sub.acked, started->second));
          wait_ms.push_back(spans.back() * 1e3);
          spans.push_back(seconds_between(started->second, sub.done));
          exec_ms.push_back(spans.back() * 1e3);
          if (first_seen.insert(sub.name).second) exec_total += spans.back();
        }
      }
      double covered = 0;
      for (double span : spans) covered += std::abs(span);
      residue += std::abs(covered - latency);
    }
    const double duplicates =
        static_cast<double>(std::count_if(
            schedule.slots.begin(), schedule.slots.end(),
            [](const Slot& s) { return s.kind == Kind::kCoalesce; })) *
        (kConnections - 1);
    Json& l = report.layers;
    l.set("runner.pool_busy_frac",
          exec_total / (static_cast<double>(workers) * pass_s));
    l.set("server.restore_s", traced.start_s);
    l.set("server.ack_p99_ms", quantile(ack_ms, 0.99));
    l.set("server.queue_wait_p99_ms", quantile(wait_ms, 0.99));
    l.set("server.exec_p99_ms", quantile(exec_ms, 0.99));
    l.set("server.hit_result_p99_ms", quantile(hit_result_ms, 0.99));
    for (const char* name : {"cache_hits", "coalesced", "executed",
                             "busy_rejected", "insert_errors"})
      l.set(std::string("server.") + name, status_count(traced, name));
    const double submissions = status_count(traced, "submissions");
    l.set("server.hit_ratio", status_count(traced, "cache_hits") / submissions);
    l.set("server.coalesce_ratio",
          duplicates > 0 ? status_count(traced, "coalesced") / duplicates
                         : 0.0);
    l.set("server.gen_lag_p99_ms", measured_lag_p99(traced, warmup));
    l.set("trace_overhead_frac", traced.wall_s / pass.wall_s - 1.0);
    l.set("layers_unaccounted_frac",
          latency_total > 0 ? residue / latency_total : 0.0);
  }
  report.end_to_end.set("peak_rss_mib", peak_rss_mib());
  return report;
}

}  // namespace perfbench

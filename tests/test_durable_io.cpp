// The durable-I/O layer: the little-endian codec and CRC frames shared by
// every binary format, read_file, faultline's write_file_atomic (old file
// or complete new file at every crash point, temporary unlinked on every
// failure), and the journal rewrite every resume path goes through.
//
// The rewrite battery journals a 3-scenario sweep and a small search,
// cuts each journal back as a crash would, and then forks one resume per
// journal-domain crash point, dying exactly there. Whatever point it dies
// at, read_journal must still return every record it returned before the
// resume, and an unarmed resume must then finish byte-identical to the
// uninterrupted run.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "faultline/durable.hpp"
#include "faultline/faultline.hpp"
#include "metrics/csv.hpp"
#include "metrics/store.hpp"
#include "runner/grid.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"
#include "search/driver.hpp"
#include "search/space.hpp"
#include "run_hpas.hpp"
#include "trace/export.hpp"

namespace {

namespace fl = hpas::faultline;
namespace fs = std::filesystem;
using hpas::runner::JournalRecord;
using hpas::runner::read_journal;

class DurableIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fl::disarm();
    base_ = fs::temp_directory_path() /
            ("hpas-durable-" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    fl::disarm();
    fs::remove_all(base_);
  }

  std::string path(const std::string& leaf) const {
    return (base_ / leaf).string();
  }

  fs::path base_;
};

std::string slurp(const std::string& path) {
  return hpas::read_file(path).value_or("<unreadable>");
}

bool has_tmp_file(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".tmp") return true;
  return false;
}

/// Forks a child that arms `schedule` and runs `body`; returns the
/// child's exit status (137 when an injected crash killed it, 0 when it
/// outlived every crash point, 1 when `body` threw).
int run_armed_child(const fl::FaultSchedule& schedule,
                    const std::function<void()>& body) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    fl::arm(schedule);
    try {
      body();
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::map<std::string, std::string> outputs_of(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name == "sweep.journal") continue;  // wall times: not comparable
    files[name] = slurp(entry.path().string());
  }
  return files;
}

std::uint32_t domain_bit(fl::Domain d) {
  return 1u << static_cast<unsigned>(d);
}

// --- codec and frames ----------------------------------------------------

TEST_F(DurableIoTest, CodecIsLittleEndianAndRoundTrips) {
  std::string out;
  hpas::put_u8(out, 0xab);
  hpas::put_u16(out, 0x0201);
  hpas::put_u32(out, 0x06050403u);
  hpas::put_u64(out, 0x0e0d0c0b0a090807ULL);
  hpas::put_f64(out, -2.5);
  hpas::put_string(out, std::string("x\0y", 3));
  ASSERT_EQ(out.size(), 1u + 2 + 4 + 8 + 8 + 4 + 3);
  EXPECT_EQ(out.substr(0, 15),
            std::string("\xab\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"
                        "\x0c\x0d\x0e"));

  const auto* p = reinterpret_cast<const unsigned char*>(out.data());
  hpas::ByteCursor c{p, out.size()};
  EXPECT_EQ(c.u8(), 0xab);
  EXPECT_EQ(c.le(2), 0x0201u);
  EXPECT_EQ(c.u32(), 0x06050403u);
  EXPECT_EQ(c.u64(), 0x0e0d0c0b0a090807ULL);
  EXPECT_EQ(c.f64(), -2.5);
  EXPECT_EQ(c.str(), std::string("x\0y", 3));
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.off, out.size());
  // Past the end: zeros and a sticky failure, never an out-of-bounds read.
  EXPECT_EQ(c.u32(), 0u);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(hpas::get_u32(p + 3), 0x06050403u);
  EXPECT_EQ(hpas::get_f64(p + 15), -2.5);
}

TEST_F(DurableIoTest, FrameCheckNamesEveryKindOfDamage) {
  std::string bytes;
  const std::size_t payload = hpas::begin_frame(bytes);
  bytes += "payload";
  hpas::end_frame(bytes, payload);
  ASSERT_EQ(bytes.size(), 7 + hpas::kFrameOverhead);
  EXPECT_EQ(bytes.substr(0, 11), std::string("\x07\x00\x00\x00payload", 11));

  const auto damage = [](const std::string& b, std::size_t avail,
                         std::uint32_t cap = 64) -> std::string {
    const char* why = hpas::frame_damage(
        reinterpret_cast<const unsigned char*>(b.data()), avail, cap);
    return why == nullptr ? "intact" : why;
  };
  EXPECT_EQ(damage(bytes, bytes.size()), "intact");
  EXPECT_EQ(damage(bytes, 3), "torn frame length at tail");
  EXPECT_EQ(damage(bytes, bytes.size() - 1), "torn frame payload at tail");
  EXPECT_EQ(damage(bytes, bytes.size(), 6),
            "implausible frame length (corrupt file)");
  std::string flipped = bytes;
  flipped[6] = static_cast<char>(flipped[6] ^ 0x10);
  EXPECT_EQ(damage(flipped, flipped.size()), "frame CRC mismatch");
}

TEST_F(DurableIoTest, ReadFileReturnsExactBytesOrNothing) {
  const std::string binary("a\0b\xff\n", 5);
  {
    std::ofstream out(path("bin"), std::ios::binary);
    out.write(binary.data(), static_cast<std::streamsize>(binary.size()));
  }
  EXPECT_EQ(hpas::read_file(path("bin")), binary);
  EXPECT_EQ(hpas::read_file(path("missing")), std::nullopt);
  EXPECT_EQ(hpas::read_file(base_.string()), std::nullopt);  // a directory
}

// --- write_file_atomic ---------------------------------------------------

TEST_F(DurableIoTest, AtomicWriteCountsFiveCrashPointsOnlyWhenMasked) {
  fl::FaultSchedule schedule;
  schedule.crash_domains = domain_bit(fl::Domain::kOutput);
  fl::arm(schedule);
  fl::write_file_atomic(fl::Domain::kOutput, path("out.csv"), "a,b\n");
  // write (before + mid-transfer), fsync, rename, directory fsync.
  EXPECT_EQ(fl::crash_points_passed(), 5u);
  fl::disarm();
  EXPECT_EQ(slurp(path("out.csv")), "a,b\n");
  EXPECT_FALSE(has_tmp_file(base_));

  // kOutput is off the default crash mask: output files never move a
  // journal/cache crash-point index.
  fl::arm(fl::FaultSchedule{});
  fl::write_file_atomic(fl::Domain::kOutput, path("out.csv"), "c,d\n");
  EXPECT_EQ(fl::crash_points_passed(), 0u);
  EXPECT_GT(fl::stats().calls, 0u);
  EXPECT_EQ(slurp(path("out.csv")), "c,d\n");
}

TEST_F(DurableIoTest, EveryFailedStepKeepsTheOldFileAndUnlinksTheTemporary) {
  const std::string target = path("summary.json");
  fl::write_file_atomic(fl::Domain::kOutput, target, "old");
  for (const fl::Op op : {fl::Op::kWrite, fl::Op::kFsync, fl::Op::kRename}) {
    fl::FaultSchedule schedule;
    schedule.rules.push_back({.domain = fl::Domain::kOutput,
                              .op = op,
                              .kind = fl::FaultKind::kErrno,
                              .err = op == fl::Op::kWrite ? ENOSPC : EIO,
                              .at = 0});
    fl::arm(schedule);
    EXPECT_THROW(fl::write_file_atomic(fl::Domain::kOutput, target, "new"),
                 hpas::SystemError)
        << fl::op_name(op);
    fl::disarm();
    EXPECT_EQ(slurp(target), "old") << fl::op_name(op);
    EXPECT_FALSE(has_tmp_file(base_)) << fl::op_name(op);
  }
}

TEST_F(DurableIoTest, ACrashAtAnyPointLeavesTheOldOrTheNewFile) {
  const std::string target = path("manifest.json");
  fl::write_file_atomic(fl::Domain::kOutput, target, "old contents");
  for (std::int64_t k = 0; k < 5; ++k) {
    fl::FaultSchedule schedule;
    schedule.crash_domains = domain_bit(fl::Domain::kOutput);
    schedule.crash_at = k;
    const int status = run_armed_child(schedule, [&] {
      fl::write_file_atomic(fl::Domain::kOutput, target, "new contents");
    });
    ASSERT_EQ(status, 137) << "crash point " << k;
    // Points 0-3 die before the rename, 4 (the directory fsync) after it.
    EXPECT_EQ(slurp(target), k < 4 ? "old contents" : "new contents")
        << "crash point " << k;
    fl::write_file_atomic(fl::Domain::kOutput, target, "old contents");
  }
}

/// One ENOSPC on the `at`-th output-domain write (counted from 0).
fl::FaultSchedule enospc_on_output_write(std::int64_t at) {
  fl::FaultSchedule schedule;
  schedule.rules.push_back({.domain = fl::Domain::kOutput,
                            .op = fl::Op::kWrite,
                            .kind = fl::FaultKind::kErrno,
                            .err = ENOSPC,
                            .at = at});
  return schedule;
}

TEST_F(DurableIoTest, CliOutputFilesKeepTheOldFileOnAFailedWrite) {
  // hpas-sim's -o CSVs and --trace file take the same atomic path.
  hpas::metrics::MetricStore store;
  store.record({"user", "procstat"}, 0.0, 1.5);
  hpas::trace::TraceFile trace;
  trace.labels.emplace_back(1, "node0");
  const std::string csv = path("run.node0.csv");
  const std::string bin = path("run.trace.bin");
  fl::write_file_atomic(fl::Domain::kOutput, csv, "old csv");
  fl::write_file_atomic(fl::Domain::kOutput, bin, "old trace");

  fl::arm(enospc_on_output_write(0));
  EXPECT_THROW(hpas::metrics::write_csv_file(csv, store), hpas::SystemError);
  fl::arm(enospc_on_output_write(0));
  EXPECT_THROW(hpas::trace::write_binary_file(bin, trace),
               hpas::SystemError);
  fl::disarm();
  EXPECT_EQ(slurp(csv), "old csv");
  EXPECT_EQ(slurp(bin), "old trace");
  EXPECT_FALSE(has_tmp_file(base_));

  // Unarmed, both publish the bytes their stream writers produce.
  hpas::metrics::write_csv_file(csv, store);
  EXPECT_EQ(slurp(csv), "timestamp,user::procstat\n0,1.5\n");
  hpas::trace::write_binary_file(bin, trace);
  EXPECT_EQ(hpas::trace::read_binary_file(bin).labels, trace.labels);
  EXPECT_FALSE(has_tmp_file(base_));
}

TEST_F(DurableIoTest, SweepOutputWriteFailureFailsTheScenarioNotTheProcess) {
  const hpas::runner::SweepGrid grid = hpas::runner::load_grid_file(
      std::string(HPAS_EXAMPLES_DIR) + "/grids/small_sweep.json");
  const auto sweep = [&](const fs::path& dir, bool resume) {
    hpas::runner::SweepOptions options;
    options.threads = 1;
    options.journal_path = (dir / "sweep.journal").string();
    options.resume = resume;
    return hpas::runner::run_sweep(grid, options);
  };
  const fs::path ref = base_ / "ref";
  ASSERT_TRUE(sweep(ref, /*resume=*/false).ok());

  // A full disk at the fourth scenario's CSV: that scenario fails, the
  // sweep stops, and the exception never escapes the worker.
  const fs::path dir = base_ / "enospc";
  fl::arm(enospc_on_output_write(3));
  const auto result = sweep(dir, /*resume=*/false);
  fl::disarm();
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.count(hpas::runner::ScenarioStatus::kFailed), 1u);
  EXPECT_EQ(result.count(hpas::runner::ScenarioStatus::kDone), 3u);
  const auto failed = std::find_if(
      result.scenarios.begin(), result.scenarios.end(), [](const auto& s) {
        return s.status == hpas::runner::ScenarioStatus::kFailed;
      });
  EXPECT_NE(failed->error.find(std::strerror(ENOSPC)), std::string::npos)
      << failed->error;
  EXPECT_EQ(result.first_error(), failed->spec.name + ": " + failed->error);
  EXPECT_FALSE(fs::exists(dir / (failed->spec.name + ".csv")));
  EXPECT_FALSE(has_tmp_file(dir));

  // No "done" record names the failed scenario, so --resume re-runs it and
  // finishes with the uninterrupted sweep's bytes.
  ASSERT_TRUE(sweep(dir, /*resume=*/true).ok());
  EXPECT_EQ(outputs_of(dir), outputs_of(ref));
}

// --- one writer per durable directory ------------------------------------

TEST_F(DurableIoTest, DirLockRefusesASecondTakerAndNamesTheHolder) {
  const std::string dir = path("locked");
  {
    const fl::DirLock held(dir);
    ASSERT_TRUE(fs::exists(dir + "/.hpas.lock"));
    EXPECT_EQ(fs::file_size(dir + "/.hpas.lock"), 0u);
    try {
      const fl::DirLock second(dir);
      ADD_FAILURE() << "a second DirLock on one directory was granted";
    } catch (const hpas::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("pid " +
                                           std::to_string(::getpid())),
                std::string::npos)
          << e.what();
    }
  }
  // Released with its holder.
  const fl::DirLock again(dir);
}

TEST_F(DurableIoTest, ConcurrentSweepResumeIsRefusedUntouchedThenCompletes) {
  const std::string grid =
      std::string(HPAS_EXAMPLES_DIR) + "/grids/small_sweep.json";
  const std::string ref = path("ref");
  const std::string dir = path("out");
  ASSERT_EQ(run_hpas({"sweep", grid, "-j", "1", "-o", ref}, path("ref.log")),
            0)
      << slurp(path("ref.log"));
  ASSERT_EQ(run_hpas({"sweep", grid, "-j", "1", "-o", dir}, path("a.log")), 0)
      << slurp(path("a.log"));
  const std::string journal = dir + "/sweep.journal";
  const std::string journal_bytes = slurp(journal);
  struct stat before {};
  ASSERT_EQ(::stat(journal.c_str(), &before), 0);
  // A crash's leftover: a resume sweeps it, a refused resume must not.
  std::ofstream(dir + "/orphan.csv.tmp") << "torn";

  // The first process: holds the directory until the pipe closes.
  int ready[2];
  int release[2];
  ASSERT_EQ(::pipe(ready), 0);
  ASSERT_EQ(::pipe(release), 0);
  const pid_t holder = ::fork();
  ASSERT_GE(holder, 0);
  if (holder == 0) {
    ::close(ready[0]);
    ::close(release[1]);
    try {
      const fl::DirLock lock(dir);
      const char byte = 1;
      if (::write(ready[1], &byte, 1) != 1) ::_exit(1);
      char ignored;
      while (::read(release[0], &ignored, 1) > 0) {
      }
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  ::close(ready[1]);
  ::close(release[0]);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);

  // The second process is refused before it reads or rewrites anything.
  EXPECT_EQ(run_hpas({"sweep", grid, "-j", "1", "-o", dir, "--resume"},
                     path("b.log")),
            2);
  const std::string refusal = slurp(path("b.log"));
  EXPECT_NE(refusal.find("pid " + std::to_string(holder)), std::string::npos)
      << refusal;
  struct stat after {};
  ASSERT_EQ(::stat(journal.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino);
  EXPECT_EQ(slurp(journal), journal_bytes);
  EXPECT_TRUE(fs::exists(dir + "/orphan.csv.tmp"));

  ::close(release[1]);
  int status = 0;
  ASSERT_EQ(::waitpid(holder, &status, 0), holder);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::close(ready[0]);

  // With the holder gone the resume runs, sweeps the leftover and ends
  // with the uninterrupted sweep's bytes.
  ASSERT_EQ(run_hpas({"sweep", grid, "-j", "1", "-o", dir, "--resume"},
                     path("c.log")),
            0)
      << slurp(path("c.log"));
  EXPECT_FALSE(fs::exists(dir + "/orphan.csv.tmp"));
  EXPECT_EQ(outputs_of(dir), outputs_of(ref));
}

// --- the journal rewrite crash battery -----------------------------------

class JournalRewriteCrashTest : public DurableIoTest {};

/// Every record of `want` is still in `got`, field for field. Order may
/// differ: the sweep rewrite lists the kept records in grid order.
void expect_kept(const std::vector<JournalRecord>& got,
                 const std::vector<JournalRecord>& want,
                 const std::string& where) {
  for (const JournalRecord& w : want) {
    const auto it = std::find_if(got.begin(), got.end(), [&](const auto& g) {
      return g.key_hash == w.key_hash;
    });
    ASSERT_NE(it, got.end()) << where << ": lost record " << w.name;
    EXPECT_EQ(it->status, w.status) << where << ": " << w.name;
    EXPECT_EQ(it->name, w.name) << where;
    EXPECT_EQ(it->csv_crc, w.csv_crc) << where << ": " << w.name;
    EXPECT_EQ(it->wall_seconds, w.wall_seconds) << where << ": " << w.name;
    EXPECT_EQ(it->objective, w.objective) << where << ": " << w.name;
  }
}

/// Journal-domain crash points only: outputs (kOutput) never count.
fl::FaultSchedule journal_crash_at(std::int64_t k) {
  fl::FaultSchedule schedule;
  schedule.crash_domains = domain_bit(fl::Domain::kJournal);
  schedule.crash_at = k;
  return schedule;
}

hpas::runner::SweepGrid three_scenarios() {
  hpas::runner::SweepGrid grid;
  grid.name = "rewrite-battery";
  for (int i = 0; i < 3; ++i) {
    hpas::runner::ScenarioSpec spec;
    spec.name = "s" + std::to_string(i);
    spec.system = "voltrino";
    spec.app = "none";
    spec.anomaly = "none";
    spec.duration_s = 5.0;
    spec.sample_period_s = 1.0;
    spec.seed = 500 + static_cast<std::uint64_t>(i);
    grid.scenarios.push_back(spec);
  }
  return grid;
}

/// One journaled sweep (resumed or fresh) with its outputs written.
void sweep_into(const fs::path& dir, bool resume) {
  hpas::runner::SweepOptions options;
  options.threads = 1;
  options.journal_path = (dir / "sweep.journal").string();
  options.resume = resume;
  const auto result = hpas::runner::run_sweep(three_scenarios(), options);
  if (!result.ok()) throw hpas::SystemError(result.first_error());
  hpas::runner::write_outputs(result, dir.string());
}

TEST_F(JournalRewriteCrashTest, SweepResumeNeverLosesARecord) {
  const fs::path ref = base_ / "ref";
  sweep_into(ref, /*resume=*/false);
  const auto want = outputs_of(ref);

  // The crash the resume recovers from: two records journaled, the third
  // torn mid-frame.
  const fs::path cut = base_ / "cut";
  fs::copy(ref, cut);
  const std::string journal = (cut / "sweep.journal").string();
  const auto full = read_journal(journal).records;
  ASSERT_EQ(full.size(), 3u);
  {
    hpas::runner::JournalWriter writer(journal, /*truncate=*/true);
    writer.append(full[0]);
    writer.append(full[1]);
  }
  std::ofstream(journal, std::ios::binary | std::ios::app) << "\x40\x00";
  const auto before = read_journal(journal);
  ASSERT_EQ(before.records.size(), 2u);
  ASSERT_EQ(before.dropped_frames, 1u);

  // Probe: how many journal crash points does the resume pass?
  const fs::path probe = base_ / "probe";
  fs::copy(cut, probe);
  fl::arm(journal_crash_at(-1));
  sweep_into(probe, /*resume=*/true);
  const std::uint64_t points = fl::crash_points_passed();
  fl::disarm();
  // The rewrite (write, fsync, rename, directory fsync = 5) and the
  // re-run scenario's record (write + fsync = 3).
  ASSERT_EQ(points, 8u);

  for (std::uint64_t k = 0; k < points; ++k) {
    const fs::path dir = base_ / ("crash" + std::to_string(k));
    fs::copy(cut, dir);
    ASSERT_EQ(run_armed_child(journal_crash_at(static_cast<std::int64_t>(k)),
                              [&] { sweep_into(dir, /*resume=*/true); }),
              137)
        << "crash point " << k;
    const std::string where = "crash point " + std::to_string(k);
    expect_kept(read_journal((dir / "sweep.journal").string()).records,
                  before.records, where);

    sweep_into(dir, /*resume=*/true);
    EXPECT_EQ(outputs_of(dir), want) << where;
    EXPECT_FALSE(has_tmp_file(dir)) << where;
  }
}

const char* kQuickSpace = R"({
  "name": "rewrite_battery",
  "system": "voltrino",
  "seed": 11,
  "app": "CoMD",
  "duration_s": 10,
  "sample_period_s": 1.0,
  "run_to_completion": false,
  "dimensions": [
    {"name": "anomaly", "type": "categorical",
     "values": ["cpuoccupy", "membw"]},
    {"name": "intensity", "type": "continuous", "lo": 0.25, "hi": 2.0}
  ]
})";

/// One journaled search; returns its frontier document.
std::string search_into(const fs::path& dir, bool resume) {
  const auto space =
      hpas::search::ScenarioSpace::from_json(hpas::Json::parse(kQuickSpace));
  hpas::search::SearchOptions options;
  options.budget = 6;
  options.batch = 3;
  options.frontier_size = 3;
  options.threads = 1;
  options.journal_path = (dir / "search.journal").string();
  options.resume = resume;
  fs::create_directories(dir);
  return hpas::search::run_search(space, options)
      .frontier_json(space, "frontier.json")
      .dump(2);
}

TEST_F(JournalRewriteCrashTest, SearchResumeNeverLosesARecord) {
  const fs::path ref = base_ / "ref";
  const std::string want_frontier = search_into(ref, /*resume=*/false);
  const std::string want_journal = slurp((ref / "search.journal").string());

  // A journal cut mid-frame, as a SIGKILL leaves it.
  const fs::path cut = base_ / "cut";
  fs::create_directories(cut);
  const std::string journal = (cut / "search.journal").string();
  std::ofstream(journal, std::ios::binary)
      << want_journal.substr(0, want_journal.size() / 2);
  const auto before = read_journal(journal);
  ASSERT_GT(before.records.size(), 0u);

  const fs::path probe = base_ / "probe";
  fs::copy(cut, probe);
  fl::arm(journal_crash_at(-1));
  (void)search_into(probe, /*resume=*/true);
  const std::uint64_t points = fl::crash_points_passed();
  fl::disarm();
  ASSERT_GT(points, 5u);  // the rewrite, then the re-run evaluations

  for (std::uint64_t k = 0; k < points; ++k) {
    const fs::path dir = base_ / ("crash" + std::to_string(k));
    fs::copy(cut, dir);
    ASSERT_EQ(run_armed_child(journal_crash_at(static_cast<std::int64_t>(k)),
                              [&] { (void)search_into(dir, true); }),
              137)
        << "crash point " << k;
    const std::string where = "crash point " + std::to_string(k);
    expect_kept(read_journal((dir / "search.journal").string()).records,
                  before.records, where);

    EXPECT_EQ(search_into(dir, /*resume=*/true), want_frontier) << where;
    EXPECT_EQ(slurp((dir / "search.journal").string()), want_journal)
        << where;
  }
}

}  // namespace

#include "runner/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "faultline/durable.hpp"

namespace hpas::runner {
namespace {

constexpr char kMagic[8] = {'H', 'P', 'A', 'S', 'J', 'N', 'L', '1'};
/// Every journal byte, rewrites included, leaves through this faultline
/// edge, so injected faults and crash points hit the path real disks
/// fail on.
constexpr faultline::Domain kDomain = faultline::Domain::kJournal;

/// Appends `r` as one frame to `out`.
void append_record_frame(std::string& out, const JournalRecord& r) {
  const std::size_t payload = begin_frame(out);
  put_u64(out, r.key_hash);
  put_u8(out, static_cast<std::uint8_t>(r.status));
  put_string(out, r.name);
  put_string(out, r.output);
  put_u32(out, r.csv_crc);
  put_u32(out, r.trace_crc);
  put_u64(out, r.trace_records);
  put_u64(out, r.app_iterations);
  put_f64(out, r.app_elapsed_s);
  put_f64(out, r.wall_seconds);
  put_string(out, r.error);
  if (r.has_objective) {
    // Trailing extension (see JournalRecord): absent in sweep records,
    // so their frames stay byte-identical to the legacy format.
    put_u8(out, 1);
    put_f64(out, r.objective);
  }
  end_frame(out, payload);
}

bool decode_record(const unsigned char* data, std::size_t n,
                   JournalRecord& out) {
  ByteCursor c{data, n};
  out.key_hash = c.u64();
  const std::uint8_t status = c.u8();
  out.name = c.str();
  out.output = c.str();
  out.csv_crc = c.u32();
  out.trace_crc = c.u32();
  out.trace_records = c.u64();
  out.app_iterations = c.u64();
  out.app_elapsed_s = c.f64();
  out.wall_seconds = c.f64();
  out.error = c.str();
  out.has_objective = false;
  out.objective = 0.0;
  if (c.ok && c.off < n) {
    // Trailing objective extension; anything else trailing is corruption.
    const std::uint8_t flag = c.u8();
    if (flag != 1) return false;
    out.objective = c.f64();
    out.has_objective = true;
  }
  if (!c.ok || c.off != n) return false;
  if (status < 1 || status > 4) return false;
  out.status = static_cast<JournalStatus>(status);
  return true;
}

}  // namespace

const char* journal_status_name(JournalStatus status) {
  switch (status) {
    case JournalStatus::kDone: return "done";
    case JournalStatus::kTimeout: return "timeout";
    case JournalStatus::kFailed: return "failed";
    case JournalStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::uint64_t scenario_key_hash(const ScenarioSpec& spec) {
  std::uint64_t h = 0x48504153'4a4e4c31ULL;  // "HPASJNL1"
  hash_combine_string(h, spec.name);
  hash_combine_string(h, spec.system);
  hash_combine_string(h, spec.app);
  hash_combine_string(h, spec.anomaly);
  hash_combine_double(h, spec.intensity);
  hash_combine_double(h, spec.duration_s);
  hash_combine_double(h, spec.sample_period_s);
  hash_combine(h, static_cast<std::uint64_t>(spec.app_nodes));
  hash_combine(h, static_cast<std::uint64_t>(spec.ranks_per_node));
  hash_combine(h, spec.run_to_completion ? 1u : 0u);
  hash_combine_double(h, spec.injector_fail_at_s);
  hash_combine(h, static_cast<std::uint64_t>(spec.injector_fail_tasks));
  hash_combine(h, spec.seed);
  return h;
}

JournalWriter::JournalWriter(const std::string& path, bool truncate)
    : path_(path) {
  int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
  flags |= truncate ? O_TRUNC : O_APPEND;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0)
    throw SystemError("journal: cannot open " + path + ": " +
                      std::strerror(errno));
  // A fresh (or truncated) file needs the header; an appended-to file
  // already has one. off_t of the current end distinguishes them.
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end == 0) {
    try {
      faultline::write_all(kDomain, fd_, kMagic, sizeof(kMagic), path);
      faultline::fsync_or_throw(kDomain, fd_, path);
    } catch (const SystemError&) {
      ::close(fd_);
      fd_ = -1;
      throw;
    }
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(const JournalRecord& record) {
  std::string frame;
  append_record_frame(frame, record);
  // One write() per frame: either the whole record lands or the reader
  // sees a short tail it can discard. fsync makes "journaled" mean
  // "survives SIGKILL and power loss", which is the resume contract.
  faultline::write_all(kDomain, fd_, frame.data(), frame.size(), path_);
  faultline::fsync_or_throw(kDomain, fd_, path_);
}

std::unique_ptr<JournalWriter> rewrite_journal(
    const std::string& path, const std::vector<JournalRecord>& records) {
  std::string bytes(kMagic, sizeof(kMagic));
  for (const JournalRecord& rec : records) append_record_frame(bytes, rec);
  faultline::write_file_atomic(kDomain, path, bytes);
  return std::make_unique<JournalWriter>(path, /*truncate=*/false);
}

JournalReadResult read_journal(const std::string& path) {
  JournalReadResult result;
  const std::optional<std::string> file = read_file(path);
  if (!file) {
    if (::access(path.c_str(), F_OK) == 0)
      throw SystemError("journal: cannot read " + path);
    return result;  // no journal yet: a fresh sweep
  }
  const std::string& bytes = *file;
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    result.damage = "bad or truncated journal header";
    return result;
  }

  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t off = sizeof(kMagic);
  // Sanity cap on frame length: no real record approaches this, so a
  // huge length means we are reading garbage, not a record.
  constexpr std::uint32_t kMaxFrame = 1u << 20;
  while (off < bytes.size()) {
    const unsigned char* frame = data + off;
    const char* damage = frame_damage(frame, bytes.size() - off, kMaxFrame);
    const std::uint32_t len = damage == nullptr ? get_u32(frame) : 0;
    JournalRecord record;
    if (damage == nullptr && !decode_record(frame + 4, len, record))
      damage = "undecodable frame payload";
    if (damage != nullptr) {
      result.dropped_frames = 1;
      result.damage = damage;
      break;
    }
    result.records.push_back(std::move(record));
    off += len + kFrameOverhead;
  }
  return result;
}

}  // namespace hpas::runner

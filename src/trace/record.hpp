// Structured trace records: the event vocabulary of the simulation.
//
// Every interesting state change in the DES substrate -- engine events
// scheduled/fired/cancelled, task spawns and phase transitions, max-min
// rate recomputations, anomaly injector start/stop, memory allocation and
// OOM, monitoring samples -- emits one fixed-size record. Records are
// compact PODs so the hot path is a few stores into a ring buffer, and
// their serialized form is byte-stable: replaying the same seed must
// reproduce the same record stream bit for bit, which is what turns
// "the golden file changed" into "event #4217 diverged".
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace hpas::trace {

enum class RecordKind : std::uint16_t {
  kEventScheduled = 1,  ///< engine: subject=0, a=event id, x=target time
  kEventFired = 2,      ///< engine: a=event id
  kEventCancelled = 3,  ///< engine: a=event id (cancellation *requested*)
  kTaskSpawn = 4,       ///< world: subject=task, detail=node, a=core
  kTaskKill = 5,        ///< world: subject=task, detail=node, x=held bytes
  kPhaseTransition = 6, ///< task: subject=task, detail=PhaseKind, a=peer/io,
                        ///<       x=phase work
  kRateRecompute = 7,   ///< world: a=live task count
  kNodeRates = 8,       ///< world: subject=node, detail=active residents,
                        ///<        x=cpu share total, y=dram bytes/s total
  kTaskRate = 9,        ///< world: subject=task, detail=PhaseKind,
                        ///<        x=progress rate, y=cpu share
  kMemoryAlloc = 10,    ///< world: subject=task, detail=node, x=delta bytes,
                        ///<        y=node bytes used after
  kOom = 11,            ///< world: subject=task, detail=node, x=delta bytes,
                        ///<        y=node bytes free
  kAnomalyStart = 12,   ///< injector: subject=node, detail=anomaly id,
                        ///<           a=core, x=duration, y=primary knob
  kAnomalyStop = 13,    ///< injector: subject=task, detail=anomaly id
  kSample = 14,         ///< monitoring: a=world node count (not the
                        ///<             monitored count), x=period
  kInjectorFailure = 15,  ///< injector: subject=task, detail=mode
                          ///<           (0=killed), a=surviving injector
                          ///<           tasks, x=failure time
  kRunCancelled = 16,     ///< driver: the run was cancelled cooperatively;
                          ///<         detail=CancelReason, x=sim time at
                          ///<         cancellation. Always the last record
                          ///<         of a truncated trace, so partial
                          ///<         captures are self-describing.
};

inline constexpr std::uint16_t kNumRecordKinds = 17;  ///< 1 + highest kind

/// Short stable name for a kind; "unknown" for out-of-range values.
std::string_view record_kind_name(RecordKind kind);

/// One trace record. 46 bytes serialized (see export.hpp); field meanings
/// are per-kind, documented on RecordKind.
struct TraceRecord {
  std::uint64_t seq = 0;   ///< global emission index (0-based, monotonic)
  double time = 0.0;       ///< simulated seconds
  RecordKind kind = RecordKind::kEventFired;
  std::uint32_t subject = 0;
  std::uint16_t detail = 0;
  std::uint64_t a = 0;
  double x = 0.0;
  double y = 0.0;
};

/// Bit-exact equality (distinguishes -0.0 from 0.0; never equates NaNs
/// by accident). This is the comparison replay checking uses: two runs of
/// the same seed must agree to the last bit, not merely approximately.
inline bool bitwise_equal(const TraceRecord& lhs, const TraceRecord& rhs) {
  return lhs.seq == rhs.seq &&
         std::bit_cast<std::uint64_t>(lhs.time) ==
             std::bit_cast<std::uint64_t>(rhs.time) &&
         lhs.kind == rhs.kind && lhs.subject == rhs.subject &&
         lhs.detail == rhs.detail && lhs.a == rhs.a &&
         std::bit_cast<std::uint64_t>(lhs.x) ==
             std::bit_cast<std::uint64_t>(rhs.x) &&
         std::bit_cast<std::uint64_t>(lhs.y) ==
             std::bit_cast<std::uint64_t>(rhs.y);
}

}  // namespace hpas::trace

// Binary serialization of execution plans.
//
// The paper distributes compiled instruction streams to executors through a
// Redis store holding *serialized* plans (§3): dataloader-side planners encode,
// executors decode. This is that wire format — a compact varint byte layout
// that round-trips sim::ExecutionPlan losslessly (every field of every
// instruction kind), so InstructionStore's serialized mode exercises the
// publish-before-fetch contract across a real encode/decode boundary instead
// of passing in-process pointers around.
//
// Layout (all multi-byte integers are LEB128 varints; signed fields are
// zigzag-encoded so the -1 sentinels of `peer`/`fusion_group` stay 1 byte):
//   magic "DPEX", version byte,
//   zigzag(num_microbatches), varint(num_devices),
//   per device: zigzag(device), varint(num_instructions),
//   per instruction: type byte, zigzag(microbatch), zigzag(peer),
//     zigzag(bytes), zigzag(num_samples), zigzag(input_len),
//     zigzag(target_len), recompute byte, zigzag(fusion_group).
// Decoding a malformed buffer (truncation, bad magic/version, out-of-range
// enum, trailing bytes) must never produce a plan: DecodeExecutionPlan is
// fatal — a corrupted plan must not reach an executor — while
// TryDecodeExecutionPlan reports the malformation as a clean error so callers
// that own the byte source (the cross-process transport, fuzzers) can reject
// bad input without crashing the process that received it.
#ifndef DYNAPIPE_SRC_SERVICE_PLAN_SERDE_H_
#define DYNAPIPE_SRC_SERVICE_PLAN_SERDE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/sim/instruction.h"

namespace dynapipe::service {

inline constexpr char kPlanSerdeMagic[4] = {'D', 'P', 'E', 'X'};
inline constexpr uint8_t kPlanSerdeVersion = 1;

// Varint primitives, exposed for tests and future serialized records (plan
// metadata, cache snapshots).
void AppendVarint(uint64_t v, std::string* out);
void AppendZigzag(int64_t v, std::string* out);
// Parse starting at *pos, advancing it past the consumed bytes. Fatal on
// truncated or overlong input.
uint64_t ParseVarint(std::string_view bytes, size_t* pos);
int64_t ParseZigzag(std::string_view bytes, size_t* pos);
// Non-fatal variants: return false (leaving *out unspecified) instead of
// aborting on truncated/overlong input. *pos still advances past whatever was
// consumed. These are what the transport layer parses network input with.
bool TryParseVarint(std::string_view bytes, size_t* pos, uint64_t* out);
bool TryParseZigzag(std::string_view bytes, size_t* pos, int64_t* out);

// One instruction, appended to / parsed from a byte buffer. These are the
// per-instruction hooks the whole-plan codec is built from.
void AppendInstruction(const sim::Instruction& instr, std::string* out);
sim::Instruction ParseInstruction(std::string_view bytes, size_t* pos);

// Whole-plan codec. Decode(Encode(p)) == p for every well-formed plan.
std::string EncodeExecutionPlan(const sim::ExecutionPlan& plan);
// Encodes into the caller's buffer (cleared first, capacity kept). Publishers
// that push plans in a steady-state loop (mux client, shm store) reuse one
// scratch buffer per thread so encoding allocates nothing once the buffer has
// grown to plan size.
void EncodeExecutionPlanInto(const sim::ExecutionPlan& plan, std::string* out);
sim::ExecutionPlan DecodeExecutionPlan(std::string_view bytes);
// Non-fatal decode: nullopt on any malformed input (truncation, bad
// magic/version, out-of-range enum, implausible counts, trailing bytes), with
// a description in *error when provided. DecodeExecutionPlan is this plus a
// fatal check.
std::optional<sim::ExecutionPlan> TryDecodeExecutionPlan(
    std::string_view bytes, std::string* error = nullptr);

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_PLAN_SERDE_H_

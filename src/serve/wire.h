// The modbd wire protocol codec: pure byte-level encoding of frames,
// QueryRequests, and replies, with no sockets anywhere — everything here
// operates on strings, so the fuzz tests can throw arbitrary bytes at
// the decoders without a server. See docs/PROTOCOL.md for the normative
// description.
//
// Framing: every message is a 12-byte header followed by the payload.
//
//   offset  size  field
//   0       4     magic "MODB"
//   4       1     protocol version (kWireVersion)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be 0
//   8       4     payload length, unsigned little-endian
//
// Payloads are sequences of little-endian primitives and u32
// length-prefixed strings. Every decoder is bounds-checked and total: a
// truncated, oversized, or garbage frame yields a typed InvalidArgument
// (or DataLoss for a bad magic), never a crash or an over-read, and
// trailing bytes after a well-formed payload are rejected.

#ifndef MODB_SERVE_WIRE_H_
#define MODB_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/status.h"
#include "db/modb.h"

namespace modb {
namespace serve {

inline constexpr char kMagic[4] = {'M', 'O', 'D', 'B'};
/// v2 added mutation frames (kMutation), the mutation ack result block,
/// and the trailing window-aggregate fields of the query payload. v3
/// appended the query deadline (deadline_ms) and the ingest idempotency
/// key (client_id, batch_seq). Only kWireVersion is accepted; any other
/// version byte is rejected at the header (see docs/PROTOCOL.md,
/// "Versioning").
inline constexpr std::uint8_t kWireVersion = 3;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Upper bound on a frame payload; larger length fields are rejected
/// before any allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint8_t {
  /// client -> server: an encoded QueryRequest.
  kQuery = 1,
  /// server -> client: an encoded reply (status + optional result).
  kReply = 2,
  /// client -> server: an encoded MutationRequest (ingest / register /
  /// drop). Answered with a kReply whose result block is a mutation
  /// ack.
  kMutation = 3,
};

struct FrameHeader {
  FrameType type = FrameType::kQuery;
  std::uint32_t payload_len = 0;
};

/// Encodes the 12-byte frame header, stamped with kWireVersion.
std::string EncodeFrameHeader(FrameType type, std::uint32_t payload_len);

/// Decodes a frame header. `bytes` must be exactly kFrameHeaderBytes;
/// bad magic is DataLoss (the stream is not speaking this protocol —
/// resynchronization is hopeless), anything else wrong (version, type,
/// reserved, oversized length) is InvalidArgument.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

/// Little-endian payload writer. Every primitive is one memcpy of its
/// native bytes (the build requires a little-endian host).
class WireWriter {
 public:
  void U8(std::uint8_t v);
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v);
  void F64(double v);
  /// u32 length prefix + raw bytes.
  void Str(std::string_view v);
  /// Raw bytes, no length prefix.
  void Bytes(const void* data, std::size_t n);
  /// Overwrites the u32 at byte offset `at` (a length written before
  /// the bytes it counts).
  void PatchU32(std::size_t at, std::uint32_t v);

  void Reserve(std::size_t n) { buf_.reserve(n); }
  std::size_t size() const { return buf_.size(); }
  /// The buffer itself, for encoders that append in place
  /// (AppendAttribute).
  std::string* buffer() { return &buf_; }
  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian payload reader. Every accessor returns
/// InvalidArgument instead of reading past the end.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status U8(std::uint8_t* v);
  Status U16(std::uint16_t* v);
  Status U32(std::uint32_t* v);
  Status U64(std::uint64_t* v);
  Status I64(std::int64_t* v);
  Status F64(double* v);
  Status Str(std::string* v);
  /// Str without the copy: a view of the payload's bytes.
  Status StrView(std::string_view* v);
  /// The next n raw bytes as a view of the payload.
  Status View(std::size_t n, std::string_view* v);

  std::size_t remaining() const { return data_.size() - pos_; }
  /// InvalidArgument unless the payload was consumed exactly.
  Status ExpectEnd() const;

 private:
  Status Need(std::size_t n) const;
  Status Get(void* v, std::size_t n);
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// QueryRequest <-> bytes, field for field, in kWireVersion's layout;
/// the decoder requires exactly that version's fields.
std::string EncodeQueryRequest(const QueryRequest& req);
Result<QueryRequest> DecodeQueryRequest(std::string_view payload);

/// MutationRequest <-> bytes, field for field (same rule).
std::string EncodeMutationRequest(const MutationRequest& req);
Result<MutationRequest> DecodeMutationRequest(std::string_view payload);

/// MutationResult <-> bytes. The ack travels in the reply's result
/// block slot under its own block kind (3), deliberately outside the
/// QueryResult payload range so DecodeResultBlock keeps rejecting it —
/// a client cannot mistake an ack for rows.
std::string EncodeMutationAck(const MutationResult& ack);
Result<MutationResult> DecodeMutationAck(std::string_view block);

/// QueryResult payload <-> bytes: the deterministic part of a reply
/// (rows / xy / present geometry), NOT including stats — two runs of the
/// same query produce byte-identical result blocks for any thread
/// count, which is what the concurrent-client determinism tests and
/// loadgen --verify compare. The encoder sizes the block before
/// allocating it; a block that would not fit a frame (kMaxFramePayload)
/// is InvalidArgument. The decoder reads attribute blobs in place.
Result<std::string> EncodeResultBlock(const QueryResult& result);
Result<QueryResult> DecodeResultBlock(std::string_view block);

/// A decoded reply: the remote status, the raw result block (empty on
/// error — kept so clients can compare identity without re-encoding),
/// and the ExecStats JSON (outside the identity-compared bytes: wall
/// times differ run to run). `result_block` is a view into the payload
/// given to DecodeReply and is valid only while that payload is.
struct WireReply {
  Status status;
  std::string_view result_block;
  std::string stats_json;
};

/// Reply payload: u32 status code, string message, string result block
/// (empty on error), string stats JSON. Written into one buffer sized up
/// front; a reply that would exceed kMaxFramePayload is InvalidArgument
/// (naming the cap) before anything is allocated for it.
Result<std::string> EncodeReply(const Status& status,
                                const QueryResult* result);
/// Reply to a mutation: same layout, the block is a mutation ack and
/// the stats JSON is empty.
Result<std::string> EncodeMutationReply(const Status& status,
                                        const MutationResult* ack);
Result<WireReply> DecodeReply(std::string_view payload);

}  // namespace serve
}  // namespace modb

#endif  // MODB_SERVE_WIRE_H_

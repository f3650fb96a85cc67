#include "serve/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/exec_stats.h"
#include "storage/flat.h"

namespace modb {
namespace serve {
namespace {

constexpr std::uint8_t kMaxQueryKind =
    std::uint8_t(QueryRequest::Kind::kWindowAggregate);
constexpr std::uint8_t kMaxFilterKind =
    std::uint8_t(FilterSpec::Kind::kDeftimeIntersects);
constexpr std::uint8_t kMaxPayloadKind =
    std::uint8_t(QueryResult::Payload::kPresent);
constexpr std::uint8_t kMaxMutationKind =
    std::uint8_t(MutationRequest::Kind::kIngest);
constexpr std::uint32_t kMaxStatusCode =
    std::uint32_t(StatusCode::kDeadlineExceeded);
constexpr std::uint8_t kMaxAttributeType =
    std::uint8_t(AttributeType::kMovingRegion);
/// Result-block kind of a mutation ack: first value outside the
/// QueryResult::Payload range, so DecodeResultBlock rejects it.
constexpr std::uint8_t kAckBlockKind = 3;

static_assert(std::endian::native == std::endian::little,
              "wire primitives are little-endian byte copies");

}  // namespace

std::string EncodeFrameHeader(FrameType type, std::uint32_t payload_len) {
  std::string h(kFrameHeaderBytes, '\0');
  std::memcpy(h.data(), kMagic, 4);
  h[4] = char(kWireVersion);
  h[5] = char(std::uint8_t(type));
  std::memcpy(h.data() + 8, &payload_len, sizeof payload_len);
  return h;
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes) {
  if (bytes.size() != kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header must be " +
                                   std::to_string(kFrameHeaderBytes) +
                                   " bytes, got " +
                                   std::to_string(bytes.size()));
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return Status::DataLoss("bad frame magic (not a MODB stream)");
  }
  const std::uint8_t version = std::uint8_t(bytes[4]);
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version) + ", expected " +
                                   std::to_string(kWireVersion));
  }
  const std::uint8_t type = std::uint8_t(bytes[5]);
  if (type != std::uint8_t(FrameType::kQuery) &&
      type != std::uint8_t(FrameType::kReply) &&
      type != std::uint8_t(FrameType::kMutation)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  if (bytes[6] != 0 || bytes[7] != 0) {
    return Status::InvalidArgument("reserved frame header bytes must be 0");
  }
  std::uint32_t len;
  std::memcpy(&len, bytes.data() + 8, sizeof len);
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload length " + std::to_string(len) +
        " exceeds the " + std::to_string(kMaxFramePayload) + "-byte cap");
  }
  return FrameHeader{FrameType(type), len};
}

void WireWriter::Bytes(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

void WireWriter::U8(std::uint8_t v) { buf_.push_back(char(v)); }
void WireWriter::U16(std::uint16_t v) { Bytes(&v, sizeof v); }
void WireWriter::U32(std::uint32_t v) { Bytes(&v, sizeof v); }
void WireWriter::U64(std::uint64_t v) { Bytes(&v, sizeof v); }
void WireWriter::I64(std::int64_t v) { Bytes(&v, sizeof v); }
void WireWriter::F64(double v) { Bytes(&v, sizeof v); }

void WireWriter::Str(std::string_view v) {
  U32(std::uint32_t(v.size()));
  Bytes(v.data(), v.size());
}

void WireWriter::PatchU32(std::size_t at, std::uint32_t v) {
  std::memcpy(buf_.data() + at, &v, sizeof v);
}

Status WireReader::Need(std::size_t n) const {
  if (remaining() < n) {
    return Status::InvalidArgument(
        "truncated payload: need " + std::to_string(n) + " bytes at offset " +
        std::to_string(pos_) + ", have " + std::to_string(remaining()));
  }
  return Status::OK();
}

Status WireReader::Get(void* v, std::size_t n) {
  MODB_RETURN_IF_ERROR(Need(n));
  std::memcpy(v, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status WireReader::U8(std::uint8_t* v) { return Get(v, sizeof *v); }
Status WireReader::U16(std::uint16_t* v) { return Get(v, sizeof *v); }
Status WireReader::U32(std::uint32_t* v) { return Get(v, sizeof *v); }
Status WireReader::U64(std::uint64_t* v) { return Get(v, sizeof *v); }
Status WireReader::I64(std::int64_t* v) { return Get(v, sizeof *v); }
Status WireReader::F64(double* v) { return Get(v, sizeof *v); }

Status WireReader::View(std::size_t n, std::string_view* v) {
  MODB_RETURN_IF_ERROR(Need(n));
  *v = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status WireReader::StrView(std::string_view* v) {
  std::uint32_t len;
  MODB_RETURN_IF_ERROR(U32(&len));
  return View(len, v);
}

Status WireReader::Str(std::string* v) {
  std::string_view view;
  MODB_RETURN_IF_ERROR(StrView(&view));
  v->assign(view);
  return Status::OK();
}

Status WireReader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::InvalidArgument(std::to_string(remaining()) +
                                   " trailing bytes after payload");
  }
  return Status::OK();
}

std::string EncodeQueryRequest(const QueryRequest& req) {
  WireWriter w;
  w.U8(std::uint8_t(req.kind));
  w.Str(req.relation);
  w.U32(std::uint32_t(req.filters.size()));
  for (const FilterSpec& f : req.filters) {
    w.U8(std::uint8_t(f.kind));
    w.Str(f.attr);
    w.Str(f.value);
    w.F64(f.threshold);
    w.F64(f.t0);
    w.F64(f.t1);
  }
  w.U32(std::uint32_t(req.project.size()));
  for (const std::string& name : req.project) w.Str(name);
  w.Str(req.join_relation);
  w.Str(req.attr);
  w.Str(req.join_attr);
  w.F64(req.distance);
  w.U8(req.distinct_pairs ? 1 : 0);
  w.U32(std::uint32_t(req.instants.size()));
  for (Instant t : req.instants) w.F64(t);
  w.I64(req.num_threads);
  // v2: the window-aggregate fields ride at the end of every query
  // payload (fixed size, defaults for the other kinds).
  w.F64(req.window_t0);
  w.F64(req.window_t1);
  w.F64(req.window_width);
  w.F64(req.window_step);
  w.F64(req.min_x);
  w.F64(req.min_y);
  w.F64(req.max_x);
  w.F64(req.max_y);
  // v3: execution deadline in milliseconds (0 = none).
  w.I64(req.deadline_ms);
  return w.Take();
}

Result<QueryRequest> DecodeQueryRequest(std::string_view payload) {
  WireReader r(payload);
  QueryRequest req;
  std::uint8_t kind;
  MODB_RETURN_IF_ERROR(r.U8(&kind));
  if (kind > kMaxQueryKind) {
    return Status::InvalidArgument("unknown query kind " +
                                   std::to_string(kind));
  }
  req.kind = QueryRequest::Kind(kind);
  MODB_RETURN_IF_ERROR(r.Str(&req.relation));
  std::uint32_t num_filters;
  MODB_RETURN_IF_ERROR(r.U32(&num_filters));
  for (std::uint32_t i = 0; i < num_filters; ++i) {
    FilterSpec f;
    std::uint8_t fk;
    MODB_RETURN_IF_ERROR(r.U8(&fk));
    if (fk > kMaxFilterKind) {
      return Status::InvalidArgument("unknown filter kind " +
                                     std::to_string(fk));
    }
    f.kind = FilterSpec::Kind(fk);
    MODB_RETURN_IF_ERROR(r.Str(&f.attr));
    MODB_RETURN_IF_ERROR(r.Str(&f.value));
    MODB_RETURN_IF_ERROR(r.F64(&f.threshold));
    MODB_RETURN_IF_ERROR(r.F64(&f.t0));
    MODB_RETURN_IF_ERROR(r.F64(&f.t1));
    req.filters.push_back(std::move(f));
  }
  std::uint32_t num_project;
  MODB_RETURN_IF_ERROR(r.U32(&num_project));
  for (std::uint32_t i = 0; i < num_project; ++i) {
    std::string name;
    MODB_RETURN_IF_ERROR(r.Str(&name));
    req.project.push_back(std::move(name));
  }
  MODB_RETURN_IF_ERROR(r.Str(&req.join_relation));
  MODB_RETURN_IF_ERROR(r.Str(&req.attr));
  MODB_RETURN_IF_ERROR(r.Str(&req.join_attr));
  MODB_RETURN_IF_ERROR(r.F64(&req.distance));
  std::uint8_t distinct;
  MODB_RETURN_IF_ERROR(r.U8(&distinct));
  if (distinct > 1) {
    return Status::InvalidArgument("distinct_pairs must be 0 or 1, got " +
                                   std::to_string(distinct));
  }
  req.distinct_pairs = distinct != 0;
  std::uint32_t num_instants;
  MODB_RETURN_IF_ERROR(r.U32(&num_instants));
  for (std::uint32_t i = 0; i < num_instants; ++i) {
    double t;
    MODB_RETURN_IF_ERROR(r.F64(&t));
    req.instants.push_back(t);
  }
  MODB_RETURN_IF_ERROR(r.I64(&req.num_threads));
  MODB_RETURN_IF_ERROR(r.F64(&req.window_t0));
  MODB_RETURN_IF_ERROR(r.F64(&req.window_t1));
  MODB_RETURN_IF_ERROR(r.F64(&req.window_width));
  MODB_RETURN_IF_ERROR(r.F64(&req.window_step));
  MODB_RETURN_IF_ERROR(r.F64(&req.min_x));
  MODB_RETURN_IF_ERROR(r.F64(&req.min_y));
  MODB_RETURN_IF_ERROR(r.F64(&req.max_x));
  MODB_RETURN_IF_ERROR(r.F64(&req.max_y));
  MODB_RETURN_IF_ERROR(r.I64(&req.deadline_ms));
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  return req;
}

std::string EncodeMutationRequest(const MutationRequest& req) {
  WireWriter w;
  w.U8(std::uint8_t(req.kind));
  w.Str(req.relation);
  w.U32(std::uint32_t(req.fixes.size()));
  for (const MutationRequest::Fix& f : req.fixes) {
    w.Str(f.object_id);
    w.F64(f.t);
    w.F64(f.x);
    w.F64(f.y);
  }
  w.U64(req.seal_units);
  // v3: the idempotency key (empty client_id = unkeyed, no dedup).
  w.Str(req.client_id);
  w.U64(req.batch_seq);
  return w.Take();
}

Result<MutationRequest> DecodeMutationRequest(std::string_view payload) {
  WireReader r(payload);
  MutationRequest req;
  std::uint8_t kind;
  MODB_RETURN_IF_ERROR(r.U8(&kind));
  if (kind > kMaxMutationKind) {
    return Status::InvalidArgument("unknown mutation kind " +
                                   std::to_string(kind));
  }
  req.kind = MutationRequest::Kind(kind);
  MODB_RETURN_IF_ERROR(r.Str(&req.relation));
  std::uint32_t num_fixes;
  MODB_RETURN_IF_ERROR(r.U32(&num_fixes));
  for (std::uint32_t i = 0; i < num_fixes; ++i) {
    MutationRequest::Fix f;
    MODB_RETURN_IF_ERROR(r.Str(&f.object_id));
    MODB_RETURN_IF_ERROR(r.F64(&f.t));
    MODB_RETURN_IF_ERROR(r.F64(&f.x));
    MODB_RETURN_IF_ERROR(r.F64(&f.y));
    req.fixes.push_back(std::move(f));
  }
  MODB_RETURN_IF_ERROR(r.U64(&req.seal_units));
  MODB_RETURN_IF_ERROR(r.Str(&req.client_id));
  MODB_RETURN_IF_ERROR(r.U64(&req.batch_seq));
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  return req;
}

std::string EncodeMutationAck(const MutationResult& ack) {
  WireWriter w;
  w.U8(kAckBlockKind);
  w.U64(ack.accepted);
  w.U64(ack.objects);
  w.U64(ack.mem_units);
  w.U64(ack.delta_entries);
  w.U64(ack.base_entries);
  w.U64(ack.merges);
  w.U64(ack.epoch);
  return w.Take();
}

Result<MutationResult> DecodeMutationAck(std::string_view block) {
  WireReader r(block);
  MutationResult ack;
  std::uint8_t kind;
  MODB_RETURN_IF_ERROR(r.U8(&kind));
  if (kind != kAckBlockKind) {
    return Status::InvalidArgument("not a mutation ack block (kind " +
                                   std::to_string(kind) + ")");
  }
  MODB_RETURN_IF_ERROR(r.U64(&ack.accepted));
  MODB_RETURN_IF_ERROR(r.U64(&ack.objects));
  MODB_RETURN_IF_ERROR(r.U64(&ack.mem_units));
  MODB_RETURN_IF_ERROR(r.U64(&ack.delta_entries));
  MODB_RETURN_IF_ERROR(r.U64(&ack.base_entries));
  MODB_RETURN_IF_ERROR(r.U64(&ack.merges));
  MODB_RETURN_IF_ERROR(r.U64(&ack.epoch));
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  return ack;
}

namespace {

Status OverCap(std::size_t bytes) {
  return Status::InvalidArgument(
      "reply of more than " + std::to_string(bytes) + " bytes exceeds the " +
      std::to_string(kMaxFramePayload) +
      "-byte frame payload cap (kMaxFramePayload); narrow the query");
}

// The exact size of the result block AppendResultBlock writes, counted
// without allocating. InvalidArgument as soon as it plus `outside` (the
// reply bytes around the block) passes kMaxFramePayload, so an
// oversized reply costs no memory.
Result<std::size_t> ResultBlockBytes(const QueryResult& result,
                                     std::size_t outside) {
  std::size_t n = 1;  // payload kind
  switch (result.payload) {
    case QueryResult::Payload::kRows: {
      const Relation& rel = result.rows;
      if (rel.schema().NumAttributes() == 0 && rel.NumTuples() != 0) {
        return Status::InvalidArgument("rows without attributes");
      }
      n += 4 + rel.name().size() + 4;
      for (const AttributeDef& attr : rel.schema().attributes()) {
        n += 4 + attr.name.size() + 1;
      }
      n += 4;
      for (const Tuple& t : rel.tuples()) {
        for (const AttributeValue& v : t) n += 4 + AttributeBytes(v);
        if (outside + n > kMaxFramePayload) return OverCap(outside + n);
      }
      break;
    }
    case QueryResult::Payload::kXY:
      n += 16 + sizeof(double) * (result.xs.size() + result.ys.size()) +
           result.defined.size();
      break;
    case QueryResult::Payload::kPresent:
      n += 16 + result.present.size();
      break;
  }
  if (outside + n > kMaxFramePayload) return OverCap(outside + n);
  return n;
}

// Appends the result block to w: attribute blobs are written in place
// by AppendAttribute, the kXY / kPresent arrays with one copy each.
Status AppendResultBlock(WireWriter* w, const QueryResult& result) {
  w->U8(std::uint8_t(result.payload));
  switch (result.payload) {
    case QueryResult::Payload::kRows: {
      const Relation& rel = result.rows;
      w->Str(rel.name());
      w->U32(std::uint32_t(rel.schema().NumAttributes()));
      for (const AttributeDef& attr : rel.schema().attributes()) {
        w->Str(attr.name);
        w->U8(std::uint8_t(attr.type));
      }
      w->U32(std::uint32_t(rel.NumTuples()));
      for (const Tuple& t : rel.tuples()) {
        for (const AttributeValue& v : t) {
          // Length prefix first, patched once the blob is in place.
          const std::size_t at = w->size();
          w->U32(0);
          MODB_RETURN_IF_ERROR(AppendAttribute(w->buffer(), v));
          w->PatchU32(at, std::uint32_t(w->size() - at - 4));
        }
      }
      break;
    }
    case QueryResult::Payload::kXY:
      w->U64(result.batch_tuples);
      w->U64(result.batch_instants);
      w->Bytes(result.xs.data(), sizeof(double) * result.xs.size());
      w->Bytes(result.ys.data(), sizeof(double) * result.ys.size());
      w->Bytes(result.defined.data(), result.defined.size());
      break;
    case QueryResult::Payload::kPresent:
      w->U64(result.batch_tuples);
      w->U64(result.batch_instants);
      w->Bytes(result.present.data(), result.present.size());
      break;
  }
  return Status::OK();
}

// Reads `cells` f64s after one bounds check.
Status ReadF64s(WireReader* r, std::uint64_t cells, std::vector<double>* out) {
  std::string_view bytes;
  MODB_RETURN_IF_ERROR(r->View(cells * sizeof(double), &bytes));
  out->resize(cells);
  std::memcpy(out->data(), bytes.data(), bytes.size());
  return Status::OK();
}

// Reads `cells` flag bytes after one bounds check; each must be 0 or 1.
Status ReadFlags(WireReader* r, std::uint64_t cells, const char* what,
                 std::vector<std::uint8_t>* out) {
  std::string_view bytes;
  MODB_RETURN_IF_ERROR(r->View(cells, &bytes));
  if (std::any_of(bytes.begin(), bytes.end(),
                  [](char c) { return std::uint8_t(c) > 1; })) {
    return Status::InvalidArgument(std::string(what) +
                                   " byte must be 0 or 1");
  }
  out->assign(bytes.begin(), bytes.end());
  return Status::OK();
}

// The batch geometry of a kXY / kPresent block, rejected when its
// product could not fit a frame.
Result<std::uint64_t> ReadCells(WireReader* r, QueryResult* result,
                                const char* what) {
  MODB_RETURN_IF_ERROR(r->U64(&result->batch_tuples));
  MODB_RETURN_IF_ERROR(r->U64(&result->batch_instants));
  if (result->batch_instants != 0 &&
      result->batch_tuples > kMaxFramePayload / result->batch_instants) {
    return Status::InvalidArgument(std::string(what) +
                                   " payload geometry overflows");
  }
  return result->batch_tuples * result->batch_instants;
}

}  // namespace

Result<std::string> EncodeResultBlock(const QueryResult& result) {
  Result<std::size_t> bytes = ResultBlockBytes(result, 0);
  MODB_RETURN_IF_ERROR(bytes.status());
  WireWriter w;
  w.Reserve(*bytes);
  MODB_RETURN_IF_ERROR(AppendResultBlock(&w, result));
  return w.Take();
}

Result<QueryResult> DecodeResultBlock(std::string_view block) {
  WireReader r(block);
  QueryResult result;
  std::uint8_t payload;
  MODB_RETURN_IF_ERROR(r.U8(&payload));
  if (payload > kMaxPayloadKind) {
    return Status::InvalidArgument("unknown result payload kind " +
                                   std::to_string(payload));
  }
  result.payload = QueryResult::Payload(payload);
  switch (result.payload) {
    case QueryResult::Payload::kRows: {
      std::string name;
      MODB_RETURN_IF_ERROR(r.Str(&name));
      std::uint32_t num_attrs;
      MODB_RETURN_IF_ERROR(r.U32(&num_attrs));
      std::vector<AttributeDef> attrs;
      for (std::uint32_t i = 0; i < num_attrs; ++i) {
        AttributeDef attr;
        MODB_RETURN_IF_ERROR(r.Str(&attr.name));
        std::uint8_t type;
        MODB_RETURN_IF_ERROR(r.U8(&type));
        if (type > kMaxAttributeType) {
          return Status::InvalidArgument("unknown attribute type " +
                                         std::to_string(type));
        }
        attr.type = AttributeType(type);
        attrs.push_back(std::move(attr));
      }
      Relation rel(std::move(name), Schema(std::move(attrs)));
      std::uint32_t num_tuples;
      MODB_RETURN_IF_ERROR(r.U32(&num_tuples));
      // Every value is at least its 4-byte length prefix, so a tuple
      // count the block cannot hold is corruption — reject it before
      // inserting anything (attribute-less tuples would consume no
      // bytes at all).
      const std::size_t min_tuple_bytes = 4 * std::size_t(num_attrs);
      if (num_attrs == 0 ? num_tuples != 0
                         : num_tuples > r.remaining() / min_tuple_bytes) {
        return Status::InvalidArgument("tuple count exceeds the result block");
      }
      std::string_view blob;
      for (std::uint32_t i = 0; i < num_tuples; ++i) {
        Tuple t;
        t.reserve(num_attrs);
        for (std::size_t a = 0; a < num_attrs; ++a) {
          MODB_RETURN_IF_ERROR(r.StrView(&blob));
          Result<AttributeValue> v = ParseAttribute(blob);
          MODB_RETURN_IF_ERROR(v.status());
          t.push_back(*std::move(v));
        }
        // Insert re-checks arity and types against the decoded schema.
        MODB_RETURN_IF_ERROR(rel.Insert(std::move(t)));
      }
      result.rows = std::move(rel);
      break;
    }
    case QueryResult::Payload::kXY: {
      Result<std::uint64_t> cells = ReadCells(&r, &result, "xy");
      MODB_RETURN_IF_ERROR(cells.status());
      MODB_RETURN_IF_ERROR(ReadF64s(&r, *cells, &result.xs));
      MODB_RETURN_IF_ERROR(ReadF64s(&r, *cells, &result.ys));
      MODB_RETURN_IF_ERROR(ReadFlags(&r, *cells, "defined", &result.defined));
      break;
    }
    case QueryResult::Payload::kPresent: {
      Result<std::uint64_t> cells = ReadCells(&r, &result, "present");
      MODB_RETURN_IF_ERROR(cells.status());
      MODB_RETURN_IF_ERROR(ReadFlags(&r, *cells, "present", &result.present));
      break;
    }
  }
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  return result;
}

namespace {

// Shared reply layout: u32 code, string message, string block, string
// stats JSON. Errors always carry empty block and stats.
std::string EncodeReplyFrom(const Status& status, std::string_view block,
                            std::string_view stats_json) {
  WireWriter w;
  w.U32(std::uint32_t(status.code()));
  w.Str(status.message());
  if (status.ok()) {
    w.Str(block);
    w.Str(stats_json);
  } else {
    w.Str("");
    w.Str("");
  }
  return w.Take();
}

}  // namespace

Result<std::string> EncodeReply(const Status& status,
                                const QueryResult* result) {
  if (!status.ok() || result == nullptr) return EncodeReplyFrom(status, "", "");
  const std::string stats_json = result->stats.ToJson();
  // Everything but the block: the code, the message, the stats JSON and
  // the three length prefixes.
  const std::size_t rest =
      4 + 4 + status.message().size() + 4 + 4 + stats_json.size();
  Result<std::size_t> block = ResultBlockBytes(*result, rest);
  MODB_RETURN_IF_ERROR(block.status());
  WireWriter w;
  w.Reserve(rest + *block);
  w.U32(std::uint32_t(status.code()));
  w.Str(status.message());
  // The block goes straight into the reply; its length is patched once
  // it is in place.
  const std::size_t at = w.size();
  w.U32(0);
  MODB_RETURN_IF_ERROR(AppendResultBlock(&w, *result));
  w.PatchU32(at, std::uint32_t(w.size() - at - 4));
  w.Str(stats_json);
  return w.Take();
}

Result<std::string> EncodeMutationReply(const Status& status,
                                        const MutationResult* ack) {
  if (status.ok() && ack != nullptr) {
    return EncodeReplyFrom(status, EncodeMutationAck(*ack), "");
  }
  return EncodeReplyFrom(status, "", "");
}

Result<WireReply> DecodeReply(std::string_view payload) {
  WireReader r(payload);
  WireReply reply;
  std::uint32_t code;
  MODB_RETURN_IF_ERROR(r.U32(&code));
  if (code > kMaxStatusCode) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  std::string message;
  MODB_RETURN_IF_ERROR(r.Str(&message));
  reply.status = Status(StatusCode(code), std::move(message));
  MODB_RETURN_IF_ERROR(r.StrView(&reply.result_block));
  MODB_RETURN_IF_ERROR(r.Str(&reply.stats_json));
  MODB_RETURN_IF_ERROR(r.ExpectEnd());
  if (reply.status.ok() && reply.result_block.empty()) {
    return Status::InvalidArgument("OK reply carries no result block");
  }
  if (!reply.status.ok() &&
      !(reply.result_block.empty() && reply.stats_json.empty())) {
    return Status::InvalidArgument("error reply carries a result block");
  }
  return reply;
}

}  // namespace serve
}  // namespace modb

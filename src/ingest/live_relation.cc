#include "ingest/live_relation.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>
#include <utility>

#include "obs/metrics.h"

namespace modb {
namespace ingest {

namespace {

// Manifest (store root 0), hand-encoded little-endian:
//   "MOLV" u32 version  u32 count
//   per object, in row order:
//     u32 id_len  id bytes  u8 has_units  f64 last_t  f64 last_x  f64 last_y
//   v2 appends the ingest dedup window:
//     u32 num_clients
//     per client, ascending id: u32 id_len  id bytes  u32 num_acks
//       per ack, ascending seq: u64 seq  u64 ack fields x7
//         (accepted objects mem_units delta_entries base_entries
//          merges epoch)
// The last fix is persisted verbatim: re-deriving it from the final
// unit's motion coefficients would round, and bitwise resume needs the
// exact anchor the next Absorb will extend from. A v1 manifest (no
// dedup section) still recovers — with an empty window.
constexpr char kManifestMagic[4] = {'M', 'O', 'L', 'V'};
constexpr std::uint32_t kManifestVersion = 2;
constexpr std::uint32_t kMinManifestVersion = 1;
// Root slot for an object that has an anchor but no units yet: a 1-byte
// opaque placeholder keeps root i+1 <-> row i alignment.
constexpr std::string_view kPlaceholderBlob = std::string_view("\0", 1);

void AppendU32(std::string* out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, sizeof v);
  out->append(b, sizeof v);
}

void AppendF64(std::string* out, double v) {
  char b[8];
  std::memcpy(b, &v, sizeof v);
  out->append(b, sizeof v);
}

void AppendU64(std::string* out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, sizeof v);
  out->append(b, sizeof v);
}

bool ReadU32(std::string_view s, std::size_t* off, std::uint32_t* v) {
  if (s.size() - *off < sizeof *v) return false;
  std::memcpy(v, s.data() + *off, sizeof *v);
  *off += sizeof *v;
  return true;
}

bool ReadF64(std::string_view s, std::size_t* off, double* v) {
  if (s.size() - *off < sizeof *v) return false;
  std::memcpy(v, s.data() + *off, sizeof *v);
  *off += sizeof *v;
  return true;
}

bool ReadU64(std::string_view s, std::size_t* off, std::uint64_t* v) {
  if (s.size() - *off < sizeof *v) return false;
  std::memcpy(v, s.data() + *off, sizeof *v);
  *off += sizeof *v;
  return true;
}

Status BadManifest(const std::string& what) {
  return Status::DataLoss("live relation manifest: " + what);
}

}  // namespace

LiveRelation::LiveRelation(std::string name, LiveOptions options)
    : options_(options),
      rel_(std::move(name),
           Schema({{"id", AttributeType::kString},
                   {"trail", AttributeType::kMovingPoint}})) {
  if (options_.seal_units == 0) options_.seal_units = 1;
  if (options_.merge_threshold == 0) options_.merge_threshold = 1;
}

std::optional<std::size_t> LiveRelation::RowOf(
    const std::string& object_id) const {
  auto it = rows_.find(object_id);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

UnitBlocksView LiveRelation::Blocks() const {
  UnitBlocksView view;
  view.owner = this;
  view.row_fn = [](const void* owner, std::size_t row) {
    return std::span<const Cube>(
        static_cast<const LiveRelation*>(owner)->tail(row).sealed_blocks());
  };
  view.rows = objects_.size();
  return view;
}

Result<std::size_t> LiveRelation::AddObject(const std::string& object_id) {
  const std::size_t row = objects_.size();
  Tuple tuple;
  tuple.emplace_back(StringValue(object_id));
  tuple.emplace_back(MovingPoint());
  MODB_RETURN_IF_ERROR(rel_.Insert(std::move(tuple)));
  objects_.emplace_back();
  rows_.emplace(object_id, row);
  return row;
}

Status LiveRelation::Ingest(const std::vector<IngestFix>& fixes) {
  // Validation pass: nothing below may mutate state until the whole
  // batch is known good, so a rejected batch is a no-op.
  std::unordered_map<std::string, Instant> batch_last;
  std::size_t new_objects = 0;
  for (const IngestFix& fix : fixes) {
    if (!std::isfinite(fix.t) || !std::isfinite(fix.x) ||
        !std::isfinite(fix.y)) {
      return Status::InvalidArgument("ingest fix for object '" +
                                     fix.object_id +
                                     "' has a non-finite field");
    }
    auto it = batch_last.find(fix.object_id);
    if (it != batch_last.end()) {
      if (!(fix.t > it->second)) {
        return Status::OutOfRange(
            "ingest batch for object '" + fix.object_id +
            "' is not strictly increasing in time");
      }
      it->second = fix.t;
      continue;
    }
    auto rit = rows_.find(fix.object_id);
    if (rit != rows_.end()) {
      const TailSeries& tail = objects_[rit->second].tail;
      if (tail.has_fix() && !(fix.t > tail.last_time())) {
        return Status::OutOfRange("ingest fix for object '" + fix.object_id +
                                  "' at t=" + std::to_string(fix.t) +
                                  " is not after the tail frontier t=" +
                                  std::to_string(tail.last_time()));
      }
    } else {
      ++new_objects;
    }
    batch_last.emplace(fix.object_id, fix.t);
  }
  if (store_ != nullptr && objects_.size() + new_objects > kMaxStoredObjects) {
    return Status::ResourceExhausted(
        "live relation " + rel_.name() + " is store-backed and capped at " +
        std::to_string(kMaxStoredObjects) + " objects");
  }

  // Mutation pass: every Absorb below must succeed (validation mirrored
  // the tail's only rejection rule), so state stays consistent.
  std::vector<std::size_t> touched;
  touched.reserve(batch_last.size());
  for (const IngestFix& fix : fixes) {
    std::size_t row;
    auto rit = rows_.find(fix.object_id);
    if (rit != rows_.end()) {
      row = rit->second;
    } else {
      Result<std::size_t> added = AddObject(fix.object_id);
      MODB_RETURN_IF_ERROR(added.status());
      row = *added;
    }
    ObjectState& st = objects_[row];
    MODB_RETURN_IF_ERROR(st.tail.Absorb(fix.t, Point(fix.x, fix.y)));
    st.dirty = true;
    touched.push_back(row);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Refresh + seal pass, ascending row order for determinism.
  std::vector<RTree3D::Entry> sealed_entries;
  for (std::size_t row : touched) {
    ObjectState& st = objects_[row];
    Result<MovingPoint> mp = st.tail.Materialize();
    MODB_RETURN_IF_ERROR(mp.status());
    MODB_RETURN_IF_ERROR(
        rel_.SetValue(row, std::size_t(kTrailSlot), std::move(*mp)));
    if (st.tail.NumUnits() - st.tail.sealed() > options_.seal_units) {
      const std::size_t old_frontier = st.tail.sealed();
      const std::size_t frontier = st.tail.Seal();
      for (std::size_t u = old_frontier; u < frontier; ++u) {
        sealed_entries.push_back(
            {st.tail.units()[u].BoundingCube(), std::int64_t(row)});
      }
    }
  }
  if (!sealed_entries.empty()) {
    index_.AppendToDelta(sealed_entries, options_.fanout);
  }
  RebuildMem();
  if (index_.DeltaEntries() >= options_.merge_threshold) {
    index_.MergeInline(options_.fanout);
  }
  MODB_COUNTER_ADD("ingest.fixes", fixes.size());
  MODB_COUNTER_INC("ingest.batches");
  return Status::OK();
}

void LiveRelation::SealAll() {
  std::vector<RTree3D::Entry> sealed_entries;
  for (std::size_t row = 0; row < objects_.size(); ++row) {
    TailSeries& tail = objects_[row].tail;
    const std::size_t old_frontier = tail.sealed();
    const std::size_t frontier = tail.Seal();
    for (std::size_t u = old_frontier; u < frontier; ++u) {
      sealed_entries.push_back(
          {tail.units()[u].BoundingCube(), std::int64_t(row)});
    }
  }
  if (!sealed_entries.empty()) {
    index_.AppendToDelta(sealed_entries, options_.fanout);
  }
  RebuildMem();
  index_.MergeInline(options_.fanout);
}

void LiveRelation::RebuildMem() {
  std::vector<RTree3D::Entry> mem;
  for (std::size_t row = 0; row < objects_.size(); ++row) {
    const TailSeries& tail = objects_[row].tail;
    const std::vector<UPoint>& units = tail.units();
    for (std::size_t u = tail.sealed(); u < units.size(); ++u) {
      mem.push_back({units[u].BoundingCube(), std::int64_t(row)});
    }
  }
  index_.SetMem(std::move(mem));
}

std::string LiveRelation::EncodeManifest() const {
  std::string out;
  out.append(kManifestMagic, sizeof kManifestMagic);
  AppendU32(&out, kManifestVersion);
  AppendU32(&out, std::uint32_t(objects_.size()));
  for (std::size_t row = 0; row < objects_.size(); ++row) {
    const std::string& id =
        std::get<StringValue>(rel_.tuple(row)[std::size_t(kIdSlot)]).value();
    const TailSeries& tail = objects_[row].tail;
    AppendU32(&out, std::uint32_t(id.size()));
    out += id;
    out.push_back(tail.NumUnits() > 0 ? 1 : 0);
    AppendF64(&out, tail.last_time());
    AppendF64(&out, tail.last_point().x);
    AppendF64(&out, tail.last_point().y);
  }
  // v2: the dedup window, in map order (ascending client id / seq) so
  // the manifest bytes — and the commit they ride in — are
  // deterministic for a given window state.
  std::lock_guard<std::mutex> dedup_lock(dedup_mu_);
  AppendU32(&out, std::uint32_t(dedup_.size()));
  for (const auto& [client, window] : dedup_) {
    AppendU32(&out, std::uint32_t(client.size()));
    out += client;
    AppendU32(&out, std::uint32_t(window.acks.size()));
    for (const auto& [seq, ack] : window.acks) {
      AppendU64(&out, seq);
      AppendU64(&out, ack.accepted);
      AppendU64(&out, ack.objects);
      AppendU64(&out, ack.mem_units);
      AppendU64(&out, ack.delta_entries);
      AppendU64(&out, ack.base_entries);
      AppendU64(&out, ack.merges);
      AppendU64(&out, ack.epoch);
    }
  }
  return out;
}

std::optional<IngestAck> LiveRelation::DedupLookup(
    const std::string& client_id, std::uint64_t batch_seq) const {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  auto it = dedup_.find(client_id);
  if (it == dedup_.end()) return std::nullopt;
  auto ack = it->second.acks.find(batch_seq);
  if (ack == it->second.acks.end()) return std::nullopt;
  return ack->second;
}

void LiveRelation::RecordAck(const std::string& client_id,
                             std::uint64_t batch_seq, const IngestAck& ack) {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  auto it = dedup_.find(client_id);
  if (it == dedup_.end()) {
    if (dedup_.size() >= kDedupMaxClients) {
      // Evict the least recently recording client (deterministic: the
      // stamp is a plain counter under this mutex).
      auto victim = dedup_.begin();
      for (auto c = dedup_.begin(); c != dedup_.end(); ++c) {
        if (c->second.last_stamp < victim->second.last_stamp) victim = c;
      }
      dedup_.erase(victim);
    }
    it = dedup_.emplace(client_id, ClientWindow()).first;
  }
  it->second.last_stamp = ++dedup_stamp_;
  it->second.acks[batch_seq] = ack;
  while (it->second.acks.size() > kDedupMaxSeqsPerClient) {
    it->second.acks.erase(it->second.acks.begin());
  }
}

std::size_t LiveRelation::DedupEntries() const {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  std::size_t total = 0;
  for (const auto& [client, window] : dedup_) total += window.acks.size();
  return total;
}

Status LiveRelation::AttachStore(VersionedSpillStore* store) {
  if (store_ != nullptr) {
    return Status::FailedPrecondition("live relation " + rel_.name() +
                                      " already has a store attached");
  }
  if (store->NumRoots() == 0) {
    if (objects_.size() > kMaxStoredObjects) {
      return Status::ResourceExhausted(
          "live relation " + rel_.name() + " exceeds the store cap of " +
          std::to_string(kMaxStoredObjects) + " objects");
    }
    store_ = store;
    persisted_objects_ = 0;
    manifest_root_exists_ = false;
    return Status::OK();
  }
  if (!objects_.empty()) {
    return Status::FailedPrecondition(
        "a non-empty store can only be attached to a fresh live relation");
  }
  return RecoverFrom(store);
}

Status LiveRelation::RecoverFrom(VersionedSpillStore* store) {
  Result<std::string> manifest = store->ReadRootBlob(0);
  MODB_RETURN_IF_ERROR(manifest.status());
  std::string_view s = *manifest;
  if (s.size() < sizeof kManifestMagic ||
      std::memcmp(s.data(), kManifestMagic, sizeof kManifestMagic) != 0) {
    return BadManifest("bad magic");
  }
  std::size_t off = sizeof kManifestMagic;
  std::uint32_t version = 0, count = 0;
  if (!ReadU32(s, &off, &version)) return BadManifest("truncated version");
  if (version < kMinManifestVersion || version > kManifestVersion) {
    return BadManifest("unknown version " + std::to_string(version));
  }
  if (!ReadU32(s, &off, &count)) return BadManifest("truncated object count");
  if (store->NumRoots() != std::size_t(count) + 1) {
    return BadManifest("object count " + std::to_string(count) +
                       " disagrees with " + std::to_string(store->NumRoots()) +
                       " store roots");
  }

  std::vector<RTree3D::Entry> base;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t id_len = 0;
    if (!ReadU32(s, &off, &id_len)) return BadManifest("truncated id length");
    if (s.size() - off < std::size_t(id_len) + 1) {
      return BadManifest("truncated object");
    }
    std::string id(s.substr(off, id_len));
    off += id_len;
    const bool has_units = s[off++] != 0;
    double last_t = 0, last_x = 0, last_y = 0;
    if (!ReadF64(s, &off, &last_t) || !ReadF64(s, &off, &last_x) ||
        !ReadF64(s, &off, &last_y)) {
      return BadManifest("truncated last fix");
    }
    if (rows_.count(id) != 0) return BadManifest("duplicate object id " + id);

    const std::size_t row = objects_.size();
    ObjectState st;
    MovingPoint trail;
    if (has_units) {
      Result<MovingPoint> mp = store->LoadRoot<MovingPoint>(i + 1);
      MODB_RETURN_IF_ERROR(mp.status());
      Result<TailSeries> tail =
          TailSeries::Resume(*mp, last_t, Point(last_x, last_y));
      MODB_RETURN_IF_ERROR(tail.status());
      st.tail = std::move(*tail);
      trail = std::move(*mp);
      // Resume leaves only the newest unit hot; everything below the
      // frontier is immutable and goes straight into base.
      for (std::size_t u = 0; u < st.tail.sealed(); ++u) {
        base.push_back(
            {st.tail.units()[u].BoundingCube(), std::int64_t(row)});
      }
    } else {
      MODB_RETURN_IF_ERROR(st.tail.Absorb(last_t, Point(last_x, last_y)));
    }
    Tuple tuple;
    tuple.emplace_back(StringValue(id));
    tuple.emplace_back(std::move(trail));
    MODB_RETURN_IF_ERROR(rel_.Insert(std::move(tuple)));
    objects_.push_back(std::move(st));
    rows_.emplace(std::move(id), row);
  }
  if (version >= 2) {
    std::uint32_t num_clients = 0;
    if (!ReadU32(s, &off, &num_clients)) {
      return BadManifest("truncated dedup client count");
    }
    if (num_clients > kDedupMaxClients) {
      return BadManifest("dedup window claims " +
                         std::to_string(num_clients) + " clients, cap is " +
                         std::to_string(kDedupMaxClients));
    }
    std::lock_guard<std::mutex> dedup_lock(dedup_mu_);
    for (std::uint32_t c = 0; c < num_clients; ++c) {
      std::uint32_t id_len = 0;
      if (!ReadU32(s, &off, &id_len)) {
        return BadManifest("truncated dedup client id length");
      }
      if (s.size() - off < std::size_t(id_len)) {
        return BadManifest("truncated dedup client id");
      }
      std::string client(s.substr(off, id_len));
      off += id_len;
      if (dedup_.count(client) != 0) {
        return BadManifest("duplicate dedup client " + client);
      }
      std::uint32_t num_acks = 0;
      if (!ReadU32(s, &off, &num_acks)) {
        return BadManifest("truncated dedup ack count");
      }
      if (num_acks > kDedupMaxSeqsPerClient) {
        return BadManifest("dedup client " + client + " claims " +
                           std::to_string(num_acks) + " acks, cap is " +
                           std::to_string(kDedupMaxSeqsPerClient));
      }
      ClientWindow window;
      window.last_stamp = ++dedup_stamp_;
      std::uint64_t prev_seq = 0;
      for (std::uint32_t a = 0; a < num_acks; ++a) {
        std::uint64_t seq = 0;
        IngestAck ack;
        if (!ReadU64(s, &off, &seq) || !ReadU64(s, &off, &ack.accepted) ||
            !ReadU64(s, &off, &ack.objects) ||
            !ReadU64(s, &off, &ack.mem_units) ||
            !ReadU64(s, &off, &ack.delta_entries) ||
            !ReadU64(s, &off, &ack.base_entries) ||
            !ReadU64(s, &off, &ack.merges) || !ReadU64(s, &off, &ack.epoch)) {
          return BadManifest("truncated dedup ack");
        }
        if (a > 0 && seq <= prev_seq) {
          return BadManifest("dedup acks for client " + client +
                             " are not ascending");
        }
        prev_seq = seq;
        window.acks.emplace(seq, ack);
      }
      dedup_.emplace(std::move(client), std::move(window));
    }
  }
  if (off != s.size()) return BadManifest("trailing bytes");

  index_.ResetBase(std::move(base), options_.fanout);
  RebuildMem();
  store_ = store;
  persisted_objects_ = objects_.size();
  manifest_root_exists_ = true;
  MODB_COUNTER_INC("ingest.recoveries");
  return Status::OK();
}

Status LiveRelation::Persist() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition("live relation " + rel_.name() +
                                      " has no store attached");
  }
  std::lock_guard<std::mutex> persist_lock(persist_mu_);
  const std::string manifest = EncodeManifest();
  if (!manifest_root_exists_) {
    Result<std::size_t> root =
        store_->StageBlob(manifest, SpillValueType::kOpaque);
    MODB_RETURN_IF_ERROR(root.status());
    manifest_root_exists_ = true;
  } else {
    MODB_RETURN_IF_ERROR(
        store_->RestageBlob(0, manifest, SpillValueType::kOpaque));
  }
  for (std::size_t row = 0; row < objects_.size(); ++row) {
    ObjectState& st = objects_[row];
    const bool is_new_root = row >= persisted_objects_;
    if (!is_new_root && !st.dirty) continue;
    if (st.tail.NumUnits() == 0) {
      if (is_new_root) {
        MODB_RETURN_IF_ERROR(
            store_->StageBlob(kPlaceholderBlob, SpillValueType::kOpaque)
                .status());
      } else {
        MODB_RETURN_IF_ERROR(store_->RestageBlob(
            row + 1, kPlaceholderBlob, SpillValueType::kOpaque));
      }
    } else {
      Result<MovingPoint> mp = st.tail.Materialize();
      MODB_RETURN_IF_ERROR(mp.status());
      if (is_new_root) {
        MODB_RETURN_IF_ERROR(store_->StageValue(*mp).status());
      } else {
        MODB_RETURN_IF_ERROR(store_->RestageValue(row + 1, *mp));
      }
    }
  }
  MODB_RETURN_IF_ERROR(store_->Commit());
  persisted_objects_ = objects_.size();
  for (ObjectState& st : objects_) st.dirty = false;
  MODB_COUNTER_INC("ingest.persists");
  return Status::OK();
}

}  // namespace ingest
}  // namespace modb

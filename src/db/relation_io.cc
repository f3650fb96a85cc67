#include "db/relation_io.h"

#include <fstream>

#include "storage/flat.h"

namespace modb {

namespace {

constexpr uint32_t kRelationMagic = 0x4d4f4452;  // "MODR".

}  // namespace

Result<std::string> SerializeAttribute(const AttributeValue& value) {
  std::string out;
  MODB_RETURN_IF_ERROR(AppendAttribute(&out, value));
  return out;
}

Result<AttributeValue> DeserializeAttribute(std::string_view blob) {
  return ParseAttribute(blob);
}

Status SaveRelation(const Relation& rel, const std::string& path) {
  ByteWriter w;
  w.PutU32(kRelationMagic);
  w.PutU32(uint32_t(rel.name().size()));
  w.PutBytes(rel.name());
  w.PutU32(uint32_t(rel.schema().NumAttributes()));
  for (const AttributeDef& d : rel.schema().attributes()) {
    w.PutU32(uint32_t(d.name.size()));
    w.PutBytes(d.name);
    w.PutU8(uint8_t(d.type));
  }
  w.PutU32(uint32_t(rel.NumTuples()));
  for (const Tuple& t : rel.tuples()) {
    for (const AttributeValue& v : t) {
      Result<std::string> blob = SerializeAttribute(v);
      if (!blob.ok()) return blob.status();
      w.PutU32(uint32_t(blob->size()));
      w.PutBytes(*blob);
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  std::string bytes = w.Take();
  out.write(bytes.data(), std::streamsize(bytes.size()));
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

Result<Relation> LoadRelation(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ByteReader r(bytes);
  uint32_t magic;
  MODB_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kRelationMagic) {
    return Status::InvalidArgument("not a MODB relation file: " + path);
  }
  uint32_t name_len;
  MODB_RETURN_IF_ERROR(r.GetU32(&name_len));
  std::string name;
  MODB_RETURN_IF_ERROR(r.GetBytes(name_len, &name));
  uint32_t num_attrs;
  MODB_RETURN_IF_ERROR(r.GetU32(&num_attrs));
  std::vector<AttributeDef> defs;
  for (uint32_t i = 0; i < num_attrs; ++i) {
    uint32_t len;
    MODB_RETURN_IF_ERROR(r.GetU32(&len));
    AttributeDef def;
    MODB_RETURN_IF_ERROR(r.GetBytes(len, &def.name));
    uint8_t tag;
    MODB_RETURN_IF_ERROR(r.GetU8(&tag));
    if (tag > uint8_t(AttributeType::kMovingRegion)) {
      return Status::InvalidArgument("bad schema type tag");
    }
    def.type = AttributeType(tag);
    defs.push_back(std::move(def));
  }
  Relation rel(name, Schema(std::move(defs)));
  uint32_t num_tuples;
  MODB_RETURN_IF_ERROR(r.GetU32(&num_tuples));
  for (uint32_t i = 0; i < num_tuples; ++i) {
    Tuple tuple;
    for (uint32_t a = 0; a < num_attrs; ++a) {
      uint32_t len;
      MODB_RETURN_IF_ERROR(r.GetU32(&len));
      std::string_view blob;
      MODB_RETURN_IF_ERROR(r.GetView(len, &blob));
      Result<AttributeValue> v = ParseAttribute(blob);
      if (!v.ok()) return v.status();
      tuple.push_back(std::move(*v));
    }
    MODB_RETURN_IF_ERROR(rel.Insert(std::move(tuple)));
  }
  return rel;
}

Result<Relation> Timeslice(const Relation& rel, Instant t) {
  // Schema: moving types collapse to their instantaneous types.
  auto slice_type = [](AttributeType type) {
    switch (type) {
      case AttributeType::kMovingBool:
        return AttributeType::kBool;
      case AttributeType::kMovingInt:
        return AttributeType::kInt;
      case AttributeType::kMovingString:
        return AttributeType::kString;
      case AttributeType::kMovingReal:
        return AttributeType::kReal;
      case AttributeType::kMovingPoint:
        return AttributeType::kPoint;
      case AttributeType::kMovingPoints:
        return AttributeType::kPoints;
      case AttributeType::kMovingLine:
        return AttributeType::kLine;
      case AttributeType::kMovingRegion:
        return AttributeType::kRegion;
      default:
        return type;
    }
  };
  std::vector<AttributeDef> defs;
  for (const AttributeDef& d : rel.schema().attributes()) {
    defs.push_back({d.name, slice_type(d.type)});
  }
  Relation out(rel.name() + "@t", Schema(std::move(defs)));

  for (const Tuple& tuple : rel.tuples()) {
    Tuple sliced;
    bool defined = true;
    for (const AttributeValue& v : tuple) {
      switch (TypeOf(v)) {
        case AttributeType::kMovingBool: {
          auto it = std::get<MovingBool>(v).AtInstant(t);
          if (!it.defined) defined = false;
          sliced.push_back(BoolValue(it.defined && it.val()));
          break;
        }
        case AttributeType::kMovingInt: {
          auto it = std::get<MovingInt>(v).AtInstant(t);
          if (!it.defined) defined = false;
          sliced.push_back(IntValue(it.defined ? it.val() : 0));
          break;
        }
        case AttributeType::kMovingString: {
          auto it = std::get<MovingString>(v).AtInstant(t);
          if (!it.defined) defined = false;
          sliced.push_back(StringValue(it.defined ? it.val() : ""));
          break;
        }
        case AttributeType::kMovingReal: {
          auto it = std::get<MovingReal>(v).AtInstant(t);
          if (!it.defined) defined = false;
          sliced.push_back(RealValue(it.defined ? it.val() : 0));
          break;
        }
        case AttributeType::kMovingPoint: {
          auto it = std::get<MovingPoint>(v).AtInstant(t);
          if (!it.defined) defined = false;
          sliced.push_back(it.defined ? it.val() : Point());
          break;
        }
        case AttributeType::kMovingPoints: {
          auto it = std::get<MovingPoints>(v).AtInstant(t);
          if (!it.defined) defined = false;
          sliced.push_back(it.defined ? it.val() : Points());
          break;
        }
        case AttributeType::kMovingLine: {
          auto it = std::get<MovingLine>(v).AtInstant(t);
          if (!it.defined) defined = false;
          sliced.push_back(it.defined ? it.val() : Line());
          break;
        }
        case AttributeType::kMovingRegion: {
          auto it = std::get<MovingRegion>(v).AtInstant(t);
          if (!it.defined) defined = false;
          sliced.push_back(it.defined ? it.val() : Region());
          break;
        }
        default:
          sliced.push_back(v);
      }
    }
    // Tuples whose moving attributes are undefined at t are dropped —
    // the timeslice contains only objects that exist at t.
    if (!defined) continue;
    MODB_RETURN_IF_ERROR(out.Insert(std::move(sliced)));
  }
  return out;
}

}  // namespace modb

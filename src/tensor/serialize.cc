#include "tensor/serialize.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>

namespace hap {

namespace {

constexpr char kMagic[4] = {'H', 'A', 'P', 'T'};
constexpr uint32_t kVersion = 1;
// Version 2 appends the quantization-scale section (serialize.h).
constexpr uint32_t kVersionQuant = 2;
// Per-tensor header: u32 rows + u32 cols.
constexpr int64_t kTensorHeaderBytes = 8;
// Per scale entry: u32 param_index + f32 act_absmax + f32 weight_absmax.
constexpr int64_t kScaleEntryBytes = 12;

template <typename T>
void WritePod(std::ostream* stream, T value) {
  stream->write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream* stream, T* value) {
  stream->read(reinterpret_cast<char*>(value), sizeof(T));
  return stream->good();
}

/// Bytes between the current read position and the end of the stream, or
/// -1 when the stream is not seekable. Restores the read position.
int64_t RemainingBytes(std::istream* stream) {
  const std::istream::pos_type pos = stream->tellg();
  if (pos == std::istream::pos_type(-1)) return -1;
  stream->seekg(0, std::ios::end);
  const std::istream::pos_type end = stream->tellg();
  stream->seekg(pos);
  if (end == std::istream::pos_type(-1) || !stream->good()) return -1;
  return static_cast<int64_t>(end - pos);
}

/// Validates the fixed header (magic, version) and reads the tensor count.
/// Accepts v1 (tensors only) and v2 (tensors + quantization scales).
Status ReadFileHeader(std::istream* stream, uint64_t* count,
                      uint32_t* version) {
  char magic[4];
  stream->read(magic, sizeof(magic));
  if (!stream->good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a HAP checkpoint (bad magic)");
  }
  if (!ReadPod(stream, version)) {
    return Status::InvalidArgument("truncated checkpoint header");
  }
  if (*version != kVersion && *version != kVersionQuant) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(*version));
  }
  if (!ReadPod(stream, count)) {
    return Status::InvalidArgument("truncated checkpoint header");
  }
  return Status::Ok();
}

/// Rejects a scale entry that names no tensor or whose absmax is NaN,
/// infinite or negative: an infinite weight scale turns every dequantized
/// output into 0·inf = NaN. Zero stays valid ("not observed" for the
/// activation, an all-zero weight).
Status ValidateScaleEntry(const QuantScaleEntry& entry,
                          uint64_t tensor_count) {
  if (entry.param_index >= tensor_count) {
    return Status::InvalidArgument(
        "quantization scale references tensor " +
        std::to_string(entry.param_index) + " of " +
        std::to_string(tensor_count));
  }
  for (const float absmax : {entry.act_absmax, entry.weight_absmax}) {
    if (!std::isfinite(absmax) || absmax < 0.0f) {
      return Status::InvalidArgument(
          "quantization scale for tensor " +
          std::to_string(entry.param_index) + " holds absmax " +
          std::to_string(absmax) + "; must be finite and non-negative");
    }
  }
  return Status::Ok();
}

/// Reads (or, for v1, no-ops) the quantization-scale section that follows
/// the last tensor. Validates the claimed entry count against the stream
/// and every entry with ValidateScaleEntry. `out` may be null (the
/// section is still consumed and validated).
Status ReadScaleSection(std::istream* stream, uint32_t version,
                        uint64_t tensor_count,
                        std::vector<QuantScaleEntry>* out) {
  if (out != nullptr) out->clear();
  if (version < kVersionQuant) return Status::Ok();
  uint64_t count = 0;
  if (!ReadPod(stream, &count)) {
    return Status::InvalidArgument("truncated quantization-scale header");
  }
  const int64_t remaining = RemainingBytes(stream);
  if (remaining >= 0 &&
      count > static_cast<uint64_t>(remaining) / kScaleEntryBytes) {
    return Status::InvalidArgument(
        "checkpoint claims " + std::to_string(count) +
        " quantization scales but only " + std::to_string(remaining) +
        " bytes follow");
  }
  if (out != nullptr) out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    QuantScaleEntry entry;
    if (!ReadPod(stream, &entry.param_index) ||
        !ReadPod(stream, &entry.act_absmax) ||
        !ReadPod(stream, &entry.weight_absmax)) {
      return Status::InvalidArgument("truncated quantization-scale entry");
    }
    if (Status s = ValidateScaleEntry(entry, tensor_count); !s.ok()) {
      return s;
    }
    if (out != nullptr) out->push_back(entry);
  }
  return Status::Ok();
}

/// Rejects a tensor count the remaining stream cannot possibly hold
/// (each tensor needs at least its 8-byte header). `remaining` is the
/// byte count after the file header; -1 means unknown (not seekable).
Status ValidateCount(uint64_t count, int64_t remaining) {
  if (remaining < 0) return Status::Ok();
  if (count > static_cast<uint64_t>(remaining) / kTensorHeaderBytes) {
    return Status::InvalidArgument(
        "checkpoint claims " + std::to_string(count) + " tensors but only " +
        std::to_string(remaining) + " bytes follow the header");
  }
  return Status::Ok();
}

/// Rejects a tensor shape whose data cannot fit in the remaining bytes.
/// Computed in uint64 so rows = cols = u32::max cannot overflow.
Status ValidateShape(uint32_t rows, uint32_t cols, int64_t remaining) {
  const uint64_t values = static_cast<uint64_t>(rows) * cols;
  if (remaining >= 0 &&
      values > static_cast<uint64_t>(remaining) / sizeof(float)) {
    return Status::InvalidArgument(
        "checkpoint tensor claims " + std::to_string(rows) + "x" +
        std::to_string(cols) + " values but only " +
        std::to_string(remaining) + " bytes remain");
  }
  return Status::Ok();
}

/// After the last tensor the stream must be exactly exhausted; trailing
/// bytes mean a corrupt or mismatched file.
Status ValidateExhausted(std::istream* stream) {
  if (stream->peek() != std::istream::traits_type::eof()) {
    return Status::InvalidArgument(
        "checkpoint has trailing garbage after the last tensor");
  }
  return Status::Ok();
}

}  // namespace

Status SaveParameters(const std::vector<Tensor>& params, std::ostream* stream,
                      const std::vector<QuantScaleEntry>* scales) {
  if (stream == nullptr || !stream->good()) {
    return Status::InvalidArgument("bad output stream");
  }
  const bool with_scales = scales != nullptr && !scales->empty();
  if (with_scales) {
    for (const QuantScaleEntry& entry : *scales) {
      if (Status s = ValidateScaleEntry(entry, params.size()); !s.ok()) {
        return s;
      }
    }
  }
  stream->write(kMagic, sizeof(kMagic));
  WritePod(stream, with_scales ? kVersionQuant : kVersion);
  WritePod(stream, static_cast<uint64_t>(params.size()));
  for (const Tensor& p : params) {
    if (!p.defined()) return Status::InvalidArgument("undefined parameter");
    WritePod(stream, static_cast<uint32_t>(p.rows()));
    WritePod(stream, static_cast<uint32_t>(p.cols()));
    stream->write(reinterpret_cast<const char*>(p.data()),
                  static_cast<std::streamsize>(p.size() * sizeof(float)));
  }
  if (with_scales) {
    WritePod(stream, static_cast<uint64_t>(scales->size()));
    for (const QuantScaleEntry& entry : *scales) {
      WritePod(stream, entry.param_index);
      WritePod(stream, entry.act_absmax);
      WritePod(stream, entry.weight_absmax);
    }
  }
  stream->flush();
  if (!stream->good()) return Status::Internal("checkpoint write failed");
  return Status::Ok();
}

Status LoadParameters(std::istream* stream, std::vector<Tensor>* params,
                      std::vector<QuantScaleEntry>* scales) {
  if (stream == nullptr || !stream->good()) {
    return Status::InvalidArgument("bad input stream");
  }
  uint64_t count = 0;
  uint32_t version = 0;
  if (Status s = ReadFileHeader(stream, &count, &version); !s.ok()) return s;
  if (Status s = ValidateCount(count, RemainingBytes(stream)); !s.ok()) {
    return s;
  }
  if (count != params->size()) {
    return Status::FailedPrecondition(
        "checkpoint holds " + std::to_string(count) + " tensors, model has " +
        std::to_string(params->size()));
  }
  // Stage every tensor before touching `params`: a failure halfway through
  // (truncation, shape mismatch) must leave the destination — possibly a
  // live serving model — exactly as it was.
  std::vector<std::vector<float>> staged(params->size());
  for (size_t i = 0; i < params->size(); ++i) {
    Tensor& p = (*params)[i];
    uint32_t rows = 0, cols = 0;
    if (!ReadPod(stream, &rows) || !ReadPod(stream, &cols)) {
      return Status::InvalidArgument("truncated checkpoint tensor header");
    }
    if (Status s = ValidateShape(rows, cols, RemainingBytes(stream));
        !s.ok()) {
      return s;
    }
    if (static_cast<int64_t>(rows) != p.rows() ||
        static_cast<int64_t>(cols) != p.cols()) {
      return Status::FailedPrecondition(
          "shape mismatch: checkpoint " + std::to_string(rows) + "x" +
          std::to_string(cols) + " vs model " + std::to_string(p.rows()) +
          "x" + std::to_string(p.cols()));
    }
    staged[i].resize(static_cast<size_t>(p.size()));
    stream->read(reinterpret_cast<char*>(staged[i].data()),
                 static_cast<std::streamsize>(p.size() * sizeof(float)));
    if (!stream->good()) {
      return Status::InvalidArgument("truncated checkpoint tensor data");
    }
  }
  std::vector<QuantScaleEntry> staged_scales;
  if (Status s = ReadScaleSection(stream, version, count, &staged_scales);
      !s.ok()) {
    return s;
  }
  if (Status s = ValidateExhausted(stream); !s.ok()) return s;
  for (size_t i = 0; i < params->size(); ++i) {
    std::memcpy((*params)[i].mutable_data(), staged[i].data(),
                staged[i].size() * sizeof(float));
  }
  if (scales != nullptr) *scales = std::move(staged_scales);
  return Status::Ok();
}

StatusOr<CheckpointInfo> ReadCheckpointInfo(std::istream* stream) {
  if (stream == nullptr || !stream->good()) {
    return Status::InvalidArgument("bad input stream");
  }
  uint64_t count = 0;
  uint32_t version = 0;
  if (Status s = ReadFileHeader(stream, &count, &version); !s.ok()) return s;
  int64_t remaining = RemainingBytes(stream);
  if (remaining < 0) {
    return Status::InvalidArgument(
        "checkpoint stream is not seekable; cannot validate claimed sizes");
  }
  if (Status s = ValidateCount(count, remaining); !s.ok()) return s;
  CheckpointInfo info;
  info.version = version;
  info.shapes.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t rows = 0, cols = 0;
    if (!ReadPod(stream, &rows) || !ReadPod(stream, &cols)) {
      return Status::InvalidArgument("truncated checkpoint tensor header");
    }
    remaining -= kTensorHeaderBytes;
    if (Status s = ValidateShape(rows, cols, remaining); !s.ok()) return s;
    const uint64_t values = static_cast<uint64_t>(rows) * cols;
    const int64_t bytes = static_cast<int64_t>(values * sizeof(float));
    stream->seekg(bytes, std::ios::cur);
    if (!stream->good()) {
      return Status::InvalidArgument("truncated checkpoint tensor data");
    }
    remaining -= bytes;
    info.shapes.emplace_back(rows, cols);
    info.total_values += values;
  }
  std::vector<QuantScaleEntry> scales;
  if (Status s = ReadScaleSection(stream, version, count, &scales); !s.ok()) {
    return s;
  }
  info.num_scales = scales.size();
  if (Status s = ValidateExhausted(stream); !s.ok()) return s;
  return info;
}

StatusOr<std::vector<Tensor>> LoadCheckpoint(std::istream* stream) {
  if (stream == nullptr || !stream->good()) {
    return Status::InvalidArgument("bad input stream");
  }
  uint64_t count = 0;
  uint32_t version = 0;
  if (Status s = ReadFileHeader(stream, &count, &version); !s.ok()) return s;
  int64_t remaining = RemainingBytes(stream);
  if (remaining < 0) {
    return Status::InvalidArgument(
        "checkpoint stream is not seekable; cannot validate claimed sizes");
  }
  if (Status s = ValidateCount(count, remaining); !s.ok()) return s;
  std::vector<Tensor> tensors;
  tensors.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t rows = 0, cols = 0;
    if (!ReadPod(stream, &rows) || !ReadPod(stream, &cols)) {
      return Status::InvalidArgument("truncated checkpoint tensor header");
    }
    remaining -= kTensorHeaderBytes;
    // Validate against what is actually in the stream BEFORE allocating:
    // a hostile header claiming u32::max x u32::max must not trigger a
    // 16-exabyte allocation attempt.
    if (Status s = ValidateShape(rows, cols, remaining); !s.ok()) return s;
    if (rows > static_cast<uint32_t>(std::numeric_limits<int>::max()) ||
        cols > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
      return Status::InvalidArgument("checkpoint tensor dimensions overflow");
    }
    Tensor t(static_cast<int>(rows), static_cast<int>(cols));
    const int64_t bytes = t.size() * static_cast<int64_t>(sizeof(float));
    stream->read(reinterpret_cast<char*>(t.mutable_data()),
                 static_cast<std::streamsize>(bytes));
    if (!stream->good()) {
      return Status::InvalidArgument("truncated checkpoint tensor data");
    }
    remaining -= bytes;
    tensors.push_back(std::move(t));
  }
  if (Status s = ReadScaleSection(stream, version, count, nullptr); !s.ok()) {
    return s;
  }
  if (Status s = ValidateExhausted(stream); !s.ok()) return s;
  return tensors;
}

Status SaveModule(const Module& module, const std::string& path,
                  const std::vector<QuantScaleEntry>* scales) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) return Status::NotFound("cannot open " + path);
  return SaveParameters(module.Parameters(), &out, scales);
}

Status LoadModule(Module* module, const std::string& path,
                  std::vector<QuantScaleEntry>* scales) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  std::vector<Tensor> params = module->Parameters();
  return LoadParameters(&in, &params, scales);
}

}  // namespace hap

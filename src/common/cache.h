/// \file
/// Content hashing for the on-disk trace entries: FNV-1a64 digests the
/// per-chunk payloads of the "SRTC" format (trace/chunked.h) and the
/// trace-cache key strings that name entry files (eval/trace_cache.h).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace stemroot {

/// FNV-1a over arbitrary bytes (the string overload in common/rng.h is
/// specified for stream ids; this one is the on-disk integrity hash).
uint64_t Fnv1a64(std::string_view bytes);

/// Lowercase hex form of a 64-bit hash (16 chars), used for entry file
/// names.
std::string HexDigest64(uint64_t value);

}  // namespace stemroot

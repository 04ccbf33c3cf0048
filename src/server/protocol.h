#ifndef FOLEARN_SERVER_PROTOCOL_H_
#define FOLEARN_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace folearn {

// Wire protocol of the folearnd daemon (local stream socket).
//
// Every request and every response is one *frame*:
//
//   uint32_le payload_length | payload
//
// and the payload is a flat field list:
//
//   uint32_le field_count
//   field_count × ( uint32_le key_len | key | uint32_le value_len | value )
//
// Keys and values are uninterpreted byte strings (graph files, model
// files, and training sets travel verbatim in values — the existing text
// formats are the payload encoding, so everything on the wire can be
// replayed through the CLI). A frame larger than kMaxFrameBytes is a
// protocol error: the peer is told (status=error) and the connection is
// closed, because the stream position after an oversized frame is
// untrusted.
//
// Requests carry the operation in the "op" field; responses always carry
// "status" and "code":
//
//   status   one of ok | partial | shed | error
//   code     the CLI exit-code equivalent ("0", "3", "64", "65", "66"),
//            so clients can reuse the sysexits conventions unchanged
//
// `partial` means the request ran but a deadline/budget tripped and the
// payload is best-so-far (exit-code analogue 3). `shed` means admission
// control refused to start the work — the connection stays healthy and
// the client may retry. `error` carries a human-readable "error" field.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

// Response status values (the protocol strings).
inline constexpr char kStatusOk[] = "ok";
inline constexpr char kStatusPartial[] = "partial";
inline constexpr char kStatusShed[] = "shed";
inline constexpr char kStatusError[] = "error";

// An ordered key→value field list. Order is preserved on the wire (and in
// Encode/Decode round trips); lookups scan — messages have a handful of
// fields.
struct Message {
  std::vector<std::pair<std::string, std::string>> fields;

  // Appends, or overwrites the first existing binding of `key`.
  void Set(std::string_view key, std::string_view value);
  // First value bound to `key`, or nullptr.
  const std::string* Find(std::string_view key) const;
  std::string Get(std::string_view key, std::string_view fallback = "") const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
};

// Payload (de)serialisation. DecodeMessage rejects truncated or
// overrunning field tables as kDataLoss.
std::string EncodeMessage(const Message& message);
StatusOr<Message> DecodeMessage(std::string_view payload);

// Strict decimal uint64 — no sign, no whitespace, no trailing bytes —
// for every id field on the wire and in the session journal.
bool ParseU64(std::string_view text, uint64_t* value);

// Validates a unix socket path against sockaddr_un::sun_path capacity.
// kInvalidArgument (CLI exit-code analogue 64) with a diagnostic naming
// the limit for empty or over-long paths; binding an over-long path would
// otherwise silently truncate it.
Status ValidateSocketPath(const std::string& path);

// Blocking frame transfer over a connected stream socket fd. Both retry
// EINTR and short transfers. ReadFrame distinguishes a clean close at a
// frame boundary (kNotFound, the normal end of a connection) from a close
// mid-frame or an oversized/undecodable frame (kDataLoss) and transport
// errors (kUnavailable).
Status WriteFrame(int fd, const Message& message);
StatusOr<Message> ReadFrame(int fd);

}  // namespace folearn

#endif  // FOLEARN_SERVER_PROTOCOL_H_

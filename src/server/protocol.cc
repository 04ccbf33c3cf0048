#include "server/protocol.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace folearn {

namespace {

void AppendU32(std::string& out, uint32_t value) {
  // Little-endian, independent of host byte order.
  out.push_back(static_cast<char>(value & 0xff));
  out.push_back(static_cast<char>((value >> 8) & 0xff));
  out.push_back(static_cast<char>((value >> 16) & 0xff));
  out.push_back(static_cast<char>((value >> 24) & 0xff));
}

bool ReadU32(std::string_view bytes, size_t& pos, uint32_t& value) {
  if (bytes.size() - pos < 4) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + pos);
  value = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
          (static_cast<uint32_t>(p[2]) << 16) |
          (static_cast<uint32_t>(p[3]) << 24);
  pos += 4;
  return true;
}

// Full transfer helpers: loop over short reads/writes, retry EINTR.
// Returns bytes transferred (== size on success); on a read, 0 means the
// peer closed before the first byte.
ssize_t ReadFull(int fd, char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::read(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;  // peer closed
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

Status WriteFull(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a peer that closed mid-write yields EPIPE instead of
    // killing the process with SIGPIPE.
    ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return UnavailableError(std::string("socket write failed: ") +
                              std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

}  // namespace

void Message::Set(std::string_view key, std::string_view value) {
  for (auto& [k, v] : fields) {
    if (k == key) {
      v.assign(value);
      return;
    }
  }
  fields.emplace_back(std::string(key), std::string(value));
}

const std::string* Message::Find(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Message::Get(std::string_view key,
                         std::string_view fallback) const {
  const std::string* value = Find(key);
  return value != nullptr ? *value : std::string(fallback);
}

std::string EncodeMessage(const Message& message) {
  std::string out;
  AppendU32(out, static_cast<uint32_t>(message.fields.size()));
  for (const auto& [key, value] : message.fields) {
    AppendU32(out, static_cast<uint32_t>(key.size()));
    out.append(key);
    AppendU32(out, static_cast<uint32_t>(value.size()));
    out.append(value);
  }
  return out;
}

StatusOr<Message> DecodeMessage(std::string_view payload) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!ReadU32(payload, pos, count)) {
    return DataLossError("frame payload truncated: missing field count");
  }
  Message message;
  message.fields.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t key_len = 0;
    if (!ReadU32(payload, pos, key_len) ||
        payload.size() - pos < key_len) {
      return DataLossError("frame payload truncated in field key");
    }
    std::string key(payload.substr(pos, key_len));
    pos += key_len;
    uint32_t value_len = 0;
    if (!ReadU32(payload, pos, value_len) ||
        payload.size() - pos < value_len) {
      return DataLossError("frame payload truncated in field value");
    }
    message.fields.emplace_back(std::move(key),
                                std::string(payload.substr(pos, value_len)));
    pos += value_len;
  }
  if (pos != payload.size()) {
    return DataLossError("frame payload has trailing bytes");
  }
  return message;
}

bool ParseU64(std::string_view text, uint64_t* value) {
  if (text.empty() || text.size() > 20) return false;
  uint64_t result = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (result > (UINT64_MAX - digit) / 10) return false;
    result = result * 10 + digit;
  }
  *value = result;
  return true;
}

Status ValidateSocketPath(const std::string& path) {
  if (path.empty()) {
    return InvalidArgumentError("socket path must not be empty");
  }
  // One byte of sun_path is the NUL terminator.
  constexpr size_t kMax = sizeof(sockaddr_un{}.sun_path) - 1;
  if (path.size() > kMax) {
    return InvalidArgumentError(
        "socket path is " + std::to_string(path.size()) +
        " bytes; unix socket paths on this platform hold at most " +
        std::to_string(kMax) +
        " (binding would silently truncate): " + path);
  }
  return OkStatus();
}

Status WriteFrame(int fd, const Message& message) {
  std::string payload = EncodeMessage(message);
  if (payload.size() > kMaxFrameBytes) {
    return InvalidArgumentError("frame exceeds kMaxFrameBytes");
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  AppendU32(frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return WriteFull(fd, frame.data(), frame.size());
}

// A receive timeout (SO_RCVTIMEO armed by Client::Connect) surfaces from
// read(2) as EAGAIN/EWOULDBLOCK; it is named explicitly and is
// kUnavailable — retry-safe by the client's classification, exactly like
// a daemon that died mid-request (learn dedup absorbs the replay).
StatusOr<Message> ReadFrame(int fd) {
  char header[4];
  ssize_t n = ReadFull(fd, header, sizeof(header));
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return UnavailableError("socket read timed out (io-timeout)");
    }
    return UnavailableError(std::string("socket read failed: ") +
                            std::strerror(errno));
  }
  if (n == 0) return NotFoundError("connection closed");
  if (n < static_cast<ssize_t>(sizeof(header))) {
    return DataLossError("connection closed inside a frame header");
  }
  size_t pos = 0;
  uint32_t length = 0;
  ReadU32(std::string_view(header, sizeof(header)), pos, length);
  if (length > kMaxFrameBytes) {
    return DataLossError("frame length " + std::to_string(length) +
                         " exceeds the 64 MiB protocol limit");
  }
  std::string payload(length, '\0');
  n = ReadFull(fd, payload.data(), payload.size());
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return UnavailableError("socket read timed out (io-timeout)");
    }
    return UnavailableError(std::string("socket read failed: ") +
                            std::strerror(errno));
  }
  if (static_cast<size_t>(n) < payload.size()) {
    return DataLossError("connection closed inside a frame payload");
  }
  return DecodeMessage(payload);
}

}  // namespace folearn

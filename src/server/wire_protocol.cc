#include "server/wire_protocol.h"

#include <cstdint>
#include <cstdio>
#include <sstream>

namespace entropydb {

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Splits a payload into lines ('\n' separated; no trailing empty line for
/// a trailing newline).
std::vector<std::string> SplitLines(const std::string& payload) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= payload.size()) {
    const size_t nl = payload.find('\n', start);
    if (nl == std::string::npos) {
      if (start < payload.size()) lines.push_back(payload.substr(start));
      break;
    }
    lines.push_back(payload.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Parses a base-10 uint64; rejects empty, sign, trailing junk, and
/// values past UINT64_MAX (which would otherwise wrap, e.g. 2^64 + 1 to
/// version 1).
bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  char header[kFrameHeaderSize + 1];
  std::snprintf(header, sizeof(header), "%08zx\n", payload.size());
  std::string frame(header, kFrameHeaderSize);
  frame.append(payload);
  return frame;
}

void FrameDecoder::Feed(std::string_view bytes) {
  buffer_.append(bytes);
}

Result<std::optional<std::string>> FrameDecoder::Next() {
  if (poisoned_) {
    return Status::InvalidArgument("frame decoder poisoned by earlier error");
  }
  if (buffer_.size() < kFrameHeaderSize) {
    return std::optional<std::string>(std::nullopt);
  }
  size_t length = 0;
  for (size_t i = 0; i < 8; ++i) {
    const int digit = HexDigit(buffer_[i]);
    if (digit < 0) {
      poisoned_ = true;
      return Status::InvalidArgument("malformed frame header (not hex)");
    }
    length = (length << 4) | static_cast<size_t>(digit);
  }
  if (buffer_[8] != '\n') {
    poisoned_ = true;
    return Status::InvalidArgument("malformed frame header (no newline)");
  }
  if (length > kMaxFramePayload) {
    poisoned_ = true;
    return Status::InvalidArgument("frame payload exceeds limit");
  }
  if (buffer_.size() < kFrameHeaderSize + length) {
    return std::optional<std::string>(std::nullopt);
  }
  std::string payload = buffer_.substr(kFrameHeaderSize, length);
  buffer_.erase(0, kFrameHeaderSize + length);
  return std::optional<std::string>(std::move(payload));
}

std::string EncodeRequest(const Request& req) {
  std::ostringstream out;
  switch (req.type) {
    case CommandType::kOpen:
      out << "OPEN ";
      if (req.version == 0) {
        out << "live";
      } else {
        out << req.version;
      }
      break;
    case CommandType::kQuery:
      out << "QUERY";
      if (req.deadline_ms > 0) out << "/" << req.deadline_ms;
      out << " " << req.query;
      break;
    case CommandType::kJoin:
      out << "JOIN";
      if (req.deadline_ms > 0) out << "/" << req.deadline_ms;
      out << " " << req.query;
      break;
    case CommandType::kBatch:
      out << "BATCH";
      if (req.deadline_ms > 0) out << "/" << req.deadline_ms;
      out << " " << req.queries.size();
      for (const std::string& q : req.queries) out << "\n" << q;
      break;
    case CommandType::kStats:
      out << "STATS";
      break;
    case CommandType::kVersion:
      out << "VERSION";
      break;
  }
  return out.str();
}

Result<Request> ParseRequest(const std::string& payload) {
  const std::vector<std::string> lines = SplitLines(payload);
  if (lines.empty()) return Status::InvalidArgument("empty request");
  const std::string& first = lines[0];
  const size_t space = first.find(' ');
  std::string word = first.substr(0, space);
  std::string rest =
      space == std::string::npos ? std::string() : first.substr(space + 1);

  // Peel an optional "/<deadline-ms>" off the command word.
  Request req;
  const size_t slash = word.find('/');
  if (slash != std::string::npos) {
    if (!ParseU64(word.substr(slash + 1), &req.deadline_ms) ||
        req.deadline_ms == 0) {
      return Status::InvalidArgument("malformed deadline in: " + first);
    }
    word = word.substr(0, slash);
  }

  if (word == "STATS" || word == "VERSION") {
    req.type = word == "STATS" ? CommandType::kStats : CommandType::kVersion;
    if (!rest.empty()) {
      return Status::InvalidArgument(word + " takes no arguments");
    }
  } else if (word == "OPEN") {
    req.type = CommandType::kOpen;
    if (rest == "live") {
      req.version = 0;
    } else if (!ParseU64(rest, &req.version) || req.version == 0) {
      return Status::InvalidArgument("OPEN wants a version id or 'live': " +
                                     first);
    }
  } else if (word == "QUERY") {
    req.type = CommandType::kQuery;
    if (rest.empty()) return Status::InvalidArgument("QUERY without text");
    req.query = rest;
  } else if (word == "JOIN") {
    req.type = CommandType::kJoin;
    if (rest.empty()) return Status::InvalidArgument("JOIN without text");
    req.query = rest;
  } else if (word == "BATCH") {
    req.type = CommandType::kBatch;
    uint64_t n = 0;
    if (!ParseU64(rest, &n)) {
      return Status::InvalidArgument("BATCH wants a query count: " + first);
    }
    if (n > kMaxBatchQueries) {
      return Status::InvalidArgument("BATCH exceeds max queries");
    }
    if (lines.size() != n + 1) {
      return Status::InvalidArgument("BATCH count does not match lines");
    }
    req.queries.assign(lines.begin() + 1, lines.end());
    for (const std::string& q : req.queries) {
      if (q.empty()) return Status::InvalidArgument("empty query in BATCH");
    }
  } else {
    return Status::InvalidArgument("unknown command: " + word);
  }

  // Only the command's own lines may follow the first.
  if (req.type != CommandType::kBatch && lines.size() > 1) {
    return Status::InvalidArgument("unexpected extra lines after " + word);
  }
  return req;
}

std::string EncodeOkResponse(const std::vector<std::string>& lines) {
  std::string out = "OK";
  for (const std::string& line : lines) {
    out += "\n";
    out += line;
  }
  return out;
}

std::string EncodeErrorResponse(const Status& status) {
  std::string out = "ERR ";
  out += WireErrorCode(status.code());
  out += " ";
  // Keep the payload one line; the message is advisory, the code is the
  // contract.
  std::string msg = status.message();
  for (char& c : msg) {
    if (c == '\n') c = ' ';
  }
  out += msg;
  return out;
}

Result<WireResponse> ParseResponse(const std::string& payload) {
  std::vector<std::string> lines = SplitLines(payload);
  if (lines.empty()) return Status::InvalidArgument("empty response");
  WireResponse resp;
  if (lines[0] == "OK") {
    resp.ok = true;
  } else if (lines[0].rfind("ERR ", 0) == 0) {
    const std::string rest = lines[0].substr(4);
    const size_t space = rest.find(' ');
    resp.code = rest.substr(0, space);
    if (space != std::string::npos) resp.message = rest.substr(space + 1);
    if (resp.code.empty()) {
      return Status::InvalidArgument("ERR without code");
    }
  } else {
    return Status::InvalidArgument("malformed status line: " + lines[0]);
  }
  resp.lines.assign(lines.begin() + 1, lines.end());
  return resp;
}

std::string_view WireErrorCode(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotSupported:
      return "BAD_REQUEST";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kResourceExhausted:
      return "SERVER_BUSY";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    default:
      return "INTERNAL";
  }
}

Status StatusFromWire(const std::string& code, const std::string& message) {
  if (code == "BAD_REQUEST") return Status::InvalidArgument(message);
  if (code == "NOT_FOUND") return Status::NotFound(message);
  if (code == "SERVER_BUSY") return Status::ResourceExhausted(message);
  if (code == "DEADLINE_EXCEEDED") return Status::DeadlineExceeded(message);
  if (code == "FAILED_PRECONDITION") {
    return Status::FailedPrecondition(message);
  }
  return Status::Internal(message);
}

}  // namespace entropydb

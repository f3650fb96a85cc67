#include "serve/client.h"

#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "obs/exec_stats.h"
#include "serve/net.h"
#include "serve/wire.h"

namespace modb {
namespace serve {

Result<Client> Client::Connect(const std::string& host, int port,
                               ClientOptions options) {
  Result<int> fd = ConnectTcpTimeout(host, port, options.connect_timeout_ms);
  MODB_RETURN_IF_ERROR(fd.status());
  return Client(*fd, options);
}

Client::~Client() { CloseFd(fd_); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), options_(other.options_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    CloseFd(fd_);
    fd_ = other.fd_;
    options_ = other.options_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Client::Reply> Client::Query(const QueryRequest& req) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client is not connected");
  }
  MODB_RETURN_IF_ERROR(WriteFrameTimeout(fd_, FrameType::kQuery,
                                         EncodeQueryRequest(req),
                                         options_.io_timeout_ms));
  Result<std::optional<Frame>> frame =
      ReadFrameTimeout(fd_, options_.io_timeout_ms);
  MODB_RETURN_IF_ERROR(frame.status());
  if (!frame->has_value()) {
    return Status::DataLoss("server closed the connection before replying");
  }
  if ((*frame)->type != FrameType::kReply) {
    return Status::InvalidArgument("expected a reply frame, got type " +
                                   std::to_string(int((*frame)->type)));
  }
  Result<WireReply> wire = DecodeReply((*frame)->payload);
  MODB_RETURN_IF_ERROR(wire.status());
  Reply reply;
  reply.status = wire->status;
  if (wire->status.ok()) {
    Result<QueryResult> result = DecodeResultBlock(wire->result_block);
    MODB_RETURN_IF_ERROR(result.status());
    reply.result = *std::move(result);
    if (!wire->stats_json.empty()) {
      Result<ExecStats> stats = ExecStats::FromJson(wire->stats_json);
      MODB_RETURN_IF_ERROR(stats.status());
      reply.result.stats = *std::move(stats);
    }
    // Keep the raw block by cutting it out of the frame payload in
    // place rather than copying it into a second buffer.
    std::string& payload = (*frame)->payload;
    const std::size_t begin =
        std::size_t(wire->result_block.data() - payload.data());
    payload.resize(begin + wire->result_block.size());
    payload.erase(0, begin);
    reply.result_block = std::move(payload);
  }
  return reply;
}

Result<Client::MutationReply> Client::Mutate(const MutationRequest& req) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client is not connected");
  }
  MODB_RETURN_IF_ERROR(WriteFrameTimeout(fd_, FrameType::kMutation,
                                         EncodeMutationRequest(req),
                                         options_.io_timeout_ms));
  Result<std::optional<Frame>> frame =
      ReadFrameTimeout(fd_, options_.io_timeout_ms);
  MODB_RETURN_IF_ERROR(frame.status());
  if (!frame->has_value()) {
    return Status::DataLoss("server closed the connection before replying");
  }
  if ((*frame)->type != FrameType::kReply) {
    return Status::InvalidArgument("expected a reply frame, got type " +
                                   std::to_string(int((*frame)->type)));
  }
  Result<WireReply> wire = DecodeReply((*frame)->payload);
  MODB_RETURN_IF_ERROR(wire.status());
  MutationReply reply;
  reply.status = wire->status;
  if (wire->status.ok()) {
    Result<MutationResult> ack = DecodeMutationAck(wire->result_block);
    MODB_RETURN_IF_ERROR(ack.status());
    reply.ack = *std::move(ack);
  }
  return reply;
}

bool IsRetryableStatus(const Status& s) {
  switch (s.code()) {
    case StatusCode::kInternal:
    case StatusCode::kDataLoss:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

RetryingClient::RetryingClient(std::string host, int port,
                               ClientOptions options, RetryPolicy policy)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      policy_(policy),
      rng_(policy.jitter_seed) {}

Status RetryingClient::Connect() {
  if (client_.has_value()) return Status::OK();
  Result<Client> c = Client::Connect(host_, port_, options_);
  MODB_RETURN_IF_ERROR(c.status());
  client_.emplace(std::move(*c));
  ++reconnects_;
  return Status::OK();
}

void RetryingClient::Backoff(int k) {
  std::int64_t ms = policy_.base_backoff_ms;
  for (int i = 1; i < k && ms < policy_.max_backoff_ms; ++i) ms *= 2;
  if (ms > policy_.max_backoff_ms) ms = policy_.max_backoff_ms;
  if (ms > 0) {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    ms += std::int64_t((rng_ >> 33) % std::uint64_t(ms / 2 + 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

Result<Client::Reply> RetryingClient::Query(const QueryRequest& req) {
  Result<Client::Reply> last = Status::Internal("no attempts made");
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1) {
      ++retries_;
      Backoff(attempt - 1);
    }
    if (Status s = Connect(); !s.ok()) {
      last = s;
      if (!IsRetryableStatus(s)) return last;
      continue;
    }
    last = client_->Query(req);
    if (!last.ok()) {
      // Transport failure: the stream is unusable (a late reply could
      // desynchronize frame boundaries), so always reconnect.
      client_.reset();
      if (!IsRetryableStatus(last.status())) return last;
      continue;
    }
    // Server verdicts arrive on a healthy stream — keep the connection,
    // and retry only the transient ones (overload, expired deadline).
    if (!last->status.ok() && IsRetryableStatus(last->status)) continue;
    return last;
  }
  return last;
}

Result<Client::MutationReply> RetryingClient::Mutate(
    const MutationRequest& req) {
  const bool keyed = !req.client_id.empty();
  Result<Client::MutationReply> last = Status::Internal("no attempts made");
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1) {
      ++retries_;
      Backoff(attempt - 1);
    }
    if (Status s = Connect(); !s.ok()) {
      last = s;
      if (!IsRetryableStatus(s)) return last;
      continue;
    }
    last = client_->Mutate(req);
    if (!last.ok()) {
      client_.reset();
      // The batch's fate is unknown — the server may have applied it
      // and the ack died on the wire. Only an idempotency key makes
      // the retry safe (dedup re-acks instead of re-applying).
      if (!keyed || !IsRetryableStatus(last.status())) return last;
      continue;
    }
    // A server-side rejection (admission) was never applied; retrying
    // it is safe even unkeyed.
    if (!last->status.ok() && IsRetryableStatus(last->status)) continue;
    return last;
  }
  return last;
}

Result<std::string> FetchMetricsJson(const std::string& host, int port,
                                     int timeout_ms) {
  Result<int> fd = ConnectTcpTimeout(host, port, timeout_ms);
  MODB_RETURN_IF_ERROR(fd.status());
  const std::string request =
      "GET /metrics HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  Status sent = WriteFullTimeout(*fd, request.data(), request.size(),
                                 timeout_ms);
  if (!sent.ok()) {
    CloseFd(*fd);
    return sent;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    Result<bool> got = ReadFullOrEofTimeout(*fd, buf, 1, timeout_ms);
    if (!got.ok()) {
      CloseFd(*fd);
      return got.status();
    }
    if (!*got) break;
    response.push_back(buf[0]);
    if (response.size() > (8u << 20)) {
      CloseFd(*fd);
      return Status::InvalidArgument("metrics response exceeds 8 MiB");
    }
  }
  CloseFd(*fd);
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) {
    return Status::DataLoss("malformed HTTP response (no header terminator)");
  }
  if (response.rfind("HTTP/1.0 200", 0) != 0 &&
      response.rfind("HTTP/1.1 200", 0) != 0) {
    return Status::Internal("metrics endpoint returned: " +
                            response.substr(0, response.find("\r\n")));
  }
  return response.substr(body + 4);
}

}  // namespace serve
}  // namespace modb

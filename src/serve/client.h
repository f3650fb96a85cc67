// The modbd client: one TCP connection speaking the frame protocol,
// issuing QueryRequests and decoding replies. Used by tools/loadgen and
// by any embedder that wants to talk to a remote modbd instead of an
// in-process modb::Db — Reply mirrors what Db::Run returns, plus the
// raw result-block bytes for byte-identity comparisons.
//
// Robustness: every socket operation is bounded by ClientOptions
// timeouts (a dead or stalled server produces a typed
// kDeadlineExceeded, never a hang), and RetryingClient layers a
// deterministic exponential-backoff retry loop on top — reconnecting
// after transport errors, and retrying mutations only when they carry
// an idempotency key, so a retry can never double-apply a batch.

#ifndef MODB_SERVE_CLIENT_H_
#define MODB_SERVE_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/status.h"
#include "db/modb.h"

namespace modb {
namespace serve {

struct ClientOptions {
  /// Bound on establishing the TCP connection. <= 0 blocks forever.
  int connect_timeout_ms = 5000;
  /// Bound on each frame write and each frame read (a reply that takes
  /// longer surfaces as kDeadlineExceeded; the connection is then
  /// unusable — the reply may still arrive mid-stream — so callers
  /// should reconnect, which RetryingClient does). <= 0 blocks forever.
  int io_timeout_ms = 10000;
};

class Client {
 public:
  static Result<Client> Connect(const std::string& host, int port,
                                ClientOptions options = ClientOptions());
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  struct Reply {
    /// The server's verdict on the query — a failed query (unknown
    /// relation, invalid num_threads, admission rejection) arrives
    /// here, NOT as the transport error of Query().
    Status status;
    /// Decoded result; meaningful only when status is OK.
    QueryResult result;
    /// The raw result block: byte-identical across runs and thread
    /// counts for the same query against the same Db state.
    std::string result_block;
  };

  /// Sends `req` and waits for the reply. The returned status is the
  /// transport/protocol verdict; the server's query verdict is
  /// Reply::status.
  Result<Reply> Query(const QueryRequest& req);

  struct MutationReply {
    /// The server's verdict on the mutation (unknown relation, rejected
    /// batch, admission rejection) — NOT the transport error.
    Status status;
    /// Decoded ack; meaningful only when status is OK.
    MutationResult ack;
  };

  /// Sends a mutation frame and waits for its ack.
  Result<MutationReply> Mutate(const MutationRequest& req);

  int fd() const { return fd_; }

 private:
  Client(int fd, ClientOptions options) : fd_(fd), options_(options) {}
  int fd_ = -1;
  ClientOptions options_;
};

/// Whether `s` is worth retrying per the protocol's status table
/// (docs/PROTOCOL.md §9): transport failures (kInternal), a severed
/// connection (kDataLoss — permanent for the dead connection, but a
/// fresh one gets a fresh stream), timeouts and expired execution
/// deadlines (kDeadlineExceeded), and typed overload rejections
/// (kResourceExhausted). Everything else — kInvalidArgument,
/// kNotFound, kFailedPrecondition, kOutOfRange, kUnimplemented — is
/// deterministic: the identical retry fails identically.
bool IsRetryableStatus(const Status& s);

struct RetryPolicy {
  /// Total tries, including the first (1 = no retries).
  int max_attempts = 4;
  /// Backoff before retry k (1-based) is base * 2^(k-1), capped at
  /// max_backoff_ms, plus deterministic jitter in [0, backoff/2].
  int base_backoff_ms = 10;
  int max_backoff_ms = 1000;
  /// Seed for the jitter LCG — same seed, same jitter sequence, so
  /// chaos runs are reproducible.
  std::uint64_t jitter_seed = 1;
};

/// A Client wrapper that owns the connection lifecycle: (re)connects on
/// demand, applies the retry policy to retryable failures, and keeps
/// terminal failures terminal.
///
/// Mutation safety: a transport failure leaves the mutation's fate
/// unknown (the ack may have been lost AFTER the server applied it), so
/// Mutate retries past one only when the request carries an idempotency
/// key (non-empty client_id) — the server's dedup window then re-acks
/// instead of re-applying. Unkeyed mutations fail fast with the
/// transport error. Server-side overload rejections are always safe to
/// retry: a rejected mutation was never applied.
class RetryingClient {
 public:
  RetryingClient(std::string host, int port,
                 ClientOptions options = ClientOptions(),
                 RetryPolicy policy = RetryPolicy());

  /// Like Client::Query, but across reconnects and retries. Returns the
  /// last attempt's outcome when attempts are exhausted.
  Result<Client::Reply> Query(const QueryRequest& req);
  /// Like Client::Mutate, with the keyed-only retry rule above.
  Result<Client::MutationReply> Mutate(const MutationRequest& req);

  /// Retries performed so far (attempts beyond each call's first).
  std::uint64_t retries() const { return retries_; }
  /// Connections (re)established so far.
  std::uint64_t reconnects() const { return reconnects_; }

  /// Connects now unless already connected, so that the first request's
  /// latency excludes the handshake. Query and Mutate connect on demand
  /// without it. No retries.
  Status Connect();

 private:
  /// Sleeps the policy's backoff for 1-based retry `k`.
  void Backoff(int k);

  const std::string host_;
  const int port_;
  const ClientOptions options_;
  const RetryPolicy policy_;
  std::optional<Client> client_;
  std::uint64_t rng_;
  std::uint64_t retries_ = 0;
  std::uint64_t reconnects_ = 0;
};

/// Fetches the server's /metrics JSON over HTTP on the same port.
/// timeout_ms bounds the connect and each read/write; <= 0 blocks
/// forever.
Result<std::string> FetchMetricsJson(const std::string& host, int port,
                                     int timeout_ms = 10000);

}  // namespace serve
}  // namespace modb

#endif  // MODB_SERVE_CLIENT_H_

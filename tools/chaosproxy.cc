// chaosproxy: a deterministic hostile network between a client and
// modbd. It relays TCP bytes in both directions, and — driven entirely
// by a seeded counter over relayed chunks, never by wall-clock
// randomness — injects the failures a real network produces:
//
//   * delays:     hold a chunk for --delay-ms before forwarding,
//   * stalls:     forward half a chunk, sleep --stall-ms, forward the
//                 rest (a mid-frame stall: the peer has committed to a
//                 frame and stops making progress),
//   * resets:     drop the connection with an RST (SO_LINGER 0),
//   * truncation: forward half a chunk, then reset (torn frame).
//
// Every relayed chunk increments one global atomic counter; an event
// fires when (counter * A + seed * C) % every == 0 for that event's
// --X-every period, so the same seed and workload replay the same
// fault schedule. Events are checked in reset < truncate < stall <
// delay priority order; at most one fires per chunk.
//
//   chaosproxy --target-port=P [--target-host=127.0.0.1]
//              [--listen-host=127.0.0.1] [--listen-port=0] [--seed=42]
//              [--delay-every=0] [--delay-ms=5]
//              [--stall-every=0] [--stall-ms=50]
//              [--reset-every=0] [--truncate-every=0]
//
// An --X-every of 0 disables that fault. Prints exactly one line
// "chaosproxy listening on HOST:PORT" once ready (verify.sh parses the
// port), then serves until SIGTERM/SIGINT.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "flags.h"
#include "serve/net.h"

namespace {

struct ChaosOptions {
  std::string target_host = "127.0.0.1";
  int target_port = -1;
  std::string listen_host = "127.0.0.1";
  int listen_port = 0;
  std::uint64_t seed = 42;
  long delay_every = 0;
  long delay_ms = 5;
  long stall_every = 0;
  long stall_ms = 50;
  long reset_every = 0;
  long truncate_every = 0;
};

using modb::tools::ParseInt;
using modb::tools::ParseStr;

/// One global chunk counter: the fault schedule depends only on the
/// total order of relayed chunks, so a single-connection workload
/// replays identically under the same seed.
std::atomic<std::uint64_t> g_chunks{0};

/// Hashes the chunk ordinal with the seed (LCG constants) so different
/// seeds produce genuinely different schedules, not shifted ones.
bool Fires(std::uint64_t chunk, std::uint64_t seed, long every) {
  if (every <= 0) return false;
  const std::uint64_t h =
      chunk * 6364136223846793005ULL + seed * 1442695040888963407ULL;
  return (h >> 17) % std::uint64_t(every) == 0;
}

/// Sends an RST on close: the peer sees ECONNRESET / EPIPE, not an
/// orderly FIN — the failure mode retries must survive.
void ResetFd(int fd) {
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  modb::serve::CloseFd(fd);
}

void SleepMs(long ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Writes all of [p, p+n); false on any send failure.
bool SendAll(int fd, const char* p, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += std::size_t(w);
  }
  return true;
}

/// Pumps src -> dst until EOF, error, or an injected reset. Returns
/// true if the pair should be reset (RST both sides) rather than
/// half-closed.
bool Pump(int src, int dst, const ChaosOptions& opt) {
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(src, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // orderly EOF: propagate as half-close
    const std::uint64_t chunk = g_chunks.fetch_add(1);
    if (Fires(chunk, opt.seed, opt.reset_every)) return true;
    if (Fires(chunk, opt.seed, opt.truncate_every)) {
      // Torn frame: half the bytes arrive, then the connection dies.
      (void)SendAll(dst, buf, std::size_t(r) / 2);
      return true;
    }
    if (Fires(chunk, opt.seed, opt.stall_every)) {
      // Mid-frame stall: the receiver has partial bytes of a frame and
      // must either wait out --stall-ms or enforce its own deadline.
      const std::size_t half = std::size_t(r) / 2;
      if (!SendAll(dst, buf, half)) return false;
      SleepMs(opt.stall_ms);
      if (!SendAll(dst, buf + half, std::size_t(r) - half)) return false;
      continue;
    }
    if (Fires(chunk, opt.seed, opt.delay_every)) SleepMs(opt.delay_ms);
    if (!SendAll(dst, buf, std::size_t(r))) return false;
  }
}

void ServePair(int client_fd, const ChaosOptions& opt) {
  modb::Result<int> upstream =
      modb::serve::ConnectTcpTimeout(opt.target_host, opt.target_port, 5000);
  if (!upstream.ok()) {
    ResetFd(client_fd);
    return;
  }
  const int up = *upstream;
  std::atomic<bool> reset{false};
  std::thread back([&] {
    if (Pump(up, client_fd, opt)) reset.store(true);
    // Upstream went quiet: half-close toward the client so it sees
    // EOF once the forward direction finishes too.
    ::shutdown(client_fd, SHUT_WR);
  });
  if (Pump(client_fd, up, opt)) reset.store(true);
  ::shutdown(up, SHUT_WR);
  if (reset.load()) {
    // Tear both sides down hard; the blocked pump threads' reads fail.
    ::shutdown(up, SHUT_RDWR);
    ::shutdown(client_fd, SHUT_RDWR);
  }
  back.join();
  if (reset.load()) {
    ResetFd(up);
    ResetFd(client_fd);
  } else {
    modb::serve::CloseFd(up);
    modb::serve::CloseFd(client_fd);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ChaosOptions opt;
  for (int i = 1; i < argc; ++i) {
    long v;
    std::string s;
    if (ParseInt(argv[i], "--target-port", &v)) {
      opt.target_port = int(v);
    } else if (ParseStr(argv[i], "--target-host", &s)) {
      opt.target_host = s;
    } else if (ParseStr(argv[i], "--listen-host", &s)) {
      opt.listen_host = s;
    } else if (ParseInt(argv[i], "--listen-port", &v)) {
      opt.listen_port = int(v);
    } else if (ParseInt(argv[i], "--seed", &v)) {
      opt.seed = std::uint64_t(v);
    } else if (ParseInt(argv[i], "--delay-every", &v)) {
      opt.delay_every = v;
    } else if (ParseInt(argv[i], "--delay-ms", &v)) {
      opt.delay_ms = v;
    } else if (ParseInt(argv[i], "--stall-every", &v)) {
      opt.stall_every = v;
    } else if (ParseInt(argv[i], "--stall-ms", &v)) {
      opt.stall_ms = v;
    } else if (ParseInt(argv[i], "--reset-every", &v)) {
      opt.reset_every = v;
    } else if (ParseInt(argv[i], "--truncate-every", &v)) {
      opt.truncate_every = v;
    } else {
      std::fprintf(
          stderr,
          "usage: chaosproxy --target-port=P [--target-host=127.0.0.1] "
          "[--listen-host=127.0.0.1] [--listen-port=0] [--seed=42] "
          "[--delay-every=0] [--delay-ms=5] [--stall-every=0] "
          "[--stall-ms=50] [--reset-every=0] [--truncate-every=0]\n");
      return 2;
    }
  }
  if (opt.target_port < 0) {
    std::fprintf(stderr, "chaosproxy: --target-port is required\n");
    return 2;
  }

  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  modb::Result<int> listen_fd =
      modb::serve::ListenTcp(opt.listen_host, opt.listen_port);
  if (!listen_fd.ok()) {
    std::fprintf(stderr, "chaosproxy: %s\n",
                 listen_fd.status().ToString().c_str());
    return 1;
  }
  modb::Result<int> port = modb::serve::BoundPort(*listen_fd);
  if (!port.ok()) {
    std::fprintf(stderr, "chaosproxy: %s\n", port.status().ToString().c_str());
    return 1;
  }
  std::printf("chaosproxy listening on %s:%d\n", opt.listen_host.c_str(),
              *port);
  std::fflush(stdout);

  std::mutex mu;
  std::vector<std::thread> pairs;
  std::atomic<bool> stopping{false};
  std::thread accept_thread([&] {
    for (;;) {
      const int fd = ::accept(*listen_fd, nullptr, nullptr);
      if (stopping.load()) {
        if (fd >= 0) modb::serve::CloseFd(fd);
        return;
      }
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;
      }
      std::lock_guard lock(mu);
      pairs.emplace_back([fd, &opt] { ServePair(fd, opt); });
    }
  });

  int sig = 0;
  sigwait(&sigs, &sig);
  stopping.store(true);
  modb::serve::ShutdownFd(*listen_fd);
  accept_thread.join();
  {
    std::lock_guard lock(mu);
    for (std::thread& t : pairs) {
      if (t.joinable()) t.detach();  // pumps die with the process
    }
  }
  modb::serve::CloseFd(*listen_fd);
  std::printf("chaosproxy: stopped\n");
  return 0;
}

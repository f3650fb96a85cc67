#include "serve/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace modb {
namespace serve {
namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

// A whole-operation I/O deadline. Computed once when the timed call
// starts; every poll() uses the remaining time, so per-byte progress
// never pushes the deadline out (that is the slow-loris defense).
struct IoDeadline {
  bool bounded = false;
  std::chrono::steady_clock::time_point at;
};

IoDeadline DeadlineIn(int timeout_ms) {
  IoDeadline d;
  d.bounded = timeout_ms >= 0;
  if (d.bounded) {
    d.at = std::chrono::steady_clock::now() +
           std::chrono::milliseconds(timeout_ms);
  }
  return d;
}

// Remaining whole milliseconds (rounded up so a 0.4ms remainder still
// polls instead of spinning); 0 once expired, -1 (poll forever) when
// unbounded.
int RemainingMs(const IoDeadline& d) {
  if (!d.bounded) return -1;
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      d.at - std::chrono::steady_clock::now())
                      .count();
  if (us <= 0) return 0;
  return int((us + 999) / 1000);
}

// Polls fd for `events` until it is ready or the deadline passes.
// `done`/`total` feed the expiry message ("42 of 1024 bytes"); total 0
// means byte progress is meaningless for this wait (connect).
Status AwaitFd(int fd, short events, const IoDeadline& dl,
               const std::string& what, std::size_t done,
               std::size_t total) {
  for (;;) {
    const int remaining = RemainingMs(dl);
    if (remaining == 0) {
      std::string msg = what + " timed out";
      if (total > 0) {
        msg += " (" + std::to_string(done) + " of " + std::to_string(total) +
               " bytes)";
      }
      return Status::DeadlineExceeded(std::move(msg));
    }
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int r = ::poll(&p, 1, remaining);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (r > 0) return Status::OK();
    // r == 0: poll's own timeout fired; the next RemainingMs reports 0.
  }
}

Result<sockaddr_in> MakeAddr(const std::string& host, int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port " + std::to_string(port) +
                                   " out of range [0, 65535]");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(std::uint16_t(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address '" + host +
                                   "'");
  }
  return addr;
}

}  // namespace

Result<int> ListenTcp(const std::string& host, int port) {
  Result<sockaddr_in> addr = MakeAddr(host, port);
  MODB_RETURN_IF_ERROR(addr.status());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) <
      0) {
    Status s = Errno("bind " + host + ":" + std::to_string(port));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    Status s = Errno("listen");
    ::close(fd);
    return s;
  }
  return fd;
}

Result<int> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return int(ntohs(addr.sin_port));
}

Result<int> ConnectTcp(const std::string& host, int port) {
  Result<sockaddr_in> addr = MakeAddr(host, port);
  MODB_RETURN_IF_ERROR(addr.status());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&*addr),
                sizeof *addr) < 0) {
    Status s = Errno("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    return s;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

Result<int> ConnectTcpTimeout(const std::string& host, int port,
                              int timeout_ms) {
  if (timeout_ms < 0) return ConnectTcp(host, port);
  Result<sockaddr_in> addr = MakeAddr(host, port);
  MODB_RETURN_IF_ERROR(addr.status());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  // Non-blocking connect + poll for writability, then restore the
  // blocking mode the frame I/O expects.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    Status s = Errno("fcntl");
    ::close(fd);
    return s;
  }
  const std::string where = "connect " + host + ":" + std::to_string(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&*addr),
                sizeof *addr) < 0) {
    if (errno != EINPROGRESS) {
      Status s = Errno(where);
      ::close(fd);
      return s;
    }
    const IoDeadline dl = DeadlineIn(timeout_ms);
    Status ready = AwaitFd(fd, POLLOUT, dl, where, 0, 0);
    if (!ready.ok()) {
      ::close(fd);
      return ready;
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      Status s = Errno("getsockopt");
      ::close(fd);
      return s;
    }
    if (err != 0) {
      errno = err;
      Status s = Errno(where);
      ::close(fd);
      return s;
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    Status s = Errno("fcntl");
    ::close(fd);
    return s;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

Result<bool> ReadFullOrEof(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (r == 0) {
      if (got == 0) return false;
      return Status::DataLoss("connection closed mid-message (" +
                              std::to_string(got) + " of " +
                              std::to_string(n) + " bytes)");
    }
    got += std::size_t(r);
  }
  return true;
}

Status ReadFull(int fd, void* buf, std::size_t n) {
  Result<bool> r = ReadFullOrEof(fd, buf, n);
  MODB_RETURN_IF_ERROR(r.status());
  if (!*r) {
    return Status::DataLoss("connection closed before message");
  }
  return Status::OK();
}

Result<bool> ReadFullOrEofTimeout(int fd, void* buf, std::size_t n,
                                  int timeout_ms) {
  const IoDeadline dl = DeadlineIn(timeout_ms);
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    MODB_RETURN_IF_ERROR(AwaitFd(fd, POLLIN, dl, "read", got, n));
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      // EAGAIN: poll readiness can be spurious (or the fd is
      // non-blocking); just wait again.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return Errno("read");
    }
    if (r == 0) {
      if (got == 0) return false;
      return Status::DataLoss("connection closed mid-message (" +
                              std::to_string(got) + " of " +
                              std::to_string(n) + " bytes)");
    }
    got += std::size_t(r);
  }
  return true;
}

Status ReadFullTimeout(int fd, void* buf, std::size_t n, int timeout_ms) {
  Result<bool> r = ReadFullOrEofTimeout(fd, buf, n, timeout_ms);
  MODB_RETURN_IF_ERROR(r.status());
  if (!*r) {
    return Status::DataLoss("connection closed before message");
  }
  return Status::OK();
}

namespace {

// Sends every byte of iov[0..iovcnt) with sendmsg. MSG_NOSIGNAL: a peer
// that closed mid-reply must surface as an EPIPE status on this one
// connection, not a SIGPIPE that kills the whole server. A bounded
// deadline covers the whole write (polled before every send); an
// unbounded one blocks in send.
Status SendAll(int fd, iovec* iov, int iovcnt, int timeout_ms) {
  const IoDeadline dl = DeadlineIn(timeout_ms);
  std::size_t total = 0;
  for (int i = 0; i < iovcnt; ++i) total += iov[i].iov_len;
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = std::size_t(iovcnt);
  std::size_t sent = 0;
  while (sent < total) {
    if (dl.bounded) {
      MODB_RETURN_IF_ERROR(AwaitFd(fd, POLLOUT, dl, "write", sent, total));
    }
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      // EAGAIN: poll readiness can be spurious (or the fd is
      // non-blocking); a bounded write just waits again.
      if (errno == EINTR ||
          (dl.bounded && (errno == EAGAIN || errno == EWOULDBLOCK))) {
        continue;
      }
      return Errno("write");
    }
    sent += std::size_t(w);
    // Drop what went out from the front of the iovec list.
    for (std::size_t done = std::size_t(w); done > 0;) {
      const std::size_t step = std::min(done, msg.msg_iov->iov_len);
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + step;
      msg.msg_iov->iov_len -= step;
      done -= step;
      if (msg.msg_iov->iov_len == 0) {
        ++msg.msg_iov;
        --msg.msg_iovlen;
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status WriteFull(int fd, const void* buf, std::size_t n) {
  return WriteFullTimeout(fd, buf, n, -1);
}

Status WriteFullTimeout(int fd, const void* buf, std::size_t n,
                        int timeout_ms) {
  iovec iov{const_cast<void*>(buf), n};
  return SendAll(fd, &iov, 1, timeout_ms);
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void ShutdownReadFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  return WriteFrameTimeout(fd, type, payload, -1);
}

Status WriteFrameTimeout(int fd, FrameType type, std::string_view payload,
                         int timeout_ms) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte cap");
  }
  // Header and payload leave in one sendmsg: no concatenated copy.
  std::string header = EncodeFrameHeader(type, std::uint32_t(payload.size()));
  iovec iov[2] = {{header.data(), header.size()},
                  {const_cast<char*>(payload.data()), payload.size()}};
  return SendAll(fd, iov, 2, timeout_ms);
}

Result<std::optional<Frame>> ReadFrame(int fd) {
  return ReadFrameTimeout(fd, -1);
}

Result<std::optional<Frame>> ReadFrameTimeout(int fd, int timeout_ms) {
  char header[kFrameHeaderBytes];
  Result<bool> got =
      ReadFullOrEofTimeout(fd, header, sizeof header, timeout_ms);
  MODB_RETURN_IF_ERROR(got.status());
  if (!*got) return std::optional<Frame>();
  Result<FrameHeader> h =
      DecodeFrameHeader(std::string_view(header, sizeof header));
  MODB_RETURN_IF_ERROR(h.status());
  Frame frame;
  frame.type = h->type;
  frame.payload.resize(h->payload_len);
  if (h->payload_len > 0) {
    MODB_RETURN_IF_ERROR(ReadFullTimeout(fd, frame.payload.data(),
                                         h->payload_len, timeout_ms));
  }
  return std::optional<Frame>(std::move(frame));
}

}  // namespace serve
}  // namespace modb

//===- server/Wire.cpp - Socket and frame helpers -------------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "server/Wire.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace relc {
namespace wire {

static void setErr(std::string *Err, const char *What) {
  if (Err)
    *Err = std::string(What) + ": " + std::strerror(errno);
}

int listenTcp(uint16_t Port, std::string *Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    setErr(Err, "socket");
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    setErr(Err, "bind");
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, 64) != 0) {
    setErr(Err, "listen");
    ::close(Fd);
    return -1;
  }
  return Fd;
}

uint16_t boundPort(int Fd) {
  sockaddr_in Addr{};
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0)
    return 0;
  return ntohs(Addr.sin_port);
}

int connectTcp(uint16_t Port, std::string *Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    setErr(Err, "socket");
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    setErr(Err, "connect");
    ::close(Fd);
    return -1;
  }
  setNoDelay(Fd);
  return Fd;
}

void setNoDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

bool readFull(int Fd, void *Buf, size_t N) {
  uint8_t *P = static_cast<uint8_t *>(Buf);
  while (N != 0) {
    ssize_t R = ::recv(Fd, P, N, 0);
    if (R == 0)
      return false; // orderly EOF
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += R;
    N -= static_cast<size_t>(R);
  }
  return true;
}

bool writeFull(int Fd, const void *Buf, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Buf);
  while (N != 0) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as an
    // error return, not a process-killing SIGPIPE.
    ssize_t R = ::send(Fd, P, N, MSG_NOSIGNAL);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += R;
    N -= static_cast<size_t>(R);
  }
  return true;
}

bool readFrame(int Fd, std::vector<uint8_t> &Body) {
  uint8_t Prefix[4];
  if (!readFull(Fd, Prefix, 4))
    return false;
  uint32_t Len = 0;
  for (int I = 0; I != 4; ++I)
    Len |= static_cast<uint32_t>(Prefix[I]) << (8 * I);
  if (Len > MaxBody)
    return false; // poisoned stream: never allocate attacker-sized buffers
  Body.resize(Len);
  return Len == 0 || readFull(Fd, Body.data(), Len);
}

bool writeFrame(int Fd, const uint8_t *Body, size_t N) {
  if (N > MaxBody)
    return false;
  uint8_t Prefix[4];
  for (int I = 0; I != 4; ++I)
    Prefix[I] = static_cast<uint8_t>(N >> (8 * I));
  // Prefix and body leave in one sendmsg. As two sends, the body of a
  // small frame would sit behind Nagle until the peer's delayed ACK of
  // the prefix arrived (~40 ms per round trip on Linux loopback).
  iovec Iov[2] = {{Prefix, 4}, {const_cast<uint8_t *>(Body), N}};
  msghdr Msg{};
  Msg.msg_iov = Iov;
  Msg.msg_iovlen = 2;
  while (Msg.msg_iovlen != 0) {
    // MSG_NOSIGNAL: see writeFull.
    ssize_t R = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    // Partial write: skip the iovecs sent whole, trim the one cut.
    size_t Sent = static_cast<size_t>(R);
    while (Msg.msg_iovlen != 0 && Sent >= Msg.msg_iov->iov_len) {
      Sent -= Msg.msg_iov->iov_len;
      ++Msg.msg_iov;
      --Msg.msg_iovlen;
    }
    if (Msg.msg_iovlen != 0) {
      Msg.msg_iov->iov_base =
          static_cast<uint8_t *>(Msg.msg_iov->iov_base) + Sent;
      Msg.msg_iov->iov_len -= Sent;
    }
  }
  return true;
}

} // namespace wire
} // namespace relc

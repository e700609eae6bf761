//===- server/Wire.h - Binary wire protocol for relserved -------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed binary protocol between RelClient and RelServer
/// (docs/SERVER.md has the normative layout). Everything is
/// little-endian and explicitly serialized byte-by-byte, so the format
/// is identical across hosts.
///
///   frame    := u32 bodyLen | body            (bodyLen <= MaxBody)
///   request  := u8 opcode | u64 reqId | payload
///   response := u8 status | u64 reqId | payload
///
/// Requests on one connection may be pipelined; responses carry the
/// request's id and may interleave with responses to other requests on
/// the same connection (reads complete inline on the connection
/// thread, mutations complete on the group-commit thread). A frame
/// whose length prefix exceeds MaxBody, or a body too short for the
/// opcode/reqId header, poisons the stream and the server closes the
/// connection; a payload that fails to decode is answered with
/// Status::Error and the connection stays usable (frame boundaries are
/// delimited by the prefix, so a bad payload cannot desynchronize the
/// stream).
///
/// Values are `u8 kind` (0 = int, 1 = string) followed by an i64 or a
/// u32-length-prefixed byte string; tuples are `u64 columnMask`
/// followed by the bound values in ascending column order. Transact
/// batches carry WireTxOps — insert/remove/update mirroring TxOp, plus
/// `add`, the checked arithmetic upsert (absent key or floor violation
/// aborts the batch) that transfer-style transactions are built from.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_SERVER_WIRE_H
#define RELC_SERVER_WIRE_H

#include "rel/ColumnSet.h"
#include "rel/Tuple.h"
#include "runtime/Transaction.h"
#include "support/Value.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace relc {
namespace wire {

/// Hard cap on frame bodies; a length prefix above this is treated as
/// stream corruption (close, do not allocate).
constexpr uint32_t MaxBody = 1u << 20;

/// Request opcodes.
enum class Op : uint8_t {
  Ping = 0x01,
  /// payload: tuple (full). Mutation; durable-acked.
  Insert = 0x02,
  /// payload: pattern tuple. Mutation; durable-acked.
  Remove = 0x03,
  /// payload: key tuple, changes tuple. Mutation; durable-acked.
  Update = 0x04,
  /// payload: pattern tuple, u64 output column mask.
  /// reply: u32 rowCount, then rowCount tuples.
  Query = 0x05,
  /// payload: u32 opCount, then opCount WireTxOps. reply: commit
  /// reply (see below).
  Transact = 0x06,
  /// reply: u64 size.
  Size = 0x07,
  /// Snapshot + truncate the WAL. reply: empty.
  Checkpoint = 0x08,
  /// reply: u64 groups, u64 txns, u64 multiTxGroups, u64 maxGroupSize,
  /// u64 syncs.
  Stats = 0x09,
};

/// Response status byte.
enum class Status : uint8_t {
  /// Committed / executed. Mutations append: u64 ticket.
  Ok = 0x00,
  /// Transaction aborted cleanly (nothing applied). Appends: u32
  /// failedOpIndex.
  Aborted = 0x01,
  /// Malformed or rejected request. Appends: u32 len, error message.
  Error = 0x02,
};

/// One transact-batch operation on the wire.
struct WireTxOp {
  enum Kind : uint8_t {
    Insert = 0, ///< A = full tuple
    Remove = 1, ///< A = pattern
    Update = 2, ///< A = key, B = changes (disjoint from key)
    /// Checked arithmetic upsert: read the tuple matching key A, add
    /// Delta to column Col, write back. Absent key aborts the batch;
    /// a result below Floor aborts the batch (Floor == INT64_MIN
    /// disables the check). The declarative overdraft guard.
    Add = 3,
  };

  uint8_t K = Insert;
  Tuple A;
  Tuple B;
  ColumnId Col = 0;
  int64_t Delta = 0;
  int64_t Floor = std::numeric_limits<int64_t>::min();

  static WireTxOp insert(Tuple T) {
    WireTxOp O;
    O.K = Insert;
    O.A = std::move(T);
    return O;
  }
  static WireTxOp remove(Tuple Pattern) {
    WireTxOp O;
    O.K = Remove;
    O.A = std::move(Pattern);
    return O;
  }
  static WireTxOp update(Tuple Key, Tuple Changes) {
    WireTxOp O;
    O.K = Update;
    O.A = std::move(Key);
    O.B = std::move(Changes);
    return O;
  }
  static WireTxOp add(Tuple Key, ColumnId Col, int64_t Delta,
                      int64_t Floor = std::numeric_limits<int64_t>::min()) {
    WireTxOp O;
    O.K = Add;
    O.A = std::move(Key);
    O.Col = Col;
    O.Delta = Delta;
    O.Floor = Floor;
    return O;
  }

  bool operator==(const WireTxOp &O) const {
    return K == O.K && A == O.A && B == O.B && Col == O.Col &&
           Delta == O.Delta && Floor == O.Floor;
  }
};

//===----------------------------------------------------------------------===//
// Byte-level codec
//===----------------------------------------------------------------------===//

/// Append-only little-endian encoder.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void bytes(const void *P, size_t N) {
    const uint8_t *B = static_cast<const uint8_t *>(P);
    Buf.insert(Buf.end(), B, B + N);
  }
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    bytes(S.data(), S.size());
  }

  void value(const Value &V) {
    if (V.isInt()) {
      u8(0);
      i64(V.asInt());
    } else {
      u8(1);
      str(V.asStr());
    }
  }

  void tuple(const Tuple &T) {
    ColumnSet C = T.columns();
    u64(C.mask());
    for (ColumnId Id : C)
      value(T.get(Id));
  }

  void txOp(const WireTxOp &O) {
    u8(O.K);
    switch (O.K) {
    case WireTxOp::Insert:
    case WireTxOp::Remove:
      tuple(O.A);
      return;
    case WireTxOp::Update:
      tuple(O.A);
      tuple(O.B);
      return;
    case WireTxOp::Add:
      tuple(O.A);
      u8(static_cast<uint8_t>(O.Col));
      i64(O.Delta);
      i64(O.Floor);
      return;
    }
  }

  const std::vector<uint8_t> &data() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }
  size_t size() const { return Buf.size(); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian decoder. Every read returns false on
/// underrun (and on any structural violation) without touching the
/// output; once a read fails the reader stays failed.
class ByteReader {
public:
  ByteReader(const uint8_t *P, size_t N) : P(P), End(P + N) {}
  explicit ByteReader(const std::vector<uint8_t> &V)
      : ByteReader(V.data(), V.size()) {}

  bool ok() const { return !Failed; }
  size_t remaining() const { return static_cast<size_t>(End - P); }

  bool u8(uint8_t &V) {
    if (!need(1))
      return false;
    V = *P++;
    return true;
  }
  bool u32(uint32_t &V) {
    if (!need(4))
      return false;
    V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(*P++) << (8 * I);
    return true;
  }
  bool u64(uint64_t &V) {
    if (!need(8))
      return false;
    V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(*P++) << (8 * I);
    return true;
  }
  bool i64(int64_t &V) {
    uint64_t U;
    if (!u64(U))
      return false;
    std::memcpy(&V, &U, 8);
    return true;
  }
  bool str(std::string &S) {
    uint32_t N;
    if (!u32(N) || !need(N))
      return false;
    S.assign(reinterpret_cast<const char *>(P), N);
    P += N;
    return true;
  }

  bool value(Value &V) {
    uint8_t K;
    if (!u8(K))
      return false;
    if (K == 0) {
      int64_t I;
      if (!i64(I))
        return false;
      V = Value::ofInt(I);
      return true;
    }
    if (K == 1) {
      std::string S;
      if (!str(S))
        return false;
      V = Value::ofString(S);
      return true;
    }
    return fail();
  }

  /// Decodes a tuple whose column mask must fit \p Arity columns
  /// (arity 0 skips the check — used by tests round-tripping opaque
  /// tuples).
  bool tuple(Tuple &T, unsigned Arity = 0) {
    uint64_t Mask;
    if (!u64(Mask))
      return false;
    // Any u64 mask addresses at most 64 columns (one bit each), so an
    // arity-less decode accepts every mask; with an arity, bits past
    // it are rejected — for every arity up to the 64-column cap, where
    // all 64 bits are real columns (and `Mask >> 64` would be UB).
    if (Arity != 0 && Arity < 64 && (Mask >> Arity) != 0)
      return fail();
    Tuple Out;
    for (ColumnId Id : ColumnSet::fromMask(Mask)) {
      Value V;
      if (!value(V))
        return false;
      Out.set(Id, V);
    }
    T = std::move(Out);
    return true;
  }

  bool txOp(WireTxOp &O, unsigned Arity = 0) {
    uint8_t K;
    if (!u8(K))
      return false;
    WireTxOp Out;
    Out.K = K;
    switch (K) {
    case WireTxOp::Insert:
    case WireTxOp::Remove:
      if (!tuple(Out.A, Arity))
        return false;
      break;
    case WireTxOp::Update:
      if (!tuple(Out.A, Arity) || !tuple(Out.B, Arity))
        return false;
      break;
    case WireTxOp::Add: {
      uint8_t Col;
      if (!tuple(Out.A, Arity) || !u8(Col) || !i64(Out.Delta) ||
          !i64(Out.Floor))
        return false;
      Out.Col = Col;
      break;
    }
    default:
      return fail();
    }
    O = std::move(Out);
    return true;
  }

private:
  bool need(size_t N) {
    if (Failed || remaining() < N)
      return fail();
    return true;
  }
  bool fail() {
    Failed = true;
    return false;
  }

  const uint8_t *P;
  const uint8_t *End;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Redo codec (WAL payloads)
//===----------------------------------------------------------------------===//

/// Serializes a commit hook's redo batch as a WAL payload: `u32 opCount`
/// then per op `u8 kind | tuple(s)`. Redo ops are concrete effects —
/// insert/remove/update only, never a callback-bearing upsert — so the
/// encoding is total.
inline std::vector<uint8_t> encodeRedo(const std::vector<TxOp> &Ops) {
  ByteWriter W;
  W.u32(static_cast<uint32_t>(Ops.size()));
  for (const TxOp &Op : Ops) {
    switch (Op.Op) {
    case TxOp::Insert:
      W.u8(0);
      W.tuple(Op.A);
      break;
    case TxOp::Remove:
      W.u8(1);
      W.tuple(Op.A);
      break;
    case TxOp::Update:
      W.u8(2);
      W.tuple(Op.A);
      W.tuple(Op.B);
      break;
    case TxOp::Upsert:
      assert(false && "redo batches never carry upserts");
      break;
    }
  }
  return W.take();
}

/// Decodes a WAL redo payload (recovery). False on malformed bytes.
inline bool decodeRedo(const uint8_t *P, size_t N, unsigned Arity,
                       std::vector<TxOp> &Ops) {
  ByteReader R(P, N);
  uint32_t Count;
  if (!R.u32(Count))
    return false;
  Ops.clear();
  Ops.reserve(Count);
  for (uint32_t I = 0; I != Count; ++I) {
    uint8_t K;
    Tuple A, B;
    if (!R.u8(K) || !R.tuple(A, Arity))
      return false;
    switch (K) {
    case 0:
      Ops.push_back(TxOp::insert(std::move(A)));
      break;
    case 1:
      Ops.push_back(TxOp::remove(std::move(A)));
      break;
    case 2:
      if (!R.tuple(B, Arity))
        return false;
      Ops.push_back(TxOp::update(std::move(A), std::move(B)));
      break;
    default:
      return false;
    }
  }
  return R.remaining() == 0;
}

//===----------------------------------------------------------------------===//
// Sockets and frames (loopback TCP)
//===----------------------------------------------------------------------===//

/// Listens on 127.0.0.1:\p Port (0 = ephemeral). Returns the fd, or -1
/// with \p Err set.
int listenTcp(uint16_t Port, std::string *Err);

/// The port a listening fd is bound to (resolves ephemeral binds).
uint16_t boundPort(int Fd);

/// Connects to 127.0.0.1:\p Port. Returns the fd, or -1 with \p Err.
/// The socket has TCP_NODELAY set.
int connectTcp(uint16_t Port, std::string *Err);

/// Sets TCP_NODELAY on \p Fd. Both ends of a connection need it: a
/// request/reply protocol with small frames otherwise waits on Nagle.
void setNoDelay(int Fd);

/// Reads exactly \p N bytes; false on EOF or error.
bool readFull(int Fd, void *Buf, size_t N);

/// Writes exactly \p N bytes (SIGPIPE-safe); false on error.
bool writeFull(int Fd, const void *Buf, size_t N);

/// Reads one frame body (the length prefix is consumed and checked
/// against MaxBody). False on EOF, error, or oversized prefix — the
/// caller must close the connection in every false case.
bool readFrame(int Fd, std::vector<uint8_t> &Body);

/// Writes `u32 len | body` with one sendmsg (looping on partial
/// writes; SIGPIPE-safe). False on error or an oversized body.
bool writeFrame(int Fd, const uint8_t *Body, size_t N);
inline bool writeFrame(int Fd, const std::vector<uint8_t> &Body) {
  return writeFrame(Fd, Body.data(), Body.size());
}

} // namespace wire
} // namespace relc

#endif // RELC_SERVER_WIRE_H

// Transport security for the similarity cloud: a pre-shared-key mutual
// handshake plus an AEAD record layer, built entirely from the repo's
// own primitives (HKDF/HMAC-SHA256, AES-CTR encrypt-then-MAC AEAD,
// OS-entropy nonces).
//
// The paper's trust model encrypts payloads *at rest* on the
// honest-but-curious server, but the base wire protocol trusts the
// network: permutation prefixes, candidate counts and ciphertext sizes
// cross the TCP link in the clear, where a passive observer can run the
// exact leakage analyses secure/attack.{h,cc} implements. This layer
// closes that gap. With ChannelPolicy::kSecure on both ends, every byte
// after the TCP accept is either a handshake message or an AEAD record.
//
// ## Handshake (1-RTT, PSK mutual authentication)
//
//   C -> S  ClientHello  = magic(4) | version(1) | client_nonce(32)
//   S -> C  ServerHello  = magic(4) | version(1) | server_nonce(32)
//                          | server_tag(32)
//   C -> S  ClientFinish = client_tag(32)
//
//   hs_mac_key = HKDF-Expand(HKDF-Extract({}, psk), "simcloud hs mac", 32)
//   server_tag = HMAC(hs_mac_key, "server finish" || both nonces)
//   client_tag = HMAC(hs_mac_key, "client finish" || both nonces)
//
// The client verifies server_tag before sending anything further (a
// server that does not hold the PSK cannot produce it), sends
// ClientFinish, and may immediately pipeline records behind it — first
// application byte after one round trip. The server verifies client_tag
// before opening any record. Both tags bind both fresh nonces, so a
// replayed handshake transcript fails against the new peer nonce.
//
// ## Record layer
//
//   record = u32 LE sealed_length | AeadCipher::Seal(plaintext, ad)
//   ad     = direction label ("sc-c2s" / "sc-s2c") | u64 epoch | u64 seq
//
// Each direction derives its epoch key
//   HKDF-Expand(HKDF-Extract(client_nonce || server_nonce, psk),
//               label || u64 epoch, 32)
// and counts records per (epoch, sequence). The sequence pair is not
// transmitted — both ends count records — so a replayed, reordered,
// dropped or truncated record fails authentication and kills the
// connection. After `rekey_after_records` records or
// `rekey_after_bytes` plaintext bytes a direction advances its epoch
// and re-derives its key; both ends observe the same record stream, so
// the switch is deterministic and needs no signaling.
//
// ## Downgrade protection
//
// A secure server hard-closes any connection whose first bytes are not
// the handshake magic, so plaintext clients are rejected outright. The magic is chosen so that a *plaintext* server
// parsing it as a frame header sees a declared length beyond its 1 GiB
// default limit and closes the connection, which surfaces as a clean
// handshake failure at the secure client instead of a hang.
//
// Threading: a SecureChannel has independent send and receive halves.
// Seal() calls must be externally serialized, Ingest() calls must be
// externally serialized, but one Seal and one Ingest may run
// concurrently (TcpTransport writes under its write lock while the
// elected reader ingests; the server's event loop does both alone).
// Key material (PSK copies, PRKs, epoch keys, transcripts) is wiped on
// destruction.

#ifndef SIMCLOUD_NET_SECURE_CHANNEL_H_
#define SIMCLOUD_NET_SECURE_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aead.h"

namespace simcloud {
namespace net {

/// How a listener / transport treats the wire.
enum class ChannelPolicy : uint8_t {
  /// Frames travel unencrypted; the network is trusted (loopback
  /// deployments, the paper's evaluation setup).
  kPlaintext = 0,
  /// PSK handshake + AEAD records on every connection; plaintext peers
  /// are rejected.
  kSecure = 1,
};

/// Configuration of the secure channel (shared by both ends).
struct SecureChannelOptions {
  /// Pre-shared key, >= 16 bytes. The data owner derives it from the
  /// index secret (SecretKey::DeriveChannelKey) and provisions it to the
  /// server alongside the service, like the query-auth MAC key.
  Bytes psk;
  /// A direction rekeys (epoch bump + HKDF re-derivation) after this
  /// many records...
  uint64_t rekey_after_records = 1ull << 20;
  /// ...or this many plaintext bytes, whichever comes first.
  uint64_t rekey_after_bytes = 1ull << 30;
  /// Largest record (header + sealed bytes) a receiver accepts before
  /// declaring a protocol violation. TcpServer::Start derives this from
  /// its max_frame_bytes; the client default admits any legal frame.
  uint64_t max_record_bytes = (1ull << 31) + 128;
  /// Socket receive timeout while the *client* runs its blocking
  /// handshake, so a silent or misconfigured server fails fast.
  int handshake_timeout_ms = 5000;
};

/// First bytes of every handshake: never a plausible plaintext frame
/// header (a default plaintext server sees a > 1 GiB declared length and
/// closes), never valid UTF-8 protocol bytes.
inline constexpr uint8_t kSecureChannelMagic[4] = {'S', 'C', 'H', 0xE5};
inline constexpr uint8_t kSecureChannelVersion = 1;
inline constexpr size_t kChannelNonceSize = 32;
inline constexpr size_t kChannelTagSize = 32;
inline constexpr size_t kClientHelloSize = 5 + kChannelNonceSize;
inline constexpr size_t kServerHelloSize =
    5 + kChannelNonceSize + kChannelTagSize;
inline constexpr size_t kClientFinishSize = kChannelTagSize;

/// An open record channel: Seal outgoing frames into records, Ingest
/// raw wire bytes back into the plaintext stream. Created by the
/// handshake drivers below.
class SecureChannel {
 public:
  /// u32 length prefix of every record.
  static constexpr size_t kRecordHeaderSize = 4;
  /// Wire overhead of one record over its plaintext.
  static constexpr size_t kSealOverhead = kRecordHeaderSize +
                                          crypto::AeadCipher::kIvSize +
                                          crypto::AeadCipher::kTagSize;

  /// Wipes the PRK and both direction keys.
  ~SecureChannel();

  /// Bytes a record carries in front of its plaintext: the u32 length
  /// prefix and the AEAD IV. SealRecord's buffers start with this much
  /// headroom so the plaintext is sealed where it already lies.
  static constexpr size_t kRecordHeadroom =
      kRecordHeaderSize + crypto::AeadCipher::kIvSize;

  /// Seals `plaintext` (one frame, or any stream segment) into one
  /// length-prefixed record under the send direction's current
  /// (epoch, seq), then advances the send schedule. Copies the plaintext
  /// into the record buffer once and seals it there (SealRecord).
  Result<Bytes> Seal(const Bytes& plaintext);

  /// Seals a record in place. `*record` holds kRecordHeadroom bytes of
  /// headroom (their contents are ignored) followed by the plaintext; on
  /// return it is the complete wire record — length prefix, IV,
  /// ciphertext, tag — grown only by the tag. Reserve kSealOverhead
  /// extra bytes up front and the buffer never reallocates.
  Status SealRecord(Bytes* record);

  /// Consumes complete records from data[0..len), appending their
  /// plaintext to `*plain` and the consumed byte count to `*consumed`
  /// (partial trailing records are left for the caller's buffer). The
  /// buffer is MUTATED: each record is authenticated and then decrypted
  /// in place, so the consumed bytes no longer hold the wire record; the
  /// only copy is the plaintext appended to `*plain`. Bytes past
  /// `*consumed` are untouched. Any authentication failure — tampering,
  /// replay, reordering, truncation, a record beyond max_record_bytes —
  /// is a NetworkError; the failed record is left undecrypted and
  /// nothing of it is appended. The caller must close the connection,
  /// and the channel stays failed.
  Status Ingest(uint8_t* data, size_t len, size_t* consumed, Bytes* plain);

  /// Telemetry for tests and benches.
  uint64_t send_epoch() const { return send_.epoch; }
  uint64_t recv_epoch() const { return recv_.epoch; }
  uint64_t records_sealed() const { return send_.total_records; }
  uint64_t records_opened() const { return recv_.total_records; }

 private:
  friend class ClientHandshake;
  friend class ServerHandshake;

  struct Direction {
    const char* label = nullptr;  ///< "sc-c2s" or "sc-s2c"
    std::optional<crypto::AeadCipher> aead;
    uint64_t epoch = 0;
    uint64_t seq = 0;                ///< records within the epoch
    uint64_t bytes_in_epoch = 0;     ///< plaintext bytes within the epoch
    uint64_t total_records = 0;
  };

  /// Derives both direction keys for epoch 0 from the handshake PRK.
  static Result<std::unique_ptr<SecureChannel>> Create(
      bool is_client, Bytes prk, const SecureChannelOptions& options);

  SecureChannel() = default;

  /// Counts one record of `plaintext_bytes` against `dir`'s budgets and
  /// rekeys (epoch bump + re-derivation) when a budget is exhausted.
  Status Advance(Direction* dir, size_t plaintext_bytes);

  Bytes prk_;  ///< handshake master secret; wiped on destruction
  uint64_t rekey_after_records_ = 0;
  uint64_t rekey_after_bytes_ = 0;
  uint64_t max_record_bytes_ = 0;
  Status broken_ = Status::OK();  ///< sticky receive failure
  Direction send_;
  Direction recv_;
};

/// Client half of the handshake, I/O-free for testability (the blocking
/// socket driver is RunClientHandshake). Wipes its key material on
/// destruction.
class ClientHandshake {
 public:
  /// Draws the client nonce and builds the ClientHello.
  static Result<ClientHandshake> Start(const SecureChannelOptions& options);
  ~ClientHandshake();
  ClientHandshake(ClientHandshake&&) = default;
  ClientHandshake& operator=(ClientHandshake&&) = default;

  const Bytes& hello() const { return hello_; }

  /// Verifies the ServerHello (exactly kServerHelloSize bytes; a bad
  /// magic, version or tag is PermissionDenied). On success returns the
  /// ClientFinish message and opens `*channel`.
  Result<Bytes> Finish(const Bytes& server_hello,
                       std::unique_ptr<SecureChannel>* channel);

 private:
  explicit ClientHandshake(SecureChannelOptions options)
      : options_(std::move(options)) {}

  SecureChannelOptions options_;
  Bytes client_nonce_;
  Bytes hello_;
};

/// Server half of the handshake: a non-blocking state machine the epoll
/// loop feeds with raw bytes, so a mid-handshake connection never
/// blocks the loop or other connections. Wipes its key material on
/// destruction.
class ServerHandshake {
 public:
  explicit ServerHandshake(SecureChannelOptions options)
      : options_(std::move(options)) {}
  ~ServerHandshake();

  /// Consumes complete handshake messages from data[0..len), returning
  /// how many bytes were eaten (partial messages wait for more input).
  /// The ServerHello reply, when produced, is appended to `*to_send`.
  /// Errors — bytes that are not a handshake (a plaintext client:
  /// downgrade attempt), a bad version, a wrong finish tag —
  /// must close the connection.
  Result<size_t> Consume(const uint8_t* data, size_t len, Bytes* to_send);

  /// True once the ClientFinish verified; TakeChannel() yields the open
  /// record channel exactly once.
  bool done() const { return state_ == State::kDone; }
  std::unique_ptr<SecureChannel> TakeChannel() { return std::move(channel_); }

 private:
  enum class State { kAwaitHello, kAwaitFinish, kDone };

  SecureChannelOptions options_;
  State state_ = State::kAwaitHello;
  Bytes client_nonce_;
  Bytes server_nonce_;
  std::unique_ptr<SecureChannel> channel_;
};

/// Runs the full client handshake over a connected blocking socket
/// (applies options.handshake_timeout_ms to the reads). Distinguishes a
/// server that closed mid-handshake — the signature of a plaintext
/// server rejecting the magic — in its error message.
Result<std::unique_ptr<SecureChannel>> RunClientHandshake(
    int fd, const SecureChannelOptions& options);

}  // namespace net
}  // namespace simcloud

#endif  // SIMCLOUD_NET_SECURE_CHANNEL_H_

// Symmetric encryption of arbitrary-length messages on top of the AES
// block transform: CBC with PKCS#7 padding (the scheme used for object
// payloads, matching the paper's AES-128 setup) and CTR (used where
// ciphertext length must equal plaintext length).
//
// Ciphertext layout: a fresh random 16-byte IV is prepended, so the
// ciphertext of an n-byte message is
//   CBC: 16 + (floor(n/16)+1)*16 bytes,
//   CTR: 16 + n bytes.

#ifndef SIMCLOUD_CRYPTO_CIPHER_H_
#define SIMCLOUD_CRYPTO_CIPHER_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"

namespace simcloud {
namespace crypto {

/// Block cipher mode of operation.
enum class CipherMode { kCbc, kCtr };

/// Stateless, unauthenticated symmetric cipher wrapper: CBC/CTR give
/// confidentiality only, so a tampered ciphertext can decrypt to altered
/// plaintext (use AeadCipher, aead.h, when integrity matters). One
/// instance per key; safe for concurrent use.
class Cipher {
 public:
  /// Creates a cipher for `key` (16/24/32 bytes) in the given mode.
  static Result<Cipher> Create(const Bytes& key, CipherMode mode);

  /// Encrypts `plaintext` under a caller-supplied 16-byte IV.
  /// Returns iv || ciphertext.
  Result<Bytes> EncryptWithIv(const Bytes& plaintext, const Bytes& iv) const;

  /// Encrypts `plaintext` under a fresh random IV (drawn from SecureRandom).
  Result<Bytes> Encrypt(const Bytes& plaintext) const;

  /// Decrypts a buffer produced by Encrypt/EncryptWithIv.
  Result<Bytes> Decrypt(const Bytes& ciphertext) const;

  /// Size in bytes of Encrypt()'s output for an n-byte plaintext.
  size_t CiphertextSize(size_t plaintext_size) const;

  /// CTR mode only: XORs the keystream under the 16-byte `iv` over
  /// data[0..len) in place (encrypt and decrypt are the same operation).
  /// The AEAD seals and opens caller-owned buffers through this.
  void CtrXorInPlace(const uint8_t* iv, uint8_t* data, size_t len) const;

  CipherMode mode() const { return mode_; }

 private:
  Cipher(Aes aes, CipherMode mode) : aes_(std::move(aes)), mode_(mode) {}

  Result<Bytes> EncryptCbc(const Bytes& plaintext, const Bytes& iv) const;
  Result<Bytes> DecryptCbc(const Bytes& ciphertext) const;
  Result<Bytes> EncryptCtr(const Bytes& plaintext, const Bytes& iv) const;
  Result<Bytes> DecryptCtr(const Bytes& ciphertext) const;

  Aes aes_;
  CipherMode mode_;
};

/// Applies PKCS#7 padding up to `block_size` (1..255), appending to
/// `data` in place (move a buffer in to avoid a copy).
Bytes Pkcs7Pad(Bytes data, size_t block_size);

/// Strips and validates PKCS#7 padding; Corruption on malformed padding.
/// Takes `data` by value and shrinks it in place, so a caller that moves
/// its buffer in pays no copy.
Result<Bytes> Pkcs7Unpad(Bytes data, size_t block_size);

}  // namespace crypto
}  // namespace simcloud

#endif  // SIMCLOUD_CRYPTO_CIPHER_H_

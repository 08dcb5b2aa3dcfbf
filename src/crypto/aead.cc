#include "crypto/aead.h"

#include <cstring>

#include "crypto/hmac.h"
#include "crypto/secure_random.h"

namespace simcloud {
namespace crypto {

namespace {

// Domain-separation labels for subkey derivation. Deriving both subkeys
// from one master key with distinct labels keeps the public API a single
// secret while guaranteeing the AES and MAC keys are independent.
Bytes DeriveSubkey(const Bytes& master_key, const char* label, size_t len) {
  Bytes message(label, label + std::strlen(label));
  Bytes digest = HmacSha256(master_key, message);
  digest.resize(len);
  return digest;
}

}  // namespace

Result<AeadCipher> AeadCipher::Create(const Bytes& master_key) {
  if (master_key.size() != 16 && master_key.size() != 24 &&
      master_key.size() != 32) {
    return Status::InvalidArgument("AEAD master key must be 16/24/32 bytes");
  }
  Bytes enc_key =
      DeriveSubkey(master_key, "simcloud-aead-enc", master_key.size());
  Bytes mac_key = DeriveSubkey(master_key, "simcloud-aead-mac", kTagSize);
  SIMCLOUD_ASSIGN_OR_RETURN(Cipher enc,
                            Cipher::Create(enc_key, CipherMode::kCtr));
  AeadCipher aead(std::move(enc), mac_key);
  WipeBytes(&enc_key);
  WipeBytes(&mac_key);
  return aead;
}

Bytes AeadCipher::ComputeTag(const uint8_t* iv_and_ciphertext, size_t size,
                             const uint8_t* associated_data,
                             size_t ad_size) const {
  // Stream the framed message straight into the MAC — no concat buffer;
  // this runs once per wire record in the secure channel.
  HmacSha256State::Stream mac = mac_state_.NewStream();
  uint8_t ad_len_prefix[8];
  const uint64_t ad_len = ad_size;
  for (int i = 0; i < 8; ++i) {
    ad_len_prefix[i] = static_cast<uint8_t>(ad_len >> (56 - 8 * i));
  }
  mac.Update(ad_len_prefix, sizeof(ad_len_prefix));
  mac.Update(associated_data, ad_size);
  mac.Update(iv_and_ciphertext, size);
  return mac.Finish();
}

Status AeadCipher::SealInPlace(uint8_t* sealed, size_t plaintext_size,
                               const uint8_t* associated_data,
                               size_t ad_size) const {
  SIMCLOUD_RETURN_NOT_OK(SecureRandom::Fill(sealed, kIvSize));
  enc_->CtrXorInPlace(sealed, sealed + kIvSize, plaintext_size);
  const Bytes tag = ComputeTag(sealed, kIvSize + plaintext_size,
                               associated_data, ad_size);
  std::memcpy(sealed + kIvSize + plaintext_size, tag.data(), kTagSize);
  return Status::OK();
}

Status AeadCipher::OpenInPlace(uint8_t* sealed, size_t sealed_size,
                               const uint8_t* associated_data,
                               size_t ad_size) const {
  if (sealed_size < kIvSize + kTagSize) {
    return Status::Corruption("sealed buffer too short for iv + tag");
  }
  const size_t body = sealed_size - kTagSize;
  const Bytes expected = ComputeTag(sealed, body, associated_data, ad_size);
  if (!ConstantTimeEquals(sealed + body, expected.data(), kTagSize)) {
    return Status::Corruption("AEAD tag mismatch: payload was tampered with");
  }
  enc_->CtrXorInPlace(sealed, sealed + kIvSize, body - kIvSize);
  return Status::OK();
}

Result<Bytes> AeadCipher::Seal(const Bytes& plaintext,
                               const Bytes& associated_data) const {
  Bytes sealed;
  sealed.reserve(SealedSize(plaintext.size()));
  sealed.resize(kIvSize);
  sealed.insert(sealed.end(), plaintext.begin(), plaintext.end());
  sealed.resize(SealedSize(plaintext.size()));
  SIMCLOUD_RETURN_NOT_OK(SealInPlace(sealed.data(), plaintext.size(),
                                     associated_data.data(),
                                     associated_data.size()));
  return sealed;
}

Result<Bytes> AeadCipher::Open(const Bytes& sealed,
                               const Bytes& associated_data) const {
  Bytes buffer = sealed;
  SIMCLOUD_RETURN_NOT_OK(OpenInPlace(buffer.data(), buffer.size(),
                                     associated_data.data(),
                                     associated_data.size()));
  buffer.resize(buffer.size() - kTagSize);
  buffer.erase(buffer.begin(), buffer.begin() + kIvSize);
  return buffer;
}

}  // namespace crypto
}  // namespace simcloud

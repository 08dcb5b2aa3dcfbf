#include "crypto/aes.h"

#include <cstring>

#include "crypto/kernels.h"

namespace simcloud {
namespace crypto {

namespace {

// Forward S-box (FIPS-197 Figure 7).
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

// Inverse S-box (FIPS-197 Figure 14).
constexpr uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

// Round constants for key expansion.
constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

// GF(2^8) multiply by x (i.e. {02}).
inline uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

inline uint32_t SubWord(uint32_t w) {
  return (static_cast<uint32_t>(kSbox[(w >> 24) & 0xFF]) << 24) |
         (static_cast<uint32_t>(kSbox[(w >> 16) & 0xFF]) << 16) |
         (static_cast<uint32_t>(kSbox[(w >> 8) & 0xFF]) << 8) |
         static_cast<uint32_t>(kSbox[w & 0xFF]);
}

inline uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

}  // namespace

Result<Aes> Aes::Create(const Bytes& key) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32) {
    return Status::InvalidArgument(
        "AES key must be 16, 24, or 32 bytes; got " +
        std::to_string(key.size()));
  }
  Aes aes;
  aes.ExpandKey(key.data(), key.size());
  return aes;
}

void Aes::ExpandKey(const uint8_t* key, size_t key_len) {
  const int nk = static_cast<int>(key_len / 4);  // words in the key
  rounds_ = nk + 6;
  const int total_words = 4 * (rounds_ + 1);

  for (int i = 0; i < nk; ++i) {
    round_keys_[i] = (static_cast<uint32_t>(key[4 * i]) << 24) |
                     (static_cast<uint32_t>(key[4 * i + 1]) << 16) |
                     (static_cast<uint32_t>(key[4 * i + 2]) << 8) |
                     static_cast<uint32_t>(key[4 * i + 3]);
  }
  for (int i = nk; i < total_words; ++i) {
    uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^
             (static_cast<uint32_t>(kRcon[i / nk]) << 24);
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
  for (int i = 0; i < total_words; ++i) {
    round_key_bytes_[4 * i] = static_cast<uint8_t>(round_keys_[i] >> 24);
    round_key_bytes_[4 * i + 1] = static_cast<uint8_t>(round_keys_[i] >> 16);
    round_key_bytes_[4 * i + 2] = static_cast<uint8_t>(round_keys_[i] >> 8);
    round_key_bytes_[4 * i + 3] = static_cast<uint8_t>(round_keys_[i]);
  }
}

namespace {

// State is column-major 4x4 bytes as in FIPS-197: state[r][c].
struct State {
  uint8_t b[4][4];
};

inline void LoadState(const uint8_t in[16], State* s) {
  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r) s->b[r][c] = in[4 * c + r];
}

inline void StoreState(const State& s, uint8_t out[16]) {
  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r) out[4 * c + r] = s.b[r][c];
}

inline void AddRoundKey(State* s, const uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    uint32_t w = rk[c];
    s->b[0][c] ^= static_cast<uint8_t>(w >> 24);
    s->b[1][c] ^= static_cast<uint8_t>(w >> 16);
    s->b[2][c] ^= static_cast<uint8_t>(w >> 8);
    s->b[3][c] ^= static_cast<uint8_t>(w);
  }
}

inline void SubBytes(State* s) {
  for (auto& row : s->b)
    for (auto& x : row) x = kSbox[x];
}

inline void InvSubBytes(State* s) {
  for (auto& row : s->b)
    for (auto& x : row) x = kInvSbox[x];
}

inline void ShiftRows(State* s) {
  // Row r is rotated left by r.
  for (int r = 1; r < 4; ++r) {
    uint8_t tmp[4];
    for (int c = 0; c < 4; ++c) tmp[c] = s->b[r][(c + r) % 4];
    std::memcpy(s->b[r], tmp, 4);
  }
}

inline void InvShiftRows(State* s) {
  for (int r = 1; r < 4; ++r) {
    uint8_t tmp[4];
    for (int c = 0; c < 4; ++c) tmp[(c + r) % 4] = s->b[r][c];
    std::memcpy(s->b[r], tmp, 4);
  }
}

inline void MixColumns(State* s) {
  for (int c = 0; c < 4; ++c) {
    const uint8_t a0 = s->b[0][c], a1 = s->b[1][c], a2 = s->b[2][c],
                  a3 = s->b[3][c];
    s->b[0][c] = static_cast<uint8_t>(Xtime(a0) ^ Xtime(a1) ^ a1 ^ a2 ^ a3);
    s->b[1][c] = static_cast<uint8_t>(a0 ^ Xtime(a1) ^ Xtime(a2) ^ a2 ^ a3);
    s->b[2][c] = static_cast<uint8_t>(a0 ^ a1 ^ Xtime(a2) ^ Xtime(a3) ^ a3);
    s->b[3][c] = static_cast<uint8_t>(Xtime(a0) ^ a0 ^ a1 ^ a2 ^ Xtime(a3));
  }
}

// InvMixColumns as a preprocessing step followed by MixColumns (Daemen &
// Rijmen, The Design of Rijndael, 4.1.3): the inverse matrix factors into
// MixColumns times {04}x^2 + {05}, so each column needs two more Xtime
// pairs instead of sixteen general GF(2^8) multiplications.
inline void InvMixColumns(State* s) {
  for (int c = 0; c < 4; ++c) {
    const uint8_t u =
        Xtime(Xtime(static_cast<uint8_t>(s->b[0][c] ^ s->b[2][c])));
    const uint8_t v =
        Xtime(Xtime(static_cast<uint8_t>(s->b[1][c] ^ s->b[3][c])));
    s->b[0][c] ^= u;
    s->b[1][c] ^= v;
    s->b[2][c] ^= u;
    s->b[3][c] ^= v;
  }
  MixColumns(s);
}

}  // namespace

void Aes::EncryptBlock(const uint8_t in[kBlockSize],
                       uint8_t out[kBlockSize]) const {
  State s;
  LoadState(in, &s);
  AddRoundKey(&s, &round_keys_[0]);
  for (int round = 1; round < rounds_; ++round) {
    SubBytes(&s);
    ShiftRows(&s);
    MixColumns(&s);
    AddRoundKey(&s, &round_keys_[4 * round]);
  }
  SubBytes(&s);
  ShiftRows(&s);
  AddRoundKey(&s, &round_keys_[4 * rounds_]);
  StoreState(s, out);
}

void Aes::DecryptBlock(const uint8_t in[kBlockSize],
                       uint8_t out[kBlockSize]) const {
  State s;
  LoadState(in, &s);
  AddRoundKey(&s, &round_keys_[4 * rounds_]);
  for (int round = rounds_ - 1; round >= 1; --round) {
    InvShiftRows(&s);
    InvSubBytes(&s);
    AddRoundKey(&s, &round_keys_[4 * round]);
    InvMixColumns(&s);
  }
  InvShiftRows(&s);
  InvSubBytes(&s);
  AddRoundKey(&s, &round_keys_[0]);
  StoreState(s, out);
}

void ScalarAesCtrXor(const Aes& aes, const uint8_t iv[16], const uint8_t* in,
                     uint8_t* out, size_t len) {
  uint8_t counter[Aes::kBlockSize];
  std::memcpy(counter, iv, Aes::kBlockSize);
  uint8_t keystream[Aes::kBlockSize];
  for (size_t off = 0; off < len; off += Aes::kBlockSize) {
    aes.EncryptBlock(counter, keystream);
    const size_t n =
        len - off < Aes::kBlockSize ? len - off : Aes::kBlockSize;
    for (size_t i = 0; i < n; ++i) out[off + i] = in[off + i] ^ keystream[i];
    // Big-endian increment of the rightmost 8 counter bytes.
    for (int i = static_cast<int>(Aes::kBlockSize) - 1; i >= 8; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

void ScalarAesCbcEncrypt(const Aes& aes, const uint8_t iv[16],
                         const uint8_t* in, uint8_t* out, size_t len) {
  const uint8_t* chain = iv;
  uint8_t block[Aes::kBlockSize];
  for (size_t off = 0; off < len; off += Aes::kBlockSize) {
    for (size_t i = 0; i < Aes::kBlockSize; ++i) {
      block[i] = in[off + i] ^ chain[i];
    }
    aes.EncryptBlock(block, out + off);
    chain = out + off;
  }
}

void ScalarAesCbcDecrypt(const Aes& aes, const uint8_t iv[16],
                         const uint8_t* in, uint8_t* out, size_t len) {
  uint8_t chain[Aes::kBlockSize];
  std::memcpy(chain, iv, Aes::kBlockSize);
  uint8_t ct[Aes::kBlockSize];
  uint8_t block[Aes::kBlockSize];
  for (size_t off = 0; off < len; off += Aes::kBlockSize) {
    // Copy the ciphertext block first so in == out works.
    std::memcpy(ct, in + off, Aes::kBlockSize);
    aes.DecryptBlock(ct, block);
    for (size_t i = 0; i < Aes::kBlockSize; ++i) {
      out[off + i] = block[i] ^ chain[i];
    }
    std::memcpy(chain, ct, Aes::kBlockSize);
  }
}

}  // namespace crypto
}  // namespace simcloud

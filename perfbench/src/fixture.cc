#include "fixture.h"

#include <cstring>

namespace perfbench {

namespace {

constexpr size_t kKeySize = 10;
// "v|" + key + "|r" + 6 digits + "|"
constexpr size_t kHeaderSize = 2 + kKeySize + 2 + 6 + 1;

void Digits(uint64_t v, int width, char* out) {
  for (int i = width - 1; i >= 0; --i) {
    out[i] = static_cast<char>('0' + v % 10);
    v /= 10;
  }
}

bool ReadDigits(const char* p, int width, uint32_t* v) {
  uint64_t x = 0;
  for (int i = 0; i < width; ++i) {
    if (p[i] < '0' || p[i] > '9') return false;
    x = x * 10 + static_cast<uint64_t>(p[i] - '0');
  }
  *v = static_cast<uint32_t>(x);
  return true;
}

}  // namespace

void KeyInto(uint32_t k, std::string* out) {
  out->resize(kKeySize);
  (*out)[0] = 'k';
  Digits(k, 9, out->data() + 1);
}

std::string KeyOf(uint32_t k) {
  std::string s;
  KeyInto(k, &s);
  return s;
}

void ValueInto(uint32_t k, uint32_t round, std::string* out) {
  out->resize(kValueSize);
  char* p = out->data();
  p[0] = 'v';
  p[1] = '|';
  p[2] = 'k';
  Digits(k, 9, p + 3);
  p[12] = '|';
  p[13] = 'r';
  Digits(round, 6, p + 14);
  p[20] = '|';
  Rng rng((uint64_t{k} << 32) ^ round ^ 0x5eed5eedull);
  for (size_t i = kHeaderSize; i < kValueSize; i += 8) {
    uint64_t x = rng.Next();
    for (size_t j = i; j < kValueSize && j < i + 8; ++j) {
      p[j] = static_cast<char>('a' + (x & 15));
      x >>= 4;
    }
  }
}

bool ValueIs(const tsb::Slice& v, uint32_t k, uint32_t round) {
  thread_local std::string expect;
  ValueInto(k, round, &expect);
  return v.size() == expect.size() &&
         std::memcmp(v.data(), expect.data(), expect.size()) == 0;
}

bool ParseValue(const tsb::Slice& v, uint32_t* k, uint32_t* round) {
  if (v.size() != kValueSize) return false;
  const char* p = v.data();
  if (p[0] != 'v' || p[1] != '|' || p[2] != 'k' || p[12] != '|' ||
      p[13] != 'r' || p[20] != '|') {
    return false;
  }
  if (!ReadDigits(p + 3, 9, k) || !ReadDigits(p + 14, 6, round)) return false;
  return ValueIs(v, *k, *round);
}

bool ParseKey(const tsb::Slice& key, uint32_t* k) {
  return key.size() == kKeySize && key.data()[0] == 'k' &&
         ReadDigits(key.data() + 1, 9, k);
}

int History::RoundAsOf(uint32_t k, tsb::Timestamp t) const {
  const tsb::Timestamp* row = &ts_[size_t{k} * rounds_];
  int r = -1;
  for (uint32_t i = 0; i < rounds_ && row[i] <= t; ++i) r = static_cast<int>(i);
  return r;
}

}  // namespace perfbench

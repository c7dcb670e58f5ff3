// The benchmark's data model: keys, self-checking values, and the exact
// version history every read is checked against.
//
// A value encodes its key and version round ("v|<key>|r<round>|") and
// pads to kValueSize with bytes derived from both, so any returned value
// can be checked byte for byte, and a value read while writers run can
// at least be decoded into the (key, round) it claims to be.
#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"

namespace perfbench {

constexpr size_t kValueSize = 100;

/// "k" + 9 decimal digits: byte order equals numeric order.
std::string KeyOf(uint32_t k);
/// Writes the 10-byte key into `out` (reused buffer, no allocation).
void KeyInto(uint32_t k, std::string* out);
void ValueInto(uint32_t k, uint32_t round, std::string* out);
/// True when `v` is exactly the value of (k, round).
bool ValueIs(const tsb::Slice& v, uint32_t k, uint32_t round);
/// Decodes the (key, round) a value claims; false if malformed or if the
/// padding does not match the claim.
bool ParseValue(const tsb::Slice& v, uint32_t* k, uint32_t* round);
bool ParseKey(const tsb::Slice& key, uint32_t* k);

/// Deterministic PRNG (splitmix64) — every input derives from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t s_;
};

/// Commit timestamps of every loaded version: the oracle for as-of reads
/// of the fixture's history.
class History {
 public:
  History(uint32_t keys, uint32_t rounds)
      : keys_(keys), rounds_(rounds), ts_(size_t{keys} * rounds, 0) {}

  uint32_t keys() const { return keys_; }
  uint32_t rounds() const { return rounds_; }
  void Set(uint32_t k, uint32_t r, tsb::Timestamp ts) {
    ts_[size_t{k} * rounds_ + r] = ts;
  }
  tsb::Timestamp At(uint32_t k, uint32_t r) const {
    return ts_[size_t{k} * rounds_ + r];
  }
  /// Records the first and last commit timestamp of the load.
  void SetSpan(tsb::Timestamp first, tsb::Timestamp last) {
    first_ = first;
    last_ = last;
  }
  /// Round of key k visible as of `t`, or -1 when k did not exist yet.
  /// Only meaningful up to the last loaded timestamp.
  int RoundAsOf(uint32_t k, tsb::Timestamp t) const;
  /// A uniformly chosen timestamp inside the loaded history.
  tsb::Timestamp PastTs(Rng* rng) const {
    return first_ + rng->Uniform(last_ - first_ + 1);
  }

 private:
  uint32_t keys_;
  uint32_t rounds_;
  std::vector<tsb::Timestamp> ts_;
  tsb::Timestamp first_ = 0;
  tsb::Timestamp last_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_

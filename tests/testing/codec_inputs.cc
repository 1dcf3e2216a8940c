#include "testing/codec_inputs.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "trace/generate.h"

namespace egwalker::testing {

std::string StructuredInput(Prng& rng, size_t target) {
  std::string input;
  while (input.size() < target) {
    if (rng.Chance(0.5) && !input.empty()) {
      size_t from = rng.Below(input.size());
      size_t n = 1 + rng.Below(std::min<size_t>(input.size() - from, 60));
      input += input.substr(from, n);
    } else {
      for (uint64_t n = 1 + rng.Below(20); n > 0; --n) {
        input.push_back(static_cast<char>(rng.Next() & 0xff));
      }
    }
  }
  return input;
}

std::string SkewedInput() {
  Prng rng(11);
  std::string input;
  for (int i = 0; i < 65536; ++i) {
    input.push_back(static_cast<char>(0x80 + rng.Below(128)));
  }
  uint64_t a = 1;
  uint64_t b = 1;
  for (int sym = 0; sym < 14; ++sym) {
    for (uint64_t k = 0; k < a; ++k) {
      input.insert(input.begin() + static_cast<std::ptrdiff_t>(rng.Below(input.size() + 1)),
                   static_cast<char>('a' + sym));
    }
    b = a + b;
    a = b - a;
  }
  return input;
}

std::vector<std::pair<std::string, std::string>> GoldenInputs() {
  std::vector<std::pair<std::string, std::string>> inputs;
  inputs.emplace_back("empty", "");
  inputs.emplace_back("one byte", "a");
  inputs.emplace_back("hello", "hello");
  std::string all;
  for (int i = 0; i < 256; ++i) {
    all.push_back(static_cast<char>(i));
  }
  inputs.emplace_back("all bytes x3", all + all + all);
  std::string period;
  for (size_t i = 0; i < 5000; ++i) {
    period.push_back(static_cast<char>('a' + (i % 3)));
  }
  inputs.emplace_back("period 3", period);
  inputs.emplace_back("one byte x64k", std::string(65536, 'x'));
  Prng prose_rng(5);
  inputs.emplace_back("prose 100k", GenerateProse(prose_rng, 100000));
  Prng rng(99);
  for (size_t target : {100u, 1000u, 4000u, 20000u}) {
    inputs.emplace_back("structured " + std::to_string(target), StructuredInput(rng, target));
  }
  // Repeats up to the 64 KiB window edge: the widest distance buckets.
  std::string far;
  for (int i = 0; i < 60000; ++i) {
    far.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  far += far.substr(0, 5000);
  inputs.emplace_back("far matches", far);
  inputs.emplace_back("skewed", SkewedInput());
  return inputs;
}

}  // namespace egwalker::testing

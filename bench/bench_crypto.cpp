// Crypto kernel and threshold-RSA benchmarks (google-benchmark).
// tools/run_benches.sh runs these and records BENCH_crypto.json.
//
// The pre-PR kernels are still in the tree (crypto/bignum_reference.*:
// 32-bit schoolbook multiply, binary division, bit-at-a-time Montgomery),
// so every speedup this binary reports is measured against the legacy
// implementation in the same run on the same inputs — BM_ModExp (new) vs
// BM_ModExpLegacy is the headline pair the ≥5x modexp-2048 claim rests on.
//
// Sections:
//   - multiplication curves vs operand size (64-bit schoolbook vs the legacy
//     32-bit schoolbook);
//   - modexp at 512/1024/2048-bit odd moduli (windowed Montgomery vs
//     legacy), plus mulmod through a warm MontgomeryCtx vs divmod;
//   - fixed-base exponentiation from a precomputed table against the
//     windowed path on the same 1024-bit modulus and 1,537-bit exponent
//     (the v^z of a threshold-RSA proof check);
//   - the 512-bit safe-prime search of threshold keygen, with its
//     candidate and Miller-Rabin call counts;
//   - threshold RSA: partial sign, single + batched proof verification,
//     combine on a warm context, and the RSA-FDH verification of the
//     combined signature. Key size via --rsa-bits (default 512 so the
//     trusted dealer's safe-prime search stays fast; run_benches.sh passes
//     1024, the size the real-crypto workload uses). The JSON context
//     records it as "rsa_bits".
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/bignum_reference.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sim_signer.hpp"
#include "crypto/threshold_rsa.hpp"
#include "support/rng.hpp"

namespace {

using namespace hermes;
using crypto::BigUint;
using crypto::MontgomeryCtx;

std::size_t g_rsa_bits = 512;  // --rsa-bits

// --- multiplication kernels -------------------------------------------------

BigUint random_limbs(Rng& rng, std::size_t limbs) {
  return BigUint::random_bits(rng, limbs * 64);
}

void BM_MulNew(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  Rng rng(0xA11CE);
  const BigUint a = random_limbs(rng, limbs);
  const BigUint b = random_limbs(rng, limbs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MulNew)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MulLegacy(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  Rng rng(0xA11CE);
  const BigUint a = random_limbs(rng, limbs);
  const BigUint b = random_limbs(rng, limbs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ref::mul(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MulLegacy)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// --- modular exponentiation -------------------------------------------------

struct ModExpInput {
  BigUint base;
  BigUint exp;
  BigUint mod;  // odd
};

// Modulus and base depend on `bits` alone; the exponent has `exp_bits`
// bits (default: as many as the modulus).
ModExpInput modexp_input(std::size_t bits, std::size_t exp_bits = 0) {
  Rng rng(0xBEEF ^ bits);
  ModExpInput in;
  in.mod = BigUint::random_bits(rng, bits);
  if (!in.mod.is_odd()) in.mod = in.mod + BigUint(1);
  in.base = BigUint::random_below(rng, in.mod);
  in.exp = BigUint::random_bits(rng, exp_bits ? exp_bits : bits);
  return in;
}

// The v table of a threshold key covers 8 * ceil((|n| + 512)/8) + 1 bits,
// every honest proof exponent: 1,537 bits at |n| = 1024.
std::size_t proof_exp_bits(std::size_t bits) {
  return 8 * ((bits + 519) / 8) + 1;
}

void run_modexp(benchmark::State& state, const ModExpInput& in) {
  const MontgomeryCtx ctx(in.mod);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.powmod(in.base, in.exp));
  }
  state.SetItemsProcessed(state.iterations());
}

// Windowed Montgomery through a warm context — the post-PR hot path. The
// items_per_second counter on the 2048-bit run, divided by the legacy one,
// is the modexp speedup BENCH_crypto.json records.
void BM_ModExp(benchmark::State& state) {
  run_modexp(state, modexp_input(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_ModExp)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

// BM_ModExp/1024/1537: the windowed path on BM_FixedBasePow/1024's inputs.
// Their ratio is the fixed_base_1024_speedup BENCH_crypto.json records.
[[maybe_unused]] const auto* const g_modexp_proof_exp =
    benchmark::RegisterBenchmark(
        "BM_ModExp/1024/1537",
        [](benchmark::State& state) {
          run_modexp(state, modexp_input(1024, proof_exp_bits(1024)));
        })
        ->Unit(benchmark::kMicrosecond);

// Fixed-base exponentiation from a table built once, outside the timed
// loop, as ThresholdRsaContext builds the v table once per key.
void BM_FixedBasePow(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const ModExpInput in = modexp_input(bits, proof_exp_bits(bits));
  const MontgomeryCtx ctx(in.mod);
  const MontgomeryCtx::FixedBaseTable table =
      ctx.fixed_base_table(in.base, in.exp.bit_length());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.powmod(table, in.exp));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FixedBasePow)->Arg(1024)->Unit(benchmark::kMicrosecond);

// Same inputs through the frozen pre-PR kernel (32-bit CIOS,
// bit-at-a-time square-and-multiply, per-call context).
void BM_ModExpLegacy(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const ModExpInput in = modexp_input(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ref::powmod(in.base, in.exp, in.mod));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModExpLegacy)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

// Modular multiplication: two CIOS passes through a warm context...
void BM_MulModCtx(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const ModExpInput in = modexp_input(bits);
  const MontgomeryCtx ctx(in.mod);
  const BigUint b = in.exp % in.mod;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mulmod(in.base, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MulModCtx)->Arg(1024)->Arg(2048);

// ...vs the generic multiply-then-divide path.
void BM_MulModDivmod(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const ModExpInput in = modexp_input(bits);
  const BigUint b = in.exp % in.mod;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigUint::mulmod(in.base, b, in.mod));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MulModDivmod)->Arg(1024)->Arg(2048);

// --- safe-prime keygen -------------------------------------------------------

// The trusted dealer's safe-prime search at 512 bits, the size of each prime
// of a 1024-bit threshold key: one prime per seed of a fixed list per
// iteration. The counters are exact per-prime means over the list:
// candidates drawn and Miller-Rabin calls made. run_benches.sh records
// mr_calls as safe_prime_512_mr_calls.
void BM_SafePrime(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6};
  crypto::SafePrimeCounts counts;
  std::size_t primes = 0;
  for (auto _ : state) {
    for (const std::uint64_t seed : kSeeds) {
      Rng rng(seed);
      benchmark::DoNotOptimize(crypto::random_safe_prime(rng, bits, &counts));
      ++primes;
    }
  }
  state.counters["candidates"] =
      static_cast<double>(counts.candidates) / static_cast<double>(primes);
  state.counters["mr_calls"] =
      static_cast<double>(counts.mr_calls) / static_cast<double>(primes);
}
BENCHMARK(BM_SafePrime)->Arg(512)->Unit(benchmark::kMillisecond);

// --- threshold RSA ----------------------------------------------------------

struct ThresholdFixture {
  crypto::ThresholdRsaKey key;
  std::unique_ptr<crypto::ThresholdRsaContext> ctx;
  Bytes message;
  std::vector<crypto::ThresholdPartial> partials;  // threshold-many, valid
};

// One key per --rsa-bits value for the whole process: the trusted dealer's
// safe-prime search is the slow part and is not what these benches measure.
const ThresholdFixture& threshold_fixture() {
  static const ThresholdFixture fixture = [] {
    ThresholdFixture f;
    Rng rng(31337);
    // f = 1 committee: 4 players, threshold 3 — the sim's smallest shape.
    f.key = crypto::threshold_rsa_generate(rng, g_rsa_bits, /*players=*/4,
                                           /*threshold=*/3);
    f.ctx = std::make_unique<crypto::ThresholdRsaContext>(f.key.pub);
    f.message = to_bytes("bench.threshold.message");
    for (std::size_t i = 1; i <= f.key.pub.threshold; ++i) {
      f.partials.push_back(crypto::threshold_partial_sign(
          *f.ctx, f.key.shares[i - 1], f.message));
    }
    return f;
  }();
  return fixture;
}

void BM_ThresholdPartialSign(benchmark::State& state) {
  const ThresholdFixture& f = threshold_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::threshold_partial_sign(*f.ctx, f.key.shares[0], f.message));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThresholdPartialSign)->Unit(benchmark::kMicrosecond);

void BM_ThresholdVerifyPartial(benchmark::State& state) {
  const ThresholdFixture& f = threshold_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::threshold_verify_partial(*f.ctx, f.message, f.partials[0]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThresholdVerifyPartial)->Unit(benchmark::kMicrosecond);

// Batched round verification: per-partial cost with the shared Fiat-Shamir
// base precomputation amortized over threshold-many partials.
void BM_ThresholdVerifyPartialsBatch(benchmark::State& state) {
  const ThresholdFixture& f = threshold_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::threshold_verify_partials(*f.ctx, f.message, f.partials));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.partials.size()));
}
BENCHMARK(BM_ThresholdVerifyPartialsBatch)->Unit(benchmark::kMicrosecond);

// Combine on a context built once (Montgomery context, Bezout pair) — the
// steady-state committee path. Each call computes its subset's Lagrange
// coefficients.
void BM_ThresholdCombineWarm(benchmark::State& state) {
  const ThresholdFixture& f = threshold_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::threshold_combine(*f.ctx, f.message, f.partials));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThresholdCombineWarm)->Unit(benchmark::kMicrosecond);

// RSA-FDH verification of a combined threshold signature: the certificate
// check every relay makes.
void BM_RsaFdhVerify(benchmark::State& state) {
  const ThresholdFixture& f = threshold_fixture();
  const auto sig = crypto::threshold_combine(*f.ctx, f.message, f.partials);
  if (!sig) {
    state.SkipWithError("combine failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::threshold_verify(*f.ctx, f.message, *sig));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RsaFdhVerify)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main mirroring bench_sim_engine: --benchmark_* flags pass through;
// --rsa-bits B sets the threshold key size (default 512). Kernel curves
// (mul/modexp) run at fixed sizes regardless.
int main(int argc, char** argv) {
  std::vector<char*> filtered{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      filtered.push_back(argv[i]);
    } else if (std::strcmp(argv[i], "--rsa-bits") == 0 && i + 1 < argc) {
      char* end = nullptr;
      g_rsa_bits = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || g_rsa_bits < 128) {
        std::fprintf(stderr,
                     "error: --rsa-bits expects an integer >= 128, got '%s'\n",
                     argv[i]);
        return 1;
      }
    }
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  benchmark::AddCustomContext("rsa_bits", std::to_string(g_rsa_bits));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

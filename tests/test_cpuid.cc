/**
 * @file
 * Runtime kernel dispatch: name round-trips, availability invariants,
 * and the override/env/auto selection priority (common/cpuid.h).
 */

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/cpuid.h"

namespace caram::simd {
namespace {

constexpr MatchKernel kAll[] = {MatchKernel::Scalar, MatchKernel::Avx2,
                                MatchKernel::Avx512};

TEST(Cpuid, KernelNamesRoundTrip)
{
    for (MatchKernel k : kAll) {
        const std::optional<MatchKernel> parsed =
            parseKernelName(kernelName(k));
        ASSERT_TRUE(parsed.has_value()) << kernelName(k);
        EXPECT_EQ(*parsed, k);
    }
}

TEST(Cpuid, UnknownNamesParseToNullopt)
{
    EXPECT_FALSE(parseKernelName("auto").has_value());
    EXPECT_FALSE(parseKernelName("").has_value());
    EXPECT_FALSE(parseKernelName("AVX2").has_value());
    EXPECT_FALSE(parseKernelName("sse2").has_value());
}

TEST(Cpuid, StreamInsertionUsesKernelName)
{
    for (MatchKernel k : kAll) {
        std::ostringstream os;
        os << k;
        EXPECT_EQ(os.str(), kernelName(k));
    }
}

TEST(Cpuid, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(kernelAvailable(MatchKernel::Scalar));
}

TEST(Cpuid, BestAvailableIsAvailable)
{
    EXPECT_TRUE(kernelAvailable(bestAvailableKernel()));
}

TEST(Cpuid, WiderKernelsImplyNarrower)
{
    // The capability lattice is ordered: an AVX-512 host runs the AVX2
    // kernel too, and every host runs scalar.
    if (kernelAvailable(MatchKernel::Avx512)) {
        EXPECT_TRUE(kernelAvailable(MatchKernel::Avx2));
    }
}

TEST(Cpuid, ActiveKernelAlwaysRunnable)
{
    EXPECT_TRUE(kernelAvailable(activeMatchKernel()));
}

TEST(Cpuid, OverrideWinsAndReleases)
{
    const MatchKernel before = activeMatchKernel();
    setMatchKernelOverride(MatchKernel::Scalar);
    EXPECT_EQ(activeMatchKernel(), MatchKernel::Scalar);
    // Forcing an unavailable kernel clamps instead of crashing.
    setMatchKernelOverride(MatchKernel::Avx512);
    EXPECT_TRUE(kernelAvailable(activeMatchKernel()));
    if (kernelAvailable(MatchKernel::Avx512)) {
        EXPECT_EQ(activeMatchKernel(), MatchKernel::Avx512);
    }
    setMatchKernelOverride(std::nullopt);
    EXPECT_EQ(activeMatchKernel(), before);
}

TEST(Cpuid, EnvSelectionReReadOnEveryQuery)
{
    // CARAM_MATCH_KERNEL is parsed fresh per query, not latched by the
    // first caller: flipping the variable mid-process retargets the
    // very next activeMatchKernel() call.
    const char *old = std::getenv("CARAM_MATCH_KERNEL");
    const std::string saved = old ? old : "";
    const bool had = old != nullptr;
    setMatchKernelOverride(std::nullopt);
    setenv("CARAM_MATCH_KERNEL", "scalar", 1);
    EXPECT_EQ(activeMatchKernel(), MatchKernel::Scalar);
    if (kernelAvailable(MatchKernel::Avx2)) {
        setenv("CARAM_MATCH_KERNEL", "avx2", 1);
        EXPECT_EQ(activeMatchKernel(), MatchKernel::Avx2);
    }
    unsetenv("CARAM_MATCH_KERNEL");
    EXPECT_EQ(activeMatchKernel(), bestAvailableKernel());
    // A programmatic override still beats whatever the env says.
    setenv("CARAM_MATCH_KERNEL", "scalar", 1);
    setMatchKernelOverride(bestAvailableKernel());
    EXPECT_EQ(activeMatchKernel(), bestAvailableKernel());
    setMatchKernelOverride(std::nullopt);
    if (had)
        setenv("CARAM_MATCH_KERNEL", saved.c_str(), 1);
    else
        unsetenv("CARAM_MATCH_KERNEL");
}

} // namespace
} // namespace caram::simd

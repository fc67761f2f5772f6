/**
 * @file
 * Cross-module integration tests: the full DSE stack over the real
 * pipeline on a miniature workload, and the accuracy/performance
 * trade-off directions the paper's figures rely on.
 */

#include <gtest/gtest.h>

#include "core/benchmark.hpp"
#include "core/config_binding.hpp"
#include "core/experiment.hpp"
#include "devices/fleet.hpp"
#include "hypermapper/drivers.hpp"
#include "hypermapper/knowledge.hpp"

namespace {

using namespace slambench;
using namespace slambench::core;
using dataset::Sequence;
using dataset::SequenceSpec;
using hypermapper::Evaluation;
using kfusion::KFusionConfig;

const Sequence &
miniSequence()
{
    static const Sequence seq = [] {
        SequenceSpec spec;
        spec.width = 64;
        spec.height = 48;
        spec.numFrames = 8;
        spec.renderRgb = false;
        return generateSequence(spec);
    }();
    return seq;
}

KFusionConfig
miniConfig()
{
    KFusionConfig config;
    config.volumeResolution = 64;
    config.pyramidIterations = {5, 3, 2};
    return config;
}

TEST(TradeOff, SmallerVolumeIsFasterButLessAccurate)
{
    const Sequence &seq = miniSequence();

    KFusionConfig accurate = miniConfig();
    accurate.volumeResolution = 128;
    KFusionConfig fast = miniConfig();
    fast.volumeResolution = 64;

    const EvaluatedConfig a =
        evaluateConfigOnDevice(accurate, seq, devices::odroidXu3());
    const EvaluatedConfig f =
        evaluateConfigOnDevice(fast, seq, devices::odroidXu3());
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(f.valid);
    // Fast config is at least 2x faster on the simulated device.
    EXPECT_LT(f.simulated.meanFrameSeconds,
              a.simulated.meanFrameSeconds / 2.0);
}

TEST(TradeOff, ComputeSizeRatioTradesSpeedForAccuracy)
{
    const Sequence &seq = miniSequence();

    KFusionConfig full = miniConfig();
    KFusionConfig eighth = miniConfig();
    eighth.computeSizeRatio = 4; // 16x12 compute image
    eighth.pyramidIterations = {5, 3};

    const EvaluatedConfig a =
        evaluateConfigOnDevice(full, seq, devices::odroidXu3());
    const EvaluatedConfig b =
        evaluateConfigOnDevice(eighth, seq, devices::odroidXu3());
    ASSERT_TRUE(a.valid);
    // The tiny compute image must be faster; accuracy typically
    // degrades (but tracking may still hold on this short easy run).
    EXPECT_LT(b.simulated.meanFrameSeconds,
              a.simulated.meanFrameSeconds);
    EXPECT_GE(b.ate.maxAte, 0.0);
}

TEST(TradeOff, SkippingIntegrationReducesEnergy)
{
    const Sequence &seq = miniSequence();

    KFusionConfig every = miniConfig();
    every.integrationRate = 1;
    KFusionConfig rare = miniConfig();
    rare.integrationRate = 8;

    const EvaluatedConfig a =
        evaluateConfigOnDevice(every, seq, devices::odroidXu3());
    const EvaluatedConfig b =
        evaluateConfigOnDevice(rare, seq, devices::odroidXu3());
    EXPECT_LT(b.simulated.totalJoules, a.simulated.totalJoules);
}

TEST(FullDse, ActiveLearningFindsFeasibleFastConfigs)
{
    const Sequence &seq = miniSequence();
    const auto space = kfusionParameterSpace();
    const auto xu3 = devices::odroidXu3();

    auto evaluator = makeDseEvaluator(space, seq, xu3);

    hypermapper::ActiveLearningOptions options;
    options.warmupSamples = 8;
    options.iterations = 2;
    options.batchSize = 4;
    options.candidatePool = 150;
    options.forest.numTrees = 8;
    options.seed = 3;

    const auto result = hypermapper::activeLearning(
        space, evaluator, kNumObjectives, options);
    EXPECT_EQ(result.evaluations.size(), 16u);

    // At least one evaluation must be valid, and the front nonempty.
    const auto front = hypermapper::paretoFront(result.evaluations);
    EXPECT_FALSE(front.empty());

    // The default configuration must be beaten on runtime by some
    // explored configuration (there is always something faster than
    // vr=256/csr=1 in this space).
    const auto default_outcome = evaluator(space.defaultPoint());
    const double inf = std::numeric_limits<double>::infinity();
    const double best_runtime = hypermapper::bestUnderCaps(
        result.evaluations, kObjRuntime, {inf, inf, inf});
    EXPECT_LT(best_runtime, default_outcome.objectives[kObjRuntime]);
}

TEST(FullDse, KnowledgeExtractionOnRealEvaluations)
{
    const Sequence &seq = miniSequence();
    const auto space = kfusionParameterSpace();
    auto evaluator =
        makeDseEvaluator(space, seq, devices::odroidXu3());

    hypermapper::RandomSearchOptions options;
    options.budget = 25;
    options.seed = 11;
    const auto evals =
        hypermapper::randomSearch(space, evaluator, options);

    hypermapper::GoodnessCriteria criteria;
    criteria.minFps = 5.0; // relaxed for the mini workload
    criteria.maxWatts = 5.0;
    criteria.maxAteLimit = 0.1;
    const auto knowledge =
        hypermapper::extractKnowledge(space, evals, criteria, 3);
    EXPECT_GT(knowledge.totalCount, 0u);
    // Rules must be printable whenever both classes exist.
    if (knowledge.goodCount > 0 &&
        knowledge.goodCount < knowledge.totalCount) {
        EXPECT_FALSE(knowledge.rules.empty());
    }
}

TEST(FleetReplay, SpeedupsSpreadAcrossDevices)
{
    const Sequence &seq = miniSequence();

    KFusionConfig default_config; // true defaults (vr=256)
    default_config.volumeResolution = 128; // shrink for test speed
    KFusionConfig tuned = miniConfig();
    tuned.computeSizeRatio = 2;
    tuned.integrationRate = 6;
    tuned.volumeResolution = 64;
    tuned.pyramidIterations = {4, 2, 1};

    KFusionSystem default_system(default_config);
    KFusionSystem tuned_system(tuned);
    const BenchmarkResult default_run =
        runBenchmark(default_system, seq);
    const BenchmarkResult tuned_run =
        runBenchmark(tuned_system, seq);

    const auto fleet = devices::mobileFleet(40, 2018);
    const auto entries = replayOnFleet(
        fleet, default_run.frameWork, volumeBytes(default_config),
        tuned_run.frameWork, volumeBytes(tuned));

    double min_speedup = 1e9, max_speedup = 0.0;
    size_t ran_both = 0;
    for (const auto &e : entries) {
        if (!e.ranDefault || !e.ranTuned)
            continue;
        ++ran_both;
        min_speedup = std::min(min_speedup, e.speedup);
        max_speedup = std::max(max_speedup, e.speedup);
    }
    ASSERT_GT(ran_both, 30u);
    // Speedups must be > 1 everywhere and spread noticeably (the
    // devices differ in kernel balance).
    EXPECT_GT(min_speedup, 1.0);
    EXPECT_GT(max_speedup / min_speedup, 1.15);
}

TEST(MultiSequence, EvaluatorAggregatesWorstCase)
{
    // Two short sequences over different trajectories.
    std::vector<dataset::Sequence> sequences;
    for (auto preset : {dataset::TrajectoryPreset::OrbitA,
                        dataset::TrajectoryPreset::SweepB}) {
        dataset::SequenceSpec spec;
        spec.width = 64;
        spec.height = 48;
        spec.numFrames = 5;
        spec.renderRgb = false;
        spec.trajectory = preset;
        sequences.push_back(generateSequence(spec));
    }
    const auto space = kfusionParameterSpace();
    const auto xu3 = devices::odroidXu3();
    auto multi =
        makeMultiSequenceEvaluator(space, sequences, xu3);
    auto single0 = makeDseEvaluator(space, sequences[0], xu3);
    auto single1 = makeDseEvaluator(space, sequences[1], xu3);

    hypermapper::Point p = space.defaultPoint();
    p[space.indexOf("volume_resolution")] = 64;
    const auto combined = multi(p);
    const auto a = single0(p);
    const auto b = single1(p);
    ASSERT_TRUE(combined.valid);
    EXPECT_NEAR(combined.objectives[kObjRuntime],
                (a.objectives[kObjRuntime] +
                 b.objectives[kObjRuntime]) /
                    2.0,
                1e-12);
    EXPECT_DOUBLE_EQ(combined.objectives[kObjMaxAte],
                     std::max(a.objectives[kObjMaxAte],
                              b.objectives[kObjMaxAte]));
}

TEST(Determinism, FullBenchmarkIsBitStable)
{
    const Sequence &seq = miniSequence();
    KFusionSystem s1(miniConfig());
    KFusionSystem s2(miniConfig());
    const BenchmarkResult a = runBenchmark(s1, seq);
    const BenchmarkResult b = runBenchmark(s2, seq);
    ASSERT_EQ(a.frames, b.frames);
    EXPECT_DOUBLE_EQ(a.ate.maxAte, b.ate.maxAte);
    for (size_t f = 0; f < a.frameWork.size(); ++f)
        for (size_t k = 0; k < kfusion::kNumKernels; ++k)
            EXPECT_DOUBLE_EQ(a.frameWork[f].items[k],
                             b.frameWork[f].items[k])
                << "frame " << f << " kernel " << k;
}

} // namespace

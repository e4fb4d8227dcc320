// The cluster-wide tuning cache: key grammar, bit-for-bit persistence,
// deterministic merge, the unified candidate ladder, the explorer's
// determinism contract, the session protocol (including the honesty rule)
// and the warm-start integrations in DslashRunner / choose_grid, plus the
// faultsim cache_fault fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "gpusim/fabric.hpp"
#include "multidev/partition.hpp"
#include "tune/candidates.hpp"
#include "tune/explorer.hpp"
#include "tune/session.hpp"
#include "tune/tune_cache.hpp"
#include "tune/tune_key.hpp"

namespace milc::tune {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TuneKey sample_key(const std::string& config = "3LP-1 sycl") {
  TuneKey key;
  key.arch = "a100-test";
  key.geom = "4x4x4x8/even";
  key.kernel = "dslash";
  key.config = config;
  key.recon = "r18";
  key.devices = 2;
  key.topo = "1x2";
  return key;
}

TuneEntry sample_entry() {
  TuneEntry e;
  e.local_size = 768;
  e.order = "k-major";
  e.grid = "1x1x1x2";
  e.applies_per_checkpoint = 8;
  e.per_iter_us = 1.0 / 3.0;  // no exact decimal representation
  e.bench = "test_tune";
  e.seed = 42;
  e.stamp = 7;
  return e;
}

// --- key grammar -----------------------------------------------------------

TEST(TuneKey, CanonicalRoundTrips) {
  const TuneKey key = sample_key();
  const std::string canon = key.canonical();
  EXPECT_EQ(canon, "a100-test|4x4x4x8/even|dslash|3LP-1 sycl|fp64|r18|dev2|1x2");
  TuneKey parsed;
  ASSERT_TRUE(TuneKey::parse(canon, parsed));
  EXPECT_EQ(parsed, key);
}

TEST(TuneKey, SeparatorInFieldIsRejected) {
  TuneKey key = sample_key();
  key.config = "has|separator";
  EXPECT_THROW((void)key.canonical(), std::invalid_argument);
}

TEST(TuneKey, MalformedCanonicalFails) {
  TuneKey out;
  EXPECT_FALSE(TuneKey::parse("", out));
  EXPECT_FALSE(TuneKey::parse("a|b|c", out));
  EXPECT_FALSE(TuneKey::parse("a|g|k|c|p|r|devX|t", out));
}

// --- persistence -----------------------------------------------------------

TEST(TuneCachePersist, SerializeRoundTripIsBitForBit) {
  TuneCache cache;
  cache.put(sample_key(), sample_entry());
  TuneCache reloaded;
  const auto res = reloaded.deserialize(cache.serialize());
  ASSERT_TRUE(res.ok()) << res.diagnostic;
  EXPECT_EQ(res.entries_loaded, 1u);
  ASSERT_TRUE(reloaded == cache);
  const TuneEntry* e = reloaded.find(sample_key());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(bits_of(e->per_iter_us), bits_of(sample_entry().per_iter_us));
}

TEST(TuneCachePersist, PerIterBitsAreAuthoritative) {
  // Corrupt only the decimal field; the hex bit pattern must win on load.
  TuneCache cache;
  cache.put(sample_key(), sample_entry());
  std::string doc = cache.serialize();
  const auto at = doc.find("\"per_iter_us\": ");
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, std::strlen("\"per_iter_us\": 0."), "\"per_iter_us\": 9.");
  TuneCache reloaded;
  ASSERT_TRUE(reloaded.deserialize(doc).ok());
  EXPECT_EQ(bits_of(reloaded.find(sample_key())->per_iter_us),
            bits_of(sample_entry().per_iter_us));
}

TEST(TuneCachePersist, CorruptDocumentIsRejected) {
  TuneCache cache;
  cache.put(sample_key(), sample_entry());
  const auto res = cache.deserialize("{\"this is\": not json");
  EXPECT_EQ(res.status, TuneCache::LoadStatus::parse_error);
  EXPECT_FALSE(res.diagnostic.empty());
  EXPECT_EQ(cache.size(), 1u) << "a rejected load must leave the cache untouched";
}

TEST(TuneCachePersist, TruncatedDocumentIsRejected) {
  TuneCache cache;
  cache.put(sample_key(), sample_entry());
  const std::string doc = cache.serialize();
  const auto res = TuneCache{}.deserialize(doc.substr(0, doc.size() / 2));
  EXPECT_EQ(res.status, TuneCache::LoadStatus::parse_error);
}

TEST(TuneCachePersist, SchemaMismatchIsRejected) {
  TuneCache cache;
  cache.put(sample_key(), sample_entry());
  std::string doc = cache.serialize();
  const auto at = doc.find("\"schema_version\": 1");
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, std::strlen("\"schema_version\": 1"), "\"schema_version\": 999");
  const auto res = TuneCache{}.deserialize(doc);
  EXPECT_EQ(res.status, TuneCache::LoadStatus::schema_mismatch);
}

TEST(TuneCachePersist, MalformedEntryIsRejected) {
  TuneCache cache;
  cache.put(sample_key(), sample_entry());
  std::string doc = cache.serialize();
  const auto at = doc.find("\"per_iter_bits\"");
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, std::strlen("\"per_iter_bits\""), "\"wrong_field__\"");
  const auto res = TuneCache{}.deserialize(doc);
  EXPECT_EQ(res.status, TuneCache::LoadStatus::bad_entry);
}

TEST(TuneCachePersist, MissingFileIsIoError) {
  TuneCache cache;
  EXPECT_EQ(cache.load("does_not_exist_test_tune.json").status,
            TuneCache::LoadStatus::io_error);
}

TEST(TuneCachePersist, SaveLoadRoundTrip) {
  const std::string path = "test_tune_roundtrip.json";
  TuneCache cache;
  cache.put(sample_key(), sample_entry());
  std::string err;
  ASSERT_TRUE(cache.save(path, &err)) << err;
  TuneCache reloaded;
  ASSERT_TRUE(reloaded.load(path).ok());
  EXPECT_TRUE(reloaded == cache);
  std::remove(path.c_str());
}

// --- merge -----------------------------------------------------------------

TEST(TuneCacheMerge, LastWriterWinsByStamp) {
  TuneEntry older = sample_entry();
  TuneEntry newer = sample_entry();
  newer.local_size = 384;
  newer.stamp = older.stamp + 1;

  TuneCache a, b;
  a.put(sample_key(), older);
  b.put(sample_key(), newer);

  TuneCache ab = a;
  ab.merge(b);
  TuneCache ba = b;
  ba.merge(a);
  EXPECT_EQ(*ab.find(sample_key()), newer);
  EXPECT_TRUE(ab == ba) << "merge outcome must be independent of merge order";
}

TEST(TuneCacheMerge, StampTiesAreOrderIndependent) {
  TuneEntry x = sample_entry();
  TuneEntry y = sample_entry();
  y.bench = "zz-later-bench";  // same stamp, lexicographically larger rank

  TuneCache a, b;
  a.put(sample_key(), x);
  b.put(sample_key(), y);
  TuneCache ab = a;
  ab.merge(b);
  TuneCache ba = b;
  ba.merge(a);
  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(ab.find(sample_key())->bench, "zz-later-bench");
}

TEST(TuneCacheMerge, DisjointKeysUnion) {
  TuneCache a, b;
  a.put(sample_key("cfg-a"), sample_entry());
  b.put(sample_key("cfg-b"), sample_entry());
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
}

// --- unified candidate enumeration -----------------------------------------

TEST(Candidates, PreferredSurvivesWhenValid) {
  EXPECT_EQ(pick_local_size(Strategy::LP3_1, IndexOrder::kMajor, 768, 1024), 768);
}

TEST(Candidates, LadderLeadsWithLargestPaperPoolEntry) {
  const auto pool = paper_local_sizes(Strategy::LP3_1, IndexOrder::kMajor, 1024);
  ASSERT_FALSE(pool.empty());
  const auto ladder = local_size_ladder(Strategy::LP3_1, IndexOrder::kMajor, 1024);
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(ladder.front(), pool.back());
}

TEST(Candidates, EveryLadderEntryIsAlgorithmicallyValid) {
  for (const std::int64_t sites : {40, 81, 1024, 1296}) {
    const auto ladder = local_size_ladder(Strategy::LP3_1, IndexOrder::kMajor, sites);
    for (const int ls : ladder) {
      EXPECT_TRUE(
          is_valid_local_size(Strategy::LP3_1, IndexOrder::kMajor, ls, sites, /*warp_size=*/1))
          << ls << " on " << sites << " sites";
    }
    // No duplicates — the ladder is a preference order, not a multiset.
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      for (std::size_t j = i + 1; j < ladder.size(); ++j) {
        EXPECT_NE(ladder[i], ladder[j]);
      }
    }
  }
}

TEST(Candidates, PartialWarpRescueCoversWarpFreeRanges) {
  // 1296 = 2^4 * 3^4 target sites under 3LP k-major: the global range
  // (3 * 1296) has no multiple-of-32 divisor that also divides it into
  // whole groups, so only the warp-free rung can supply candidates.
  const auto ladder = local_size_ladder(Strategy::LP3_1, IndexOrder::kMajor, 1296);
  ASSERT_FALSE(ladder.empty());
  const int picked = pick_local_size(Strategy::LP3_1, IndexOrder::kMajor, 768, 1296);
  EXPECT_EQ(picked, ladder.front());
  EXPECT_TRUE(is_valid_local_size(Strategy::LP3_1, IndexOrder::kMajor, picked, 1296,
                                  /*warp_size=*/1));
}

TEST(Candidates, EmptyRangeThrows) {
  EXPECT_THROW((void)pick_local_size(Strategy::LP3_1, IndexOrder::kMajor, 768, 0),
               std::invalid_argument);
  EXPECT_TRUE(local_size_ladder(Strategy::LP3_1, IndexOrder::kMajor, 0).empty());
}

TEST(Candidates, QudaPoolIsPowerOfTwoDivisors) {
  EXPECT_EQ(quda_tuning_candidates(4096), (std::vector<int>{64, 128, 256, 512, 1024}));
  EXPECT_EQ(quda_tuning_candidates(192), (std::vector<int>{64}));
  EXPECT_TRUE(quda_tuning_candidates(100).empty());
  EXPECT_TRUE(quda_tuning_candidates(0).empty());
}

// --- explorer --------------------------------------------------------------

std::vector<Candidate> three_candidates() {
  std::vector<Candidate> cs(3);
  cs[0].local_size = 96;
  cs[1].local_size = 192;
  cs[2].local_size = 384;
  return cs;
}

TEST(Explorer, ArgminWithFirstEnumeratedTieBreak) {
  std::vector<int> priced_order;
  const PriceFn price = [&](const Candidate& c) {
    priced_order.push_back(c.local_size);
    return c.local_size == 96 ? 2.0 : 1.0;  // 192 and 384 tie at 1.0
  };
  const ExploreResult res = explore(three_candidates(), price);
  EXPECT_EQ(res.winner.local_size, 192) << "strict < keeps the first-enumerated winner";
  EXPECT_EQ(res.candidates_tried, 3);
  EXPECT_EQ(priced_order, (std::vector<int>{96, 192, 384}));
}

TEST(Explorer, InfeasibleCandidatesAreSkipped) {
  const PriceFn price = [](const Candidate& c) -> double {
    if (c.local_size != 384) throw std::invalid_argument("does not fit");
    return 5.0;
  };
  const ExploreResult res = explore(three_candidates(), price);
  EXPECT_EQ(res.winner.local_size, 384);
  EXPECT_EQ(res.candidates_tried, 1);
}

TEST(Explorer, NoFeasibleCandidateThrows) {
  const PriceFn reject = [](const Candidate&) -> double {
    throw std::invalid_argument("never fits");
  };
  EXPECT_THROW((void)explore(three_candidates(), reject), std::invalid_argument);
  EXPECT_THROW((void)explore({}, reject), std::invalid_argument);
}

// --- session protocol ------------------------------------------------------

TEST(Session, OffByDefault) { EXPECT_EQ(TuneSession::current(), nullptr); }

TEST(Session, ScopedInstallUninstalls) {
  {
    ScopedTuneSession scoped;
    EXPECT_NE(TuneSession::current(), nullptr);
  }
  EXPECT_EQ(TuneSession::current(), nullptr);
}

TEST(Session, RecordStampsProvenanceAndLookupCounts) {
  ScopedTuneSession scoped({}, Provenance{"unit", 11, 99});
  TuneSession& sess = scoped.session();
  EXPECT_EQ(sess.lookup(sample_key()), nullptr);
  TuneEntry e = sample_entry();
  e.bench = "overwritten";
  sess.record(sample_key(), e);
  const TuneEntry* hit = sess.lookup(sample_key());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->bench, "unit");
  EXPECT_EQ(hit->seed, 11u);
  EXPECT_EQ(hit->stamp, 99u);
  EXPECT_EQ(sess.stats().misses, 1u);
  EXPECT_EQ(sess.stats().hits, 1u);
  EXPECT_EQ(sess.stats().stores, 1u);
}

TEST(Session, VerifyEnforcesBitForBitEquality) {
  ScopedTuneSession scoped;
  const TuneEntry e = sample_entry();
  scoped.session().verify(sample_key(), e, e.per_iter_us);  // equal bits: passes
  EXPECT_EQ(scoped.session().stats().replays_verified, 1u);
  double nudged = e.per_iter_us;
  std::uint64_t b = bits_of(nudged);
  b ^= 1ull;  // lowest mantissa bit
  std::memcpy(&nudged, &b, sizeof nudged);
  EXPECT_THROW(scoped.session().verify(sample_key(), e, nudged), ReplayMismatch);
}

TEST(TuneOrReplay, MissExploresAndRecords) {
  ScopedTuneSession scoped({}, Provenance{"unit", 1, 2});
  int calls = 0;
  const PriceFn price = [&](const Candidate& c) {
    ++calls;
    return static_cast<double>(c.local_size);
  };
  const TuneOutcome out = tune_or_replay(sample_key(), three_candidates(), price);
  EXPECT_FALSE(out.from_cache);
  EXPECT_EQ(out.entry.local_size, 96);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(scoped.session().stats().stores, 1u);
  EXPECT_EQ(scoped.session().stats().candidates_explored, 3u);
}

TEST(TuneOrReplay, HitRepricesExactlyOnceAndVerifies) {
  ScopedTuneSession scoped;
  const PriceFn price = [](const Candidate& c) { return static_cast<double>(c.local_size); };
  (void)tune_or_replay(sample_key(), three_candidates(), price);
  scoped.session().reset_stats();

  int calls = 0;
  const PriceFn counting = [&](const Candidate& c) {
    ++calls;
    return static_cast<double>(c.local_size);
  };
  const TuneOutcome warm = tune_or_replay(sample_key(), three_candidates(), counting);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.candidates_tried, 1);
  EXPECT_EQ(calls, 1) << "a hit prices only the cached configuration";
  EXPECT_EQ(scoped.session().stats().replays_verified, 1u);
  EXPECT_EQ(scoped.session().stats().candidates_explored, 0u);
}

TEST(TuneOrReplay, ForgedEntryRaisesReplayMismatch) {
  ScopedTuneSession scoped;
  const PriceFn price = [](const Candidate& c) { return static_cast<double>(c.local_size); };
  (void)tune_or_replay(sample_key(), three_candidates(), price);

  TuneEntry forged = *scoped.session().cache().find(sample_key());
  std::uint64_t b = bits_of(forged.per_iter_us);
  b ^= 1ull;
  std::memcpy(&forged.per_iter_us, &b, sizeof forged.per_iter_us);
  scoped.session().cache().put(sample_key(), forged);
  EXPECT_THROW((void)tune_or_replay(sample_key(), three_candidates(), price),
               ReplayMismatch);
}

TEST(TuneOrReplay, NoSessionDegradesToPlainSweep) {
  ASSERT_EQ(TuneSession::current(), nullptr);
  int calls = 0;
  const PriceFn price = [&](const Candidate& c) {
    ++calls;
    return static_cast<double>(c.local_size);
  };
  const TuneOutcome out = tune_or_replay(sample_key(), three_candidates(), price);
  EXPECT_FALSE(out.from_cache);
  EXPECT_EQ(calls, 3);
}

// --- warm-start integrations ----------------------------------------------

TEST(WarmStart, DslashRunnerReplaysBitForBit) {
  const Coords dims{4, 4, 4, 8};
  DslashRunner runner;

  TuneEntry cold_entry;
  double cold_bits_src = 0.0;
  TuneCache persisted;
  {
    ScopedTuneSession scoped({}, Provenance{"test_tune", 1, 1});
    DslashProblem problem(dims, /*gauge_seed=*/31);
    const TunedRunResult cold = runner.run_tuned(problem, Strategy::LP3_1);
    EXPECT_FALSE(cold.from_cache);
    cold_entry = cold.entry;
    cold_bits_src = cold.result.per_iter_us;
    persisted = scoped.session().cache();
  }
  {
    ScopedTuneSession scoped(persisted, Provenance{"test_tune", 1, 2});
    DslashProblem problem(dims, /*gauge_seed=*/31);  // a fresh allocation
    const TunedRunResult warm = runner.run_tuned(problem, Strategy::LP3_1);
    EXPECT_TRUE(warm.from_cache);
    EXPECT_EQ(warm.entry, cold_entry);
    EXPECT_EQ(bits_of(warm.result.per_iter_us), bits_of(cold_bits_src))
        << "replay must be bit-for-bit even from a different heap layout";
    EXPECT_EQ(scoped.session().stats().candidates_explored, 0u);
    EXPECT_EQ(scoped.session().stats().replays_verified, 1u);
  }
}

TEST(WarmStart, DslashRunnerRejectsForgedCache) {
  const Coords dims{4, 4, 4, 8};
  DslashRunner runner;
  ScopedTuneSession scoped;
  DslashProblem problem(dims, /*gauge_seed=*/31);
  (void)runner.run_tuned(problem, Strategy::LP3_1);

  const TuneKey key = runner.tune_key(problem, Strategy::LP3_1);
  TuneEntry forged = *scoped.session().cache().find(key);
  std::uint64_t b = bits_of(forged.per_iter_us);
  b ^= 1ull;
  std::memcpy(&forged.per_iter_us, &b, sizeof forged.per_iter_us);
  scoped.session().cache().put(key, forged);
  EXPECT_THROW((void)runner.run_tuned(problem, Strategy::LP3_1), ReplayMismatch);
}

TEST(WarmStart, ChooseGridConsultsCache) {
  const LatticeGeom geom(12);
  const gpusim::NodeTopology topo = gpusim::cluster(2, 2);

  ScopedTuneSession scoped;
  const multidev::PartitionGrid cold = multidev::choose_grid(geom, topo);
  EXPECT_EQ(scoped.session().stats().stores, 1u);
  scoped.session().reset_stats();

  const multidev::PartitionGrid warm = multidev::choose_grid(geom, topo);
  EXPECT_EQ(warm.label(), cold.label());
  EXPECT_EQ(scoped.session().stats().hits, 1u);
  EXPECT_EQ(scoped.session().stats().candidates_explored, 0u);
  EXPECT_EQ(scoped.session().stats().replays_verified, 1u);
}

TEST(WarmStart, ChooseGridRejectsAForgedGridLabel) {
  const LatticeGeom geom(12);
  const gpusim::NodeTopology topo = gpusim::cluster(2, 2);
  const TuneKey key = multidev::grid_tune_key(geom, topo);

  // "2x2" does not parse as a grid; 5 does not divide 12.
  for (const char* label : {"2x2", "5x1x1x1"}) {
    ScopedTuneSession scoped;
    TuneEntry forged;
    forged.grid = label;
    forged.per_iter_us = 1.0;
    scoped.session().cache().put(key, forged);
    EXPECT_THROW((void)multidev::choose_grid(geom, topo), ReplayMismatch) << label;
  }
}

// --- faultsim integration --------------------------------------------------

TEST(CacheFault, SeededLoadFaultFallsBackToColdTune) {
  const std::string path = "test_tune_faulted.json";
  TuneCache cache;
  cache.put(sample_key(), sample_entry());
  ASSERT_TRUE(cache.save(path));

  {
    faultsim::FaultPlan plan;
    plan.seed = 7;
    plan.p_cache_fault = 1.0;
    faultsim::ScopedFaultInjection fi(plan);
    TuneCache victim;
    const auto res = victim.load(path);
    EXPECT_EQ(res.status, TuneCache::LoadStatus::injected_fault);
    EXPECT_TRUE(victim.empty()) << "an injected fault must leave the cache untouched";
    ASSERT_FALSE(fi.injector().log().empty());
    EXPECT_EQ(fi.injector().log().front().kind, faultsim::FaultKind::cache_fault);

    // The fallback — a cold tune with an empty session — still works and
    // produces the same winner the persisted cache holds.
    ScopedTuneSession scoped;
    const PriceFn price = [](const Candidate& c) { return static_cast<double>(c.local_size); };
    const TuneOutcome cold = tune_or_replay(sample_key(), three_candidates(), price);
    EXPECT_FALSE(cold.from_cache);
    EXPECT_EQ(cold.entry.local_size, 96);
  }

  // Without the injector the very same file loads fine.
  TuneCache reloaded;
  ASSERT_TRUE(reloaded.load(path).ok());
  EXPECT_TRUE(reloaded == cache);
  std::remove(path.c_str());
}

TEST(CacheFault, SeededSaveFaultReportsError) {
  faultsim::FaultPlan plan;
  plan.seed = 7;
  plan.p_cache_fault = 1.0;
  faultsim::ScopedFaultInjection fi(plan);
  TuneCache cache;
  cache.put(sample_key(), sample_entry());
  std::string err;
  EXPECT_FALSE(cache.save("test_tune_never_written.json", &err));
  EXPECT_NE(err.find("injected cache_fault"), std::string::npos);
}

}  // namespace
}  // namespace milc::tune

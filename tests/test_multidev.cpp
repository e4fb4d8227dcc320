// test_multidev.cpp — domain decomposition, halo exchange, and the
// bit-for-bit equivalence of multi-device and single-device Dslash.
//
// The exactness contract has two halves:
//  * run_reference (serial, dslash_reference loop order, but through the
//    shard/ghost data) must equal the global dslash_reference *exactly* —
//    this isolates the halo protocol from kernel summation orders.
//  * run_functional with any strategy must equal the single-device
//    run_functional of the same strategy *exactly* — same per-site
//    arithmetic on bit-identical inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/dslash_ref.hpp"
#include "multidev/runner.hpp"
#include "tune/candidates.hpp"

namespace milc::multidev {
namespace {

TEST(PartitionGrid, RankNumberingRoundTrips) {
  const PartitionGrid g{.devices = {1, 2, 2, 2}};
  EXPECT_EQ(g.total(), 8);
  for (int r = 0; r < g.total(); ++r) {
    EXPECT_EQ(g.rank_of(g.coords_of(r)), r);
  }
  EXPECT_EQ(PartitionGrid::along(3, 4).devices, (Coords{1, 1, 1, 4}));
  EXPECT_EQ(g.label(), "1x2x2x2");
}

TEST(Partitioner, RejectsIndivisibleExtent) {
  const LatticeGeom geom(16);
  EXPECT_THROW(Partitioner(geom, PartitionGrid::along(3, 3), Parity::Even),
               std::invalid_argument);
}

TEST(Partitioner, RejectsOddLocalExtent) {
  const LatticeGeom geom(Coords{6, 8, 8, 8});
  EXPECT_THROW(Partitioner(geom, PartitionGrid::along(0, 2), Parity::Even),
               std::invalid_argument);
}

TEST(Partitioner, RejectsLocalExtentBelowTwiceHaloDepth) {
  const LatticeGeom geom(Coords{8, 8, 8, 8});
  // 8 / 2 = 4 < 2 * kHaloDepth: depth-3 ghosts would alias owned sites.
  EXPECT_THROW(Partitioner(geom, PartitionGrid::along(2, 2), Parity::Even),
               std::invalid_argument);
}

TEST(Partitioner, ShardAccounting) {
  const LatticeGeom geom(12);
  const PartitionGrid grid{.devices = {1, 1, 2, 2}};
  const Partitioner part(geom, grid, Parity::Even);
  ASSERT_EQ(part.shards().size(), 4u);

  std::int64_t targets = 0;
  for (const Shard& sh : part.shards()) {
    EXPECT_EQ(sh.targets(), 12 * 12 * 6 * 6 / 2);
    EXPECT_EQ(sh.targets(), sh.n_interior + sh.n_boundary);
    EXPECT_EQ(sh.sources(), sh.targets());  // opposite parity, same block
    targets += sh.targets();

    // Two split dims x two faces, each face = the source-parity halves of
    // the depth-1..3 planes: 3 * (12*12*6 / 2) wire sites per message.
    ASSERT_EQ(sh.halo.size(), 4u);
    for (const HaloMsg& msg : sh.halo) {
      EXPECT_EQ(msg.count(), 3 * 12 * 12 * 6 / 2);
      EXPECT_EQ(msg.bytes(), msg.count() * 48);
      EXPECT_EQ(static_cast<std::int64_t>(msg.send_slots.size()), msg.count());
    }
    EXPECT_EQ(sh.n_ghosts, 4 * 3 * 12 * 12 * 6 / 2);

    // Every gather entry resolves inside the extended source array, and
    // interior targets never reach a ghost slot.
    for (std::int64_t t = 0; t < sh.targets(); ++t) {
      for (int e = 0; e < kNeighbors; ++e) {
        const std::int32_t n = sh.neighbors[static_cast<std::size_t>(t * kNeighbors + e)];
        ASSERT_GE(n, 0);
        ASSERT_LT(n, sh.extended_sources());
        if (t < sh.n_interior) {
          ASSERT_LT(n, sh.sources());
        }
      }
    }
  }
  EXPECT_EQ(targets, geom.half_volume());
}

TEST(Partitioner, WireOrderAgreesBetweenSenderAndReceiver) {
  const LatticeGeom geom(12);
  const Partitioner part(geom, PartitionGrid{.devices = {1, 2, 1, 2}}, Parity::Even);
  for (const Shard& sh : part.shards()) {
    for (const HaloMsg& msg : sh.halo) {
      const Shard& peer = part.shard(msg.peer);
      for (std::int64_t i = 0; i < msg.count(); ++i) {
        // The sender's gather slot must hold exactly the global site the
        // receiver files under ghost slot ghost_base + i.
        EXPECT_EQ(peer.source_eo[static_cast<std::size_t>(
                      msg.send_slots[static_cast<std::size_t>(i)])],
                  msg.site_eo[static_cast<std::size_t>(i)]);
      }
    }
  }
}

class MultidevExactness : public ::testing::TestWithParam<Coords> {};

TEST_P(MultidevExactness, ReferencePathMatchesGlobalReferenceBitForBit) {
  DslashProblem problem(12, /*seed=*/7);
  ColorField ref(problem.geom(), problem.target_parity());
  dslash_reference(problem.view(), problem.neighbors(), problem.b(), ref);

  const MultiDeviceRunner runner;
  ColorField out(problem.geom(), problem.target_parity());
  runner.run_reference(problem, PartitionGrid{.devices = GetParam()}, out);
  EXPECT_EQ(max_abs_diff(ref, out), 0.0);
}

TEST_P(MultidevExactness, FunctionalPathMatchesSingleDeviceBitForBit) {
  const MultiDeviceRunner runner;
  const DslashRunner single;

  struct Config {
    Strategy s;
    IndexOrder o;
    int local;
  };
  const Config configs[] = {
      {Strategy::LP3_1, IndexOrder::kMajor, 768},  // the paper's best
      {Strategy::LP1, IndexOrder::kMajor, 128},    // site-per-thread
      {Strategy::LP3_3, IndexOrder::kMajor, 96},   // atomic accumulation
  };
  for (const Config& cfg : configs) {
    DslashProblem problem(12, /*seed=*/7);
    single.run_functional(problem, cfg.s, cfg.o, cfg.local);
    ColorField expected = problem.c();

    problem.c().zero();
    runner.run_functional(problem, PartitionGrid{.devices = GetParam()}, cfg.s, cfg.o,
                          cfg.local);
    EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0)
        << config_label(cfg.s, cfg.o, cfg.local);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, MultidevExactness,
                         ::testing::Values(Coords{1, 1, 1, 1},  // 1 device
                                           Coords{1, 1, 1, 2},  // 2 devices
                                           Coords{1, 1, 2, 2},  // 4, multi-dim
                                           Coords{1, 2, 2, 2}   // 8, multi-dim
                                           ),
                         [](const auto& param_info) {
                           const Coords& d = param_info.param;
                           return std::to_string(d[0]) + "x" + std::to_string(d[1]) + "x" +
                                  std::to_string(d[2]) + "x" + std::to_string(d[3]);
                         });

TEST(Multidev, AnisotropicMultiDimSplitIsExact) {
  DslashProblem problem(Coords{8, 12, 12, 16}, /*seed=*/11);
  ColorField ref(problem.geom(), problem.target_parity());
  dslash_reference(problem.view(), problem.neighbors(), problem.b(), ref);

  const MultiDeviceRunner runner;
  const PartitionGrid grid{.devices = {1, 2, 2, 2}};  // locals 8 x 6 x 6 x 8
  ColorField out(problem.geom(), problem.target_parity());
  runner.run_reference(problem, grid, out);
  EXPECT_EQ(max_abs_diff(ref, out), 0.0);

  const DslashRunner single;
  single.run_functional(problem, Strategy::LP3_1, IndexOrder::kMajor, 96);
  ColorField expected = problem.c();
  problem.c().zero();
  runner.run_functional(problem, grid, Strategy::LP3_1, IndexOrder::kMajor, 96);
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);
}

TEST(Multidev, ProfiledRunReportsOverlapTimelineAndExactOutput) {
  DslashProblem problem(12, /*seed=*/5);
  const DslashRunner single;
  single.run_functional(problem, Strategy::LP3_1, IndexOrder::kMajor, 768);
  const ColorField expected = problem.c();
  problem.c().zero();

  const MultiDeviceRunner runner;
  MultiDevRequest mreq;
  mreq.grid = PartitionGrid::along(3, 2);
  mreq.req = RunRequest{.strategy = Strategy::LP3_1,
                        .order = IndexOrder::kMajor,
                        .local_size = 768,
                        .variant = Variant::SYCL};
  const MultiDevResult res = runner.run(problem, mreq);

  // Profiled shard kernels perform the same arithmetic: output still exact.
  EXPECT_EQ(max_abs_diff(expected, problem.c()), 0.0);

  EXPECT_EQ(res.devices, 2);
  EXPECT_GT(res.per_iter_us, 0.0);
  EXPECT_GT(res.gflops, 0.0);
  EXPECT_GE(res.overlap_efficiency, 0.0);
  EXPECT_LE(res.overlap_efficiency, 1.0);
  EXPECT_GT(res.comm_fraction, 0.0);
  EXPECT_GT(res.surface_fraction, 0.0);
  EXPECT_LE(res.surface_fraction, 1.0);

  std::int64_t halo_bytes = 0;
  ASSERT_EQ(res.per_device.size(), 2u);
  for (const DeviceTimeline& t : res.per_device) {
    EXPECT_GT(t.pack_us, 0.0);
    EXPECT_GT(t.unpack_us, 0.0);
    EXPECT_GT(t.boundary_us, 0.0);
    EXPECT_GT(t.arrival_us, t.pack_us);  // the wire is never instantaneous
    EXPECT_GE(t.iter_us, t.pack_us + t.interior_us + t.unpack_us + t.boundary_us);
    EXPECT_LE(t.iter_us, res.per_iter_us);
    halo_bytes += t.halo_bytes_in;
  }
  EXPECT_EQ(res.halo_bytes, halo_bytes);
  EXPECT_GT(res.halo_bytes, 0);
}

TEST(Multidev, SingleDeviceGridReproducesDslashRunner) {
  // A 1x1x1x1 grid runs the halo pipeline as one interior launch over the
  // whole lattice.  Its price and its output must equal DslashRunner's for
  // one configuration per strategy and for every 3LP-1 variant.
  constexpr int kL = 8;
  const std::int64_t sites = LatticeGeom(kL).half_volume();
  std::vector<RunRequest> reqs;
  for (const Strategy s : all_strategies()) {
    const IndexOrder o = orders_of(s).front();
    reqs.push_back(RunRequest{
        .strategy = s, .order = o, .local_size = paper_local_sizes(s, o, sites).back()});
  }
  for (const Variant v : all_variants()) {
    if (v == Variant::SYCL) continue;
    reqs.push_back(RunRequest{.strategy = Strategy::LP3_1,
                              .order = IndexOrder::kMajor,
                              .local_size = 768,
                              .variant = v});
  }

  const DslashRunner single;
  const MultiDeviceRunner runner;
  for (const RunRequest& req : reqs) {
    DslashProblem expected(kL, /*seed=*/5);
    const RunResult expect = single.run(expected, req);
    DslashProblem problem(kL, /*seed=*/5);
    MultiDevRequest mreq;
    mreq.req = req;
    const MultiDevResult res = runner.run(problem, mreq);
    EXPECT_EQ(res.devices, 1) << expect.label;
    EXPECT_EQ(res.per_iter_us, expect.per_iter_us) << expect.label;
    EXPECT_EQ(res.gflops, expect.gflops) << expect.label;
    EXPECT_EQ(max_abs_diff(expected.c(), problem.c()), 0.0) << expect.label;
    EXPECT_EQ(res.halo_bytes, 0) << expect.label;
    EXPECT_EQ(res.overlap_efficiency, 1.0) << expect.label;
  }
}

// --- two-level topology ------------------------------------------------------

TEST(Topology, TwoNodeRunMatchesSingleNodeAndSingleDeviceBitForBit) {
  const RunRequest req{.strategy = Strategy::LP3_1,
                       .order = IndexOrder::kMajor,
                       .local_size = 768,
                       .variant = Variant::SYCL};
  const DslashRunner single;
  DslashProblem expected(12, /*seed=*/7);
  single.run_functional(expected, req.strategy, req.order, req.local_size);

  const MultiDeviceRunner runner;
  const PartitionGrid grid{.devices = {1, 1, 2, 2}};

  DslashProblem island_p(12, /*seed=*/7);
  MultiDevRequest island_req;
  island_req.grid = grid;
  island_req.req = req;
  const MultiDevResult island = runner.run(island_p, island_req);

  DslashProblem fabric_p(12, /*seed=*/7);
  MultiDevRequest fabric_req = island_req;
  fabric_req.topo = gpusim::cluster(2, 2);
  const MultiDevResult fabric = runner.run(fabric_p, fabric_req);

  // Placement prices the exchange differently — it must never change a bit.
  EXPECT_EQ(max_abs_diff(expected.c(), island_p.c()), 0.0);
  EXPECT_EQ(max_abs_diff(island_p.c(), fabric_p.c()), 0.0);

  // Byte accounting: {1,1,2,2} over a 2x2 cluster keeps the z split on
  // NVLink while the t split (both faces, thanks to the wrap) crosses the
  // fabric.  Each slab is 3 * (12*12*6/2) * 48 B = 62208 B.
  EXPECT_EQ(island.nodes, 1);
  EXPECT_EQ(island.intra_node_bytes, island.halo_bytes);
  EXPECT_EQ(island.inter_node_bytes, 0);
  EXPECT_EQ(island.fabric_messages, 0);

  EXPECT_EQ(fabric.nodes, 2);
  EXPECT_EQ(fabric.intra_node_bytes, 8 * 62'208);
  EXPECT_EQ(fabric.fabric_messages, 4);  // r0<->r2 and r1<->r3, coalesced
  EXPECT_EQ(fabric.inter_node_bytes,
            8 * 62'208 + 4 * 2 * 32);  // payload + frame headers
  EXPECT_EQ(fabric.halo_bytes, island.halo_bytes);
  // Half the bytes ride the fabric yet cost more wire time than the NVLink
  // half — the asymmetry the partitioner optimises against.  (Total iteration
  // times are not compared: simulated kernel stats depend on the problem
  // instances' buffer addresses, and overlap can hide the slower wire.)
  EXPECT_GT(fabric.inter_wire_us, fabric.intra_wire_us);
}

TEST(Topology, EffectiveTopologyTracksFailover) {
  const gpusim::NodeTopology topo = gpusim::cluster(2, 2);
  EXPECT_EQ(effective_topology(topo, 4).nodes, 2);
  // Two survivors fit inside one node group: NVLink island, no fabric term.
  const gpusim::NodeTopology two = effective_topology(topo, 2);
  EXPECT_EQ(two.nodes, 1);
  EXPECT_EQ(two.devices_per_node, 2);
  EXPECT_FALSE(two.multi_node());

  EXPECT_EQ(effective_topology(gpusim::cluster(2, 4), 8).nodes, 2);
  EXPECT_EQ(effective_topology(gpusim::cluster(2, 4), 4).nodes, 1);
  // A survivor count that does not fill whole node groups collapses too —
  // post-failover remnants are treated as NVLink peers.
  EXPECT_EQ(effective_topology(gpusim::cluster(2, 4), 6).nodes, 1);
}

TEST(GridScore, ClassifiesIntraAndInterBytesExactly) {
  const LatticeGeom geom(12);
  const gpusim::NodeTopology topo = gpusim::cluster(2, 2);
  const GridScore sc = score_grid(geom, PartitionGrid{.devices = {1, 1, 2, 2}}, topo);
  // Rank numbering is dim-0-fastest, so the z split varies inside a node
  // group (intra) and the t split across groups (inter).
  EXPECT_EQ(sc.intra_bytes, 8 * 62'208);
  EXPECT_EQ(sc.inter_bytes, 8 * 62'208);
  EXPECT_EQ(sc.inter_pairs, 4);
  EXPECT_GT(sc.cost_us, 0.0);

  // The same grid on one island has no fabric term and a lower cost.
  const GridScore flat =
      score_grid(geom, PartitionGrid{.devices = {1, 1, 2, 2}}, gpusim::cluster(1, 4));
  EXPECT_EQ(flat.intra_bytes, 16 * 62'208);
  EXPECT_EQ(flat.inter_bytes, 0);
  EXPECT_EQ(flat.inter_pairs, 0);
  EXPECT_LT(flat.cost_us, sc.cost_us);

  EXPECT_THROW((void)score_grid(geom, PartitionGrid{.devices = {1, 1, 2, 2}},
                                gpusim::cluster(1, 2)),
               std::invalid_argument);  // grid larger than the topology
  EXPECT_THROW((void)score_grid(geom, PartitionGrid::along(3, 4), gpusim::cluster(1, 4)),
               std::invalid_argument);  // local extent 3 below 2 * kHaloDepth
}

TEST(ChooseGrid, ReproducesTheSingleNodeConvention) {
  const LatticeGeom geom(16);
  EXPECT_EQ(choose_grid(geom, gpusim::cluster(1, 2)).devices, (Coords{1, 1, 1, 2}));
  EXPECT_EQ(choose_grid(geom, gpusim::cluster(1, 4)).devices, (Coords{1, 1, 2, 2}));
}

TEST(ChooseGrid, PrefersIntraNodeCutsOnAsymmetricGeometry) {
  // On a torus a dimension split by 2 pays the wrap: BOTH its faces cross
  // the node boundary.  A dimension split 4-ways over 2 nodes crosses the
  // fabric on only 2 of its 4 cuts.  With z = 24 the 4-way z split exists
  // and halves the inter-node traffic of any 2-way split.
  const LatticeGeom geom(Coords{12, 12, 24, 12});
  const gpusim::NodeTopology topo = gpusim::cluster(2, 2);

  const GridScore zheavy = score_grid(geom, PartitionGrid{.devices = {1, 1, 4, 1}}, topo);
  const GridScore tsplit = score_grid(geom, PartitionGrid{.devices = {1, 1, 2, 2}}, topo);
  EXPECT_EQ(zheavy.inter_bytes, 4 * 124'416);  // 2 of 4 z cuts cross, 2 dirs
  EXPECT_EQ(tsplit.inter_bytes, 8 * 124'416);  // the wrap doubles the t cut
  EXPECT_LT(zheavy.cost_us, tsplit.cost_us);

  EXPECT_EQ(choose_grid(geom, topo).devices, (Coords{1, 1, 4, 1}));
}

TEST(EnumerateGrids, FiltersSplitsTheHaloCannotSupport) {
  // At 16^4 a 4-way split leaves local extent 4 < 2 * kHaloDepth: only the
  // six two-dim 2x2 assignments (and nothing 4-way) survive.
  const std::vector<PartitionGrid> grids = enumerate_grids(LatticeGeom(16), 4);
  EXPECT_EQ(grids.size(), 6u);
  for (const PartitionGrid& g : grids) {
    for (int d = 0; d < kNdim; ++d) {
      EXPECT_LE(g.devices[static_cast<std::size_t>(d)], 2);
    }
  }
  // partition_error mirrors the Partitioner's constructor validation.
  EXPECT_FALSE(partition_error(LatticeGeom(16), PartitionGrid::along(3, 4)).empty());
  EXPECT_TRUE(partition_error(LatticeGeom(16), PartitionGrid::along(3, 2)).empty());
}

TEST(Multidev, PickLocalSizeFallsBackAndThrows) {
  // Preferred size is legal: returned unchanged.
  EXPECT_EQ(tune::pick_local_size(Strategy::LP3_1, IndexOrder::kMajor, 768, 4096), 768);
  // 768 does not divide 40 * 12 = 480: falls back to a legal pool entry.
  EXPECT_EQ(tune::pick_local_size(Strategy::LP3_1, IndexOrder::kMajor, 768, 40), 96);
  // 81 sites under 1LP: no multiple of 32 divides 81, so the relaxed
  // (algorithmic-multiple-only) ladder kicks in with a partial last warp.
  EXPECT_EQ(tune::pick_local_size(Strategy::LP1, IndexOrder::kMajor, 128, 81), 81);
  // A single 3LP site still launches: one group of the 12-item quartet fold.
  EXPECT_EQ(tune::pick_local_size(Strategy::LP3_1, IndexOrder::kMajor, 768, 1), 12);
  EXPECT_THROW((void)tune::pick_local_size(Strategy::LP3_1, IndexOrder::kMajor, 768, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace milc::multidev

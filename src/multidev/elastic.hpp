// elastic.hpp — the elastic-recovery tally (docs/RESILIENCE.md "Recovery
// taxonomy"): hot-spare adoptions, live rejoins and the re-replication
// traffic both of them move.  An apply fills one (MultiDevResult), and every
// layer above sums its children's with += — the solve (ShardedCgResult), the
// served request (serve::RequestOutcome) and the SLO report (serve::SloReport).
#pragma once

#include <cstdint>

namespace milc::multidev {

struct ElasticTally {
  int spares_consumed = 0;              ///< hot spares drafted to adopt lost shards
  int rejoins = 0;                      ///< healed resources re-admitted mid-run
  int capacity_restored = 0;            ///< devices of capacity regained by rejoins
  std::int64_t rereplicated_bytes = 0;  ///< slab wire bytes incl. retransmits
  double rereplication_us = 0.0;        ///< wire + backoff time of those transfers

  ElasticTally& operator+=(const ElasticTally& o) {
    spares_consumed += o.spares_consumed;
    rejoins += o.rejoins;
    capacity_restored += o.capacity_restored;
    rereplicated_bytes += o.rereplicated_bytes;
    rereplication_us += o.rereplication_us;
    return *this;
  }
};

}  // namespace milc::multidev

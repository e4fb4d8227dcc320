// tune_key.hpp — the canonical coordinate of one tuning decision.
//
// QUDA's autotuner keys its cache on (kernel, volume, aux string) per
// device; the MILC cluster-tuning papers key on (machine, problem).  Our
// cluster-wide cache unifies both: a `TuneKey` names *everything* the
// winning launch configuration may legitimately depend on —
//
//   arch      the simulated machine's coefficient fingerprint (two machines
//             with any differing coefficient never share entries),
//   geom      lattice extents + target parity,
//   kernel    which tunable decision ("dslash", "staggered_quda",
//             "mdslash", "grid", "placement"),
//   config    kernel variant/strategy qualifier (e.g. "3LP-1 sycl"),
//   prec      arithmetic precision of the kernel fields,
//   recon     gauge reconstruction scheme ("r18"/"r12"/"r9", "-" if n/a),
//   devices   simulated device count,
//   topo      node-topology signature (nodes x devices-per-node).
//
// The canonical form joins the fields with '|'; no field may contain '|'
// (enforced).  Entries are compared, stored and persisted by this string —
// the grammar is the cache's schema (docs/TUNING.md).
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/machine.hpp"

namespace milc::tune {

struct TuneKey {
  std::string arch;
  std::string geom;
  std::string kernel;
  std::string config;
  std::string prec = "fp64";
  std::string recon = "-";
  int devices = 1;
  std::string topo = "1x1";

  /// "arch|geom|kernel|config|prec|recon|dev<N>|topo".  Throws
  /// std::invalid_argument when a field contains the separator.
  [[nodiscard]] std::string canonical() const;

  /// Inverse of canonical(); returns false on malformed input.
  [[nodiscard]] static bool parse(const std::string& canonical, TuneKey& out);

  friend bool operator==(const TuneKey& a, const TuneKey& b) {
    return a.canonical() == b.canonical();
  }
};

/// Coefficient fingerprint of a simulated machine.  Any knob that moves a
/// kernel's simulated time is folded in, so an entry tuned on one machine
/// can never be replayed on a different one (bench_arch_sweep --cache
/// exercises exactly this).
[[nodiscard]] std::string arch_fingerprint(const gpusim::MachineModel& m);

/// "XxYxZxT/even"-style geometry signature.
[[nodiscard]] std::string geom_signature(int x, int y, int z, int t, bool even_target);

/// "NxD"-style topology signature: `nodes` node groups of `devices_per_node`
/// devices.
[[nodiscard]] std::string topo_signature(int nodes, int devices_per_node);

}  // namespace milc::tune

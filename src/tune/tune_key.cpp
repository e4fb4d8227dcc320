#include "tune/tune_key.hpp"

#include <cstdio>
#include <stdexcept>
#include <vector>

namespace milc::tune {

namespace {

void check_field(const std::string& f, const char* name) {
  if (f.find('|') != std::string::npos) {
    throw std::invalid_argument(std::string("TuneKey: field '") + name +
                                "' contains the '|' separator: " + f);
  }
}

}  // namespace

std::string TuneKey::canonical() const {
  check_field(arch, "arch");
  check_field(geom, "geom");
  check_field(kernel, "kernel");
  check_field(config, "config");
  check_field(prec, "prec");
  check_field(recon, "recon");
  check_field(topo, "topo");
  return arch + "|" + geom + "|" + kernel + "|" + config + "|" + prec + "|" + recon +
         "|dev" + std::to_string(devices) + "|" + topo;
}

bool TuneKey::parse(const std::string& canonical, TuneKey& out) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t bar = canonical.find('|', start);
    if (bar == std::string::npos) {
      parts.push_back(canonical.substr(start));
      break;
    }
    parts.push_back(canonical.substr(start, bar - start));
    start = bar + 1;
  }
  if (parts.size() != 8) return false;
  const std::string& dev = parts[6];
  if (dev.size() < 4 || dev.compare(0, 3, "dev") != 0) return false;
  int devices = 0;
  for (std::size_t i = 3; i < dev.size(); ++i) {
    if (dev[i] < '0' || dev[i] > '9') return false;
    devices = devices * 10 + (dev[i] - '0');
  }
  if (devices <= 0) return false;
  out.arch = parts[0];
  out.geom = parts[1];
  out.kernel = parts[2];
  out.config = parts[3];
  out.prec = parts[4];
  out.recon = parts[5];
  out.devices = devices;
  out.topo = parts[7];
  return true;
}

std::string arch_fingerprint(const gpusim::MachineModel& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "sm%d-w%d-t%d-g%d-rf%d-smem%d-l1:%d-l2:%d-ln%d-clk%.4g-hbm%.6g-ch%d",
                m.num_sms, m.warp_size, m.max_threads_per_sm, m.max_groups_per_sm,
                m.registers_per_sm, m.shared_bytes_per_sm, m.l1_bytes, m.l2_bytes,
                m.line_bytes, m.clock_ghz, m.dram_peak_gbs, m.dram_channels);
  return buf;
}

std::string geom_signature(int x, int y, int z, int t, bool even_target) {
  return std::to_string(x) + "x" + std::to_string(y) + "x" + std::to_string(z) + "x" +
         std::to_string(t) + (even_target ? "/even" : "/odd");
}

std::string topo_signature(int nodes, int devices_per_node) {
  return std::to_string(nodes) + "x" + std::to_string(devices_per_node);
}

}  // namespace milc::tune

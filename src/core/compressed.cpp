#include "core/compressed.hpp"

namespace milc {

CompressedGaugeDevice::CompressedGaugeDevice(const GaugeView& view) : sites_(view.sites()) {
  for (int l = 0; l < kNlinks; ++l) {
    auto& fam = data_[static_cast<std::size_t>(l)];
    fam.resize(static_cast<std::size_t>(sites_ * kNdim * 6));
    for (std::int64_t s = 0; s < sites_; ++s) {
      for (int k = 0; k < kNdim; ++k) {
        for (int j = 0; j < kColors; ++j) {
          for (int i = 0; i < 2; ++i) {
            fam[static_cast<std::size_t>(((s * kNdim + k) * kColors + j) * 2 + i)] =
                view.at(l, s, k, i, j);
          }
        }
      }
    }
  }
}

CompressedDslash::CompressedDslash(const GaugeView& view, const NeighborTable& nbr)
    : gauge_(view), nbr_(&nbr) {}

CompressedArgs CompressedDslash::make_args(const ColorField& in, ColorField& out) const {
  CompressedArgs args;
  for (int l = 0; l < kNlinks; ++l) args.links[l] = gauge_.family(l);
  args.b = in.data();
  args.c_out = out.data();
  args.neighbors = nbr_->data();
  args.sites = gauge_.sites();
  return args;
}

minisycl::LaunchSpec recon12_spec(const CompressedArgs& a, int local_size) {
  constexpr auto kVectorBytes = static_cast<std::int64_t>(sizeof(SU3Vector<dcomplex>));
  minisycl::LaunchSpec spec;
  spec.global_size = a.sites * 12;
  spec.local_size = local_size;
  spec.shared_bytes = Dslash3LP1Recon12Kernel::shared_bytes(local_size);
  spec.num_phases = Dslash3LP1Recon12Kernel::kPhases;
  spec.traits = Dslash3LP1Recon12Kernel::traits();
  for (int l = 0; l < kNlinks; ++l) {
    spec.regions.push_back(
        {a.links[l], a.sites * kNdim * 6 * static_cast<std::int64_t>(sizeof(dcomplex))});
  }
  spec.regions.push_back({a.b, a.sites * kVectorBytes});
  spec.regions.push_back({a.c_out, a.sites * kVectorBytes});
  spec.regions.push_back(
      {a.neighbors, a.sites * kNeighbors * static_cast<std::int64_t>(sizeof(std::int32_t))});
  return spec;
}

void CompressedDslash::apply(const ColorField& in, ColorField& out, int local_size) const {
  Dslash3LP1Recon12Kernel kernel{make_args(in, out)};
  minisycl::queue q(minisycl::ExecMode::functional, minisycl::QueueOrder::in_order);
  q.submit(recon12_spec(kernel.args, local_size), kernel);
}

gpusim::KernelStats CompressedDslash::profile(const ColorField& in, ColorField& out,
                                              int local_size) const {
  Dslash3LP1Recon12Kernel kernel{make_args(in, out)};
  minisycl::queue q(minisycl::ExecMode::profiled, minisycl::QueueOrder::in_order);
  return q.submit(recon12_spec(kernel.args, local_size), kernel,
                  "3LP-1 recon-12 /" + std::to_string(local_size));
}

ksan::SanitizerReport CompressedDslash::sanitize(const ColorField& in, ColorField& out,
                                                 int local_size) const {
  Dslash3LP1Recon12Kernel kernel{make_args(in, out)};
  return ksan::sanitize_launch(recon12_spec(kernel.args, local_size), kernel, {},
                               "3LP-1 recon-12 /" + std::to_string(local_size));
}

}  // namespace milc

#include "sys/platform.hpp"

#include "util/error.hpp"

namespace hybridic::sys {

Platform::Platform(PlatformConfig config, std::size_t instance_count,
                   const core::DesignResult* design)
    : config_(config),
      host_("host", config.host_clock),
      kernel_("kernel", config.kernel_clock),
      bus_clock_("bus", config.bus_clock),
      noc_clock_("noc", config.noc_clock) {
  sdram_ = std::make_unique<mem::Sdram>("sdram", bus_clock_, config.sdram);
  bus_ = std::make_unique<bus::Bus>("plb", engine_, bus_clock_, config.bus);
  dma_ = std::make_unique<bus::Dma>("dma", engine_, *bus_, *sdram_, host_,
                                    config.dma, /*bus_master=*/1);
  for (std::size_t i = 0; i < instance_count; ++i) {
    brams_.push_back(std::make_unique<mem::Bram>(
        "bram" + std::to_string(i), kernel_, config.bram_capacity,
        config.bram_port_width_bytes));
  }

  if (design != nullptr && design->noc.has_value()) {
    const core::NocPlan& plan = *design->noc;
    noc::Mesh2D mesh{plan.mesh_width, plan.mesh_height};
    network_ = std::make_unique<noc::Network>("noc", engine_, noc_clock_,
                                              mesh, config.noc);
    for (const core::NocAttachment& attachment : plan.attachments) {
      const auto kind = attachment.kind == core::NocNodeKind::kKernel
                            ? noc::AdapterKind::kAccelerator
                            : noc::AdapterKind::kLocalMemory;
      const std::string name =
          design->instances[attachment.instance].name +
          (attachment.kind == core::NocNodeKind::kKernel ? ".na" : ".mem_na");
      network_->attach_adapter(attachment.node, name, kind);
      noc_nodes_[{attachment.instance, attachment.kind}] = attachment.node;
    }
  }

  if (config_.faults.any_faults()) {
    injector_ = std::make_unique<faults::FaultInjector>(config_.faults);
    sdram_->set_faults(injector_.get());
    bus_->set_faults(injector_.get());
    dma_->set_faults(injector_.get());
    for (std::size_t i = 0; i < brams_.size(); ++i) {
      brams_[i]->set_faults(injector_.get(), i);
    }
    if (network_ != nullptr) {
      network_->set_faults(injector_.get());
    }
  }
}

mem::Bram& Platform::bram(std::size_t instance) {
  require(instance < brams_.size(), "platform BRAM index out of range");
  return *brams_[instance];
}

std::optional<std::uint32_t> Platform::noc_node(
    std::size_t instance, core::NocNodeKind kind) const {
  const auto it = noc_nodes_.find({instance, kind});
  if (it == noc_nodes_.end()) {
    return std::nullopt;
  }
  return it->second;
}

double bus_theta(const PlatformConfig& config) {
  return bus::theta_seconds_per_byte(config.bus, config.bus_clock.period(),
                                     Bytes{4096});
}

}  // namespace hybridic::sys

#ifndef PASS_JIT_KERNEL_CACHE_H_
#define PASS_JIT_KERNEL_CACHE_H_

namespace pass {

/// Compatibility no-ops for callers written against the retired
/// per-query kernel-specialization layer. Every scan now runs through
/// ScanColumns (kernel/scan_kernel.h), whose fixed-dim dispatch needs no
/// configuration or cache, so nothing in the library reads these types.
/// The names that still mention them are no-ops too:
/// EstimatorOptions::kernel_cache, the KernelCache* parameter of
/// StratifiedSample::Scan, AqpSystem::ScanKernelCache and the node_*
/// fields of CacheStats.
struct JitConfig {};

class KernelCache {
 public:
  explicit KernelCache(const JitConfig&) {}

  /// Always false: there is no stencil tier.
  static bool StencilTierAvailable() { return false; }
};

}  // namespace pass

#endif  // PASS_JIT_KERNEL_CACHE_H_

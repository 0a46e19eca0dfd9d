#include "obs/attribution.h"

namespace msq::obs {

const char* LatencyComponentName(LatencyComponent c) {
  switch (c) {
    case LatencyComponent::kQueueWait:
      return "queue_wait";
    case LatencyComponent::kDispatch:
      return "dispatch";
    case LatencyComponent::kLockWait:
      return "lock_wait";
    case LatencyComponent::kMatrixBuild:
      return "matrix_build";
    case LatencyComponent::kPageIo:
      return "page_io";
    case LatencyComponent::kKernel:
      return "kernel";
    case LatencyComponent::kEngineOther:
      return "engine_other";
    case LatencyComponent::kRetry:
      return "retry";
    case LatencyComponent::kMerge:
      return "merge";
  }
  return "unknown";
}

std::vector<double> LatencySecondsBoundaries() {
  std::vector<double> b;
  double v = 1e-6;
  for (int i = 0; i < 25; ++i) {
    b.push_back(v);
    v *= 2.0;
  }
  return b;
}

}  // namespace msq::obs

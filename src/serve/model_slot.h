// A versioned model with atomic hot-swap, so a server can take a retrained
// model while serving continues.
//
// A ModelSlot is one server's publication point. The current (model,
// version) pair lives behind a single shared_ptr that readers snapshot with
// std::atomic_load: a reader never blocks on a publisher, never observes a
// torn (model of one version, number of another) pair, and keeps its
// snapshot's model alive through the shared_ptr for as long as the batch it
// is serving needs it — publish() frees nothing a reader still holds.
// publish() bumps the version monotonically; the serving layer mixes that
// version into its cache keys, which is what makes hot-swap safe against
// stale cached answers.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

namespace irgnn::gnn {
class StaticModel;
}

namespace irgnn::serve {

/// The serving layer holds the float gnn::StaticModel (gnn/model.h) it
/// publishes, shares and hot-swaps through this pointer; only the files that
/// call into a model include its header.
using ModelPtr = std::shared_ptr<const gnn::StaticModel>;

/// One consistent (model, version) publication. version starts at 1 for the
/// first publish; an empty slot snapshots as {nullptr, 0}.
struct PublishedModel {
  ModelPtr model;
  std::uint64_t version = 0;
};

class ModelSlot {
 public:
  /// Wait-free consistent snapshot of the current publication. Never null;
  /// an empty slot returns a PublishedModel with a null model.
  std::shared_ptr<const PublishedModel> snapshot() const;

  /// Atomically replaces the publication; returns the new version.
  std::uint64_t publish(ModelPtr model);

 private:
  // Swapped with std::atomic_store; readers go through std::atomic_load.
  std::shared_ptr<const PublishedModel> current_ =
      std::make_shared<const PublishedModel>();
  std::uint64_t next_version_ = 0;
  std::mutex publish_mutex_;  // serializes publishers only
};

/// Non-owning ModelPtr over a caller-kept model (shared_ptr aliasing): for
/// stack- or member-owned models served in-process, e.g. the trained model
/// examples/quickstart.cpp serves. The caller must keep `model` alive for
/// the server's lifetime.
inline ModelPtr borrow_model(const gnn::StaticModel& model) {
  return ModelPtr(std::shared_ptr<void>(), &model);
}

}  // namespace irgnn::serve

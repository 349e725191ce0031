// Versioned named models with atomic hot-swap, so exploration can retrain
// while serving continues.
//
// A ModelSlot is one name's publication point. The current (model, version)
// pair lives behind a single shared_ptr that readers snapshot with
// std::atomic_load: a reader never blocks on a publisher, never observes a
// torn (model of one version, number of another) pair, and keeps its
// snapshot's model alive through the shared_ptr for as long as the batch it
// is serving needs it — publish() frees nothing a reader still holds.
//
// The ModelRegistry maps names to slots. publish() bumps the slot's version
// monotonically (the serving layer mixes that version into its cache keys,
// which is what makes hot-swap safe against stale cached answers);
// retire() removes the name from the registry but leaves the slot's last
// published model in place, so servers attached to the slot keep answering
// while the name is gone — a retire never turns into dropped queries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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

class ModelRegistry {
 public:
  /// Publishes `model` under `name` (creating the slot on first publish) and
  /// returns its version, monotonically increasing per name.
  std::uint64_t publish(const std::string& name, ModelPtr model);

  /// Removes `name` from the registry. Servers already attached to the
  /// slot keep serving its last published model. Returns false if the name
  /// was not registered.
  bool retire(const std::string& name);

  /// The slot behind `name`, created empty if absent — what a server
  /// attaches to so later publishes under the name reach it.
  std::shared_ptr<ModelSlot> slot(const std::string& name);

  /// Current model under `name`; nullptr if absent or never published.
  ModelPtr resolve(const std::string& name) const;

  /// Current version under `name`; 0 if absent or never published.
  std::uint64_t version(const std::string& name) const;

  std::vector<std::string> names() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<ModelSlot>> slots_;
};

/// Non-owning ModelPtr over a caller-kept model (shared_ptr aliasing): for
/// stack- or member-owned models served in-process, e.g. the trained model
/// examples/quickstart.cpp publishes to its Router. The caller must keep
/// `model` alive for the server's lifetime.
inline ModelPtr borrow_model(const gnn::StaticModel& model) {
  return ModelPtr(std::shared_ptr<void>(), &model);
}

}  // namespace irgnn::serve

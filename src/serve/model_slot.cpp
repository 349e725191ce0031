#include "serve/model_slot.h"

#include <atomic>

namespace irgnn::serve {

std::shared_ptr<const PublishedModel> ModelSlot::snapshot() const {
  return std::atomic_load(&current_);
}

std::uint64_t ModelSlot::publish(ModelPtr model) {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  auto next = std::make_shared<const PublishedModel>(
      PublishedModel{std::move(model), ++next_version_});
  std::atomic_store(&current_, std::shared_ptr<const PublishedModel>(next));
  return next->version;
}

}  // namespace irgnn::serve

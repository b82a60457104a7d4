#include "server/result_cache.h"

#include <utility>

#include "obs/metrics.h"
#include "util/hash.h"

namespace campion::server {

std::shared_ptr<const ResultCache::Result> ResultCache::Get(
    const std::string& key, std::uint64_t* key_hash) {
  const std::uint64_t digest = util::Fnv1a64(key);
  if (key_hash != nullptr) *key_hash = digest;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    obs::Count("diff.result_cache_misses");
    return nullptr;
  }
  lru_.erase(it->second.lru_position);
  lru_.push_front(key);
  it->second.lru_position = lru_.begin();
  ++stats_.hits;
  ++it->second.hits;
  obs::Count("diff.result_cache_hits");
  return it->second.result;
}

void ResultCache::Put(const std::string& key,
                      std::shared_ptr<const Result> result) {
  const std::size_t bytes = key.size() + result->body.size() +
                            result->content_type.size() + sizeof(Result);
  const std::uint64_t digest = util::Fnv1a64(key);
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = entries_.find(key); it != entries_.end()) {
    // A concurrent miss on the same key computed the same bytes; keep the
    // incumbent and just refresh its LRU position.
    lru_.erase(it->second.lru_position);
    lru_.push_front(key);
    it->second.lru_position = lru_.begin();
    return;
  }
  Entry entry;
  entry.result = std::move(result);
  entry.resident_bytes = bytes;
  entry.key_hash = digest;
  lru_.push_front(key);
  entry.lru_position = lru_.begin();
  stats_.resident_bytes += bytes;
  entries_.emplace(key, std::move(entry));
  stats_.entries = entries_.size();
  EvictIfNeeded();
  obs::MaxGauge("diff.result_cache_resident_bytes",
                static_cast<double>(stats_.resident_bytes));
}

void ResultCache::EvictIfNeeded() {
  // Never evict the entry just inserted: a watermark smaller than one
  // result must still serve re-submissions of the current pair.
  while (entries_.size() > 1 && options_.max_resident_bytes != 0 &&
         stats_.resident_bytes > options_.max_resident_bytes) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    stats_.resident_bytes -= it->second.resident_bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
    obs::Count("diff.result_cache_evictions");
  }
  stats_.entries = entries_.size();
}

ResultCache::Stats ResultCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<ResultCache::EntryInfo> ResultCache::EntryInfos() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<EntryInfo> infos;
  infos.reserve(entries_.size());
  for (const std::string& key : lru_) {  // MRU first.
    auto it = entries_.find(key);
    EntryInfo info;
    info.key_hash = it->second.key_hash;
    info.resident_bytes = it->second.resident_bytes;
    info.hits = it->second.hits;
    info.equivalent = it->second.result->equivalent;
    info.differences = it->second.result->differences;
    infos.push_back(info);
  }
  return infos;
}

}  // namespace campion::server

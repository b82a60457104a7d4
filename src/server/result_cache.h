#pragma once

// Incremental result cache: the fleet-scale re-diff shortcut.
//
// Without it the whole pipeline — parse, encoding, the semantic diff, the
// render — is paid on every request. For fleet workloads that is the
// dominant cost: a 64-pair batch where one router changed re-pays 63
// identical diffs. This cache stores the RENDERED RESPONSE per pair,
// keyed by what the request itself carries: each side's vendor (as the
// loader reads it, so "" and "auto" are one vendor) and length-prefixed
// raw config text, then the diff-relevant options (the check_* set and the
// output format). The key is known before anything runs, so the service
// looks it up first and a hit pays no parse, no diff and no render.
//
// Soundness: the map keys on the FULL key string, not a digest, so a hit
// means the texts, vendors and options are literally identical — and
// parse, diff and render are deterministic, so the cached body is
// byte-for-byte what a fresh run would produce. The converse does not
// hold: an edit the parser ignores (trailing whitespace after the last
// line, say) misses and recomputes the same bytes. The FNV digest exists
// only for the flight recorder's result_key field and /debug/result_cache.
// The thread count is deliberately NOT part of the key: the repo's
// determinism contract pins the body as byte-identical across all thread
// counts.
//
// Residency is LRU-bounded by a bytes watermark over the stored bodies +
// keys (never evicting the entry just inserted), plus an optional entry
// cap.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace campion::server {

class ResultCache {
 public:
  struct Options {
    // LRU eviction watermark over stored body + key bytes. 0 = unlimited.
    std::size_t max_resident_bytes = 64 * 1024 * 1024;
    std::size_t max_entries = 0;  // 0 = unlimited.
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t resident_bytes = 0;
  };

  // One cached pair outcome: everything needed to replay the response
  // (body + headers) without re-running the pipeline.
  struct Result {
    std::string body;
    std::string content_type;
    bool equivalent = false;
    std::size_t differences = 0;
  };

  explicit ResultCache(Options options) : options_(options) {}

  // Looks up the full key; null on a miss. Bumps hit/miss stats. `key_hash`,
  // when non-null, receives the FNV-1a digest of the key either way.
  std::shared_ptr<const Result> Get(const std::string& key,
                                    std::uint64_t* key_hash = nullptr);

  // Inserts a freshly computed result (overwrites a racing duplicate —
  // both race winners computed byte-identical bodies, so either is fine)
  // and enforces the watermark.
  void Put(const std::string& key, std::shared_ptr<const Result> result);

  Stats GetStats() const;

  // Per-entry debug view for `GET /debug/result_cache`, MRU first.
  struct EntryInfo {
    std::uint64_t key_hash = 0;
    std::size_t resident_bytes = 0;
    std::uint64_t hits = 0;
    bool equivalent = false;
    std::size_t differences = 0;
  };
  std::vector<EntryInfo> EntryInfos() const;

  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const Result> result;
    std::size_t resident_bytes = 0;
    std::uint64_t key_hash = 0;
    std::uint64_t hits = 0;
    std::list<std::string>::iterator lru_position;
  };

  void EvictIfNeeded();  // Caller holds mutex_.

  Options options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // Front = most recently used.
  Stats stats_;
};

}  // namespace campion::server

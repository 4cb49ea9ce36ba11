// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_manager.h"
#include "cache/policy_factory.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/ftl.h"
#include "trace/io_request.h"
#include "trace/vector_source.h"

namespace reqblock::testing {

/// A small SSD (fast to construct) with Table 1 geometry ratios.
inline SsdConfig tiny_ssd() {
  SsdConfig cfg;
  cfg.capacity_bytes = 1ULL << 30;  // 1 GB: 16 planes x 256 blocks
  cfg.validate();
  return cfg;
}

/// An even smaller SSD for GC-pressure tests (few blocks per plane).
inline SsdConfig micro_ssd() {
  SsdConfig cfg;
  cfg.channels = 2;
  cfg.chips_per_channel = 1;
  cfg.pages_per_block = 8;
  cfg.capacity_bytes = 2ULL * 2 * 8 * 64 * 4096;  // 128 blocks per plane
  cfg.validate();
  return cfg;
}

inline IoRequest write_req(std::uint64_t id, Lpn lpn, std::uint32_t pages,
                           SimTime at = 0) {
  IoRequest r;
  r.id = id;
  r.arrival = at;
  r.type = IoType::kWrite;
  r.lpn = lpn;
  r.pages = pages;
  return r;
}

inline IoRequest read_req(std::uint64_t id, Lpn lpn, std::uint32_t pages,
                          SimTime at = 0) {
  IoRequest r = write_req(id, lpn, pages, at);
  r.type = IoType::kRead;
  return r;
}

/// Bundles a device + cache manager for direct-driving tests.
struct Harness {
  explicit Harness(PolicyConfig policy, SsdConfig ssd = tiny_ssd(),
                   CacheOptions cache_opts = {})
      : ftl(ssd) {
    cache_opts.capacity_pages = policy.capacity_pages;
    cache = std::make_unique<CacheManager>(cache_opts, make_policy(policy),
                                           ftl);
  }

  SimTime serve(const IoRequest& r) { return cache->serve(r); }

  Ftl ftl;
  std::unique_ptr<CacheManager> cache;
};

inline PolicyConfig policy_config(const std::string& name,
                                  std::uint64_t capacity_pages,
                                  std::uint32_t pages_per_block = 64) {
  PolicyConfig cfg;
  cfg.name = name;
  cfg.capacity_pages = capacity_pages;
  cfg.pages_per_block = pages_per_block;
  return cfg;
}

}  // namespace reqblock::testing

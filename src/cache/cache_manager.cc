#include "cache/cache_manager.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

CacheManager::CacheManager(const CacheOptions& options,
                           std::unique_ptr<WriteBufferPolicy> policy,
                           Ftl& ftl)
    : options_(options), policy_(std::move(policy)), ftl_(ftl) {
  REQB_CHECK_MSG(options_.capacity_pages >= 1, "cache must hold a page");
  REQB_CHECK(policy_ != nullptr);
  REQB_CHECK_MSG(options_.bg_flush_low_pages <= options_.bg_flush_high_pages,
                 "bg-flush low watermark above the high watermark");
  REQB_CHECK_MSG(options_.bg_flush_high_pages <= options_.capacity_pages,
                 "bg-flush high watermark exceeds cache capacity");
  reset_metrics();
}

std::uint32_t CacheManager::size_bucket(std::uint32_t pages) const {
  // Bucket 0 aggregates requests larger than the tracked maximum.
  return pages <= kMaxTrackedRequestPages ? pages : 0;
}

std::uint64_t CacheManager::expected_version(Lpn lpn) const {
  const std::uint64_t version = last_version_.get(lpn);
  return version == kNoVersion ? 0 : version;
}

void CacheManager::sample_metadata() {
  if (++lookup_since_sample_ >= kMetadataSampleInterval) {
    lookup_since_sample_ = 0;
    metrics_.metadata_bytes.record(
        static_cast<double>(policy_->metadata_bytes()));
  }
}

void CacheManager::emit(EventKind kind, SimTime at, SimTime dur, Lpn lpn,
                        std::uint64_t arg) {
  if (trace_ == nullptr) return;
  trace_->emit({at, dur, lpn, arg, kind, kTrackManager, 0});
}

void CacheManager::retire_entry(const PageEntry& entry) {
  const std::uint32_t b = size_bucket(entry.insert_req_pages);
  ++metrics_.pages_retired_by_req_size[b];
  if (entry.reused) ++metrics_.pages_reused_by_req_size[b];
}

CacheManager::PageEntry& CacheManager::admit(Lpn lpn) {
  present_.set(lpn, 1);
  return pages_[pages_.try_emplace(lpn).first];
}

CacheManager::PageEntry CacheManager::release(Lpn lpn) {
  const std::optional<PageEntry> entry = pages_.extract(lpn);
  REQB_CHECK_MSG(entry.has_value(),
                 "policy evicted a page the cache does not hold");
  if (entry->dirty) --dirty_pages_;
  retire_entry(*entry);
  present_.erase(lpn);
  return *entry;
}

SimTime CacheManager::evict_once(SimTime now, bool& evicted,
                                 OpAttribution* span) {
  const ScopedTimer timer(profiler_, Profiler::Section::kEvictFlush);
  if (span != nullptr) *span = OpAttribution{};
  const VictimBatch victim = policy_->select_victim();
  if (victim.empty()) {
    evicted = false;
    return now;
  }
  evicted = true;
  ++metrics_.evictions;

  flush_.clear();
  for (const Lpn lpn : victim.pages) {
    const PageEntry entry = release(lpn);
    if (entry.dirty) flush_.push_back(FlushPage{lpn, entry.version});
  }
  metrics_.evicted_pages += victim.pages.size();
  metrics_.flushed_pages += flush_.size();  // dirty victim pages only

  // BPLRU page padding: read the block's missing (but previously written)
  // pages from flash and rewrite them together with the victim batch.
  // The padding reads all issue at `now` in parallel, so the one that
  // completes last is the padding phase's critical path.
  SimTime padding_done = now;
  OpAttribution padding_crit;
  OpAttribution read_attr;
  for (const Lpn lpn : victim.padding_reads) {
    if (!ftl_.is_mapped(lpn) || present_.contains(lpn)) continue;
    const auto rr = ftl_.read_page(lpn, now, &read_attr);
    if (rr.complete > padding_done) {
      padding_done = rr.complete;
      padding_crit = read_attr;
    }
    if (rr.lost) {
      // The padding read came back uncorrectable: there is nothing to
      // rewrite. Roll the oracle back to what flash now holds (nothing)
      // and flush the block without this page; later reads of it verify
      // against the loss, not the vanished data.
      last_version_.set(lpn, ftl_.version_of(lpn));
      continue;
    }
    flush_.push_back(FlushPage{lpn, rr.version});
    ++metrics_.padding_pages;
  }

  // Fig. 10's "page number of each eviction" counts the pages the eviction
  // pushes to flash in one batch (victim pages + BPLRU padding).
  metrics_.eviction_batch.record(flush_.size());

  OpAttribution batch_attr;
  const SimTime done = flush_.empty()
                           ? now  // all-clean victim: space is free at once
                           : ftl_.program_batch(flush_, padding_done,
                                                victim.colocate, &batch_attr);
  if (span != nullptr && !flush_.empty()) {
    // [now, padding_done] carries the critical padding read's fault share;
    // [padding_done, done] carries the batch's critical-page GC/fault.
    // The sub-intervals tile [now, done], so the sums stay inside it.
    span->gc = batch_attr.gc;
    span->fault = padding_crit.fault + batch_attr.fault;
  }
  const Lpn first = victim.pages.empty() ? 0 : victim.pages.front();
  emit(EventKind::kCacheEvict, now, done - now, first, victim.pages.size());
  if (!flush_.empty()) {
    emit(EventKind::kCacheFlush, now, done - now, first, flush_.size());
  }
  return done;
}

void CacheManager::maybe_background_flush(SimTime now) {
  if (options_.bg_flush_high_pages == 0 ||
      dirty_pages_ < options_.bg_flush_high_pages) {
    return;
  }
  bool victimless = false;
  while (dirty_pages_ > options_.bg_flush_low_pages) {
    const std::uint64_t dirty_before = dirty_pages_;
    bool evicted = false;
    // The completion time is deliberately dropped: the flush occupies the
    // device timelines (future operations on the same chips queue behind
    // it) but no host request waits on it.
    evict_once(now, evicted);
    if (!evicted) {
      victimless = true;  // policy withheld everything (in-flight guards)
      break;
    }
    ++metrics_.bg_flush_batches;
    const std::uint64_t flushed = dirty_before - dirty_pages_;
    metrics_.bg_flush_pages += flushed;
    emit(EventKind::kBgFlush, now, 0, 0, flushed);
  }
  run_audit("CacheManager (bg flush)", AuditLevel::kLight,
            [&](AuditReport& r) {
              REQB_AUDIT_MSG(
                  r, victimless ||
                         dirty_pages_ <= options_.bg_flush_low_pages,
                  "drain stopped at " + std::to_string(dirty_pages_) +
                      " dirty pages, above the low watermark " +
                      std::to_string(options_.bg_flush_low_pages));
            });
}

SimTime CacheManager::serve_write(const IoRequest& req, RequestBreakdown* bd) {
  // All of the request's page operations are issued at arrival; evictions
  // triggered by different pages proceed in parallel (striped across
  // channels by the FTL's round-robin allocator) and only the per-chip
  // FCFS timelines serialize them. A page that needed an eviction is
  // admitted when its victim's flush completes (synchronous eviction).
  //
  // Attribution follows the critical path: whichever page completes last
  // defines the request's latency, so `crit` holds that page's component
  // split of [issue, done]. Strict `>` keeps the first achiever on ties.
  const SimTime issue = req.arrival;
  SimTime done = issue;
  RequestBreakdown crit;
  for (std::uint32_t i = 0; i < req.pages; ++i) {
    const Lpn lpn = req.lpn + i;
    ++metrics_.page_lookups;
    sample_metadata();
    const std::uint64_t version = expected_version(lpn) + 1;
    last_version_.set(lpn, version);

    const Slot slot = find_resident(lpn);
    if (slot != kNoSlot) {
      PageEntry& entry = pages_[slot];
      ++metrics_.page_hits;
      ++metrics_.write_hits;
      ++metrics_.hits_by_req_size[size_bucket(entry.insert_req_pages)];
      entry.version = version;
      if (!entry.dirty) ++dirty_pages_;  // clean read-admit rewritten
      entry.dirty = true;
      entry.reused = true;
      emit(EventKind::kCacheHit, issue, 0, lpn, 1);
      policy_->on_hit(lpn, req, /*is_write=*/true);
      const SimTime cand = issue + ftl_.config().cache_access_latency;
      if (cand > done) {
        done = cand;
        crit = RequestBreakdown{};
        crit[AttrComponent::kCacheLookup] = cand - issue;
      }
      continue;
    }
    emit(EventKind::kCacheMiss, issue, 0, lpn, 1);

    // Miss: make room, then admit. Occupancy is measured at the policy's
    // allocation granularity (whole block units for BPLRU), so one insert
    // may need several evictions before space frees up.
    SimTime admit_at = issue;
    OpAttribution evict_crit;
    OpAttribution evict_span;
    bool space_ok = true;
    while (policy_->occupied_pages() >= options_.capacity_pages) {
      bool evicted = false;
      const SimTime space_at = evict_once(issue, evicted, &evict_span);
      if (!evicted) {
        // Nothing evictable (the in-flight request owns the whole cache):
        // bypass the buffer and program this page directly.
        space_ok = false;
        break;
      }
      // The evictions all issue at `issue` in parallel; the slowest one
      // gates admission and defines the stall's attribution.
      if (space_at > admit_at) {
        admit_at = space_at;
        evict_crit = evict_span;
      }
    }
    if (!space_ok) {
      ++metrics_.bypass_pages;
      emit(EventKind::kCacheBypass, issue, 0, lpn, 1);
      OpAttribution prog;
      const SimTime cand = ftl_.program_page(lpn, version, issue, &prog);
      if (cand > done) {
        done = cand;
        crit = RequestBreakdown{};
        crit[AttrComponent::kGc] = prog.gc;
        crit[AttrComponent::kFaultRetry] = prog.fault;
        crit[AttrComponent::kFtlProgram] =
            (cand - issue) - prog.gc - prog.fault;
      }
      continue;
    }
    PageEntry& entry = admit(lpn);
    entry.version = version;
    entry.dirty = true;
    entry.insert_req_pages = req.pages;
    ++dirty_pages_;
    ++metrics_.inserts;
    ++metrics_.inserts_by_req_size[size_bucket(req.pages)];
    emit(EventKind::kCacheInsert, admit_at, 0, lpn, 1);
    policy_->on_insert(lpn, req, /*is_write=*/true);
    const SimTime cand = admit_at + ftl_.config().cache_access_latency;
    if (cand > done) {
      done = cand;
      crit = RequestBreakdown{};
      crit[AttrComponent::kGc] = evict_crit.gc;
      crit[AttrComponent::kFaultRetry] = evict_crit.fault;
      crit[AttrComponent::kEvictStall] =
          (admit_at - issue) - evict_crit.gc - evict_crit.fault;
      crit[AttrComponent::kCacheLookup] = cand - admit_at;
    }
  }
  REQB_DCHECK(pages_.size() <= options_.capacity_pages);
  if (bd != nullptr) {
    for (std::size_t c = 0; c < kAttrComponents; ++c) bd->ns[c] += crit.ns[c];
  }
  return done;
}

SimTime CacheManager::serve_read(const IoRequest& req, RequestBreakdown* bd,
                                 bool* data_lost) {
  // Attribution mirrors serve_write: the page completing last is the
  // request's critical path and `crit` holds its split of [arrival, done].
  SimTime done = req.arrival;
  RequestBreakdown crit;
  OpAttribution read_attr;
  OpAttribution evict_span;
  for (std::uint32_t i = 0; i < req.pages; ++i) {
    const Lpn lpn = req.lpn + i;
    ++metrics_.page_lookups;
    sample_metadata();

    const Slot slot = find_resident(lpn);
    if (slot != kNoSlot) {
      PageEntry& entry = pages_[slot];
      ++metrics_.page_hits;
      ++metrics_.read_hits;
      ++metrics_.hits_by_req_size[size_bucket(entry.insert_req_pages)];
      entry.reused = true;
      REQB_CHECK_MSG(entry.version == expected_version(lpn),
                     "cached version diverged from the write oracle");
      emit(EventKind::kCacheHit, req.arrival, 0, lpn, 0);
      policy_->on_hit(lpn, req, /*is_write=*/false);
      const SimTime cand = req.arrival + ftl_.config().cache_access_latency;
      if (cand > done) {
        done = cand;
        crit = RequestBreakdown{};
        crit[AttrComponent::kCacheLookup] = cand - req.arrival;
      }
      continue;
    }

    ++metrics_.read_misses;
    emit(EventKind::kCacheMiss, req.arrival, 0, lpn, 0);
    const auto rr = ftl_.read_page(lpn, req.arrival, &read_attr);
    // rr.version reports what the host asked for (captured before any
    // uncorrectable loss dropped the mapping), so the oracle check holds
    // even for reads that came back lost.
    REQB_CHECK_MSG(rr.version == expected_version(lpn),
                   "flash version diverged from the write oracle");
    if (rr.lost) {
      // Recovery exhausted: the stored data is gone. Roll the oracle
      // back to what flash now holds (nothing) so later reads verify
      // against the loss instead of the vanished write, and surface the
      // failure to the session's shed-vs-error handling.
      last_version_.set(lpn, ftl_.version_of(lpn));
      if (data_lost != nullptr) *data_lost = true;
    }
    SimTime cand = rr.complete;
    // The read-admission eviction chain runs sequentially after the flash
    // read, so GC/fault shares of its links sum within the chain interval.
    OpAttribution chain;
    bool chained = false;

    if (options_.cache_reads && rr.mapped && !rr.lost) {
      SimTime cursor = rr.complete;
      bool admitted = true;
      while (policy_->occupied_pages() >= options_.capacity_pages) {
        bool evicted = false;
        cursor = std::max(cursor, evict_once(cursor, evicted, &evict_span));
        if (!evicted) {
          admitted = false;
          break;
        }
        chain.gc += evict_span.gc;
        chain.fault += evict_span.fault;
      }
      if (admitted) {
        PageEntry& entry = admit(lpn);
        entry.version = rr.version;
        entry.dirty = false;
        entry.insert_req_pages = req.pages;
        ++metrics_.inserts;
        ++metrics_.inserts_by_req_size[size_bucket(req.pages)];
        emit(EventKind::kCacheInsert, cursor, 0, lpn, 0);
        policy_->on_insert(lpn, req, /*is_write=*/false);
        cand = cursor;
        chained = true;
      }
    }
    if (cand > done) {
      done = cand;
      crit = RequestBreakdown{};
      crit[AttrComponent::kGc] = read_attr.gc;
      crit[AttrComponent::kFaultRetry] = read_attr.fault;
      crit[AttrComponent::kFtlRead] =
          (rr.complete - req.arrival) - read_attr.gc - read_attr.fault;
      if (chained) {
        crit[AttrComponent::kGc] += chain.gc;
        crit[AttrComponent::kFaultRetry] += chain.fault;
        crit[AttrComponent::kEvictStall] =
            (cand - rr.complete) - chain.gc - chain.fault;
      }
    }
  }
  if (bd != nullptr) {
    for (std::size_t c = 0; c < kAttrComponents; ++c) bd->ns[c] += crit.ns[c];
  }
  return done;
}

SimTime CacheManager::serve(const IoRequest& req, RequestBreakdown* bd,
                            bool* data_lost) {
  REQB_CHECK_MSG(req.pages >= 1, "requests must touch at least one page");
  const ScopedTimer timer(profiler_, Profiler::Section::kCacheServe);
  if (trace_ != nullptr) trace_->set_time(req.arrival);
  policy_->begin_request(req);
  // Watermark drain first, with this request's eviction guards already in
  // place, so the background flusher never steals the blocks the request
  // is about to extend. Its flushes are not attributed to this request:
  // they only cost later requests time, through busier chip timelines
  // that surface in those requests' ftl/gc components.
  maybe_background_flush(req.arrival);
  const SimTime done = req.is_write() ? serve_write(req, bd)
                                      : serve_read(req, bd, data_lost);
  REQB_DCHECK(policy_->pages() == pages_.size());
  run_audit("CacheManager", AuditLevel::kLight,
            [this](AuditReport& r) { audit(r, audit_level()); });
  return done;
}

void CacheManager::audit(AuditReport& report, AuditLevel depth) const {
  // Counter cross-checks (cheap, every request at kLight).
  REQB_AUDIT_MSG(report, policy_->pages() == pages_.size(),
                 "policy tracks " + std::to_string(policy_->pages()) +
                     " pages, manager holds " + std::to_string(pages_.size()));
  REQB_AUDIT_MSG(report, policy_->occupied_pages() >= policy_->pages(),
                 "occupancy " + std::to_string(policy_->occupied_pages()) +
                     " below page count " + std::to_string(policy_->pages()));
  REQB_AUDIT_MSG(report, present_.size() == pages_.size(),
                 "presence map holds " + std::to_string(present_.size()) +
                     " pages, manager holds " + std::to_string(pages_.size()));
  REQB_AUDIT_MSG(report, pages_.size() <= options_.capacity_pages,
                 "resident " + std::to_string(pages_.size()) +
                     " pages exceed capacity " +
                     std::to_string(options_.capacity_pages));
  REQB_AUDIT_MSG(report,
                 metrics_.read_hits + metrics_.write_hits ==
                     metrics_.page_hits,
                 "hit counters disagree");
  REQB_AUDIT(report, metrics_.page_hits <= metrics_.page_lookups);
  REQB_AUDIT_MSG(report, metrics_.flushed_pages <= metrics_.evicted_pages,
                 "flushed more dirty pages than were evicted");
  REQB_AUDIT_MSG(report, dirty_pages_ <= pages_.size(),
                 "dirty counter " + std::to_string(dirty_pages_) +
                     " exceeds residency " + std::to_string(pages_.size()));
  REQB_AUDIT_MSG(report, metrics_.bg_flush_pages <= metrics_.flushed_pages,
                 "background flushes exceed total flushes");
  REQB_AUDIT_MSG(report, metrics_.bg_flush_batches <= metrics_.evictions,
                 "background batches exceed total evictions");
  if (depth < AuditLevel::kFull) return;

  // The incrementally maintained dirty counter against a full recount:
  // every dirty transition (insert, rewrite of a clean page, eviction,
  // power-loss drop) must have been accounted.
  std::uint64_t dirty_recount = 0;
  pages_.for_each_unordered([&](Lpn, const PageEntry& entry) {
    if (entry.dirty) ++dirty_recount;
  });
  REQB_AUDIT_MSG(report, dirty_recount == dirty_pages_,
                 "dirty counter " + std::to_string(dirty_pages_) +
                     " disagrees with recount " +
                     std::to_string(dirty_recount));

  // Every resident entry must agree with the write oracle: a dirty page
  // holds the newest version outright; a clean page was admitted from
  // flash and every later write would have flipped it dirty in place.
  // With the counts equal, a present byte for every resident key makes
  // the presence map exactly the resident set.
  pages_.for_each_unordered([&](Lpn lpn, const PageEntry& entry) {
    REQB_AUDIT_MSG(report, present_.contains(lpn),
                   "resident page " + std::to_string(lpn) +
                       " is missing from the presence map");
    REQB_AUDIT_MSG(report, entry.version == expected_version(lpn),
                   "page " + std::to_string(lpn) + " cached at version " +
                       std::to_string(entry.version) + ", oracle says " +
                       std::to_string(expected_version(lpn)) +
                       (entry.dirty ? " (dirty)" : " (clean)"));
  });
  REQB_AUDIT_MSG(report, pages_.validate(),
                 "resident-set index disagrees with its slab");

  // Exact page-set equality: the policy tracks precisely the resident set
  // (so the dirty set, a subset of residency, is fully covered by
  // replacement bookkeeping).
  std::size_t policy_pages = 0;
  bool mismatch_logged = false;
  const bool enumerable = policy_->enumerate_pages([&](Lpn lpn) {
    ++policy_pages;
    if (find_resident(lpn) == kNoSlot && !mismatch_logged) {
      report.fail("policy page resident in manager",
                  "policy tracks page " + std::to_string(lpn) +
                      " the manager does not hold");
      mismatch_logged = true;  // one witness is enough; sizes close the set
    }
  });
  if (enumerable) {
    REQB_AUDIT_MSG(report, policy_pages == pages_.size(),
                   "policy enumerates " + std::to_string(policy_pages) +
                       " pages, manager holds " +
                       std::to_string(pages_.size()));
  }

  policy_->audit(report);
}

SimTime CacheManager::power_loss(SimTime at, FaultInjector& fault) {
  policy_->on_power_loss();  // release in-flight eviction guards
  std::uint64_t lost_dirty = 0;
  while (policy_->pages() > 0) {
    const VictimBatch victim = policy_->select_victim();
    REQB_CHECK_MSG(!victim.empty(),
                   "policy withheld pages while draining after power loss");
    for (const Lpn lpn : victim.pages) {
      if (release(lpn).dirty) {
        // The only copy was volatile: the write is gone. Roll the oracle
        // back to the version flash still holds so post-recovery reads
        // verify against the surviving data instead of the lost write.
        ++lost_dirty;
        last_version_.set(lpn, ftl_.version_of(lpn));
      }
    }
  }
  REQB_CHECK(pages_.empty() && present_.empty());
  REQB_CHECK_MSG(dirty_pages_ == 0,
                 "dirty-page counter nonzero after a full drain");

  FaultMetrics& fm = fault.metrics();
  ++fm.power_loss_events;
  fm.lost_dirty_pages += lost_dirty;
  const SimTime recovery =
      fault.plan().power_loss_downtime +
      static_cast<SimTime>(lost_dirty) * fault.plan().recovery_replay_per_page;
  fm.recovery_time_total += recovery;
  emit(EventKind::kPowerLoss, at, recovery, 0, lost_dirty);
  run_audit("CacheManager", AuditLevel::kLight,
            [this](AuditReport& r) { audit(r, audit_level()); });
  return at + recovery;
}

void CacheManager::finalize() {
  pages_.for_each_unordered(
      [this](Lpn, const PageEntry& entry) { retire_entry(entry); });
}

void CacheManager::set_telemetry(TraceBuffer* trace, Profiler* profiler) {
  trace_ = trace != nullptr && trace->enabled(EventCategory::kCache)
               ? trace
               : nullptr;
  profiler_ = profiler;
  policy_->set_trace(trace);
}

void CacheManager::register_metrics(MetricsRegistry& registry) const {
  registry.register_counter("cache.page_lookups", &metrics_.page_lookups);
  registry.register_counter("cache.page_hits", &metrics_.page_hits);
  registry.register_counter("cache.read_hits", &metrics_.read_hits);
  registry.register_counter("cache.write_hits", &metrics_.write_hits);
  registry.register_counter("cache.inserts", &metrics_.inserts);
  registry.register_counter("cache.read_misses", &metrics_.read_misses);
  registry.register_counter("cache.bypass_pages", &metrics_.bypass_pages);
  registry.register_counter("cache.evictions", &metrics_.evictions);
  registry.register_counter("cache.evicted_pages", &metrics_.evicted_pages);
  registry.register_counter("cache.flushed_pages", &metrics_.flushed_pages);
  registry.register_gauge("cache.hit_ratio",
                          [this] { return metrics_.hit_ratio(); });
  registry.register_gauge("cache.resident_pages", [this] {
    return static_cast<double>(pages_.size());
  });
  registry.register_gauge("cache.dirty_pages", [this] {
    return static_cast<double>(dirty_pages_);
  });
  registry.register_counter("cache.bg_flush_batches",
                            &metrics_.bg_flush_batches);
  registry.register_counter("cache.bg_flush_pages",
                            &metrics_.bg_flush_pages);
  registry.register_gauge("cache.eviction_batch_mean", [this] {
    return metrics_.eviction_batch.mean();
  });
  policy_->register_metrics(registry);
}

void CacheManager::reset_metrics() {
  metrics_ = CacheMetrics{};
  const std::uint32_t buckets = kMaxTrackedRequestPages + 1;
  metrics_.inserts_by_req_size.assign(buckets, 0);
  metrics_.hits_by_req_size.assign(buckets, 0);
  metrics_.pages_retired_by_req_size.assign(buckets, 0);
  metrics_.pages_reused_by_req_size.assign(buckets, 0);
  lookup_since_sample_ = 0;
}

void CacheMetrics::serialize(SnapshotWriter& w) const {
  w.tag("cache_metrics");
  write_fields(kCacheMetricsFields, *this, w);
}

std::size_t CacheMetrics::snapshot_bytes() const {
  return SnapshotWriter::tag_bytes("cache_metrics") +
         fields_bytes(kCacheMetricsFields, *this);
}

void CacheMetrics::deserialize(SnapshotReader& r) {
  r.tag("cache_metrics");
  read_fields(kCacheMetricsFields, *this, r);
}

std::size_t CacheManager::snapshot_bytes() const {
  // A page-table entry is the LPN, version, request size, dirty and
  // reused flags; a write-oracle entry the LPN and version.
  const std::size_t pages = pages_.size();
  return SnapshotWriter::tag_bytes("cache") + 8 + (8 + 8 + 4 + 1 + 1) * pages +
         8 + (8 + 8) * last_version_.size() + metrics_.snapshot_bytes() + 8 +
         WriteBufferPolicy::kSnapshotHeaderBytes +
         WriteBufferPolicy::kSnapshotBytesPerPage * pages;
}

void CacheManager::serialize(SnapshotWriter& w) const {
  w.tag("cache");
  // Page table in the presence map's ascending LPN order: slab order
  // depends on which slots were freed when (a restored run holds the same
  // pages in other slots), but equal logical state must produce equal
  // bytes.
  w.u64(pages_.size());
  present_.for_each([&](Lpn lpn, std::uint8_t) {
    const PageEntry& e = pages_[pages_.find(lpn)];
    w.u64(lpn);
    w.u64(e.version);
    w.u32(e.insert_req_pages);
    w.b(e.dirty);
    w.b(e.reused);
  });
  // The write oracle iterates in ascending LPN order too.
  w.u64(last_version_.size());
  last_version_.for_each([&](Lpn lpn, std::uint64_t version) {
    w.u64(lpn);
    w.u64(version);
  });
  metrics_.serialize(w);
  w.u64(lookup_since_sample_);
  policy_->serialize(w);
}

void CacheManager::deserialize(SnapshotReader& r) {
  r.tag("cache");
  REQB_CHECK_MSG(pages_.empty() && present_.empty() && last_version_.empty(),
                 "deserialize into a non-fresh cache manager");
  const std::uint64_t resident = r.count(22);
  pages_.reserve(resident);
  for (std::uint64_t i = 0; i < resident; ++i) {
    const Lpn lpn = r.u64();
    const auto refuse = [lpn](const char* why) {
      return SnapshotError("cache snapshot's page table entry for lpn " +
                           std::to_string(lpn) + why);
    };
    // The write oracle, the L2P and the flash array stop at the same
    // limit, and the presence map cannot hold an LPN beyond it.
    if (lpn > decltype(present_)::kMaxLpn) {
      throw refuse(" is beyond the 32-bit logical page space");
    }
    if (present_.contains(lpn)) throw refuse(" is repeated");
    PageEntry& e = admit(lpn);
    e.version = r.u64();
    e.insert_req_pages = r.u32();
    e.dirty = r.b();
    e.reused = r.b();
    if (e.dirty) ++dirty_pages_;  // derived, not stored
  }
  const std::uint64_t oracle = r.count(16);
  for (std::uint64_t i = 0; i < oracle; ++i) {
    const Lpn lpn = r.u64();
    const std::uint64_t version = r.u64();
    const auto refuse = [lpn](const char* why) {
      return SnapshotError(
          "cache snapshot's write-oracle table entry for lpn " +
          std::to_string(lpn) + why);
    };
    if (lpn > decltype(last_version_)::kMaxLpn) {
      throw refuse(" is beyond the 32-bit logical page space");
    }
    if (version == kNoVersion) {
      throw refuse(" holds the absent sentinel as a version");
    }
    if (last_version_.contains(lpn)) throw refuse(" is repeated");
    last_version_.set(lpn, version);
  }
  metrics_.deserialize(r);
  lookup_since_sample_ = r.u64();
  policy_->deserialize(r);
}

}  // namespace reqblock
